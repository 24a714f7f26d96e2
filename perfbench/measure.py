"""The closed loop and the end-to-end metrics it yields.

Latency is reported against the reference op timed right after each op
on the same input: p50_vs_ref and p90_vs_ref are quantiles of the
per-op ratio, throughput_vs_ref is the success rate per unit of op time
over the reference's rate per unit of its own time.  Absolute
microseconds are kept for the report lines and the traced run; they
drift with the machine (see README.md) and carry no bound.
"""

from __future__ import annotations

import collections
import math
import statistics
import time

import numpy as np
from su3kit import Su3KitError

ERR_FLOOR = 1e-17  # err_digits of an exact result

END_TO_END = (
    ("p50_vs_ref", "ratio"),
    ("p90_vs_ref", "ratio"),
    ("throughput_vs_ref", "ratio"),
    ("ok_frac", "ratio"),
    ("err_digits", "digits"),
    ("setup_s", "s"),
)


def closed_loop(pool, seconds: float, between_passes=None) -> dict:
    """Whole passes over the pool until `seconds` have passed.

    between_passes, if given, is called after each pass, outside the
    timed regions.  Every call is judged.  "attempted" and "failed"
    count the pool's inputs, an input failing if any of its calls did,
    so they do not depend on how many passes the time allowed; "calls"
    and "failed_calls" count calls.
    """
    op_ns, ref_ns = [], []
    failed = wrong = 0
    bad = set()
    worst = None
    fails = collections.Counter()
    tries = collections.Counter()
    perf_ns = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(pool):
            t0 = perf_ns()
            try:
                out = op.call()
                code = None
            except Su3KitError as exc:
                code = exc.code
            t1 = perf_ns()
            op.ref()
            t2 = perf_ns()
            op_ns.append(t1 - t0)
            ref_ns.append(t2 - t1)
            tries[op.kind, op.family] += 1
            if code is None:
                err = op.judge(out)
                worst = err if worst is None else max(worst, err)
                if not err <= op.limit:
                    code = "check.wrong"
                    wrong += 1
            if code is not None:
                failed += 1
                bad.add(i)
                fails[op.kind, op.family, code] += 1
        if between_passes is not None:
            between_passes()
        if time.perf_counter() >= deadline:
            break
    n = len(op_ns)
    ok = n - failed
    return {
        "op_ns": op_ns, "ref_ns": ref_ns, "attempted": len(pool), "failed": len(bad),
        "calls": n, "failed_calls": failed, "wrong": wrong,
        "worst": worst, "fails": fails, "tries": tries, "wall_per_op": (sum(op_ns) + sum(ref_ns)) / 1e9 / n,
        "ops_per_s": ok / (sum(op_ns) / 1e9),
        "p50_us": statistics.median(op_ns) / 1e3,
        "p90_us": float(np.percentile(op_ns, 90)) / 1e3,
        "failed_frac": failed / n,
    }


def end_to_end(res: dict, setup_s: float) -> dict:
    ratios = np.array(res["op_ns"]) / np.array(res["ref_ns"])
    n, ok = res["calls"], res["calls"] - res["failed_calls"]
    worst = res["worst"]
    return {
        "p50_vs_ref": float(np.median(ratios)),
        "p90_vs_ref": float(np.percentile(ratios, 90)),
        "throughput_vs_ref": (ok / sum(res["op_ns"])) / (n / sum(res["ref_ns"])),
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "err_digits": -math.log10(max(worst, ERR_FLOOR)) if worst is not None else 0.0,
        "setup_s": setup_s,
    }
