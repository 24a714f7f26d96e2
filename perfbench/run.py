"""su3kit benchmark: four closed-loop workloads with reference-normalised latency.

    python3 perfbench/run.py --workload exp-stream --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from src/ beside this
directory.  One process, one thread, BLAS pinned to one thread.  The
loop sends the next op only when the previous one has returned, and
runs whole passes over a seeded pool of inputs until --seconds have
passed.  Each op is followed by the benchmark's own reference op on the
same input (see refops.py), and every output is checked outside the
timed region (see workloads.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of one traced pass (see tracing.py) and writes its spans to
.perfbench_out/.  Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
Exit status is nonzero, with no JSON line, when su3kit cannot be
imported or an op raises anything other than a structured Su3KitError.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
from perfbench.gen import WORKLOAD_STREAMS  # noqa: E402  (numpy only, no su3kit)
from perfbench.refops import SPEED_NOMINAL_US  # noqa: E402  (numpy only, no su3kit)

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 15


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


class SetupProbes:
    """setup_s: fresh processes that import su3kit and run the warm-up ops.

    Each probe also times refops.speed_probe right after its set-up, and
    its set-up time is scaled by SPEED_NOMINAL_US / that time: seconds at
    the build machine's fast-state speed.  Unscaled, set-up time tracked
    the machine's drift (a 4-minute slow spell raised the median of ten
    runs by 54%), which a ratio cannot absorb because setup_s must stay
    in seconds.  One probe runs between passes of the closed loop, the
    rest at the end; setup_s is the median of the scaled times.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
                     workload, str(seed)]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def probe(self) -> None:
        if len(self.raw) >= SETUP_PROBES:
            return
        doc_dir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
        try:
            done = subprocess.run(self.argv + [doc_dir], capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
        finally:
            shutil.rmtree(doc_dir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + done.stderr)
        seconds, speed_us = (float(x) for x in done.stdout.split())
        self.raw.append(seconds)
        self.scaled.append(seconds * SPEED_NOMINAL_US / speed_us)

    def median(self) -> float:
        while len(self.raw) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.scaled)


def report_lines(args, env: dict, res: dict) -> list[str]:
    lines = [
        f"# su3kit benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"# inputs attempted={res['attempted']} failed={res['failed']}; calls={res['calls']} "
        f"failed={res['failed_calls']} wrong={res['wrong']} "
        f"ops_per_s={res['ops_per_s']:.6g} 1/s p50_us={res['p50_us']:.6g} us "
        f"p90_us={res['p90_us']:.6g} us failed_frac={res['failed_frac']:.6g}",
    ]
    for (kind, family, code), count in sorted(res["fails"].items()):
        lines.append(f"# fail {kind} {family} {code}: {count}/{res['tries'][kind, family]}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOAD_STREAMS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        from perfbench import measure, tracing, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import su3kit from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    doc_dir = tempfile.mkdtemp(prefix="docs-", dir=OUT_DIR)
    try:
        pool = workloads.build(args.workload, args.seed, doc_dir)
        workloads.warm_up(pool)
        for op in pool[:workloads.WARMUP]:
            op.ref()
        probes = SetupProbes(args.workload, args.seed) if args.trace == 0 else None
        res = measure.closed_loop(pool, args.seconds, probes.probe if probes else None)
        if args.trace == 0:
            values = measure.end_to_end(res, probes.median())
            units = dict(measure.END_TO_END)
        else:
            tr, wall = tracing.traced_pass(pool)
            cover, _ = tracing.traced_pass(workloads.coverage(args.seed, doc_dir))
            values = tracing.per_layer(tr, cover, wall, res)
            units = {name: unit for name, unit, _ in tracing.METRICS}
            spans = dict(tracing.spans_document(tr), env=env, workload=args.workload, seed=args.seed)
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
    finally:
        shutil.rmtree(doc_dir, ignore_errors=True)
    for line in report_lines(args, env, res):
        print(line)
    if probes is not None:
        print(f"# setup unscaled median={statistics.median(probes.raw):.6g} s over {len(probes.raw)} probes")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
