"""Traced pass: the public functions of each su3kit module, timed from outside.

One traced pass runs every op of the pool once, so counts repeat
exactly for a seed.  For each op it records spans (name, start, end,
parent, op id) at the module boundaries the op crosses, in the order the
pipeline uses them, plus counts (routes, refusals, failure codes).
Spans live in memory and are written out when the run ends.  A short
coverage pass over the first ops of every workload times the functions
the workload itself never calls.

The program is not instrumented: a stage that runs inside a public call
is timed by calling its public function again on the same input.  An
exp_su3 op is recomposed from its stages (AlgebraElement ->
decompose_via_eigen -> exp_simple x3 -> product -> GroupElement), and
the share of the op span that the stages do not account for is reported
as ``expmap.exp_su3.stage_gap``.
"""

from __future__ import annotations

import collections
import json
import statistics
import time

import numpy as np

from su3kit import (
    AlgebraElement,
    ComplexMat,
    DegenerateLambdas,
    GroupElement,
    LogBranch,
    Su3KitError,
    branch_log,
    decompose_closed_form,
    decompose_nxn,
    decompose_via_eigen,
    eigen_general,
    eigen_normal3,
    exp_reference,
    exp_simple,
    factorize,
    lambda_roots,
    log_reference,
    principal_log,
    principal_log_factor,
    split_HS,
)
from su3kit.cli import emit_json, parse_matrix_document

from . import refops

# timed functions: each gets .p50_us, .busy_s and .calls
TIMINGS = (
    "smallmat.ComplexMat",
    "smallmat.eigen_normal3.alg",
    "smallmat.eigen_normal3.grp",
    "smallmat.eigen_general",
    "invdec.AlgebraElement",
    "invdec.decompose_via_eigen",
    "invdec.lambda_roots",
    "invdec.decompose_closed_form",
    "invdec.decompose_nxn",
    "expmap.exp_su3",
    "expmap.exp_simple",
    "expmap.GroupElement",
    "grades.split_HS",
    "factorlog.factorize",
    "factorlog.principal_log",
    "factorlog.branch_log",
    "factorlog.principal_log_factor",
    "oracle.exp_reference",
    "oracle.log_reference",
    "cli.parse_matrix_document",
    "cli.emit_json",
    "cli.main.decompose",
    "cli.main.decompose-nxn",
    "cli.main.exp",
    "cli.main.log",
    "cli.main.factor",
    "ref.eig_exp",
    "ref.eig_log",
    "ref.small_calls",
)
P90_TIMINGS = ("smallmat.eigen_normal3.alg", "smallmat.eigen_normal3.grp")
LAYERS = ("smallmat", "invdec", "expmap", "grades", "factorlog", "oracle", "cli")
ROUTES = ("simple", "inv_a", "inv_b", "inv2", "closing")
FAIL_CODES = ("factorization_failed", "ambiguous_direction", "missing_direction", "other")
_FALLBACK_ROUTES = ("inv_a", "inv_b", "inv2")

# (name, unit, better) for every per-layer metric, in print order
METRICS = (
    [(f"{t}.{s}", u, "lower" if s != "calls" else "higher")
     for t in TIMINGS for s, u in (("p50_us", "us"), ("busy_s", "s"), ("calls", "count"))]
    + [(f"{t}.p90_us", "us", "lower") for t in P90_TIMINGS]
    + [
        ("invdec.decompose_via_eigen.self_p50_us", "us", "lower"),
        ("invdec.closed_form.refusal_ratio", "ratio", "lower"),
        ("expmap.validation_share", "ratio", "lower"),
        ("expmap.exp_su3.vs_oracle", "ratio", "lower"),
        ("expmap.exp_su3.stage_gap", "ratio", "lower"),
        ("grades.split_HS.self_p50_us", "us", "lower"),
        ("factorlog.canonicalize.self_p50_us", "us", "lower"),
        ("factorlog.principal_log.vs_oracle", "ratio", "lower"),
        ("factorlog.fallback_ratio", "ratio", "lower"),
    ]
    + [(f"factorlog.route.{r}", "count", "higher" if r in ("simple", "closing") else "lower")
       for r in ROUTES]
    + [(f"factorlog.fail.{c}", "count", "lower") for c in FAIL_CODES]
    + [(f"{layer}.failed", "count", "lower") for layer in LAYERS]
    + [
        ("check.wrong", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("e2e.ops_per_s", "1/s", "higher"),
        ("e2e.p50_us", "us", "lower"),
        ("e2e.p90_us", "us", "lower"),
        ("e2e.failed_frac", "ratio", "lower"),
    ]
)


class Tracer:
    """In-memory spans [name, start_ns, end_ns, parent, op] and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = 0

    def open(self, name: str, parent: int) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()

    def call(self, name: str, parent: int, fn, *args):
        """fn(*args) inside a span; a Su3KitError counts against the span's layer."""
        idx = self.open(name, parent)
        try:
            return fn(*args)
        except Su3KitError:
            self.counts[name.split(".")[0] + ".failed"] += 1
            raise
        finally:
            self.close(idx)

    def durations(self) -> dict[str, list[int]]:
        out = collections.defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out


def _product(factors):
    out = ComplexMat.identity(3)
    for f in factors:
        out = out @ f
    return out


def _closed_form(el, lams):
    # a DegenerateLambdas refusal is the closed form's designed answer, not a failure
    try:
        return decompose_closed_form(el, lams)
    except DegenerateLambdas:
        return None


def _trace_exp(tr: Tracer, op, top: int) -> None:
    try:
        tr.call("expmap.exp_su3", top, op.call)
    except Su3KitError:
        pass
    m = tr.call("smallmat.ComplexMat", top, ComplexMat, op.arr)
    try:
        tr.call("smallmat.eigen_normal3.alg", top, eigen_normal3, m)
    except Su3KitError:
        pass
    rec = tr.open("expmap.exp_su3.recomposed", top)
    try:
        el = tr.call("invdec.AlgebraElement", rec, AlgebraElement, op.arr)
        dec = tr.call("invdec.decompose_via_eigen", rec, decompose_via_eigen, el.mat)
        factors = [tr.call("expmap.exp_simple", rec, exp_simple, p).mat
                   for p in dec.parts if p.unit is not None]
        out = tr.call("expmap.product", rec, _product, factors)
        tr.call("expmap.GroupElement", rec, GroupElement, out)
    except Su3KitError:
        tr.counts["trace.recompose_failed"] += 1
        el = None
    tr.close(rec)
    if el is not None:
        try:
            lams = tr.call("invdec.lambda_roots", top, lambda_roots, el)
            tr.counts["closed_form.attempts"] += 1
            if tr.call("invdec.decompose_closed_form", top, _closed_form, el, lams) is None:
                tr.counts["closed_form.refusals"] += 1
        except Su3KitError:
            pass
    tr.call("oracle.exp_reference", top, exp_reference, op.arr)
    tr.call("ref.eig_exp", top, refops.eig_exp, op.arr)
    tr.call("ref.small_calls", top, refops.small_calls, op.arr)


def _trace_log(tr: Tracer, op, top: int) -> None:
    kind = op.kind
    fz = None
    pub = tr.open("op." + kind, top)
    try:
        g = tr.call("expmap.GroupElement", pub, GroupElement, op.arr)
        if kind == "factorize":
            fz = tr.call("factorlog.factorize", pub, factorize, g)
        elif kind == "principal_log":
            tr.call("factorlog.principal_log", pub, principal_log, g)
        else:
            tr.call("factorlog.branch_log", pub, branch_log, g, LogBranch(op.branch))
    except Su3KitError as exc:
        code = exc.code if exc.code in FAIL_CODES else "other"
        tr.counts["factorlog.fail." + code] += 1
    tr.close(pub)
    m = tr.call("smallmat.ComplexMat", top, ComplexMat, op.arr)
    try:
        tr.call("smallmat.eigen_normal3.grp", top, eigen_normal3, m)
        tr.call("grades.split_HS", top, split_HS, m)
        if kind != "factorize":
            fz = tr.call("factorlog.factorize", top, factorize, m)
        if fz is not None:
            for r in fz.routes:
                tr.counts["factorlog.route." + r] += 1
            for f in fz.factors:
                tr.call("factorlog.principal_log_factor", top, principal_log_factor, f)
    except Su3KitError:
        pass
    try:
        tr.call("oracle.log_reference", top, log_reference, m)
    except Su3KitError:
        pass
    tr.call("ref.eig_log", top, refops.eig_log, op.arr)
    tr.call("ref.small_calls", top, refops.small_calls, op.arr)


def _trace_cli(tr: Tracer, op, top: int) -> None:
    sub = op.kind.split(".", 1)[1]
    try:
        text = tr.call("cli.main." + sub, top, op.call)
    except Su3KitError:
        text = None
    m = tr.call("cli.parse_matrix_document", top, parse_matrix_document, op.doc)
    if text is not None:
        tr.call("cli.emit_json", top, emit_json, json.loads(text))
    if sub == "decompose-nxn":
        try:
            tr.call("smallmat.eigen_general", top, eigen_general, m)
            tr.call("invdec.decompose_nxn", top, decompose_nxn, m)
        except Su3KitError:
            pass
    eig = refops.eig_log if sub in ("log", "factor") else refops.eig_exp
    tr.call("ref." + eig.__name__, top, eig, op.arr)
    tr.call("ref.small_calls", top, refops.small_calls, op.arr)


def traced_pass(pool) -> tuple[Tracer, float]:
    """One traced pass over the pool; returns the tracer and its wall time in seconds."""
    tr = Tracer()
    t0 = time.perf_counter()
    for i, op in enumerate(pool):
        tr.op = i
        top = tr.open("op", -1)
        if op.kind == "exp_su3":
            _trace_exp(tr, op, top)
        elif op.kind.startswith("cli."):
            _trace_cli(tr, op, top)
        else:
            _trace_log(tr, op, top)
        tr.close(top)
    return tr, time.perf_counter() - t0


def _p50_us(xs) -> float:
    return statistics.median(xs) / 1e3 if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stage_gap(tr: Tracer) -> float:
    """Median over exp ops of 1 - (sum of recomposed stage spans) / (exp_su3 span)."""
    op_ns, rec_of, stage_ns = {}, {}, collections.Counter()
    for idx, (name, start, end, parent, op) in enumerate(tr.spans):
        if name == "expmap.exp_su3":
            op_ns[op] = end - start
        elif name == "expmap.exp_su3.recomposed":
            rec_of[idx] = op
    for name, start, end, parent, op in tr.spans:
        if parent in rec_of:
            stage_ns[op] += end - start
    gaps = [1.0 - stage_ns[op] / op_ns[op] for op in rec_of.values() if op in op_ns and op_ns[op]]
    return statistics.median(gaps) if gaps else 0.0


def per_layer(tr: Tracer, cover: Tracer, traced_wall: float, untraced: dict) -> dict[str, float]:
    """Every per-layer metric from a traced pass, the coverage pass and the untraced loop.

    Timings and the stage gap come from the workload's own pass; a
    function the workload never calls is timed on the coverage pass
    instead, so that every timing is a measurement.  Counts come from
    the workload's pass only.
    """
    d = tr.durations()
    dc = cover.durations()
    c = tr.counts
    v: dict[str, float] = {}
    for t in TIMINGS:
        xs = d.get(t) or dc.get(t, [])
        v[t + ".p50_us"] = _p50_us(xs)
        v[t + ".busy_s"] = sum(xs) / 1e9
        v[t + ".calls"] = len(xs)
    for t in P90_TIMINGS:
        xs = d.get(t) or dc.get(t, [])
        v[t + ".p90_us"] = float(np.percentile(xs, 90)) / 1e3 if xs else 0.0
    v["invdec.decompose_via_eigen.self_p50_us"] = (
        v["invdec.decompose_via_eigen.p50_us"] - v["smallmat.eigen_normal3.alg.p50_us"])
    v["invdec.closed_form.refusal_ratio"] = _ratio(c["closed_form.refusals"], c["closed_form.attempts"])
    v["expmap.validation_share"] = _ratio(
        v["invdec.AlgebraElement.p50_us"] + v["expmap.GroupElement.p50_us"], v["expmap.exp_su3.p50_us"])
    v["expmap.exp_su3.vs_oracle"] = _ratio(v["expmap.exp_su3.p50_us"], v["oracle.exp_reference.p50_us"])
    v["expmap.exp_su3.stage_gap"] = _stage_gap(tr if d.get("expmap.exp_su3") else cover)
    v["grades.split_HS.self_p50_us"] = v["grades.split_HS.p50_us"] - v["smallmat.eigen_normal3.grp.p50_us"]
    v["factorlog.canonicalize.self_p50_us"] = (
        v["factorlog.principal_log.p50_us"] - v["factorlog.factorize.p50_us"])
    v["factorlog.principal_log.vs_oracle"] = _ratio(
        v["factorlog.principal_log.p50_us"], v["oracle.log_reference.p50_us"])
    recovered = sum(c["factorlog.route." + r] for r in ROUTES if r != "closing")
    v["factorlog.fallback_ratio"] = _ratio(
        sum(c["factorlog.route." + r] for r in _FALLBACK_ROUTES), recovered)
    for r in ROUTES:
        v["factorlog.route." + r] = c["factorlog.route." + r]
    for code in FAIL_CODES:
        v["factorlog.fail." + code] = c["factorlog.fail." + code]
    for layer in LAYERS:
        v[layer + ".failed"] = c[layer + ".failed"]
    v["check.wrong"] = untraced["wrong"]
    v["trace.overhead"] = _ratio(traced_wall / len(d["op"]), untraced["wall_per_op"])
    v["e2e.ops_per_s"] = untraced["ops_per_s"]
    v["e2e.p50_us"] = untraced["p50_us"]
    v["e2e.p90_us"] = untraced["p90_us"]
    v["e2e.failed_frac"] = untraced["failed_frac"]
    return v


def spans_document(tr: Tracer) -> dict:
    """Spans as name-indexed rows [name, start_ns, end_ns, parent, op]."""
    names = sorted({s[0] for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start_ns", "end_ns", "parent", "op"],
        "spans": [[index[n], s, e, p, o] for n, s, e, p, o in tr.spans],
        "counts": dict(tr.counts),
    }
