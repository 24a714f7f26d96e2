"""The four workloads as seeded pools of ops.

An op is one public su3kit call on a raw complex128 array (or a JSON
document for the CLI), including the AlgebraElement / GroupElement /
document validation a caller pays for.  Each op carries the reference
op that is timed right after it on the same input, and the judge that
checks its output outside the timed region:

    exp        relative distance to oracle.exp_reference(B)      <= 1e-10
    log        round trip: exp_reference(L) against U            <= 1e-9
    factorize  product of the three factors against U            <= 1e-10
    decompose  sum of the parts against the input                 <= 1e-10
               (n x n: 1e-9)

These are the acceptance-suite levels.  A result that misses its level
counts as failed; a structured Su3KitError counts as failed; any other
exception propagates and aborts the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
from typing import Callable, Iterator

import numpy as np

from su3kit import (
    GroupElement,
    LogBranch,
    Su3KitError,
    branch_log,
    exp_reference,
    exp_su3,
    factorize,
    principal_log,
)
from su3kit import cli

from . import gen, refops

WARMUP = 20
COVERAGE = 10

EXP_LIMIT = 1e-10
LOG_LIMIT = 1e-9
FACTOR_LIMIT = 1e-10
DECOMPOSE_LIMIT = 1e-10
NXN_LIMIT = 1e-9

# inputs per pool; the closed loop runs whole passes over the pool
POOL_SIZE = {"exp-stream": 1000, "log-haar": 800, "hard-regimes": 400, "cli-docs": 400}


@dataclasses.dataclass(eq=False)
class Op:
    kind: str                       # the public call, e.g. "exp_su3", "cli.log"
    family: str                     # input family, e.g. "haar", "near_cos_zero"
    arr: np.ndarray                 # B for exp ops, U for log ops, the document's matrix for CLI ops
    call: Callable[[], object]      # the timed public call
    ref: Callable[[], object]       # the reference op on the same input
    judge: Callable[[object], float]  # relative error of a returned result
    limit: float
    branch: tuple[int, int, int] | None = None  # winding of a branch_log op
    doc: str | None = None                      # JSON text of a CLI op


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / max(1, ||b||_F), the measure su3kit bench uses."""
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


class _ExpJudge:
    """Distance to exp_reference(B); the oracle value is computed once per input."""

    def __init__(self, b: np.ndarray):
        self.b = b
        self.target = None

    def __call__(self, u: np.ndarray) -> float:
        if self.target is None:
            self.target = exp_reference(self.b).array
        return rel_err(u, self.target)


class _RoundTripJudge:
    """exp_reference(L) against U; the verdict is reused while L repeats bit for bit."""

    def __init__(self, u: np.ndarray):
        self.u = u
        self.seen = None

    def __call__(self, log: np.ndarray) -> float:
        key = log.tobytes()
        if self.seen is None or self.seen[0] != key:
            self.seen = (key, rel_err(exp_reference(log).array, self.u))
        return self.seen[1]


def _product_err(factors, u: np.ndarray) -> float:
    return rel_err(factors[0] @ factors[1] @ factors[2], u)


# -- library ops ------------------------------------------------------------------

def exp_op(b: np.ndarray, family: str) -> Op:
    judge = _ExpJudge(b)
    return Op("exp_su3", family, b, lambda: exp_su3(b),
              lambda: refops.exp_ref(b), lambda g: judge(g.mat.array), EXP_LIMIT)


def log_op(u: np.ndarray, family: str, kind: str, branch=None) -> Op:
    if kind == "factorize":
        return Op(kind, family, u, lambda: factorize(GroupElement(u)), lambda: refops.log_ref(u),
                  lambda f: _product_err([x.array for x in f.factors], u), FACTOR_LIMIT)
    judge = _RoundTripJudge(u)
    if kind == "principal_log":
        call = lambda: principal_log(GroupElement(u))
    else:
        call = lambda: branch_log(GroupElement(u), LogBranch(branch))
    return Op(kind, family, u, call, lambda: refops.log_ref(u),
              lambda m: judge(m.array), LOG_LIMIT, branch=branch)


def _exp_stream(rng) -> Iterator[Op]:
    for i in itertools.count():
        if i % 2 == 0:
            yield exp_op(gen.algebra(rng), "generic")
        else:
            yield exp_op(gen.small_algebra(rng), "small")


_WINDINGS = [k for k in itertools.product((-1, 0, 1), repeat=3) if k != (0, 0, 0)]


def _log_haar(rng) -> Iterator[Op]:
    for i in itertools.count():
        u = gen.haar_su3(rng)
        if i % 4 in (0, 1):
            yield log_op(u, "haar", "principal_log")
        elif i % 4 == 2:
            yield log_op(u, "haar", "factorize")
        else:
            k = _WINDINGS[int(rng.integers(len(_WINDINGS)))]
            yield log_op(u, "haar", "branch_log", k)


def _hard_regimes(rng, fixed) -> Iterator[Op]:
    for i in itertools.count():
        family, phases = gen.HARD_FAMILIES[i % 4]
        src = fixed if family in gen.FIXED_FAMILIES else rng
        b, u = gen.from_phases(phases(src), src)
        yield exp_op(b, family)
        yield log_op(u, family, "principal_log" if (i // 4) % 2 == 0 else "factorize")


# -- CLI ops ----------------------------------------------------------------------

def _cli_failure(text: str, rc: int) -> Su3KitError:
    try:
        code = json.loads(text)["error"]["code"]
    except (ValueError, KeyError, TypeError):
        code = "exit_%d" % rc
    exc = Su3KitError("su3kit exited with %d: %s" % (rc, text.strip()))
    exc.code = code
    return exc


def run_cli(argv: list[str]) -> str:
    """cli.main(argv) with stdout captured; a nonzero exit raises the structured error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    if rc != 0:
        raise _cli_failure(text, rc)
    return text


def _doc_matrix(d) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in d["entries"]])


def _cli_judge(kind: str, a: np.ndarray) -> Callable[[str], float]:
    if kind == "cli.exp":
        exp_judge = _ExpJudge(a)
        return lambda text: exp_judge(_doc_matrix(json.loads(text)["u"]))
    if kind == "cli.log":
        rt_judge = _RoundTripJudge(a)
        return lambda text: rt_judge(_doc_matrix(json.loads(text)["log"]))
    if kind == "cli.factor":
        return lambda text: _product_err(
            [_doc_matrix(f) for f in json.loads(text)["factors"]], a)
    return lambda text: rel_err(sum(_doc_matrix(p) for p in json.loads(text)["parts"]), a)


_CLI_KINDS = (
    ("cli.decompose", ["decompose"], refops.eig_exp, DECOMPOSE_LIMIT),
    ("cli.decompose-nxn", ["decompose", "--nxn"], refops.eig_exp, NXN_LIMIT),
    ("cli.exp", ["exp"], refops.eig_exp, EXP_LIMIT),
    ("cli.log", ["log"], refops.eig_log, LOG_LIMIT),
    ("cli.factor", ["factor"], refops.eig_log, FACTOR_LIMIT),
)


def _cli_docs(rng, doc_dir: str) -> Iterator[Op]:
    for i in itertools.count():
        kind, args, eig, limit = _CLI_KINDS[i % 5]
        if kind == "cli.decompose" or kind == "cli.exp":
            a, family = gen.algebra(rng), "generic"
        elif kind == "cli.decompose-nxn":
            n = 4 + (i // 5) % 5
            a, family = gen.diagonalizable(rng, n), "n%d" % n
        else:
            a, family = gen.haar_su3(rng), "haar"
        text = gen.matrix_document(a)
        path = os.path.join(doc_dir, "doc%05d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = args + [path]
        yield Op(kind, family, a, lambda argv=argv: run_cli(argv),
                 lambda text=text, eig=eig: refops.cli_ref(text, eig),
                 _cli_judge(kind, a), limit, doc=text)


def build(workload: str, seed: int, doc_dir: str, count: int | None = None) -> list[Op]:
    """The first ``count`` ops (default: the whole pool) of a workload at a seed.

    CLI documents are written under doc_dir, which must exist.
    """
    rng = gen.rng_for(workload, seed)
    if workload == "exp-stream":
        ops = _exp_stream(rng)
    elif workload == "log-haar":
        ops = _log_haar(rng)
    elif workload == "hard-regimes":
        ops = _hard_regimes(rng, gen.fixed_rng(workload))
    else:
        ops = _cli_docs(rng, doc_dir)
    n = count if count is not None else POOL_SIZE[workload] * (2 if workload == "hard-regimes" else 1)
    return list(itertools.islice(ops, n))


def coverage(seed: int, doc_dir: str) -> list[Op]:
    """The first COVERAGE ops of every workload: enough to call every traced function once."""
    cover_dir = os.path.join(doc_dir, "coverage")
    os.makedirs(cover_dir, exist_ok=True)
    return [op for w in gen.WORKLOAD_STREAMS for op in build(w, seed, cover_dir, count=COVERAGE)]


def warm_up(pool: list[Op]) -> None:
    """The warm-up ops that setup_s includes: the first WARMUP public calls."""
    for op in itertools.islice(itertools.cycle(pool), WARMUP):
        try:
            op.call()
        except Su3KitError:
            pass
