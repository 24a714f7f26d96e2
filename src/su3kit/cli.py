"""Command-line front end.

Subcommands wire every public operation to JSON documents on stdin,
file arguments, and stdout.  A matrix document is

    {"n": 3, "entries": [[[re, im], ...], ...], "metadata": {...}}

with one [re, im] pair per entry; "metadata" is an optional string map
and is ignored.  Numbers are emitted with 17 significant digits so a
parse -> serialize round trip is bit-exact for doubles, which keeps
golden files stable.  Exit codes: 0 success, 2 invalid input, 3
numerical failure; error paths emit {"error": {"code", "message"}}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import REGIMES, TASKS, render_table, run_bench
from .errors import DocumentError, InputError, NumericalError
from .expmap import _check_group, _group_residuals, exp_su3
from .factorlog import LogBranch, branch_log, factorize, principal_log
from .gellmann import exp_gellmann, exp_gellmann8
from .invdec import AlgebraElement, InvariantDecomposition, decompose_nxn, decompose_via_eigen
from .oracle import compare, exp_reference, log_reference
from .smallmat import ComplexMat
from .tolerances import DEFAULT_TOL, Tolerances, with_overrides


# -- document I/O -------------------------------------------------------------

def parse_matrix_document(text: str) -> ComplexMat:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError("matrix document must be a JSON object")
    for key in ("n", "entries"):
        if key not in data:
            raise DocumentError(f"matrix document lacks the {key!r} field")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"n must be a positive integer, got {n!r}")
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise DocumentError(f"entries must be a list of {n} rows")
    rows = []
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"row {r} must be a list of {n} entries")
        out = []
        for c, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float))
                           for v in pair)):
                raise DocumentError(
                    f"entry ({r},{c}) must be a [re, im] pair of numbers")
            out.append(complex(pair[0], pair[1]))
        rows.append(out)
    meta = data.get("metadata")
    if meta is not None and (not isinstance(meta, dict)
                             or any(not isinstance(k, str) or not isinstance(v, str)
                                    for k, v in meta.items())):
        raise DocumentError("metadata must be a string-to-string map")
    return ComplexMat(rows)


def matrix_document(m: ComplexMat) -> dict:
    return {
        "n": m.n,
        "entries": [[[z.real, z.imag] for z in row] for row in m.array.tolist()],
    }


# -- JSON emission ------------------------------------------------------------
# hand-rolled so floats always carry 17 significant digits and key
# order is exactly construction order; the stdlib encoder is only used
# for parsing

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _emit_str(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _emit_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot emit non-finite number {x!r}")
    return format(x, ".17g")


def _inline(xs: list) -> bool:
    if all(_is_number(e) for e in xs):
        return True
    return all(isinstance(e, list) and all(_is_number(q) for q in e) for e in xs)


def emit_json(x, indent: int = 0) -> str:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if x is None:
        return "null"
    if _is_number(x):
        return _emit_number(x)
    if isinstance(x, str):
        return _emit_str(x)
    if isinstance(x, (list, tuple)):
        xs = list(x)
        if not xs:
            return "[]"
        if _inline(xs):
            return "[" + ", ".join(emit_json(e) for e in xs) + "]"
        body = ",\n".join(inner_pad + emit_json(e, indent + 1) for e in xs)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ",\n".join(
            inner_pad + _emit_str(k) + ": " + emit_json(v, indent + 1)
            for k, v in x.items())
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot emit {type(x).__name__}")


# -- shared helpers -----------------------------------------------------------

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _require_unitary(m: ComplexMat, tol: Tolerances) -> None:
    # unitarity only: boundary elements like -1 have det -1 and must
    # still reach the log machinery, which reports them as numerical
    # failures rather than input errors
    _check_group(m.array, tol, special=False)


def _tol_from_args(args) -> Tolerances:
    pairs = getattr(args, "tol_override", None) or []
    changes = {}
    for item in pairs:
        key, eq, val = item.partition("=")
        if not eq or not key:
            raise DocumentError(f"--tol-override expects KEY=VALUE, got {item!r}")
        try:
            changes[key] = float(val)
        except ValueError as exc:
            raise DocumentError(f"tolerance value {val!r} is not a number") from exc
    if not changes:
        return DEFAULT_TOL
    try:
        return with_overrides(DEFAULT_TOL, **changes)
    except KeyError as exc:
        raise DocumentError(f"unknown tolerance field {exc.args[0]!r}") from exc


def _parse_branch(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise DocumentError(f"--branch expects k1,k2,k3, got {text!r}")
    try:
        ks = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DocumentError(f"branch indices must be integers, got {text!r}") from exc
    return ks


# -- subcommands --------------------------------------------------------------

def cmd_decompose(args, tol: Tolerances) -> str:
    m = parse_matrix_document(_read_input(args.input))
    if args.require_su3:
        m = AlgebraElement(m, tol).mat
    if args.nxn:
        dec = InvariantDecomposition(parts=tuple(decompose_nxn(m, tol)), source=m)
    else:
        if m.n != 3:
            raise DocumentError(
                f"decompose expects a 3x3 matrix (got {m.n}x{m.n}); use --nxn")
        dec = decompose_via_eigen(m, tol)
    doc = {
        "parts": [matrix_document(p.mat) for p in dec.parts],
        "lambdas": [[p.lam.real, p.lam.imag] for p in dec.parts],
        "betas": [p.beta for p in dec.parts],
        "sum_error": dec.sum_residual(),
        "max_commutator": dec.max_commutator_residual(),
    }
    return emit_json(doc)


def cmd_exp(args, tol: Tolerances) -> str:
    b = AlgebraElement(parse_matrix_document(_read_input(args.input)), tol)
    doc = {"method": args.method}
    if args.method == "reference":
        u = exp_reference(b)
    else:
        u = exp_su3(b, tol).mat
    doc["u"] = matrix_document(u)
    if args.method == "both":
        uref = exp_reference(b)
        doc["u_reference"] = matrix_document(uref)
        doc["method_distance"] = compare(u, uref)
    doc["unitarity_residual"], doc["det_residual"] = _group_residuals(u.array)
    return emit_json(doc)


def cmd_log(args, tol: Tolerances) -> str:
    m = parse_matrix_document(_read_input(args.input))
    _require_unitary(m, tol)
    if args.method == "reference":
        if args.branch is not None:
            raise DocumentError("--branch applies only to the invariant method")
        log = log_reference(m, tol)
        branch = None
    else:
        ks = _parse_branch(args.branch) if args.branch is not None else (0, 0, 0)
        if ks == (0, 0, 0):
            log = principal_log(m, tol)
        else:
            log = branch_log(m, LogBranch(ks), tol)
        branch = list(ks)
    doc = {
        "method": args.method,
        "branch": branch,
        "log": matrix_document(log),
        "roundtrip_error": compare(exp_reference(log), m),
    }
    return emit_json(doc)


def cmd_factor(args, tol: Tolerances) -> str:
    m = parse_matrix_document(_read_input(args.input))
    _require_unitary(m, tol)
    f = factorize(m, tol)
    g = f.grades
    product = f.factors[0] @ f.factors[1] @ f.factors[2]
    doc = {
        "factors": [matrix_document(x) for x in f.factors],
        "routes": list(f.routes),
        "grades": {
            "g0": matrix_document(g.g0),
            "g2": matrix_document(g.g2),
            "g4": matrix_document(g.g4),
            "g6": matrix_document(g.g6),
        },
        "H": [matrix_document(x) for x in g.H],
        "S": [matrix_document(x) for x in g.S],
        "product_residual": (product - m).frobenius_norm(),
    }
    return emit_json(doc)


def cmd_bench(args, tol: Tolerances) -> str:
    report = run_bench(args.task, args.regime, args.n, args.seed, tol)
    return emit_json(report.as_dict()) + "\n" + render_table(report)


def cmd_gellmann(args, tol: Tolerances) -> str:
    a = args.a
    if not 1 <= a <= 8:
        raise DocumentError(f"generator index must be 1..8, got {a}")
    if a == 8:
        u = exp_gellmann8(args.theta, tol)
    else:
        u = exp_gellmann(a, args.theta, tol)
    doc = {"a": a, "theta": args.theta, "u": matrix_document(u.mat)}
    return emit_json(doc)


# -- wiring -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-override", action="append", default=[],
                        metavar="KEY=VALUE", dest="tol_override",
                        help="override one tolerance field (repeatable)")

    parser = argparse.ArgumentParser(
        prog="su3kit",
        description="commuting-part decompositions, exponentials, "
                    "factorizations and logarithms of SU(3) elements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common],
                       help="split a matrix into commuting simple parts")
    p.add_argument("input", help="matrix document path, or - for stdin")
    p.add_argument("--nxn", action="store_true",
                   help="general n x n route instead of the 3x3 one")
    p.add_argument("--require-su3", action="store_true", dest="require_su3",
                   help="reject inputs that are not traceless skew-Hermitian")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("exp", parents=[common],
                       help="exponential of an su(3) element")
    p.add_argument("input", help="matrix document path, or - for stdin")
    p.add_argument("--method", choices=("invariant", "reference", "both"),
                   default="invariant")
    p.set_defaults(handler=cmd_exp)

    p = sub.add_parser("log", parents=[common],
                       help="logarithm of a unitary 3x3 matrix")
    p.add_argument("input", help="matrix document path, or - for stdin")
    p.add_argument("--method", choices=("invariant", "reference"),
                   default="invariant")
    p.add_argument("--branch", default=None, metavar="K1,K2,K3",
                   help="winding numbers for a non-principal branch")
    p.set_defaults(handler=cmd_log)

    p = sub.add_parser("factor", parents=[common],
                       help="split a unitary into three Euler factors")
    p.add_argument("input", help="matrix document path, or - for stdin")
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("bench", parents=[common],
                       help="timing/accuracy report for one task and regime")
    p.add_argument("--task", choices=TASKS, default="exp")
    p.add_argument("--regime", choices=REGIMES, default="generic")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("gellmann", parents=[common],
                       help="one-parameter subgroup of a Gell-Mann generator")
    p.add_argument("--a", type=int, required=True, metavar="A",
                   help="generator index 1..8")
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(handler=cmd_gellmann)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tol_from_args(args)
        out = args.handler(args, tol)
    except InputError as exc:
        print(emit_json({"error": {"code": exc.code, "message": str(exc)}}))
        return 2
    except NumericalError as exc:
        print(emit_json({"error": {"code": exc.code, "message": str(exc)}}))
        return 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
