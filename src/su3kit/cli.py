"""Command-line front end.

Subcommands wire every public operation to JSON documents on stdin,
file arguments, and stdout.  A matrix document is

    {"n": 3, "entries": [[[re, im], ...], ...], "metadata": {...}}

with one [re, im] pair per entry; "metadata" is an optional string map
and is ignored.  Numbers are emitted with 17 significant digits so a
parse -> serialize round trip is bit-exact for doubles, which keeps
golden files stable.  Exit codes: 0 success, 2 invalid input, 3
numerical failure; error paths emit {"error": {"code", "message"}}.
An unreadable document (not UTF-8, nested too deeply, a number too
large for a double) and an invalid --tol-override value are invalid
input.

A matrix document is parsed by ``json.loads`` and accepted with a few
checks on the types and lengths of its rows, pairs and numbers over
the whole document at once, after which its numbers become one float64
array viewed as complex (``_entries_array``).  Only a document that
fails them is walked entry by entry, to word the refusal of its first
malformed row or entry (``_refuse_entries``).

A call costs little beyond its math: ``main`` builds the argument
parser once per process, on its first call, and reuses it, and
``emit_json`` writes a document in one pass that visits each node once.
A matrix document, as ``matrix_document`` builds it, is one node to
that pass: it is written with one ``%`` over its floats, into a
template of its size and depth that the generic writer laid out once
(``_matrix_template``).  A document with a NaN or inf goes through the
generic writer, which refuses it.  None of this changes an output
byte; the golden fixtures pin it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from .bench import REGIMES, TASKS, render_table, run_bench
from .errors import DocumentError, InputError, NumericalError
from .expmap import _check_group, _group_residuals, exp_su3
from .factorlog import branch_log, factorize
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
    except RecursionError as exc:
        raise DocumentError("input nests too deeply to parse") from exc
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
    arr = _entries_array(entries, n)
    if arr is None:
        _refuse_entries(entries, n)
    meta = data.get("metadata")
    if meta is not None and (not isinstance(meta, dict)
                             or any(not isinstance(k, str) or not isinstance(v, str)
                                    for k, v in meta.items())):
        raise DocumentError("metadata must be a string-to-string map")
    return ComplexMat(arr)


def _entries_array(entries: list, n: int) -> np.ndarray | None:
    """The n x n complex array of well-formed entries; None if any entry is not.

    json.loads builds exact lists, ints and floats, so exact type tests
    accept what ``_refuse_entries`` lets pass and no more (bools, strings
    and null fail them).  Each number becomes the double complex() would
    make of it; an int too large for one is left to ``_refuse_entries``.
    """
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {n}:
        return None
    pairs = list(itertools.chain.from_iterable(entries))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {float, int}:
        return None
    try:
        return np.array(flat, dtype=np.float64).view(np.complex128).reshape(n, n)
    except OverflowError:
        return None


def _refuse_entries(entries: list, n: int) -> None:
    """Refuse the first malformed row or entry, checked one at a time in row order.

    It runs only where ``_entries_array`` declined, and every document
    that it declines has one: a row that is not a list of n pairs, a pair
    that is not two numbers, or a number too large for a double.
    """
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"row {r} must be a list of {n} entries")
        for c, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float))
                           for v in pair)):
                raise DocumentError(
                    f"entry ({r},{c}) must be a [re, im] pair of numbers")
            try:
                complex(pair[0], pair[1])
            except OverflowError as exc:
                raise DocumentError(f"entry ({r},{c}) is too large for a double") from exc


class _MatrixDocument(dict):
    """A document ``matrix_document`` built, which ``_emit`` writes from a template.

    ``floats`` holds the entries' [re, im] values in row order, as they
    were when the document was built: the emitter writes those, so a
    document to be edited is copied to a plain dict first.
    """

    __slots__ = ("floats",)


def matrix_document(m: ComplexMat) -> dict:
    n = m.n
    flat = m.array.ravel().view(np.float64).tolist()
    halves = iter(flat)
    pairs = list(map(list, zip(halves, halves)))
    doc = _MatrixDocument(n=n, entries=[pairs[k:k + n] for k in range(0, n * n, n)])
    doc.floats = tuple(flat)
    return doc


# -- JSON emission ------------------------------------------------------------
# hand-rolled so floats always carry 17 significant digits and key
# order is exactly construction order; the stdlib encoder is only used
# for parsing.  Layout: a list whose entries are all numbers, or all
# lists of numbers, goes on one line; every other non-empty list or
# dict puts one entry per line, indented two spaces per level.

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _emit_str(s: str) -> str:
    if type(s) is str and _NEEDS_ESCAPE.search(s) is None:
        return '"' + s + '"'
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


def _number(x) -> str | None:
    """Text of an int or a finite float; None for anything else, bools included."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot emit non-finite number {x!r}")
        return format(x, ".17g")
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    return None


def _number_row(xs: list) -> str | None:
    """One-line text of a list of numbers; None at the first entry that is not one."""
    texts = []
    for e in xs:
        text = _number(e)
        if text is None:
            return None
        texts.append(text)
    return "[" + ", ".join(texts) + "]"


def emit_json(x, indent: int = 0) -> str:
    """JSON text of x, nested ``indent`` levels deep.

    None, ints, finite floats, strings, lists, tuples and string-keyed
    dicts only: anything else (bools included) is a TypeError, a
    non-finite float a ValueError.
    """
    out: list[str] = []
    _emit(x, indent, out)
    return "".join(out)


@functools.cache
def _matrix_template(n: int, indent: int) -> str:
    """The text of an n x n matrix document at ``indent``, a %.17g per float.

    Laid out by the generic writer itself, on a document of 0.5s, whose
    text "0.5" occurs nowhere else in it; %.17g writes a finite float as
    ``format(x, ".17g")`` does.
    """
    half = [[[0.5, 0.5]] * n for _ in range(n)]
    return emit_json({"n": n, "entries": half}, indent).replace("0.5", "%.17g")


def _emit(x, indent: int, out: list[str]) -> None:
    # a sum of finite floats is finite unless it overflows, so a
    # document of finite floats rarely leaves the template; one that
    # does is written, or refused, node by node
    if type(x) is _MatrixDocument and math.isfinite(sum(x.floats)):
        out.append(_matrix_template(x["n"], indent) % x.floats)
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        pad = "  " * (indent + 1)
        lead = "{\n" + pad
        for k, v in x.items():
            out.append(lead + _emit_str(k) + ": ")
            _emit(v, indent + 1, out)
            lead = ",\n" + pad
        out.append("\n" + "  " * indent + "}")
    elif isinstance(x, (list, tuple)):
        _emit_list(x, indent, out)
    elif isinstance(x, str):
        out.append(_emit_str(x))
    elif x is None:
        out.append("null")
    else:
        text = _number(x)
        if text is None:
            raise TypeError(f"cannot emit {type(x).__name__}")
        out.append(text)


def _emit_list(xs, indent: int, out: list[str]) -> None:
    if not xs:
        out.append("[]")
        return
    # one-line texts of the leading entries that are numbers or lists of
    # numbers; a block layout reuses them, since they read the same there
    texts = []
    numbers = rows = False
    for e in xs:
        if isinstance(e, list):
            text = _number_row(e)
            rows = True
        else:
            text = _number(e)
            numbers = True
        if text is None:
            break
        texts.append(text)
    else:
        if not (numbers and rows):
            out.append("[" + ", ".join(texts) + "]")
            return
    pad = "  " * (indent + 1)
    lead = "[\n" + pad
    for text in texts:
        out.append(lead + text)
        lead = ",\n" + pad
    for e in xs[len(texts):]:
        out.append(lead)
        _emit(e, indent + 1, out)
        lead = ",\n" + pad
    out.append("\n" + "  " * indent + "]")


# -- shared helpers -----------------------------------------------------------

def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


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
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


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
    # an AlgebraElement is taken as su(3) without a second check
    b = AlgebraElement(m, tol) if args.require_su3 else m
    if args.nxn:
        dec = InvariantDecomposition(parts=tuple(decompose_nxn(b, tol)), source=m)
    else:
        if m.n != 3:
            raise DocumentError(
                f"decompose expects a 3x3 matrix (got {m.n}x{m.n}); use --nxn")
        dec = decompose_via_eigen(b, tol)
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
    if args.method == "reference":
        # branch_log checks unitarity itself; the oracle's own check is
        # kept apart from the route's, so the route's check runs here
        # (unitarity only: -1 has det -1 and is a numerical failure)
        _check_group(m.array, tol, special=False)
        if args.branch is not None:
            raise DocumentError("--branch applies only to the invariant method")
        log = log_reference(m, tol)
        branch = None
    else:
        ks = _parse_branch(args.branch) if args.branch is not None else (0, 0, 0)
        log = branch_log(m, ks, tol)
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
    f = factorize(m, tol)
    g = f.grades
    u1, u2, u3 = (x.array for x in f.factors)
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
        "product_residual": float(np.linalg.norm(u1 @ u2 @ u3 - m.array)),
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
    document = argparse.ArgumentParser(add_help=False, parents=[common])
    document.add_argument("input", help="matrix document path, or - for stdin")

    parser = argparse.ArgumentParser(
        prog="su3kit",
        description="commuting-part decompositions, exponentials, "
                    "factorizations and logarithms of SU(3) elements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[document],
                       help="split a matrix into commuting simple parts")
    p.add_argument("--nxn", action="store_true",
                   help="general n x n route instead of the 3x3 one")
    p.add_argument("--require-su3", action="store_true", dest="require_su3",
                   help="reject inputs that are not traceless skew-Hermitian")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("exp", parents=[document],
                       help="exponential of an su(3) element")
    p.add_argument("--method", choices=("invariant", "reference", "both"),
                   default="invariant")
    p.set_defaults(handler=cmd_exp)

    p = sub.add_parser("log", parents=[document],
                       help="logarithm of a unitary 3x3 matrix")
    p.add_argument("--method", choices=("invariant", "reference"),
                   default="invariant")
    p.add_argument("--branch", default=None, metavar="K1,K2,K3",
                   help="winding numbers for a non-principal branch")
    p.set_defaults(handler=cmd_log)

    p = sub.add_parser("factor", parents=[document],
                       help="split a unitary into three Euler factors")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, then reused.

    Parsing leaves it unchanged; the --tol-override list is copied
    before each append, so no value carries over to the next call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = _tol_from_args(args)
        out = args.handler(args, tol)
    except (InputError, NumericalError) as exc:
        print(emit_json({"error": {"code": exc.code, "message": str(exc)}}))
        return 2 if isinstance(exc, InputError) else 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
