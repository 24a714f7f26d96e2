"""emit_json writes the same bytes as the recursive writer it replaced.

``reference_emit_json`` below is that writer, frozen as the
specification: it lays out every node separately and re-tests each
list for the one-line layout at every level.  The property test feeds
both random nested documents, matrix documents among them, and
requires the same text, or the same exception type.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit.cli import emit_json, matrix_document
from su3kit.smallmat import ComplexMat

# -- the specification ----------------------------------------------------------

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _ref_str(s) -> str:
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


def _ref_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot emit non-finite number {x!r}")
    return format(x, ".17g")


def _inline(xs: list) -> bool:
    if all(_is_number(e) for e in xs):
        return True
    return all(isinstance(e, list) and all(_is_number(q) for q in e) for e in xs)


def reference_emit_json(x, indent: int = 0) -> str:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if x is None:
        return "null"
    if _is_number(x):
        return _ref_number(x)
    if isinstance(x, str):
        return _ref_str(x)
    if isinstance(x, (list, tuple)):
        xs = list(x)
        if not xs:
            return "[]"
        if _inline(xs):
            return "[" + ", ".join(reference_emit_json(e) for e in xs) + "]"
        body = ",\n".join(inner_pad + reference_emit_json(e, indent + 1) for e in xs)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ",\n".join(
            inner_pad + _ref_str(k) + ": " + reference_emit_json(v, indent + 1)
            for k, v in x.items())
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot emit {type(x).__name__}")


# -- random documents -----------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
_floats = st.one_of(_finite, st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]))
_ints = st.one_of(st.integers(-10, 10), st.integers())
_numbers = st.one_of(_ints, _finite)
_chars = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "∂",
                     " ", "\U0001f600", "/"]))
_text = st.text(_chars, max_size=8)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _text)
_number_list = st.lists(_numbers, max_size=4)


@st.composite
def _matrix_documents(draw):
    """matrix_document of an n x n matrix, n in 1..8, half of them with one NaN or inf.

    ``ComplexMat._wrap`` adopts the array unchecked, as the package
    adopts its results, so 1 x 1 and non-finite matrices reach the writer.
    """
    n = draw(st.integers(1, 8))
    values = draw(st.lists(_finite, min_size=2 * n * n, max_size=2 * n * n))
    if draw(st.booleans()):
        values[draw(st.integers(0, 2 * n * n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    a = np.array(values, dtype=np.float64).view(np.complex128).reshape(n, n)
    return matrix_document(ComplexMat._wrap(a))


_leaves = st.one_of(_scalars, _number_list, st.lists(_number_list, max_size=3),
                    st.lists(_number_list, max_size=3).map(tuple), _matrix_documents())


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(_text, st.integers()), children, max_size=4),
        st.dictionaries(_text, children, max_size=4),
    )


documents = st.recursive(_leaves, _extend, max_leaves=40)


def _outcome(emit, doc, indent):
    try:
        return emit(doc, indent)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(documents, st.integers(0, 3))
def test_same_bytes_as_reference(doc, indent):
    assert _outcome(emit_json, doc, indent) == _outcome(reference_emit_json, doc, indent)


@settings(max_examples=300, deadline=None, database=None)
@given(_matrix_documents(), st.integers(0, 3))
def test_matrix_document_same_bytes_as_reference(doc, indent):
    # the nested documents above draw few matrix documents; these pin
    # the template on its own
    assert _outcome(emit_json, doc, indent) == _outcome(reference_emit_json, doc, indent)


def test_fixed_cases():
    cases = [
        [], {}, [[]], [[], 1], [1, [2]], [[1, 2], [3]], [(1, 2)], ([1, 2], [3]),
        [[[1]]], [1, "a"], {"a\nb": [1.5, -0.0]}, [None, True], [[True, 1.0]],
        [[1.0, "a", math.nan]], [math.nan, True], [True, math.nan], {1: 2},
        {"k": {"j": [[1e308, 5e-324]]}}, 10**30, -0.0, "tab\there",
    ]
    for doc in cases:
        for indent in (0, 2):
            assert _outcome(emit_json, doc, indent) == _outcome(reference_emit_json, doc, indent), doc
