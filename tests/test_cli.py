"""CLI: document parsing, JSON emission, subcommands, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit import cli, expmap, factorlog, invdec
from su3kit.cli import (
    emit_json,
    main,
    matrix_document,
    parse_matrix_document,
)
from su3kit.errors import DocumentError, Su3KitError
from su3kit.factorlog import LogBranch, branch_log, factorize, principal_log
from su3kit.oracle import exp_reference, random_algebra, random_group
from su3kit.smallmat import ComplexMat, _fro
from su3kit.tolerances import DEFAULT_TOL, with_overrides


def doc_text(rows) -> str:
    arr = np.asarray(rows, dtype=np.complex128)
    return json.dumps({
        "n": arr.shape[0],
        "entries": [[[z.real, z.imag] for z in row] for row in arr.tolist()],
    })


def mat_from_doc(d) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in d["entries"]])


EYE = doc_text(np.eye(3))
ZERO = doc_text(np.zeros((3, 3)))
B_EXAMPLE = doc_text(np.diag([0.3j, -0.1j, -0.2j]))
U_DIAG = doc_text(np.diag([1j, -1j, 1.0]))
MINUS_EYE = doc_text(-np.eye(3))
HERMITIAN = doc_text(np.diag([1.0, 2.0, -3.0]))


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    return code, capsys.readouterr().out


def engineered_vanishing_g0() -> str:
    # eigenphases [pi, 1.3, -pi-1.3] conjugated by a seeded Haar basis
    # give tr(U + U^dag) = 0, which forces the inverse factor routes
    rng = np.random.default_rng(77)
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    phases = np.array([np.pi, 1.3, -np.pi - 1.3])
    b = q @ np.diag(1j * phases) @ q.conj().T
    u = exp_reference(ComplexMat((b - b.conj().T) / 2.0))
    return doc_text(u.array)


class TestParseDocument:
    def test_round_trip(self):
        m = random_group(5).mat
        again = parse_matrix_document(json.dumps(matrix_document(m)))
        np.testing.assert_array_equal(m.array, again.array)

    def test_emitted_text_round_trip(self):
        m = random_group(6).mat
        text = emit_json(matrix_document(m))
        again = parse_matrix_document(text)
        np.testing.assert_array_equal(m.array, again.array)

    def test_metadata_accepted_and_ignored(self):
        m = parse_matrix_document(
            '{"n": 2, "entries": [[[2.5, -1.0], [0, 0]], [[0, 0], [1, 0]]],'
            ' "metadata": {"source": "test"}}')
        assert m.array[0, 0] == 2.5 - 1.0j

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        '{"entries": [[[1, 0]]]}',
        '{"n": 1}',
        '{"n": true, "entries": [[[1, 0]]]}',
        '{"n": 0, "entries": []}',
        '{"n": 2, "entries": [[[1, 0], [0, 0]]]}',
        '{"n": 1, "entries": [[[1, 0], [0, 0]]]}',
        '{"n": 1, "entries": [[[1]]]}',
        '{"n": 1, "entries": [[[1, true]]]}',
        '{"n": 1, "entries": [[["1", 0]]]}',
        '{"n": 1, "entries": [[[1, 0]]], "metadata": {"k": 3}}',
        '{"n": 1, "entries": [[[1, 0]]], "metadata": "free"}',
    ])
    def test_malformed_refused(self, text):
        with pytest.raises(DocumentError):
            parse_matrix_document(text)


def _frozen_parse_matrix_document(text: str) -> ComplexMat:
    """parse_matrix_document as it was before its entries were checked in bulk, verbatim."""
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
            try:
                out.append(complex(pair[0], pair[1]))
            except OverflowError as exc:
                raise DocumentError(f"entry ({r},{c}) is too large for a double") from exc
        rows.append(out)
    meta = data.get("metadata")
    if meta is not None and (not isinstance(meta, dict)
                             or any(not isinstance(k, str) or not isinstance(v, str)
                                    for k, v in meta.items())):
        raise DocumentError("metadata must be a string-to-string map")
    return ComplexMat(rows)


class _Raw(str):
    """JSON text written into a document as it is: NaN, Infinity, 1e400, -0."""


def _json_text(x) -> str:
    if isinstance(x, _Raw):
        return str(x)
    if isinstance(x, list):
        return "[" + ", ".join(map(_json_text, x)) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + _json_text(v) for k, v in x.items()) + "}"
    return json.dumps(x)


_PARSE_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                      -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
_good_numbers = st.one_of(
    st.sampled_from(_PARSE_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10, 10),
    st.sampled_from([2**53 + 1, 2**63, 2**64 + 1, 2**1000, -(2**1000)]),
    st.sampled_from([_Raw("-0"), _Raw("1E5"), _Raw("-0.0e-0")]),
)
_bad_values = st.one_of(
    st.sampled_from([10**400, -(10**400), _Raw("1e400"), _Raw("-1e400"), _Raw("NaN"),
                     _Raw("Infinity"), _Raw("-Infinity"), True, False, None, "1", "",
                     [1, 2], [], {}]),
    st.text(max_size=3),
)


@st.composite
def _parse_documents(draw):
    """Matrix document text, n = 1..9: well formed, or with up to three flaws."""
    n = draw(st.integers(1, 9))
    flat = draw(st.lists(_good_numbers, min_size=2 * n * n, max_size=2 * n * n))
    rows = [[flat[2 * (r * n + c):2 * (r * n + c) + 2] for c in range(n)] for r in range(n)]
    doc = {"n": n, "entries": rows}
    # value and pair flaws first, while every row still holds n pairs
    for flaw in sorted(draw(st.lists(st.integers(0, 5), max_size=3))):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if flaw == 0:
            rows[r][c][draw(st.integers(0, 1))] = draw(_bad_values)
        elif flaw == 1:
            rows[r][c] = draw(st.one_of(st.lists(_good_numbers, max_size=4), _bad_values))
        elif flaw == 2:
            rows[r] = draw(st.one_of(_bad_values, st.lists(st.just([0, 0]), max_size=n + 1)))
        elif flaw == 3:
            # a second pop at n = 1 would find no row left: it appends instead
            rows.append([[0, 0]] * n) if draw(st.booleans()) or not rows else rows.pop()
        elif flaw == 4:
            doc["n"] = draw(st.sampled_from([n - 1, n + 1, 0, True, str(n), float(n), None]))
        else:
            doc["metadata"] = draw(st.sampled_from([{"k": 3}, "free", [], {"k": None}]))
    if "metadata" not in doc and draw(st.booleans()):
        doc["metadata"] = draw(st.sampled_from([{}, {"source": "test"}]))
    return _json_text(doc)


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text).array.tobytes()
    except Su3KitError as exc:
        return type(exc).__name__, exc.code, str(exc)


class TestParseAgainstFrozenCopy:
    """parse_matrix_document keeps the bits and the refusals of its per-entry form."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_parse_documents())
    def test_same_array_or_same_refusal(self, text):
        want = _parse_outcome(_frozen_parse_matrix_document, text)
        assert _parse_outcome(parse_matrix_document, text) == want

    @pytest.mark.parametrize("text", [
        '{"n": 2, "entries": [[[1, 0], [2, 0]], [[3, 0], [1e400, 0]]]}',
        '{"n": 2, "entries": [[[1, 0], [2, 0]], [[3, 0], [4, NaN]]]}',
        '{"n": 2, "entries": [[[1, 0], [2, 0]], [[true, 0], [4, 0]]]}',
        '{"n": 2, "entries": [[[1, 0], [2, 0]], [[3, 0]]]}',
        '{"n": 2, "entries": [[[1, 0], [2, 0, 0]], [[3, 0], ' + str(10**400) + ']]}',
        '{"n": 2, "entries": [[[-0, -0.0], [2, 0]], [[3, 0], [4, 0]]], "metadata": {"k": 3}}',
        '{"n": 9, "entries": [' + ", ".join(["[" + ", ".join(["[1, 0]"] * 9) + "]"] * 9) + ']}',
        '{"n": 1, "entries": [[[' + str(2**1000) + ', 0]]]}',
    ])
    def test_edge_documents(self, text):
        assert _parse_outcome(parse_matrix_document, text) == \
            _parse_outcome(_frozen_parse_matrix_document, text)


class TestEmitJson:
    def test_float_17_digits(self):
        assert emit_json(0.1) == "0.10000000000000001"
        assert emit_json(1.0) == "1"
        assert emit_json(-0.25) == "-0.25"

    def test_int_and_none(self):
        assert emit_json(42) == "42"
        assert emit_json(None) == "null"

    def test_string_escaping(self):
        assert emit_json('a"b\\c\nd') == '"a\\"b\\\\c\\nd"'
        assert emit_json("\x01") == '"\\u0001"'

    def test_number_lists_inline(self):
        assert emit_json([1, 2.5, 3]) == "[1, 2.5, 3]"
        assert emit_json([[1, 0], [0, 1]]) == "[[1, 0], [0, 1]]"

    def test_nested_dict_layout(self):
        out = emit_json({"a": [1, 2], "b": {"c": None}})
        assert out == '{\n  "a": [1, 2],\n  "b": {\n    "c": null\n  }\n}'

    def test_empty_containers(self):
        assert emit_json([]) == "[]"
        assert emit_json({}) == "{}"

    def test_non_finite_refused(self):
        with pytest.raises(ValueError):
            emit_json(float("inf"))

    def test_parseable_by_stdlib(self):
        doc = {"x": [0.1, -7, None], "y": 'quote " here'}
        assert json.loads(emit_json(doc)) == doc


class TestDecompose:
    def test_zero_matrix(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-"], capsys, monkeypatch, ZERO)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["parts"]) == 3
        for p in doc["parts"]:
            assert np.all(mat_from_doc(p) == 0)
        assert doc["sum_error"] == 0.0

    def test_worked_example(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-"], capsys, monkeypatch, B_EXAMPLE)
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["betas"]) == pytest.approx([0.05, 0.1, 0.15], abs=1e-12)
        lams = sorted(pair[0] for pair in doc["lambdas"])
        assert lams == pytest.approx([-0.0225, -0.01, -0.0025], abs=1e-15)
        assert doc["sum_error"] < 1e-15
        assert doc["max_commutator"] < 1e-15

    def test_hermitian_requires_su3_flag_refused(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-", "--require-su3"],
                            capsys, monkeypatch, HERMITIAN)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_algebra_element"

    def test_hermitian_without_flag(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-"], capsys, monkeypatch, HERMITIAN)
        assert code == 0
        doc = json.loads(out)
        assert doc["betas"] == [None, None, None]
        assert doc["sum_error"] < 1e-12

    def test_nxn_diag(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-", "--nxn"],
                            capsys, monkeypatch, doc_text(np.diag([1.0, 2.0, 3.0, 4.0])))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["parts"]) == 4
        want = np.diag([-2.0, 2.0, 2.0, 2.0])
        best = min(np.linalg.norm(mat_from_doc(p) - want) for p in doc["parts"])
        assert best < 1e-12

    def test_4x4_without_nxn_refused(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-"],
                            capsys, monkeypatch, doc_text(np.diag([1.0, 2, 3, 4])))
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(B_EXAMPLE)
        code, out = run_cli(["decompose", str(path)], capsys)
        assert code == 0

    def test_missing_file(self, capsys):
        code, out = run_cli(["decompose", "/no/such/file.json"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"

    def test_malformed_document(self, capsys, monkeypatch):
        code, out = run_cli(["decompose", "-"], capsys, monkeypatch, "{}")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"

    @pytest.mark.parametrize("nxn", [[], ["--nxn"]])
    def test_require_su3_checks_once(self, nxn, capsys, monkeypatch):
        calls = []
        check = invdec._su3_problem

        def counting(arr, nrm, tol):
            calls.append(1)
            return check(arr, nrm, tol)

        monkeypatch.setattr(invdec, "_su3_problem", counting)
        text = doc_text(random_algebra(5).mat.array)
        code, plain = run_cli(["decompose", "-"] + nxn, capsys, monkeypatch, text)
        assert code == 0
        calls.clear()
        code, out = run_cli(["decompose", "-", "--require-su3"] + nxn, capsys, monkeypatch, text)
        assert code == 0
        assert calls == [1]
        assert out == plain

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    @pytest.mark.parametrize("kind", ["su3", "general", "nxn4"])
    def test_huge_finite_entries(self, kind, scale, capsys, monkeypatch):
        # finite entries whose commutator residual's squared norm overflowed:
        # max_commutator came back inf and emitting it raised a bare ValueError
        rng = np.random.default_rng(11)
        n = 4 if kind == "nxn4" else 3
        a = (random_algebra(11).mat.array if kind == "su3"
             else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        argv = ["decompose", "-"] + (["--nxn"] if kind == "nxn4" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(argv, capsys, monkeypatch, doc_text(scale * a))
        assert code in (0, 3)
        doc = json.loads(out)
        if code == 3:
            assert doc["error"]["code"] == "overflow"


class TestUnreadableDocument:
    """Bytes that do not read as a document are invalid_document, from a file or stdin."""

    @staticmethod
    def run_bytes(source, data, capsys, monkeypatch, tmp_path):
        if source == "file":
            path = tmp_path / "doc.json"
            path.write_bytes(data)
            code, out = run_cli(["decompose", str(path)], capsys)
        else:
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            code, out = run_cli(["decompose", "-"], capsys)
        assert code == 2
        return json.loads(out)["error"]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_not_utf8(self, source, capsys, monkeypatch, tmp_path):
        err = self.run_bytes(source, b"\xff\xfe", capsys, monkeypatch, tmp_path)
        assert err["code"] == "invalid_document"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_integer_too_large_for_a_double(self, source, capsys, monkeypatch, tmp_path):
        entries = [[[0, 0]] * 3 for _ in range(3)]
        entries[1][2] = [10**400, 0]
        data = json.dumps({"n": 3, "entries": entries}).encode()
        err = self.run_bytes(source, data, capsys, monkeypatch, tmp_path)
        assert err == {"code": "invalid_document",
                       "message": "entry (1,2) is too large for a double"}

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_nested_too_deeply(self, source, capsys, monkeypatch, tmp_path):
        err = self.run_bytes(source, b"[" * 200_000, capsys, monkeypatch, tmp_path)
        assert err["code"] == "invalid_document"


class TestExp:
    def test_zero_gives_identity(self, capsys, monkeypatch):
        code, out = run_cli(["exp", "-"], capsys, monkeypatch, ZERO)
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(mat_from_doc(doc["u"]), np.eye(3), atol=1e-15)
        assert doc["det_residual"] < 1e-12

    def test_half_turn_lambda1(self, capsys, monkeypatch):
        b = np.array([[0, 1j * np.pi, 0], [1j * np.pi, 0, 0], [0, 0, 0]])
        code, out = run_cli(["exp", "-"], capsys, monkeypatch, doc_text(b))
        assert code == 0
        u = mat_from_doc(json.loads(out)["u"])
        np.testing.assert_allclose(u, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)

    def test_method_reference_agrees(self, capsys, monkeypatch):
        from su3kit.oracle import random_algebra
        text = doc_text(random_algebra(3).mat.array)
        _, out_i = run_cli(["exp", "-"], capsys, monkeypatch, text)
        _, out_r = run_cli(["exp", "-", "--method", "reference"],
                           capsys, monkeypatch, text)
        ui = mat_from_doc(json.loads(out_i)["u"])
        ur = mat_from_doc(json.loads(out_r)["u"])
        np.testing.assert_allclose(ui, ur, atol=1e-12)

    def test_method_both_reports_distance(self, capsys, monkeypatch):
        code, out = run_cli(["exp", "-", "--method", "both"],
                            capsys, monkeypatch, B_EXAMPLE)
        assert code == 0
        doc = json.loads(out)
        assert "u_reference" in doc
        assert 0.0 <= doc["method_distance"] < 1e-12

    def test_non_algebra_input_refused(self, capsys, monkeypatch):
        code, out = run_cli(["exp", "-"], capsys, monkeypatch, HERMITIAN)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_algebra_element"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_refused(self, bad, capsys, monkeypatch):
        rows = np.zeros((3, 3))
        rows[0, 0] = bad
        text = doc_text(rows)
        assert "NaN" in text or "Infinity" in text
        code, out = run_cli(["exp", "-"], capsys, monkeypatch, text)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "non_finite_entries"

    @pytest.mark.parametrize("argv, n", [
        (["exp", "-"], 3), (["decompose", "-"], 3), (["decompose", "-", "--nxn"], 4)])
    def test_overflowing_norm_is_numerical_failure(self, argv, n, capsys, monkeypatch):
        b = np.zeros((n, n), dtype=complex)
        b[0, 1], b[1, 0] = 1e308, -1e308
        code, out = run_cli(argv, capsys, monkeypatch, doc_text(b))
        assert code == 3
        assert json.loads(out)["error"]["code"] == "overflow"


    @pytest.mark.parametrize("method", ["reference", "both"])
    @pytest.mark.parametrize("scale", [1e20, 1e92, 1e145])
    def test_reference_refuses_a_norm_its_squarings_cannot_take(self, scale, method,
                                                                 capsys, monkeypatch):
        # the series' squarings overflowed (non_finite_entries, with
        # RuntimeWarnings) or underflowed to an all-zero "u"
        text = doc_text(scale * random_algebra(3).mat.array)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(["exp", "-", "--method", method], capsys, monkeypatch, text)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "overflow"

    @pytest.mark.parametrize("method, digest", [
        ("reference", "1d87d7d8e99a0d6c45caf350191e1ecf5b4dbfc1648fc69a707bf9b3c6bd3d44"),
        ("both", "d2dac43b6e660b612ae845de55816ef141347a4e2474c03da63ae04fd6ebccea"),
    ])
    def test_reference_below_its_limit_unchanged(self, method, digest, capsys, monkeypatch):
        text = doc_text(1e5 * random_algebra(3).mat.array)
        code, out = run_cli(["exp", "-", "--method", method], capsys, monkeypatch, text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLog:
    def test_identity(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-"], capsys, monkeypatch, EYE)
        assert code == 0
        doc = json.loads(out)
        assert np.all(mat_from_doc(doc["log"]) == 0)
        assert doc["branch"] == [0, 0, 0]

    def test_quarter_turn_diagonal(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-"], capsys, monkeypatch, U_DIAG)
        assert code == 0
        log = mat_from_doc(json.loads(out)["log"])
        want = np.diag([1j * np.pi / 2, -1j * np.pi / 2, 0])
        np.testing.assert_allclose(log, want, atol=1e-12)

    def test_minus_identity_boundary(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-"], capsys, monkeypatch, MINUS_EYE)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "ambiguous_direction"

    def test_branch_round_trip(self, capsys, monkeypatch):
        text = doc_text(random_group(42).mat.array)
        code, out = run_cli(["log", "-", "--branch", "1,0,0"],
                            capsys, monkeypatch, text)
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] == [1, 0, 0]
        assert doc["roundtrip_error"] <= 1e-8
        _, out0 = run_cli(["log", "-"], capsys, monkeypatch, text)
        principal = mat_from_doc(json.loads(out0)["log"])
        assert np.linalg.norm(mat_from_doc(doc["log"]) - principal) > 1.0

    def test_branch_with_reference_refused(self, capsys, monkeypatch):
        code, out = run_cli(
            ["log", "-", "--method", "reference", "--branch", "1,0,0"],
            capsys, monkeypatch, EYE)
        assert code == 2

    @pytest.mark.parametrize("bad", ["1,2", "a,b,c", "1,2,3,4"])
    def test_branch_malformed(self, bad, capsys, monkeypatch):
        code, out = run_cli(["log", "-", "--branch", bad],
                            capsys, monkeypatch, EYE)
        assert code == 2

    @pytest.mark.parametrize("k", [10**309, 10**308, 10**20], ids=["1e309", "1e308", "1e20"])
    def test_branch_beyond_2_53_refused(self, k, capsys, monkeypatch):
        # 10**309 raised a bare OverflowError in the log; 10**308 and
        # 10**20 warned and ended as non_finite_entries
        text = doc_text(random_group(42).mat.array)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["log", "-", "--branch", "%d,0,0" % k],
                                capsys, monkeypatch, text)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_input"

    def test_branch_past_double_precision_refused(self, capsys, monkeypatch):
        # the log came back with roundtrip_error 2.9e-9 and exit 0
        text = doc_text(random_group(3).mat.array)
        code, out = run_cli(["log", "-", "--branch", "1000000,0,0"], capsys, monkeypatch, text)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "factorization_failed"

    def test_method_reference(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-", "--method", "reference"],
                            capsys, monkeypatch, U_DIAG)
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] is None
        want = np.diag([1j * np.pi / 2, -1j * np.pi / 2, 0])
        np.testing.assert_allclose(mat_from_doc(doc["log"]), want, atol=1e-12)

    def test_non_unitary_refused(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-"], capsys, monkeypatch,
                            doc_text(np.diag([2.0, 1.0, 1.0])))
        assert code == 2
        assert json.loads(out)["error"]["code"] == "not_unitary"

    def test_principal_branch_takes_the_closed_form(self, capsys, monkeypatch):
        # with no --branch, or 0,0,0, log runs principal_log's closed form;
        # branch_log at k = 0 is principal_log, not its purified-projector form
        m = random_group(42).mat
        text = doc_text(m.array)
        code, plain = run_cli(["log", "-"], capsys, monkeypatch, text)
        assert code == 0
        code, zero = run_cli(["log", "-", "--branch", "0,0,0"], capsys, monkeypatch, text)
        assert code == 0
        assert zero == plain
        got = mat_from_doc(json.loads(plain)["log"])
        assert got.tobytes() == principal_log(m).array.tobytes()
        assert got.tobytes() == branch_log(m, LogBranch((0, 0, 0))).array.tobytes()

    @pytest.mark.parametrize("rows, code, status", [
        (-np.eye(3) * np.exp(1e-9j), "ambiguous_direction", 3),
        (random_group(42).mat.array * np.exp(0.3j), "factorization_failed", 3),
        (np.diag([2.0, 1.0, 1.0]), "not_unitary", 2),
    ], ids=["minus-one-like", "det-not-one", "not-unitary"])
    def test_principal_branch_refusals(self, rows, code, status, capsys, monkeypatch):
        text = doc_text(rows)
        outs = []
        for extra in ([], ["--branch", "0,0,0"]):
            got, out = run_cli(["log", "-"] + extra, capsys, monkeypatch, text)
            assert got == status
            assert json.loads(out)["error"]["code"] == code
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["log", "factor"])
    def test_overflowing_unitarity_residual_refused(self, command, capsys, monkeypatch):
        # U^dag U has inf - inf = NaN entries; a NaN residual is not a pass
        u = np.eye(3)
        u[:2, :2] = [[1e308, 1e308], [1e308, -1e308]]
        code, out = run_cli([command, "-"], capsys, monkeypatch, doc_text(u))
        assert code == 2
        assert json.loads(out)["error"]["code"] == "not_unitary"


class TestFactor:
    def test_identity(self, capsys, monkeypatch):
        code, out = run_cli(["factor", "-"], capsys, monkeypatch, EYE)
        assert code == 0
        doc = json.loads(out)
        assert doc["routes"] == ["simple", "simple", "closing"]
        for f in doc["factors"]:
            np.testing.assert_allclose(mat_from_doc(f), np.eye(3), atol=1e-12)
        assert doc["product_residual"] < 1e-14

    def test_haar_round_trip(self, capsys, monkeypatch):
        text = doc_text(random_group(42).mat.array)
        code, out = run_cli(["factor", "-"], capsys, monkeypatch, text)
        assert code == 0
        doc = json.loads(out)
        assert doc["product_residual"] < 1e-10
        fs = [mat_from_doc(f) for f in doc["factors"]]
        np.testing.assert_allclose(fs[0] @ fs[1] @ fs[2],
                                   mat_from_doc(json.loads(text)), atol=1e-10)

    def test_vanishing_scalar_grade_uses_inverse_route(self, capsys, monkeypatch):
        code, out = run_cli(["factor", "-"], capsys, monkeypatch,
                            engineered_vanishing_g0())
        assert code == 0
        doc = json.loads(out)
        assert any(r.startswith("inv") for r in doc["routes"])
        assert doc["product_residual"] < 1e-10

    def test_grade_fields_present(self, capsys, monkeypatch):
        text = doc_text(random_group(9).mat.array)
        code, out = run_cli(["factor", "-"], capsys, monkeypatch, text)
        doc = json.loads(out)
        assert set(doc["grades"]) == {"g0", "g2", "g4", "g6"}
        assert len(doc["H"]) == 3 and len(doc["S"]) == 3
        u = mat_from_doc(json.loads(text))
        total = sum(mat_from_doc(d) for d in
                    [doc["grades"][k] for k in ("g0", "g2", "g4", "g6")])
        np.testing.assert_allclose(total, u, atol=1e-12)

    def test_minus_identity_boundary(self, capsys, monkeypatch):
        code, out = run_cli(["factor", "-"], capsys, monkeypatch, MINUS_EYE)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "ambiguous_direction"

    @pytest.mark.parametrize("seed", range(5))
    def test_product_residual_same_bits_as_complexmat(self, seed, capsys, monkeypatch):
        u = random_group(seed).mat
        code, out = run_cli(["factor", "-"], capsys, monkeypatch, doc_text(u.array))
        assert code == 0
        f = factorize(u)
        want = _fro(f.factors[0].array @ f.factors[1].array @ f.factors[2].array - u.array)
        assert json.loads(out)["product_residual"].hex() == want.hex()


class TestUnitarityCheck:
    """log and factor check their input for unitarity exactly once."""

    @pytest.mark.parametrize("argv", [
        ["log", "-"], ["log", "-", "--branch", "1,0,-1"], ["factor", "-"],
        ["log", "-", "--method", "reference"],
    ])
    def test_one_check_per_call(self, argv, capsys, monkeypatch):
        calls = []
        check = expmap._check_group

        def counting(arr, tol, special=True):
            calls.append(special)
            return check(arr, tol, special)

        monkeypatch.setattr(cli, "_check_group", counting)
        monkeypatch.setattr(factorlog, "_check_group", counting)
        code, _ = run_cli(argv, capsys, monkeypatch, doc_text(random_group(4).mat.array))
        assert code == 0
        assert calls == [False]


class TestBench:
    @staticmethod
    def split_output(out):
        doc, end = json.JSONDecoder().raw_decode(out)
        return doc, out[end:]

    def test_small_n_refused(self, capsys):
        code, out = run_cli(["bench", "--n", "50"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_input"

    def test_report_and_table(self, capsys):
        code, out = run_cli(["bench", "--task", "exp", "--regime", "generic",
                             "--n", "100", "--seed", "3"], capsys)
        assert code == 0
        doc, table = self.split_output(out)
        assert doc["task"] == "exp"
        assert doc["max_rel_err"] <= 1e-9
        assert "median_ns" in table

    def test_accuracy_reproducible(self, capsys):
        argv = ["bench", "--task", "factorize", "--regime", "boundary",
                "--n", "100", "--seed", "5"]
        _, out_a = run_cli(argv, capsys)
        _, out_b = run_cli(argv, capsys)
        a, _ = self.split_output(out_a)
        b, _ = self.split_output(out_b)
        for key in ("method", "task", "regime", "n_samples", "max_rel_err",
                    "failures"):
            assert a[key] == b[key]

    def test_unknown_regime_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--regime", "gigantic"])


class TestGellmann:
    def test_half_turn_first_generator(self, capsys):
        code, out = run_cli(["gellmann", "--a", "1",
                             "--theta", "3.14159265358979"], capsys)
        assert code == 0
        u = mat_from_doc(json.loads(out)["u"])
        np.testing.assert_allclose(u, np.diag([-1.0, -1.0, 1.0]), atol=1e-13)

    def test_eighth_generator_diagonal_route(self, capsys):
        code, out = run_cli(["gellmann", "--a", "8", "--theta", "0.7"], capsys)
        assert code == 0
        u = mat_from_doc(json.loads(out)["u"])
        lam8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
        np.testing.assert_allclose(u, exp_reference(ComplexMat(0.7j * lam8)).array,
                                   atol=1e-13)
        assert np.linalg.norm(u - np.diag(np.diag(u))) == 0.0

    @pytest.mark.parametrize("a", [0, 9, -1])
    def test_out_of_range_index(self, a, capsys):
        code, out = run_cli(["gellmann", "--a", str(a)], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"

    def test_default_theta_identity(self, capsys):
        code, out = run_cli(["gellmann", "--a", "3"], capsys)
        assert code == 0
        u = mat_from_doc(json.loads(out)["u"])
        np.testing.assert_array_equal(u, np.eye(3))


class TestTolOverride:
    def test_loosened_algebra_gate(self, capsys, monkeypatch):
        dirty = doc_text(np.diag([0.3j + 1e-6, -0.1j + 1e-6, -0.2j + 1e-6]))
        code, _ = run_cli(["decompose", "-", "--require-su3"],
                          capsys, monkeypatch, dirty)
        assert code == 2
        code, _ = run_cli(["decompose", "-", "--require-su3",
                           "--tol-override", "alg_tol=1e-3"],
                          capsys, monkeypatch, dirty)
        assert code == 0

    def test_unknown_field(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-", "--tol-override", "nope=1"],
                            capsys, monkeypatch, EYE)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"

    @pytest.mark.parametrize(
        "name", ["simple_tol", "root_tol", "cross_tol", "grade_tol", "inv_tol", "log_tol",
                 "inv_cond_max"])
    def test_removed_fields_are_unknown(self, name, capsys, monkeypatch):
        # these thresholds gated nothing, so they are no longer fields
        code, out = run_cli(["log", "-", "--tol-override", name + "=1e-9"],
                            capsys, monkeypatch, EYE)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"

    def test_malformed_pair(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-", "--tol-override", "grp_tol"],
                            capsys, monkeypatch, EYE)
        assert code == 2

    def test_non_numeric_value(self, capsys, monkeypatch):
        code, out = run_cli(["log", "-", "--tol-override", "grp_tol=big"],
                            capsys, monkeypatch, EYE)
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_refused(self, value, capsys, monkeypatch):
        # a NaN alg_tol switched the su(3) gate off: this Hermitian entry
        # passed it and failed later as not_unitary
        hermitian_entry = doc_text(np.diag([5.0, 0.0, 0.0]))
        code, out = run_cli(["exp", "-", "--tol-override", "alg_tol=" + value],
                            capsys, monkeypatch, hermitian_entry)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid_document"
        with pytest.raises(ValueError):
            with_overrides(DEFAULT_TOL, alg_tol=float(value))

    def test_zero_accepted(self):
        assert with_overrides(DEFAULT_TOL, grp_tol=0).grp_tol == 0.0


class TestParserReuse:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(4):
                run_cli(["gellmann", "--a", "3"], capsys)
                run_cli(["exp", "-"], capsys, monkeypatch, ZERO)
                run_cli(["log", "-", "--tol-override", "grp_tol=1e-3"], capsys, monkeypatch, EYE)
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_override_list_not_shared(self):
        # argparse copies an append action's list before appending, so the
        # default [] of the one parser stays empty from call to call
        first = cli._parser().parse_args(
            ["log", "-", "--tol-override", "grp_tol=1e-3", "--tol-override", "fact_tol=1"])
        assert first.tol_override == ["grp_tol=1e-3", "fact_tol=1"]
        assert cli._parser().parse_args(["log", "-"]).tol_override == []

    def test_not_built_at_import(self):
        r = subprocess.run(
            [sys.executable, "-c",
             "import su3kit.cli as c; print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert r.stdout.strip() == "0"


class TestStability:
    def test_identical_invocations_identical_bytes(self, capsys, monkeypatch):
        text = doc_text(random_group(12).mat.array)
        _, a = run_cli(["factor", "-"], capsys, monkeypatch, text)
        _, b = run_cli(["factor", "-"], capsys, monkeypatch, text)
        assert a == b

    def test_module_entry_point(self):
        r = subprocess.run(
            [sys.executable, "-m", "su3kit.cli", "gellmann", "--a", "2"],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert json.loads(r.stdout)["a"] == 2


# every document subcommand with each of its flags; --tol-override is drawn apart
_DOCUMENT_ARGVS = [
    ["decompose"], ["decompose", "--nxn"], ["decompose", "--require-su3"],
    ["decompose", "--nxn", "--require-su3"],
    ["exp"], ["exp", "--method", "reference"], ["exp", "--method", "both"],
    ["log"], ["log", "--method", "reference"], ["log", "--branch", "1,0,-1"],
    ["log", "--branch", "0,0,0"], ["factor"],
]
_CONTRACT_EDGES = [5e-324, -5e-324, 2.2250738585072014e-308, 1e154, 1.7e308, -1.7e308,
                   math.nan, math.inf, -math.inf, 0.0, -0.0]
_CONTRACT_ANGLES = [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 5e-324, 0.0, 1.0]
# values that make a pair, a row or the document malformed
_CONTRACT_FLAWS = [True, None, "1", [1.0], 10**400, [[0.0, 0.0]]]


@st.composite
def _contract_calls(draw):
    """(argv, document text): a matrix n = 1..9 of one of three kinds at any scale.

    Gaussian, special unitary or traceless skew-Hermitian, times a scale
    from 5e-324 to 1.7e308 (entries that overflow it become inf), then up
    to three entries set to edge values and, at times, one flaw.  Half the
    calls are 3 x 3, and half take the kind their subcommand accepts, so
    that results are drawn as well as refusals.
    """
    argv = list(draw(st.sampled_from(_DOCUMENT_ARGVS)))
    if draw(st.integers(0, 5)) == 0:
        argv[1:1] = ["--tol-override", draw(st.sampled_from(
            ["eig_tol=1e-8", "grp_tol=1e-6", "alg_tol=0", "cluster_gap=0.5"]))]
    n = draw(st.one_of(st.just(3), st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    accepted = "unitary" if argv[0] in ("log", "factor") else "algebra"
    kind = draw(st.one_of(st.just(accepted), st.sampled_from(["gaussian", "unitary", "algebra"])))
    if kind == "unitary":
        z = np.linalg.qr(z)[0]
        z = z / np.linalg.det(z) ** (1.0 / n)
    elif kind == "algebra":
        z = (z - z.conj().T) / 2.0
        z = z - np.trace(z) / n * np.eye(n)
    scale = draw(st.one_of(st.just(1.0), st.sampled_from([5e-324, 1e-300, 1e100, 1e154, 1.7e308]),
                           st.floats(5e-324, 1.7e308)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        flat = (z * scale).view(np.float64).ravel().tolist()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        flat[draw(st.integers(0, 2 * n * n - 1))] = draw(st.sampled_from(_CONTRACT_EDGES))
    entries = [[flat[2 * (r * n + c):2 * (r * n + c) + 2] for c in range(n)] for r in range(n)]
    if draw(st.integers(0, 7)) == 0:
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        entries[r][c] = draw(st.sampled_from(_CONTRACT_FLAWS))
    return argv + ["-"], json.dumps({"n": n, "entries": entries})


class TestContract:
    """Every document call exits 0, 2 or 3 with one JSON document on stdout, and warns nothing."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_contract_calls())
    def test_result_or_structured_error(self, call):
        self._check(*call)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 9), st.one_of(st.sampled_from(_CONTRACT_ANGLES), st.floats()))
    def test_gellmann_result_or_structured_error(self, a, theta):
        self._check(["gellmann", "--a", str(a), f"--theta={theta!r}"], "")

    def _check(self, argv, text):
        out = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out):
                warnings.simplefilter("error")
                code = main(argv)
        finally:
            sys.stdin = stdin
        doc = json.loads(out.getvalue())
        assert isinstance(doc, dict)
        if code == 0:
            assert "error" not in doc
        else:
            assert code in (2, 3)
            assert list(doc) == ["error"] and list(doc["error"]) == ["code", "message"]
            assert isinstance(doc["error"]["code"], str)
            assert isinstance(doc["error"]["message"], str)
