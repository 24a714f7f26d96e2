"""CLI: document parsing, JSON emission, subcommands, exit codes."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from su3kit.cli import (
    emit_json,
    main,
    matrix_document,
    parse_matrix_document,
)
from su3kit.errors import DocumentError
from su3kit.oracle import exp_reference, random_group
from su3kit.smallmat import ComplexMat


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

    @pytest.mark.parametrize("name", ["simple_tol", "root_tol", "cross_tol", "grade_tol"])
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
