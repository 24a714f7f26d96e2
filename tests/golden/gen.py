"""Regenerate the CLI golden fixtures.

Run from the repository root:

    python3 tests/golden/gen.py

Every fixture's output is validated against an independent expectation
(hand-derived matrices or the series-based reference exponential)
before its bytes are frozen.  Regeneration is only needed when the
output document format or the numeric method changes; the stored bytes
are otherwise stable because all inputs are fixed seeds or exact
constants.

A bench- fixture stores timings, which differ from run to run; its
.out is rewritten only when its accuracy fields
(``golden_util.BENCH_ACCURACY_FIELDS``, the ones the golden test
compares) change, so a regeneration's diff holds method changes only.

For each exp-, factor-, log- and bench- fixture that succeeds, the
script prints the distance of the stored output and of the regenerated
one to the independent oracle (see ``oracle_distance``), so a method
change shows whether it moved its outputs closer or further.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from golden_util import bench_accuracy, run_cli_capture  # noqa: E402

from su3kit.cli import emit_json, matrix_document  # noqa: E402
from su3kit.oracle import compare, exp_reference, log_reference, random_group  # noqa: E402
from su3kit.smallmat import ComplexMat, eigen_general  # noqa: E402


def doc(arr) -> str:
    return emit_json(matrix_document(ComplexMat(np.asarray(arr, dtype=np.complex128))))


def mat_of(matrix_doc) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row]
                     for row in matrix_doc["entries"]])


def vanishing_g0_group() -> np.ndarray:
    # eigenphases (pi, 1.3, -pi-1.3) in a seeded Haar basis give
    # tr(U + U^dag) = 0, forcing the inverse recovery routes
    rng = np.random.default_rng(77)
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    b = q @ np.diag(1j * np.array([np.pi, 1.3, -np.pi - 1.3])) @ q.conj().T
    return exp_reference(ComplexMat((b - b.conj().T) / 2.0)).array


B_EXAMPLE = np.diag([0.3j, -0.1j, -0.2j])
HALF_TURN = np.array([[0, 1j * np.pi, 0], [1j * np.pi, 0, 0], [0, 0, 0]])
U_QUARTER = np.diag([1j, -1j, 1.0])
HAAR42 = random_group(42).mat.array
# a seeded, well-conditioned, non-diagonal 7x7 complex matrix: its parts
# and commutators carry rounding, unlike the diagonal --nxn fixture's
NXN_GENERAL = np.random.default_rng(19).standard_normal((7, 7, 2)).view(np.complex128)[..., 0]
SQRT3_PI = math.sqrt(3.0) * math.pi


def v_decompose_example(out):
    assert sorted(out["betas"]) == [0.05, 0.1, 0.15] or \
        max(abs(a - b) for a, b in zip(sorted(out["betas"]), (0.05, 0.1, 0.15))) < 1e-12
    assert out["sum_error"] < 1e-15


def v_decompose_zero(out):
    for p in out["parts"]:
        assert np.all(mat_of(p) == 0)


def v_decompose_nxn(out):
    want = np.diag([-2.0, 2.0, 2.0, 2.0])
    assert min(np.linalg.norm(mat_of(p) - want) for p in out["parts"]) < 1e-12


def v_decompose_nxn_general(out):
    parts = [mat_of(p) for p in out["parts"]]
    assert len(parts) == 7
    assert np.linalg.norm(sum(parts) - NXN_GENERAL) < 1e-12
    assert out["max_commutator"] < 1e-12
    for p, lam in zip(parts, out["lambdas"]):
        assert np.linalg.norm(p @ p - complex(*lam) * np.eye(7)) < 1e-12


def v_exp_zero(out):
    assert np.linalg.norm(mat_of(out["u"]) - np.eye(3)) < 1e-15


def v_exp_half_turn(out):
    u = mat_of(out["u"])
    assert np.linalg.norm(u - np.diag([-1.0, -1.0, 1.0])) < 1e-12
    assert np.linalg.norm(u - exp_reference(ComplexMat(HALF_TURN)).array) < 1e-12


def v_exp_both(out):
    assert out["method_distance"] < 1e-12
    assert np.linalg.norm(mat_of(out["u"])
                          - exp_reference(ComplexMat(B_EXAMPLE)).array) < 1e-12


def v_log_identity(out):
    assert np.all(mat_of(out["log"]) == 0)


def v_log_quarter(out):
    want = np.diag([1j * np.pi / 2, -1j * np.pi / 2, 0])
    assert np.linalg.norm(mat_of(out["log"]) - want) < 1e-12


def v_log_branch(out):
    assert out["branch"] == [1, 0, 0]
    assert out["roundtrip_error"] <= 1e-8
    back = exp_reference(ComplexMat(mat_of(out["log"]))).array
    assert np.linalg.norm(back - HAAR42) < 1e-8


def v_factor_identity(out):
    assert out["routes"] == ["simple", "simple", "closing"]
    for f in out["factors"]:
        assert np.linalg.norm(mat_of(f) - np.eye(3)) < 1e-12


def v_factor_haar42(out):
    assert out["product_residual"] < 1e-10
    fs = [mat_of(f) for f in out["factors"]]
    assert np.linalg.norm(fs[0] @ fs[1] @ fs[2] - HAAR42) < 1e-10


def v_factor_vanishing(out):
    assert any(r.startswith("inv") for r in out["routes"])
    assert out["product_residual"] < 1e-10


def v_gellmann_a1(out):
    assert np.linalg.norm(mat_of(out["u"]) - np.diag([-1.0, -1.0, 1.0])) < 1e-13


def v_gellmann_a8(out):
    u = mat_of(out["u"])
    lam8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    assert np.linalg.norm(u - np.diag([-1.0, -1.0, 1.0])) < 1e-12
    assert np.linalg.norm(u - exp_reference(ComplexMat(1j * SQRT3_PI * lam8)).array) < 1e-12
    assert np.linalg.norm(u - np.diag(np.diag(u))) == 0.0


def v_bench_exp(out):
    assert out["task"] == "exp" and out["regime"] == "generic"
    assert out["max_rel_err"] <= 1e-9
    assert out["failures"] == 0


def error_code(code):
    def check(out):
        assert out["error"]["code"] == code
    return check


FIXTURES = [
    ("decompose-example", ["decompose", "-"], doc(B_EXAMPLE), 0, v_decompose_example),
    ("decompose-zero", ["decompose", "-"], doc(np.zeros((3, 3))), 0, v_decompose_zero),
    ("decompose-hermitian-su3", ["decompose", "-", "--require-su3"],
     doc(np.diag([1.0, 2.0, -3.0])), 2, error_code("invalid_algebra_element")),
    ("decompose-nxn-diag", ["decompose", "-", "--nxn"],
     doc(np.diag([1.0, 2.0, 3.0, 4.0])), 0, v_decompose_nxn),
    ("decompose-nxn-general", ["decompose", "-", "--nxn"],
     doc(NXN_GENERAL), 0, v_decompose_nxn_general),
    ("exp-zero", ["exp", "-"], doc(np.zeros((3, 3))), 0, v_exp_zero),
    ("exp-half-turn", ["exp", "-"], doc(HALF_TURN), 0, v_exp_half_turn),
    ("exp-both-example", ["exp", "-", "--method", "both"],
     doc(B_EXAMPLE), 0, v_exp_both),
    ("log-identity", ["log", "-"], doc(np.eye(3)), 0, v_log_identity),
    ("log-quarter-diag", ["log", "-"], doc(U_QUARTER), 0, v_log_quarter),
    ("log-minus-identity", ["log", "-"], doc(-np.eye(3)), 3,
     error_code("ambiguous_direction")),
    ("log-branch-haar42", ["log", "-", "--branch", "1,0,0"],
     doc(HAAR42), 0, v_log_branch),
    ("factor-identity", ["factor", "-"], doc(np.eye(3)), 0, v_factor_identity),
    ("factor-haar42", ["factor", "-"], doc(HAAR42), 0, v_factor_haar42),
    ("factor-vanishing-g0", ["factor", "-"], doc(vanishing_g0_group()), 0,
     v_factor_vanishing),
    ("gellmann-a1-pi", ["gellmann", "--a", "1", "--theta", "3.14159265358979"],
     None, 0, v_gellmann_a1),
    ("gellmann-a8-sqrt3pi", ["gellmann", "--a", "8", "--theta", repr(SQRT3_PI)],
     None, 0, v_gellmann_a8),
    ("gellmann-a9", ["gellmann", "--a", "9"], None, 2,
     error_code("invalid_document")),
    ("bench-exp-generic", ["bench", "--task", "exp", "--regime", "generic",
                           "--n", "100", "--seed", "3"], None, 0, v_bench_exp),
    ("bench-n-too-small", ["bench", "--n", "50"], None, 2,
     error_code("invalid_input")),
]


def oracle_factors(u: np.ndarray) -> list[np.ndarray]:
    """exp of the parts of u's least-norm traceless log, from the LAPACK eigensystem.

    Part i is (i theta_i / 2)(2 q_i q_i^dag - 1) for eigenvector q_i, so
    its exponential is cos(theta_i / 2) 1 + i sin(theta_i / 2)(2 q_i q_i^dag - 1).
    """
    es = eigen_general(u)
    phases = np.angle(np.array(es.values))
    thetas = [phases + 2.0 * math.pi * np.array(k)
              for k in itertools.product((-1, 0, 1), repeat=3)]
    theta = min((t for t in thetas if abs(t.sum()) < 1.0), key=lambda t: float(t @ t))
    q = es.vectors.array
    return [math.cos(t / 2.0) * np.eye(3)
            + 1j * math.sin(t / 2.0) * (2.0 * np.outer(q[:, i], q[:, i].conj()) - np.eye(3))
            for i, t in enumerate(theta)]


def oracle_distance(argv, stdin_text, out: str) -> str | None:
    """How far an exp, factor, log or bench output is from the oracle; None for others.

    exp: the distance to exp_reference of the input.  factor: the
    largest distance of a factor from the oracle factor of the same
    index, up to its sign (a factor and its pi-complement differ by
    sign), and the product residual.  log: the distance to
    log_reference for the principal branch, the round trip through
    exp_reference for another branch.  bench: its own max_rel_err,
    measured against the oracle.
    """
    if argv[0] not in ("exp", "factor", "log", "bench"):
        return None
    doc_out, _ = json.JSONDecoder().raw_decode(out)
    if "error" in doc_out:
        return None
    if argv[0] == "bench":
        return f"{doc_out['max_rel_err']:.3e} (max_rel_err)"
    u = mat_of(json.loads(stdin_text))
    if argv[0] == "exp":
        return f"{compare(mat_of(doc_out['u']), exp_reference(u)):.3e}"
    if argv[0] == "factor":
        fs = [mat_of(f) for f in doc_out["factors"]]
        dist = max(min(compare(f, o), compare(f, -o)) for f, o in zip(fs, oracle_factors(u)))
        return f"{dist:.3e} (product {compare(fs[0] @ fs[1] @ fs[2], u):.3e})"
    log = mat_of(doc_out["log"])
    if doc_out["branch"] not in (None, [0, 0, 0]):
        return f"{compare(exp_reference(log), u):.3e} (round trip)"
    return f"{compare(log, log_reference(u)):.3e}"


def main() -> int:
    for name, argv, stdin_text, want_exit, validate in FIXTURES:
        code, out = run_cli_capture(argv, stdin_text)
        assert code == want_exit, f"{name}: exit {code}, want {want_exit}"
        parsed, _ = json.JSONDecoder().raw_decode(out)
        validate(parsed)
        new = oracle_distance(argv, stdin_text, out)
        stored = HERE / f"{name}.out"
        if new is not None and stored.exists():
            old = oracle_distance(argv, stdin_text, stored.read_text())
            print(f"{name}: oracle distance stored {old}, regenerated {new}")
        cmd = {"argv": argv, "stdin": stdin_text, "exit": want_exit}
        (HERE / f"{name}.json").write_text(json.dumps(cmd, indent=2) + "\n")
        if name.startswith("bench") and stored.exists() and want_exit == 0 \
                and bench_accuracy(out) == bench_accuracy(stored.read_text()):
            print(f"kept {name}: accuracy fields unchanged")
            continue
        stored.write_text(out)
        print(f"wrote {name} ({len(out)} bytes)")
    print(f"{len(FIXTURES)} fixtures validated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
