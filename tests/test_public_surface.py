"""The documented surface: README's quick start runs, and su3kit.__all__ moves only on purpose."""

import pathlib
import re
import warnings

import su3kit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# Every public name, sorted.  Removing one breaks its callers, so it is a
# reviewed edit here, recorded in REMOVED with the reason.
PUBLIC_NAMES = [
    "AlgebraElement", "AmbiguousDirection", "BASIS", "BenchReport", "ComplexMat",
    "DEFAULT_TOL", "DegenerateLambdas", "DimensionMismatch", "DocumentError", "EigenFailure",
    "EulerFactor", "Factorization", "FactorizationFailed", "GellMannBasis",
    "GradeDecomposition", "GroupElement", "InputError", "InvalidAlgebraElement",
    "InvariantDecomposition", "LogBranch", "MissingDirection", "NonCommutingParts",
    "NonFiniteEntries", "NotDiagonalizable", "NotNormal", "NotSimpleFactor", "NotUnitary",
    "NumericalError", "Overflow", "SimplePart", "Su3KitError", "Tolerances",
    "ZeroMatrix", "branch_log", "ccos_ssin", "compare", "decompose_closed_form",
    "decompose_nxn", "decompose_via_eigen", "eigen_general", "eigen_normal3",
    "equilibrium_point", "exp_gellmann", "exp_gellmann8", "exp_reference", "exp_simple",
    "exp_su3", "factorize", "family_element", "grade0", "grade2", "grade4", "grade6",
    "invariant_combination", "lam", "lambda_roots", "log_reference", "normalize",
    "principal_log", "principal_log_factor", "random_algebra", "random_group",
    "reconstruct_lambda", "render_table", "rho", "rms_norm", "run_bench", "scalar_residual",
    "split_HS", "traceless_projection", "with_overrides",
]

REMOVED = {
    "commutator": "ComplexMat lost its arithmetic; commutators are formed on arrays",
    "Singular": "decompose_closed_form inverts no matrix, so nothing raises it",
}


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_quick_start_runs(capsys):
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.count("\n") == 3  # one line per part


def test_all_snapshot():
    assert sorted(su3kit.__all__) == PUBLIC_NAMES
    assert len(set(su3kit.__all__)) == len(su3kit.__all__)
    for name in su3kit.__all__:
        assert hasattr(su3kit, name), name


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in su3kit.__all__
        assert not hasattr(su3kit, name), name
