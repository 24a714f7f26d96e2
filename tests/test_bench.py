"""Bench harness: report shape, reproducibility, and regime generators."""

import math

import numpy as np
import pytest

from su3kit.bench import (
    REGIMES,
    TASKS,
    BenchReport,
    _boundary_phases,
    _near_degenerate_phases,
    _regime_inputs,
    render_table,
    run_bench,
)
from su3kit.errors import InputError, NumericalError
from su3kit.invdec import lambda_roots
from su3kit.tolerances import DEFAULT_TOL, with_overrides


class TestValidation:
    def test_small_n_refused(self):
        with pytest.raises(InputError):
            run_bench("exp", "generic", 50, 1)

    def test_unknown_task_refused(self):
        with pytest.raises(InputError):
            run_bench("matmul", "generic", 100, 1)

    def test_unknown_regime_refused(self):
        with pytest.raises(InputError):
            run_bench("exp", "huge-angle", 100, 1)

    def test_negative_seed_refused(self):
        with pytest.raises(InputError):
            run_bench("exp", "generic", 100, -3)

    def test_every_sample_failing_is_refused(self):
        # within sin_zero_tol = 2 of -1 lie all eigenvalues: every log is ambiguous
        with pytest.raises(NumericalError, match="every sample failed"):
            run_bench("log", "generic", 100, 1, with_overrides(DEFAULT_TOL, sin_zero_tol=2.0))


class TestReportShape:
    def test_exp_generic_fields(self):
        r = run_bench("exp", "generic", 100, 11)
        assert isinstance(r, BenchReport)
        assert r.method == "invariant"
        assert r.task == "exp"
        assert r.regime == "generic"
        assert r.n_samples == 100
        assert r.p10_ns <= r.median_ns <= r.p90_ns
        assert r.median_ns > 0.0
        assert r.failures == 0
        assert r.oracle_median_ns is not None and r.oracle_median_ns > 0.0

    def test_exp_generic_accuracy(self):
        # the closed form must sit well inside 1e-9 of the series oracle
        r = run_bench("exp", "generic", 100, 11)
        assert r.max_rel_err <= 1e-9

    def test_log_has_oracle_timing(self):
        r = run_bench("log", "generic", 100, 5)
        assert r.oracle_median_ns is not None
        assert r.max_rel_err <= 1e-8

    def test_factorize_has_no_oracle(self):
        r = run_bench("factorize", "generic", 100, 5)
        assert r.oracle_median_ns is None
        assert r.max_rel_err <= 1e-10

    def test_as_dict_keys(self):
        r = run_bench("exp", "small-angle", 100, 2)
        d = r.as_dict()
        assert list(d) == [
            "method", "task", "regime", "n_samples", "median_ns",
            "p10_ns", "p90_ns", "max_rel_err", "failures",
            "oracle_median_ns",
        ]

    def test_boundary_log_documents_failures(self):
        # boundary behavior is reported, not asserted: the field exists
        # and counts only genuine per-sample refusals
        r = run_bench("log", "boundary", 100, 3)
        assert isinstance(r.failures, int)
        assert 0 <= r.failures < 100
        # at fact_tol = 3e-16 the det rule refuses some factorizations
        r = run_bench("factorize", "generic", 100, 3, with_overrides(DEFAULT_TOL, fact_tol=3e-16))
        assert 0 < r.failures < 100

    def test_near_degenerate_factorize_completes(self):
        r = run_bench("factorize", "near-degenerate", 100, 3)
        assert math.isfinite(r.max_rel_err)
        assert r.failures + r.n_samples >= 100


class TestReproducibility:
    @pytest.mark.parametrize("task", TASKS)
    def test_accuracy_fields_stable(self, task):
        a = run_bench(task, "generic", 100, 42)
        b = run_bench(task, "generic", 100, 42)
        assert a.max_rel_err == b.max_rel_err
        assert a.failures == b.failures
        assert a.n_samples == b.n_samples

    def test_distinct_seeds_differ(self):
        # seed windows must not overlap: generic uses seed..seed+n-1
        a = run_bench("exp", "generic", 100, 1)
        b = run_bench("exp", "generic", 100, 1000)
        assert a.max_rel_err != b.max_rel_err


class TestRegimeInputs:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_inputs_are_algebra_elements(self, regime):
        xs = _regime_inputs(regime, 100, 9, DEFAULT_TOL)
        assert len(xs) == 100
        for b in xs[:5]:
            arr = b.mat.array
            assert abs(np.trace(arr)) < 1e-12
            assert np.linalg.norm(arr + arr.conj().T) < 1e-12

    def test_near_degenerate_gaps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = np.asarray(_near_degenerate_phases(rng))
            lams = sorted(-p * p / 4.0)
            gap = min(lams[1] - lams[0], lams[2] - lams[1])
            assert 0.5e-7 < gap < 1e-6

    def test_boundary_angle_near_pi(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = np.asarray(_boundary_phases(rng))
            assert abs(p.sum()) < 1e-12
            top = max(abs(p)) / 2.0
            assert math.pi - 1e-3 <= top < math.pi

    def test_near_degenerate_lambda_roots_agree(self):
        xs = _regime_inputs("near-degenerate", 100, 21, DEFAULT_TOL)
        lams = sorted(lambda_roots(xs[0]))
        gap = min(lams[1] - lams[0], lams[2] - lams[1])
        assert gap < 1e-6


class TestRenderTable:
    def test_contains_all_fields(self):
        r = run_bench("factorize", "generic", 100, 8)
        text = render_table(r)
        lines = text.splitlines()
        assert len(lines) == 10
        for key in r.as_dict():
            assert any(line.startswith(key) for line in lines)
        assert any("n/a" in line for line in lines)

    def test_columns_aligned(self):
        r = run_bench("exp", "generic", 100, 8)
        width = len("oracle_median_ns")
        for line, key in zip(render_table(r).splitlines(), r.as_dict()):
            assert line.startswith(f"{key:<{width}}  ")
            assert line[width + 2] != " "
