"""End-to-end acceptance suite.

Ten checks, each printing one pass/fail line with the measured figures
(visible under pytest -s; shown by pytest automatically on failure).
Sample counts, tolerances and time budgets are pinned here and must
not be loosened; a red line means the library missed its contract.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

import golden_util
from spec_inverse import inverse
from su3kit.bench import REGIMES, TASKS, run_bench
from su3kit.cli import emit_json
from su3kit.expmap import exp_su3
from su3kit.factorlog import (
    LogBranch,
    branch_log,
    factorize,
    normalize,
    rms_norm,
    principal_log,
)
from su3kit.gellmann import exp_gellmann, exp_gellmann8, lam, reconstruct_lambda, rho
from su3kit.grades import grade0, grade2, grade4, grade6, split_HS
from su3kit.invdec import (
    AlgebraElement,
    decompose_closed_form,
    decompose_nxn,
    decompose_via_eigen,
    lambda_roots,
)
from su3kit.oracle import exp_reference, random_algebra, random_group
from su3kit.smallmat import ComplexMat


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


class TestAcceptance:
    def test_01_decomposition_suite(self):
        """1000 random inputs: sum, commutation, simplicity, root match."""
        t0 = time.perf_counter()
        worst = {"sum": 0.0, "comm": 0.0, "simple": 0.0, "lam_pos": 0.0, "roots": 0.0}
        eye = np.eye(3)
        for seed in range(1000):
            b = random_algebra(seed)
            dec = decompose_via_eigen(b)
            nrm = max(1.0, fro(b.mat.array))
            worst["sum"] = max(worst["sum"], dec.sum_residual() / nrm)
            ps = dec.parts
            for i in range(3):
                ni = fro(ps[i].mat.array)
                sq = (ps[i].mat @ ps[i].mat).array
                worst["simple"] = max(worst["simple"], fro(sq - ps[i].lam * eye))
                worst["lam_pos"] = max(worst["lam_pos"], ps[i].lam.real)
                for j in range(i + 1, 3):
                    nj = fro(ps[j].mat.array)
                    x, y = ps[i].mat.array, ps[j].mat.array
                    c = fro(x @ y - y @ x)
                    worst["comm"] = max(worst["comm"], c / max(1.0, ni * nj))
            roots = lambda_roots(b)
            lams = sorted((p.lam.real for p in ps), reverse=True)
            worst["roots"] = max(worst["roots"],
                                 max(abs(x - y) for x, y in zip(lams, roots)))
        elapsed = time.perf_counter() - t0
        ok = (worst["sum"] <= 1e-10 and worst["comm"] <= 1e-10
              and worst["simple"] <= 1e-10 and worst["lam_pos"] <= 1e-12
              and worst["roots"] <= 1e-9 and elapsed < 5.0)
        verdict("01 decomposition-suite", ok,
                f"sum {worst['sum']:.2e}, comm {worst['comm']:.2e}, "
                f"simple {worst['simple']:.2e}, roots {worst['roots']:.2e}, "
                f"{elapsed:.2f}s of 5s")

    def test_02_closed_form_equivalence(self):
        """Closed form matches the eigen route part-for-part at 1e-8."""
        matched = 0
        worst = 0.0
        for seed in range(1000):
            b = random_algebra(seed)
            roots = lambda_roots(b)
            sep = min(min(abs(roots[i] - roots[j])
                          for i in range(3) for j in range(i + 1, 3)),
                      min(abs(r) for r in roots))
            if sep <= 1e-4:
                continue
            closed = decompose_closed_form(b, roots).parts
            eigen = list(decompose_via_eigen(b).parts)
            for cp in closed:
                # greedy nearest-lambda pairing
                k = min(range(len(eigen)),
                        key=lambda i: abs(eigen[i].lam.real - cp.lam.real))
                ep = eigen.pop(k)
                worst = max(worst, fro(cp.mat.array - ep.mat.array))
            matched += 1
        ok = matched >= 900 and worst <= 1e-8
        verdict("02 closed-form-equivalence", ok,
                f"{matched}/1000 in subset (need 900), worst part diff {worst:.2e}")

    def test_03_exponential_oracle(self):
        """Factor-product exponential equals the series oracle at 1e-10."""
        worst = {"diff": 0.0, "unitary": 0.0, "det": 0.0, "norm": 0.0}
        for seed in range(1000):
            raw = random_algebra(seed, scale=1.0 + float(seed % 3))
            arr = raw.mat.array
            n = fro(arr)
            if n > 5.0:
                # shave a few ulps so the rescaled norm stays below 5
                arr = arr * ((1.0 - 1e-14) * 5.0 / n)
            b = AlgebraElement(ComplexMat(arr))
            worst["norm"] = max(worst["norm"], fro(b.mat.array))
            u = exp_su3(b).mat.array
            worst["diff"] = max(worst["diff"], fro(u - exp_reference(b.mat).array))
            worst["unitary"] = max(worst["unitary"],
                                   fro(u.conj().T @ u - np.eye(3)))
            worst["det"] = max(worst["det"], abs(np.linalg.det(u) - 1.0))
        ok = (worst["diff"] <= 1e-10 and worst["unitary"] <= 1e-11
              and worst["det"] <= 1e-11 and worst["norm"] <= 5.0)
        verdict("03 exponential-oracle", ok,
                f"max diff {worst['diff']:.2e}, unitarity {worst['unitary']:.2e}, "
                f"det {worst['det']:.2e}, max norm {worst['norm']:.2f}")

    def test_04_grade_identities(self):
        """Trace-form grades match sin/cos product forms at 1e-9."""
        idx = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        eye = np.eye(3)
        worst = {"g0": 0.0, "g2": 0.0, "g4": 0.0, "g6": 0.0, "pseudo": 0.0}
        missing_units = 0
        for seed in range(1000):
            u = random_group(seed)
            parts = factorize(u).parts
            if any(p.unit is None for p in parts):
                missing_units += 1
                continue
            c = [math.cos(p.beta) for p in parts]
            s = [math.sin(p.beta) for p in parts]
            un = [p.unit.array for p in parts]
            g0p = c[0] * c[1] * c[2] * eye
            g2p = sum(s[i] * c[j] * c[k] * un[i] for i, j, k in idx)
            g4p = sum(c[i] * s[j] * s[k] * (un[j] @ un[k]) for i, j, k in idx)
            g6p = s[0] * s[1] * s[2] * (un[0] @ un[1] @ un[2])
            worst["g0"] = max(worst["g0"], fro(grade0(u).array - g0p))
            worst["g2"] = max(worst["g2"], fro(grade2(u).array - g2p))
            worst["g4"] = max(worst["g4"], fro(grade4(u).array - g4p))
            worst["g6"] = max(worst["g6"], fro(grade6(u).array - g6p))
            # product-form pseudoscalar grade must be i * real * identity
            mean = np.trace(g6p) / 3.0
            worst["pseudo"] = max(worst["pseudo"], fro(g6p - mean * eye),
                                  abs(mean.real))
        ok = (missing_units == 0 and worst["g0"] <= 1e-9 and worst["g2"] <= 1e-9
              and worst["g4"] <= 1e-9 and worst["g6"] <= 1e-9
              and worst["pseudo"] <= 1e-10)
        verdict("04 grade-identities", ok,
                f"g0 {worst['g0']:.2e}, g2 {worst['g2']:.2e}, g4 {worst['g4']:.2e}, "
                f"g6 {worst['g6']:.2e}, pseudoscalar {worst['pseudo']:.2e}, "
                f"{missing_units} degenerate samples")

    def test_05_factorization_round_trip(self):
        """Three recovered factors multiply back to the element at 1e-10."""
        worst = 0.0
        for seed in range(5000, 6000):
            u = random_group(seed)
            fz = factorize(u)
            prod = (fz.factors[0] @ fz.factors[1] @ fz.factors[2]).array
            worst = max(worst, fro(prod - u.mat.array))
        # engineered vanishing scalar grade, which the direct route
        # cannot see; both inverse identities are exercised
        eng_worst = 0.0
        second_inv_worst = 0.0
        inv_routes = 0
        eye = np.eye(3, dtype=complex)
        for trial in range(12):
            rng = np.random.default_rng(200 + trial)
            q, r = np.linalg.qr((rng.standard_normal((3, 3))
                                 + 1j * rng.standard_normal((3, 3))) / np.sqrt(2))
            q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
            sgn = 1.0 if trial % 2 == 0 else -1.0
            phi = rng.uniform(0.3, 2.2)
            ph = np.array([sgn * np.pi, phi, -sgn * np.pi - phi])
            b = q @ np.diag(1j * ph) @ q.conj().T
            m = exp_reference(ComplexMat((b - b.conj().T) / 2.0))
            assert rms_norm(grade0(m)) < 1e-10
            fz = factorize(m)
            if any(r.startswith("inv") for r in fz.routes):
                inv_routes += 1
            prod = (fz.factors[0] @ fz.factors[1] @ fz.factors[2]).array
            eng_worst = max(eng_worst, fro(prod - m.array))
            g = split_HS(m)
            for i in range(2):
                if rms_norm(g.H[i]) < 1e-8 or rms_norm(g.g6) < 1e-8:
                    continue
                cand = normalize(eye + g.g6.array @ inverse(g.H[i].array)).array
                got = fz.factors[i].array
                second_inv_worst = max(second_inv_worst,
                                       min(fro(cand - got), fro(cand + got)))
        ok = (worst <= 1e-10 and eng_worst <= 1e-10 and inv_routes >= 10
              and second_inv_worst <= 1e-10)
        verdict("05 factorization-round-trip", ok,
                f"haar worst {worst:.2e}, engineered worst {eng_worst:.2e} "
                f"({inv_routes}/12 via inverse routes), "
                f"second-inverse identity {second_inv_worst:.2e}")

    def test_06_logarithm_round_trips(self):
        """exp(Ln U) = U, Ln(exp B) = B, and all 27 nearby branches."""
        exp_ln_worst = 0.0
        excluded = 0
        for seed in range(3000, 4000):
            u = random_group(seed)
            fz = factorize(u)
            if max(p.beta for p in fz.parts) > math.pi - 1e-6:
                excluded += 1
                continue
            lg = principal_log(u)
            exp_ln_worst = max(exp_ln_worst,
                               fro(exp_reference(lg).array - u.mat.array))
        ln_exp_worst = 0.0
        accepted = 0
        ambiguous = 0
        seed = 6000
        while accepted + ambiguous < 1000 and seed < 9000:
            b = random_algebra(seed, scale=0.6)
            seed += 1
            betas = [p.beta for p in decompose_via_eigen(b).parts]
            if not all(0.05 < x < math.pi - 0.05 for x in betas):
                continue
            if not _minimal_winding(b.mat.array):
                # another log of exp(B) with every angle in range has
                # smaller norm; Ln cannot be asked to return B there
                ambiguous += 1
                continue
            accepted += 1
            lg = principal_log(exp_su3(b))
            ln_exp_worst = max(ln_exp_worst, fro(lg.array - b.mat.array))
        branch_worst = 0.0
        for seed in range(7000, 7005):
            u = random_group(seed)
            for k in itertools.product((-1, 0, 1), repeat=3):
                lg = branch_log(u, LogBranch(k))
                branch_worst = max(branch_worst,
                                   fro(exp_reference(lg).array - u.mat.array))
        ok = (exp_ln_worst <= 1e-9 and excluded < 10
              and accepted + ambiguous == 1000 and ambiguous < 10
              and ln_exp_worst <= 1e-8 and branch_worst <= 1e-8)
        verdict("06 logarithm-round-trips", ok,
                f"exp(Ln U) {exp_ln_worst:.2e} with {excluded}/1000 boundary "
                f"exclusions, Ln(exp B) {ln_exp_worst:.2e} on {accepted} samples "
                f"({ambiguous} ambiguous-winding excluded), "
                f"27-branch worst {branch_worst:.2e}")

    def test_07_involution_suite(self):
        """15 exact involutions, generator rebuild, subgroup closed forms."""
        eye = np.eye(3)
        exact = all(np.array_equal((rho(a) @ rho(a)).array, eye)
                    for a in range(-7, 8))
        rebuild = max(fro(reconstruct_lambda(a).array - lam(a).array)
                      for a in range(1, 9))
        grid = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 41)
        worst_closed = 0.0
        worst_oracle = 0.0
        for a in range(1, 9):
            g = lam(a).array
            for theta in grid:
                closed = (exp_gellmann(a, theta) if a <= 7
                          else exp_gellmann8(theta)).mat.array
                via_parts = exp_su3(ComplexMat(1j * theta * g)).mat.array
                worst_closed = max(worst_closed, fro(via_parts - closed))
                worst_oracle = max(worst_oracle,
                                   fro(via_parts
                                       - exp_reference(ComplexMat(1j * theta * g)).array))
        ok = (exact and rebuild <= 1e-15 and worst_closed <= 1e-12
              and worst_oracle <= 1e-12)
        verdict("07 involution-suite", ok,
                f"squares exact: {exact}, rebuild {rebuild:.2e}, "
                f"closed-form {worst_closed:.2e}, oracle {worst_oracle:.2e} "
                f"over 8 generators x 41 angles")

    def test_08_nxn_decomposition(self):
        """n = 4..8: sum, commutation, scalar squares at 1e-9."""
        worst = {"sum": 0.0, "comm": 0.0, "square": 0.0}
        for n in range(4, 9):
            rng = np.random.default_rng(31 * n)
            for _ in range(100):
                m = _random_diagonalizable(n, rng)
                parts = decompose_nxn(m)
                total = parts[0].mat.array
                for p in parts[1:]:
                    total = total + p.mat.array
                worst["sum"] = max(worst["sum"],
                                   fro(total - m.array)
                                   / max(1.0, fro(m.array)))
                eye = np.eye(n)
                for i, p in enumerate(parts):
                    sq = (p.mat @ p.mat).array
                    npi = fro(p.mat.array)
                    worst["square"] = max(worst["square"],
                                          fro(sq - p.lam * eye)
                                          / max(1.0, npi * npi))
                    for q in parts[i + 1:]:
                        x, y = p.mat.array, q.mat.array
                        c = fro(x @ y - y @ x)
                        worst["comm"] = max(worst["comm"],
                                            c / max(1.0, npi * fro(y)))
        ok = all(v <= 1e-9 for v in worst.values())
        verdict("08 nxn-decomposition", ok,
                f"sum {worst['sum']:.2e}, comm {worst['comm']:.2e}, "
                f"square {worst['square']:.2e} over 500 matrices")

    def test_09_bench_harness(self):
        """Full task x regime matrix at n = 1000 inside the time budget."""
        t0 = time.perf_counter()
        reports = {f"{task}/{regime}": run_bench(task, regime, 1000, 7).as_dict()
                   for task in TASKS for regime in REGIMES}
        elapsed = time.perf_counter() - t0
        emit_json(reports)  # report must serialize cleanly
        again = run_bench("exp", "generic", 1000, 7).as_dict()
        stable = all(again[k] == reports["exp/generic"][k]
                     for k in ("max_rel_err", "failures", "n_samples"))
        err = reports["exp/generic"]["max_rel_err"]
        ok = elapsed < 60.0 and err <= 1e-9 and stable
        verdict("09 bench-harness", ok,
                f"12 cells in {elapsed:.1f}s of 60s, exp generic err {err:.2e}, "
                f"accuracy reproducible: {stable}")

    def test_10_cli_golden(self):
        """Every stored CLI fixture byte-stable (bench: accuracy fields)."""
        names = golden_util.fixture_names()
        problems = [] if len(names) >= 12 else [f"only {len(names)} fixtures"]
        for name in names:
            problems.extend(golden_util.check_fixture(name))
        verdict("10 cli-golden", not problems,
                f"{len(names)} fixtures" if not problems else "; ".join(problems))


def _minimal_winding(arr: np.ndarray) -> bool:
    # B is a well-posed target for Ln(exp B) = B only when no
    # trace-preserving 2 pi rewinding of its eigenphases gives a log
    # of the same element with smaller (or near-tied) norm
    phases = np.linalg.eigvals(arr).imag
    base = float(phases @ phases)
    for k in itertools.product((-1, 0, 1), repeat=3):
        if sum(k) != 0 or not any(k):
            continue
        shifted = phases + 2.0 * np.pi * np.asarray(k, dtype=float)
        if float(shifted @ shifted) - base < 1e-2:
            return False
    return True


def _random_diagonalizable(n: int, rng) -> ComplexMat:
    # separated spectrum conjugated by a bounded-condition basis, so
    # diagonalizability is by construction rather than by luck
    while True:
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gaps = [abs(vals[i] - vals[j]) for i in range(n) for j in range(i + 1, n)]
        if min(gaps) >= 0.2:
            break
    while True:
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(p) <= 50.0:
            break
    return ComplexMat(p @ np.diag(vals) @ np.linalg.inv(p))
