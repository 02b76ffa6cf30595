"""Spectral probes against closed forms and dense eigensolver oracles."""

import numpy as np
import pytest

from helpers import matrix_with_spectrum, random_symmetric
from samlab.data import gen_synthetic
from samlab.errors import DegenerateVector, ZeroIterate
from samlab.hessian import (CONVERGED_RTOL, AlignmentReport, EigenEstimate,
                            align, hutchinson_trace, power_iteration,
                            sharpness_proxy, spectrum_deflated)
from samlab.models import MlpSpec, init_params, mlp_oracle
from samlab.optim import OptimizerConfig, init_state, sam_step
from samlab.oracle import quadratic_oracle


class TestPowerIteration:
    def test_diag_closed_form(self):
        # Start (1,1)/sqrt(2) on diag(3,1): after 5 rounds v ~ (3^5, 1).
        oracle = quadratic_oracle(np.diag([3.0, 1.0]))
        est = power_iteration(oracle, np.zeros(2), q=5, seed=0,
                              v0=np.array([1.0, 1.0]))
        assert abs(est.vector[0]) >= 0.9999
        assert 2.9999 <= est.value <= 3.0
        assert est.hvp_calls == 7

    def test_identity_fixed_point(self):
        oracle = quadratic_oracle(np.eye(3))
        v0 = np.array([0.3, -0.5, 0.7])
        est = power_iteration(oracle, np.zeros(3), q=4, seed=0, v0=v0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.residual == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(est.vector), np.abs(v0 / np.linalg.norm(v0)),
                                   atol=1e-12)

    def test_matches_dense_eigensolver_50(self):
        a = random_symmetric(50, seed=3, gap=0.5)
        oracle = quadratic_oracle(a)
        est = power_iteration(oracle, np.zeros(50), q=200, seed=1)
        lam1 = np.linalg.eigvalsh(a)[-1]
        assert abs(est.value - lam1) < 1e-6

    def test_unit_vector_invariant(self):
        a = random_symmetric(10, seed=4)
        est = power_iteration(quadratic_oracle(a), np.zeros(10), q=30, seed=2)
        assert abs(np.linalg.norm(est.vector) - 1.0) < 1e-12
        assert est.residual >= 0.0

    def test_rayleigh_monotone_on_psd(self):
        a = random_symmetric(12, seed=5)
        a = a @ a.T + 0.1 * np.eye(12)  # PSD with spread spectrum
        oracle = quadratic_oracle(a)
        values = [power_iteration(oracle, np.zeros(12), q=q, seed=3).value
                  for q in range(1, 12)]
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= prev - 1e-10

    def test_residual_bounds_error(self):
        for dim, seed in ((30, 0), (30, 1), (48, 2), (64, 3), (64, 4)):
            a = random_symmetric(dim, seed=seed, gap=0.8)
            est = power_iteration(quadratic_oracle(a), np.zeros(dim), q=150,
                                  seed=seed)
            lam1 = np.linalg.eigvalsh(a)[-1]
            assert abs(est.value - lam1) <= est.residual + 1e-12

    def test_shift_mode_recovers_algebraic_top(self):
        # lambda = -5 dominates in magnitude; a shift exposes the +2 extreme.
        a = np.diag([-5.0, 2.0, 1.0])
        oracle = quadratic_oracle(a)
        plain = power_iteration(oracle, np.zeros(3), q=300, seed=0)
        assert plain.value == pytest.approx(-5.0, abs=1e-6)
        shifted = power_iteration(oracle, np.zeros(3), q=300, seed=0, shift=5.0)
        assert shifted.value == pytest.approx(2.0, abs=1e-6)
        assert shifted.shift == 5.0

    def test_zero_iterate(self):
        oracle = quadratic_oracle(np.zeros((2, 2)))
        with pytest.raises(ZeroIterate):
            power_iteration(oracle, np.zeros(2), q=1, seed=0)

    def test_exact_hvp_budget(self):
        from samlab.oracle import CallCounter

        counter = CallCounter()
        oracle = quadratic_oracle(np.diag([3.0, 1.0]), counter=counter)
        est = power_iteration(oracle, np.zeros(2), q=9, seed=0)
        assert counter.hvp == 9 + 2 == est.hvp_calls

    def test_q_validation(self):
        with pytest.raises(ValueError):
            power_iteration(quadratic_oracle(np.eye(2)), np.zeros(2), q=0, seed=0)


class TestAlign:
    def test_parallel(self):
        v = np.array([1.0, 0.0])
        rep = align(v, v)
        assert rep.value == pytest.approx(1.0)
        assert rep.s_star == 1

    def test_antiparallel_scaled(self):
        v = np.array([0.0, 1.0])
        rep = align(-2.0 * v, v)
        assert rep.value == pytest.approx(1.0)
        assert rep.s_star == -1

    def test_orthogonal(self):
        rep = align(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert rep.value == pytest.approx(1.0 - np.sqrt(2.0))

    def test_range_and_invariances(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            eps = rng.standard_normal(5)
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            rep = align(eps, v)
            assert 1.0 - np.sqrt(2.0) - 1e-12 <= rep.value <= 1.0
            c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            assert align(c * eps, v).value == pytest.approx(rep.value, abs=1e-12)
            assert align(-eps, v).value == pytest.approx(rep.value, abs=1e-12)
            assert rep.value == pytest.approx(1.0 - np.sqrt(2.0 - 2.0 * rep.omega),
                                              abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateVector):
            align(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(DegenerateVector):
            align(np.array([1.0, 0.0]), np.array([2.0, 0.0]))


class TestSpectrumDeflated:
    def test_diag_521(self):
        oracle = quadratic_oracle(np.diag([5.0, 2.0, 1.0]))
        rep = spectrum_deflated(oracle, np.zeros(3), k=3, q=200, seed=0)
        np.testing.assert_allclose(rep.values, [5.0, 2.0, 1.0], atol=1e-5)
        assert np.all(rep.converged)

    @pytest.mark.parametrize("k", [1, 3])
    def test_k1_and_k3_match_dense(self, k):
        # Spectrum from -3.731 to 3.801; by magnitude the top three are
        # 3.801, -3.731, -2.820, of mixed sign.
        a = random_symmetric(8, seed=9)
        rep = spectrum_deflated(quadratic_oracle(a), np.zeros(8), k=k, q=40,
                                seed=4, m_trace=0)
        dense = sorted(np.linalg.eigvalsh(a), key=abs, reverse=True)[:k]
        np.testing.assert_allclose(rep.values, dense, atol=1e-10)
        assert np.all(rep.converged)
        for lam, v in zip(rep.values, rep.vectors):
            np.testing.assert_allclose(a @ v, lam * v, atol=1e-8)

    def test_matches_dense_eigensolver_64(self):
        # Geometric spectrum: every consecutive-pair gap is 10%, so the
        # deflated stages all converge within the iteration budget.
        a = matrix_with_spectrum(10.0 * 0.9 ** np.arange(64), seed=10)
        oracle = quadratic_oracle(a)
        rep = spectrum_deflated(oracle, np.zeros(64), k=5, q=300, seed=5, m_trace=0)
        dense = np.sort(np.linalg.eigvalsh(a))[::-1][:5]
        np.testing.assert_allclose(rep.values, dense, atol=1e-5)

    def test_opposite_sign_pair_resolved(self):
        oracle = quadratic_oracle(np.diag([3.0, -3.0, 1.0]))
        rep = spectrum_deflated(oracle, np.zeros(3), k=2, q=60, seed=0, m_trace=0)
        np.testing.assert_allclose(sorted(rep.values), [-3.0, 3.0], atol=1e-10)
        assert np.all(rep.converged)

    def test_small_budget_reports_unconverged_honestly(self):
        # Two Krylov vectors per pair cannot resolve a 50x50 spectrum.
        a = random_symmetric(50, seed=3)
        rep = spectrum_deflated(quadratic_oracle(a), np.zeros(50), k=3, q=2,
                                seed=0, m_trace=0)
        assert not np.any(rep.converged)
        for lam, v, res, flag in zip(rep.values, rep.vectors, rep.residuals,
                                     rep.converged):
            assert res == pytest.approx(np.linalg.norm(a @ v - lam * v),
                                        rel=1e-9)
            assert flag == (res <= CONVERGED_RTOL * max(1.0, abs(lam)))

    @pytest.mark.parametrize("diag, k", [([1.0] * 4, 2),
                                         ([2.0, 2.0, 2.0, 1.0, 1.0], 3)])
    def test_breakdown_restarts_find_repeated_eigenvalues(self, diag, k):
        # A Krylov block holds one vector per distinct eigenvalue, so every
        # repeated copy needs a restart after the block breaks down.
        oracle = quadratic_oracle(np.diag(diag))
        rep = spectrum_deflated(oracle, np.zeros(len(diag)), k=k, q=20,
                                seed=0, m_trace=0)
        np.testing.assert_allclose(rep.values, [max(diag)] * k, atol=1e-12)
        assert np.all(rep.converged)
        np.testing.assert_allclose(rep.vectors @ rep.vectors.T, np.eye(k),
                                   atol=1e-12)

    def test_hvp_calls_counted_and_capped(self):
        from samlab.oracle import CallCounter

        a = matrix_with_spectrum(10.0 * 0.9 ** np.arange(64), seed=10)
        for k, q, m_trace in ((5, 300, 0), (4, 3, 8), (2, 40, 16)):
            counter = CallCounter()
            rep = spectrum_deflated(quadratic_oracle(a, counter=counter),
                                    np.zeros(64), k=k, q=q, seed=1,
                                    m_trace=m_trace)
            assert rep.hvp_calls == counter.hvp
            assert rep.hvp_calls <= k * (q + 1) + m_trace

    def test_k_validation(self):
        oracle = quadratic_oracle(np.eye(2))
        with pytest.raises(ValueError):
            spectrum_deflated(oracle, np.zeros(2), k=0, q=5, seed=0)
        with pytest.raises(ValueError):
            spectrum_deflated(oracle, np.zeros(2), k=65, q=5, seed=0)
        with pytest.raises(ValueError):
            spectrum_deflated(oracle, np.zeros(2), k=3, q=5, seed=0)
        with pytest.raises(ValueError):
            spectrum_deflated(oracle, np.zeros(2), k=1, q=0, seed=0)


class TestHutchinson:
    def test_diagonal_exact(self):
        oracle = quadratic_oracle(np.diag([2.0, 3.0]))
        est, se = hutchinson_trace(oracle, np.zeros(2), m=4, seed=0)
        assert est == pytest.approx(5.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        est, se = hutchinson_trace(quadratic_oracle(np.zeros((3, 3))),
                                   np.zeros(3), m=8, seed=0)
        assert est == 0.0 and se == 0.0

    def test_random_matrix_within_3_stderr(self):
        a = random_symmetric(50, seed=11)
        est, se = hutchinson_trace(quadratic_oracle(a), np.zeros(50),
                                   m=10_000, seed=1)
        assert abs(est - np.trace(a)) <= 3.0 * se

    def test_m_validation(self):
        with pytest.raises(ValueError):
            hutchinson_trace(quadratic_oracle(np.eye(2)), np.zeros(2), m=1, seed=0)


class TestSharpnessProxy:
    def test_values(self):
        assert sharpness_proxy(2.0, 1.0) == 1.0
        assert sharpness_proxy(123.4, 0.0) == 0.0
        assert sharpness_proxy(10.0, 0.05) == pytest.approx(0.0125)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            sharpness_proxy(1.0, -0.1)


class TestAlignmentVsQCurve:
    def test_nondecreasing_in_expectation_mid_training(self):
        # Alignment of the q-round estimate with a converged reference grows
        # with q on a mid-training network Hessian, averaged over starts.
        spec = MlpSpec((2, 8, 2))
        ds = gen_synthetic(64, 2, 2, 4.0, seed=0)
        oracle = mlp_oracle(spec, ds.inputs, ds.labels)
        cfg = OptimizerConfig("sam", lr=0.1, rho=0.05)
        x = init_params(spec, 0).values
        state = init_state(spec.dim, 0)
        for _ in range(30):
            x, state = sam_step(x, oracle, cfg, state)
        ref = power_iteration(oracle, x, q=400, seed=0).vector
        qs = (1, 3, 9, 27, 81)
        means = []
        for q in qs:
            vals = [align(power_iteration(oracle, x, q=q, seed=s).vector, ref).value
                    for s in range(8)]
            means.append(np.mean(vals))
        for prev, nxt in zip(means, means[1:]):
            assert nxt >= prev - 1e-6
        assert means[-1] > means[0]
