"""Spectral probes against closed forms and dense eigensolver oracles."""

import numpy as np
import pytest

from helpers import count_jets, matrix_with_spectrum, random_symmetric
from samlab.data import gen_synthetic
from samlab.errors import DegenerateVector, ZeroIterate
from samlab.hessian import (CONVERGED_RTOL, EigenEstimate, align,
                            hutchinson_trace, power_iterates,
                            power_iteration, sharpness_proxy,
                            spectrum_deflated)
from samlab.models import MlpSpec, init_params, mlp_oracle
from samlab.optim import OptimizerConfig, init_state, step
from samlab.oracle import quadratic_oracle


def diagonal_oracle(curv):
    """f(x) = sum of curv * x^2 / 2 over the last axis, summed over rows: a
    stacked oracle whose row s has the Hessian diag(curv[s])."""
    from samlab import engine as eng
    from samlab.oracle import LossOracle

    def build(tape, x):
        sq = eng.mul(eng.mul(x, x), tape.const(curv))
        return eng.scale(eng.sum_all(sq), 0.5)
    return LossOracle(build, np.shape(curv)[-1])


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

    def test_reports_largest_magnitude_not_algebraic_top(self):
        # lambda = -5 dominates in magnitude over the +2 algebraic top.
        a = np.diag([-5.0, 2.0, 1.0])
        oracle = quadratic_oracle(a)
        plain = power_iteration(oracle, np.zeros(3), q=300, seed=0)
        assert plain.value == pytest.approx(-5.0, abs=1e-6)

    def test_zero_iterate(self):
        oracle = quadratic_oracle(np.zeros((2, 2)))
        with pytest.raises(ZeroIterate):
            power_iteration(oracle, np.zeros(2), q=1, seed=0)

    def test_exact_hvp_budget(self):
        oracle = quadratic_oracle(np.diag([3.0, 1.0]))
        jets = count_jets(oracle)
        est = power_iteration(oracle, np.zeros(2), q=9, seed=0)
        assert len(jets) == 9 + 2 == est.hvp_calls

    def test_q_validation(self):
        with pytest.raises(ValueError):
            power_iteration(quadratic_oracle(np.eye(2)), np.zeros(2), q=0, seed=0)

    def test_stacked_rows_match_single_runs(self):
        # Row s of a stacked run starts from seed s's stream and ends where
        # that seed's single run ends; the two rows cost q + 2 HVPs together.
        curv = np.array([[3.0, -1.0, 0.5, 2.0], [0.2, 1.0, -4.0, 0.1]])
        oracle = diagonal_oracle(curv)
        jets = count_jets(oracle)
        est = power_iteration(oracle, np.zeros((2, 4)), q=6, seed=(5, 9),
                              substream=3)
        assert len(jets) == 6 + 2 == est.hvp_calls
        assert est.values.shape == est.converged.shape == (2,)
        for s, seed in enumerate((5, 9)):
            one = power_iteration(diagonal_oracle(curv[s]), np.zeros(4), q=6,
                                  seed=seed, substream=3)
            np.testing.assert_allclose(est.value[s], one.value, rtol=1e-12)
            np.testing.assert_allclose(est.residual[s], one.residual,
                                       rtol=1e-12)
            np.testing.assert_allclose(est.vector[s], one.vector, rtol=1e-12)
            assert est.converged[s] == one.converged[0]

    def test_stacked_zero_row_raises(self):
        curv = np.array([[3.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ZeroIterate):
            power_iteration(diagonal_oracle(curv), np.zeros((2, 2)), q=3,
                            seed=(0, 1))

    def test_stacked_start_normalized_row_by_row(self):
        # Row s of a stacked v0 is scaled to unit length on its own, so each
        # row ends where a single run from that row ends, whatever the
        # other rows' scale. Divided by the norm of the whole stack, the
        # small row would underflow to a zero iterate.
        curv = np.array([[3.0, -1.0, 0.5], [0.2, 1.0, -4.0]])
        v0 = np.array([[1e-152, 2e-152, -1e-152], [5e152, -2e152, 1e152]])
        est = power_iteration(diagonal_oracle(curv), np.zeros((2, 3)), q=1,
                              seed=(0, 1), v0=v0)
        for s in range(2):
            one = power_iteration(diagonal_oracle(curv[s]), np.zeros(3), q=1,
                                  seed=s, v0=v0[s])
            np.testing.assert_allclose(est.vector[s], one.vector, rtol=1e-12)
            np.testing.assert_allclose(est.value[s], one.value, rtol=1e-12)

    def test_stacked_zero_start_row_raises(self):
        v0 = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVector):
            power_iteration(diagonal_oracle(np.ones((2, 2))), np.zeros((2, 2)),
                            q=3, seed=(0, 1), v0=v0)


    @pytest.mark.parametrize("stacked", [False, True])
    def test_iterates_are_the_power_iteration_vectors(self, stacked):
        # One run of max(qs) rounds, read at every q of the grid, gives the
        # vector of a separate power iteration at that q bit for bit.
        if stacked:
            curv = np.array([[3.0, -1.0, 0.5, 2.0], [0.2, 1.0, -4.0, 0.1]])
            oracle, x = diagonal_oracle(curv), np.zeros((2, 4))
            seed, v0 = (5, 9), None
        else:
            spec = MlpSpec((2, 8, 2))
            ds = gen_synthetic(64, 2, 2, 4.0, seed=0)
            oracle = mlp_oracle(spec, ds.inputs, ds.labels)
            x, seed = init_params(spec, 0).values, 0
            v0 = np.random.default_rng(1).standard_normal(spec.dim)
        qs = (1, 3, 8, 13)
        jets = count_jets(oracle)
        vectors = power_iterates(oracle, x, qs, seed, v0=v0)
        assert len(jets) == max(qs)
        for q, v in zip(qs, vectors):
            est = power_iteration(oracle, x, q=q, seed=seed, v0=v0)
            assert v.tobytes() == est.vector.tobytes()


class TestAlign:
    def test_parallel(self):
        v = np.array([1.0, 0.0])
        assert align(v, v) == pytest.approx(1.0)

    def test_antiparallel_scaled(self):
        v = np.array([0.0, 1.0])
        assert align(-2.0 * v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert align(np.array([1.0, 0.0]),
                     np.array([0.0, 1.0])) == pytest.approx(1.0 - np.sqrt(2.0))

    def test_range_and_invariances(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            eps = rng.standard_normal(5)
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            value = align(eps, v)
            assert 1.0 - np.sqrt(2.0) - 1e-12 <= value <= 1.0
            c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            assert align(c * eps, v) == pytest.approx(value, abs=1e-12)
            assert align(-eps, v) == pytest.approx(value, abs=1e-12)
            omega = abs(eps @ v) / np.linalg.norm(eps)
            assert value == pytest.approx(1.0 - np.sqrt(2.0 - 2.0 * omega),
                                          abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-6, 1e-7])
    def test_full_precision_near_parallel(self, s, theta):
        # eps at angle theta to s v: ||eps/||eps|| - s v|| = 2 sin(theta/2),
        # which 1 - sqrt(2 - 2|cos|) misses by up to 7e-11 here.
        v = np.array([0.6, 0.8, 0.0])
        w = np.array([-0.8, 0.6, 0.0])
        eps = 3.0 * (s * np.cos(theta) * v + np.sin(theta) * w)
        assert abs(align(eps, v) - (1.0 - 2.0 * np.sin(theta / 2.0))) <= 1e-15

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
                                seed=4)
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
        rep = spectrum_deflated(oracle, np.zeros(64), k=5, q=300, seed=5)
        dense = np.sort(np.linalg.eigvalsh(a))[::-1][:5]
        np.testing.assert_allclose(rep.values, dense, atol=1e-5)

    def test_opposite_sign_pair_resolved(self):
        oracle = quadratic_oracle(np.diag([3.0, -3.0, 1.0]))
        rep = spectrum_deflated(oracle, np.zeros(3), k=2, q=60, seed=0)
        np.testing.assert_allclose(sorted(rep.values), [-3.0, 3.0], atol=1e-10)
        assert np.all(rep.converged)

    def test_small_budget_reports_unconverged_honestly(self):
        # Two Krylov vectors per pair cannot resolve a 50x50 spectrum.
        a = random_symmetric(50, seed=3)
        rep = spectrum_deflated(quadratic_oracle(a), np.zeros(50), k=3, q=2,
                                seed=0)
        assert not np.any(rep.converged)
        for lam, v, res, flag in zip(rep.values, rep.vectors, rep.residuals,
                                     rep.converged):
            assert res == pytest.approx(np.linalg.norm(a @ v - lam * v),
                                        rel=1e-9)
            assert flag == (res <= CONVERGED_RTOL * max(1.0, abs(lam)))

    @pytest.mark.parametrize("diag, k", [([1.0] * 4, 2),
                                         ([2.0, 2.0, 2.0, 1.0, 1.0], 3),
                                         ([1.0] * 7, 4)])
    def test_breakdown_restarts_find_repeated_eigenvalues(self, diag, k):
        # A Krylov block holds one vector per distinct eigenvalue, so every
        # repeated copy needs a restart after the block breaks down. With
        # H = I every block is one vector, and all their Ritz values tie.
        oracle = quadratic_oracle(np.diag(diag))
        rep = spectrum_deflated(oracle, np.zeros(len(diag)), k=k, q=20,
                                seed=0)
        np.testing.assert_allclose(rep.values, [max(diag)] * k, atol=1e-12)
        assert np.all(rep.converged)
        np.testing.assert_allclose(rep.vectors @ rep.vectors.T, np.eye(k),
                                   atol=1e-12)

    @pytest.mark.parametrize("diag, k, hvps", [([5.0] + [1.0] * 9, 1, 3),
                                               ([5.0, 4.0] + [1.0] * 8, 2, 4)])
    def test_restart_that_adds_nothing_costs_one_hvp(self, diag, k, hvps):
        # The first block breaks down once it has one vector per distinct
        # eigenvalue; it holds the top k, so the run restarts. The new
        # block breaks down at its first vector, an eigenvector of 1 that
        # is not among the top k, and the run stops there.
        oracle = quadratic_oracle(np.diag(diag))
        rep = spectrum_deflated(oracle, np.zeros(len(diag)), k=k, q=20,
                                seed=0)
        assert rep.hvp_calls == hvps
        np.testing.assert_allclose(rep.values, diag[:k], atol=1e-12)
        assert np.all(rep.converged)

    @pytest.mark.parametrize("case", ["mlp", "random", "restart"])
    def test_residuals_from_stored_hvps_match_fresh_ones(self, case):
        # Each pair's image H y is combined from the HVPs of the basis rows,
        # so the spectrum spends one HVP per basis row and none per pair,
        # and a fresh HVP of the reported vector gives the same value and
        # residual to round-off. "restart" reports the repeated top
        # eigenvalue, whose second copy only a restarted block finds, so
        # one pair comes from a locked block.
        if case == "mlp":
            spec = MlpSpec((2, 8, 2))
            ds = gen_synthetic(64, 2, 2, 4.0, seed=0)
            oracle = mlp_oracle(spec, ds.inputs, ds.labels)
            x, k, q = init_params(spec, 0).values, 4, 10
        elif case == "random":
            oracle, x, k, q = (quadratic_oracle(random_symmetric(40, seed=2)),
                               np.zeros(40), 5, 4)
        else:
            oracle, x, k, q = (quadratic_oracle(np.diag([3.0, 3.0, 2.0, 1.0,
                                                         1.0, 0.5])),
                               np.zeros(6), 2, 20)
        jets = count_jets(oracle)
        rep = spectrum_deflated(oracle, x, k=k, q=q, seed=0)
        assert rep.hvp_calls == len(jets)
        if case == "restart":
            np.testing.assert_allclose(rep.values, [3.0, 3.0], atol=1e-12)
        for lam, y, res in zip(rep.values, rep.vectors, rep.residuals):
            hy = oracle.hvp(x, y)
            tol = 1e-12 * max(1.0, abs(lam))
            assert abs(float(y @ hy) - lam) <= tol
            assert abs(float(np.linalg.norm(hy - lam * y)) - res) <= tol

    def test_hvp_calls_counted_and_capped(self):
        a = matrix_with_spectrum(10.0 * 0.9 ** np.arange(64), seed=10)
        for k, q in ((5, 300), (4, 3), (2, 40)):
            oracle = quadratic_oracle(a)
            jets = count_jets(oracle)
            rep = spectrum_deflated(oracle, np.zeros(64), k=k, q=q, seed=1)
            assert rep.hvp_calls == len(jets)
            assert rep.hvp_calls <= k * (q + 1)
        for m in (8, 16):
            oracle = quadratic_oracle(a)
            jets = count_jets(oracle)
            hutchinson_trace(oracle, np.zeros(64), m, seed=1)
            assert len(jets) == m

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
            x, state = step(x, oracle, cfg, state)
        ref = power_iteration(oracle, x, q=400, seed=0).vector
        qs = (1, 3, 9, 27, 81)
        means = []
        for q in qs:
            vals = [align(power_iteration(oracle, x, q=q, seed=s).vector, ref)
                    for s in range(8)]
            means.append(np.mean(vals))
        for prev, nxt in zip(means, means[1:]):
            assert nxt >= prev - 1e-6
        assert means[-1] > means[0]
