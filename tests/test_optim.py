"""Optimizer steps: hand-checked examples, identities, and properties."""

import numpy as np
import pytest

from samlab.bounds import ConvergenceInputs, alpha_admissible_range, convergence_bound
from samlab.data import gen_synthetic, sample_batch, BatchSampler, POLICY_REPLACEMENT
from samlab.models import MlpSpec, init_params, mlp_oracle
from samlab.optim import (METHODS, OptimizerConfig, OptimizerState,
                          eigen_sam_perturbation, init_state, sam_perturbation,
                          schedule_lr, step)
from samlab.oracle import quadratic_oracle, LossOracle
from samlab import engine as eng


def cfg(method, **kw):
    defaults = dict(lr=0.1, rho=0.0, alpha=0.0, momentum=0.0, weight_decay=0.0,
                    schedule="constant", total_steps=100)
    defaults.update(kw)
    return OptimizerConfig(method=method, **defaults)


class TestPerturbations:
    def test_normalization(self):
        np.testing.assert_allclose(sam_perturbation(np.array([3.0, 4.0])),
                                   [0.6, 0.8])
        np.testing.assert_allclose(sam_perturbation(np.array([1.0, 0.0])),
                                   [1.0, 0.0])

    def test_floor_gives_zero(self):
        out = sam_perturbation(np.array([1e-13, 0.0]), tau=1e-12)
        np.testing.assert_array_equal(out, 0.0)

    def test_eigen_hand_value(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        out = eigen_sam_perturbation(np.array([1.0, 0.0]), v, 0.2)
        np.testing.assert_allclose(out, [1.0, 0.1414214], atol=5e-8)

    def test_eigen_alpha_zero_is_sam(self):
        g = np.array([0.3, -0.7, 0.2])
        v = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(eigen_sam_perturbation(g, v, 0.0),
                                      sam_perturbation(g))

    def test_eigen_parallel_v_is_sam(self):
        g = np.array([2.0, 0.0])
        for sign in (1.0, -1.0):
            v = sign * np.array([1.0, 0.0])
            np.testing.assert_allclose(eigen_sam_perturbation(g, v, 0.7),
                                       sam_perturbation(g), atol=1e-15)

    def test_eigen_norm_identity(self):
        # ||pert||^2 = 1 + alpha^2 (1 - <v, ghat>^2) whenever ||g|| >= tau.
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = rng.standard_normal(6)
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            alpha = rng.uniform(0.0, 2.0)
            pert = eigen_sam_perturbation(g, v, alpha)
            ghat = g / np.linalg.norm(g)
            want = 1.0 + alpha ** 2 * (1.0 - (v @ ghat) ** 2)
            assert np.linalg.norm(pert) ** 2 == pytest.approx(want, abs=1e-10)

    def test_alignment_improvement_inside_admissible_range(self):
        # Constructed unit pairs at controlled omega; alpha inside the
        # admissible interval must strictly increase the cosine with v.
        rng = np.random.default_rng(42)
        improved = 0
        for _ in range(1000):
            dim = 8
            ghat = rng.standard_normal(dim)
            ghat /= np.linalg.norm(ghat)
            perp = rng.standard_normal(dim)
            perp -= (perp @ ghat) * ghat
            perp /= np.linalg.norm(perp)
            omega = rng.uniform(0.05, 0.999)
            v = omega * ghat + np.sqrt(1 - omega ** 2) * perp
            lo, hi = alpha_admissible_range(omega)
            alpha = rng.uniform(1e-3, min(hi, 10.0))
            pert = eigen_sam_perturbation(ghat, v, alpha)
            new_cos = abs(pert @ v) / np.linalg.norm(pert)
            assert new_cos > omega
            improved += 1
        assert improved == 1000


class TestStepExamples:
    def test_sgd(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        x, _ = step(np.array([1.0]), oracle, cfg("sgd"), init_state(1))
        assert x[0] == pytest.approx(0.9, abs=1e-15)

    def test_sam_hand_value(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        x, _ = step(np.array([1.0]), oracle, cfg("sam", rho=0.1), init_state(1))
        assert x[0] == pytest.approx(0.89, abs=1e-15)

    def test_reverse_sam_hand_value(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        x, _ = step(np.array([1.0]), oracle, cfg("reversesam", rho=0.1),
                    init_state(1))
        assert x[0] == pytest.approx(0.91, abs=1e-15)

    def test_egr_hand_value(self):
        oracle = quadratic_oracle(np.diag([2.0, 1.0]))
        x, state = step(np.array([1.0, 0.0]), oracle, cfg("egr", rho=0.1),
                        init_state(2))
        np.testing.assert_allclose(x, [0.78, 0.0], atol=1e-15)
        assert state.hvp_count == 1

    def test_mirror_symmetry_on_quadratic(self):
        oracle = quadratic_oracle(np.diag([2.0, 0.5]))
        x0 = np.array([1.0, -2.0])
        sgd_x, _ = step(x0, oracle, cfg("sgd"), init_state(2))
        sam_x, _ = step(x0, oracle, cfg("sam", rho=0.05), init_state(2))
        rev_x, _ = step(x0, oracle, cfg("reversesam", rho=0.05), init_state(2))
        np.testing.assert_allclose(sam_x + rev_x, 2 * sgd_x, atol=1e-14)

    def test_momentum_recurrence(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        c = cfg("sgd", momentum=0.9)
        x0 = np.array([1.0])
        x1, s1 = step(x0, oracle, c, init_state(1))
        x2, s2 = step(x1, oracle, c, s1)
        # Second direction = g(x1) + 0.9 g(x0).
        expected = x1 - 0.1 * (x1 + 0.9 * x0)
        assert x2[0] == pytest.approx(expected[0], abs=1e-15)

    def test_cosine_schedule_endpoint(self):
        c = cfg("sgd", schedule="cosine", total_steps=40)
        assert schedule_lr(c, 40) == pytest.approx(0.1 * 0.5 * (1 + np.cos(np.pi)),
                                                   abs=1e-12)
        assert schedule_lr(c, 40) == pytest.approx(0.0, abs=1e-12)

    def test_weight_decay_decoupled_from_perturbation(self):
        # With a gradient below the floor, the update is pure decay.
        oracle = quadratic_oracle(np.array([[1.0]]))
        c = cfg("sam", rho=0.5, weight_decay=0.01)
        x, _ = step(np.array([1e-14]), oracle, c, init_state(1))
        assert x[0] == pytest.approx(1e-14 - 0.1 * (1e-14 + 0.01 * 1e-14))

    def test_stationary_point_egr_unchanged_without_decay(self):
        oracle = quadratic_oracle(np.eye(2))
        x, state = step(np.zeros(2), oracle, cfg("egr", rho=0.3), init_state(2))
        np.testing.assert_array_equal(x, 0.0)
        assert state.hvp_count == 0

    def test_stacked_egr_counts_only_rows_above_the_floor(self):
        # Row 0 sits at its stationary point, row 1 does not: the stacked
        # HVP is taken once, and only row 1 uses and counts it.
        from test_hessian import diagonal_oracle

        curv = np.array([[2.0, 1.0, 0.5], [3.0, 0.5, 1.0]])
        x0 = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
        c = cfg("egr", rho=0.3, momentum=0.9, weight_decay=0.01)
        x, state = step(x0, diagonal_oracle(curv), c, init_state(3, (0, 1)))
        np.testing.assert_array_equal(state.hvp_count, [0, 1])
        for s in range(2):
            xs, ss = step(x0[s], diagonal_oracle(curv[s]), c, init_state(3, s))
            np.testing.assert_allclose(x[s], xs, rtol=1e-12, atol=0)
            assert state.hvp_count[s] == ss.hvp_count

    @pytest.mark.parametrize("method,p", [(m, 1) for m in METHODS]
                             + [("eigensam", 3)])
    def test_stacked_step_is_row_wise(self, method, p):
        # Four steps on a (2, d) stack equal four steps of each row alone,
        # in the point and the HVP count; Eigen-SAM refreshes per row.
        from test_hessian import diagonal_oracle

        curv = np.array([[2.0, 1.0, 0.5], [3.0, 0.5, 1.0]])
        x0 = np.array([[0.4, 1.5, -1.0], [1.0, -2.0, 0.5]])
        c = cfg(method, rho=0.3, alpha=0.2, refresh_every=p, power_iters=3,
                momentum=0.9, weight_decay=0.01)
        x, state = x0, init_state(3, (0, 1))
        for _ in range(4):
            x, state = step(x, diagonal_oracle(curv), c, state)
        for s in range(2):
            xs, ss = x0[s], init_state(3, s)
            for _ in range(4):
                xs, ss = step(xs, diagonal_oracle(curv[s]), c, ss)
            np.testing.assert_allclose(x[s], xs, rtol=1e-12, atol=0)
            assert state.hvp_count[s] == ss.hvp_count

    def test_stacked_perturbations_are_row_wise(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 5))
        g[1] = 1e-14
        v = rng.standard_normal((3, 5))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        eps = eigen_sam_perturbation(g, v, 0.4, tau=1e-12)
        np.testing.assert_array_equal(eps[1], 0.0)
        for s in (0, 2):
            np.testing.assert_allclose(eps[s], eigen_sam_perturbation(g[s], v[s], 0.4),
                                       rtol=1e-12)
            np.testing.assert_allclose(sam_perturbation(g)[s], sam_perturbation(g[s]),
                                       rtol=1e-12)

    def test_all_live_rows_equal_the_masked_path(self):
        # Rows [g0, g1] are all above the floor and skip the masks; with a
        # third row below it, the same two rows go through the masked path.
        rng = np.random.default_rng(11)
        g = rng.standard_normal((3, 6))
        g[2] = 1e-14
        v = rng.standard_normal((3, 6))
        v[1] = -g[1] + 0.3 * v[1]                # a row whose sign flips
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        np.testing.assert_array_equal(sam_perturbation(g[:2]),
                                      sam_perturbation(g)[:2])
        np.testing.assert_array_equal(eigen_sam_perturbation(g[:2], v[:2], 0.4),
                                      eigen_sam_perturbation(g, v, 0.4)[:2])


def run_trajectory(method, steps=100, seed=0, **kw):
    spec = MlpSpec((2, 8, 2))
    ds = gen_synthetic(64, 2, 2, 4.0, seed=0)
    sampler = BatchSampler(16, seed, POLICY_REPLACEMENT)
    c = cfg(method, momentum=0.9, weight_decay=5e-5, **kw)
    x = init_params(spec, seed).values
    state = init_state(spec.dim, seed)
    for t in range(steps):
        idx = sample_batch(sampler, ds, t)
        oracle = mlp_oracle(spec, ds.inputs[idx], ds.labels[idx])
        x, state = step(x, oracle, c, state)
    return x, state


class TestTrajectoryIdentities:
    def test_eigensam_alpha0_equals_sam(self):
        sam_x, _ = run_trajectory("sam", rho=0.05)
        eig_x, eig_state = run_trajectory("eigensam", rho=0.05, alpha=0.0,
                                          refresh_every=10, power_iters=3)
        assert np.max(np.abs(sam_x - eig_x)) < 1e-12
        assert eig_state.hvp_count == 10 * (3 + 2)  # refreshes at 1, 11, ..., 91

    def test_rho0_reduces_to_sgd(self):
        sgd_x, _ = run_trajectory("sgd")
        for method in ("sam", "reversesam", "egr"):
            x, _ = run_trajectory(method, rho=0.0)
            assert np.max(np.abs(sgd_x - x)) < 1e-12

    def test_eigensam_refresh_cadence_hvp_counts(self):
        _, state = run_trajectory("eigensam", steps=25, rho=0.05, alpha=0.1,
                                  refresh_every=10, power_iters=4)
        # Refreshes at t1 = 1, 11, 21: three refreshes, q + 2 HVPs each.
        assert state.hvp_count == 3 * 6

    @pytest.mark.parametrize("p,refreshes", [(1, 6), (2, 3), (3, 2)])
    def test_eigensam_refreshes_every_p_steps(self, p, refreshes):
        # Refreshes at t1 = 1, p + 1, 2p + 1, ...: p = 1 refreshes every step.
        oracle = quadratic_oracle(np.diag([3.0, 1.0]))
        c = cfg("eigensam", rho=0.05, alpha=0.1, refresh_every=p, power_iters=2)
        x, state = np.array([1.0, -0.5]), init_state(2)
        for _ in range(6):
            x, state = step(x, oracle, c, state)
        assert state.hvp_count == refreshes * (2 + 2)

    def test_step_dispatch(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        x, _ = step(np.array([1.0]), oracle, cfg("sgd"), init_state(1))
        assert x[0] == pytest.approx(0.9)


class TestConvergenceBoundEmpirical:
    def test_running_mean_gradient_norm_below_bound(self):
        # Batch losses f_b(x) = (beta/2)||x - c_b||^2: beta-smooth, with batch
        # gradient variance fixed by the spread of the centers.
        beta = 2.0
        dim = 4
        rng = np.random.default_rng(0)
        centers = 0.1 * rng.standard_normal((8, dim))
        centers -= centers.mean(axis=0)  # E f has its minimum at 0

        def make_oracle(c):
            a = beta * np.eye(dim)
            return quadratic_oracle(a, -beta * c)

        oracles = [make_oracle(c) for c in centers]
        x0 = np.ones(dim) / np.sqrt(dim)   # ||x0|| = 1
        gap = 0.5 * beta * 1.0             # f(x0) - f* = (beta/2)||x0||^2
        sigma2 = float(beta ** 2 * (centers ** 2).sum(axis=1).mean())
        rho, alpha = 0.1, 0.2
        for steps in (100, 1000):
            inputs = ConvergenceInputs(beta=beta, gap=gap, batch_var=sigma2,
                                       steps=steps, rho=rho, alpha=alpha)
            eta, bound = convergence_bound(inputs)
            c = cfg("eigensam", lr=eta, rho=rho, alpha=alpha,
                    refresh_every=10, power_iters=3, total_steps=steps)
            x = x0.copy()
            state = init_state(dim, 0)
            draw = np.random.default_rng(1)
            total = 0.0
            for t in range(steps):
                oracle = oracles[draw.integers(len(oracles))]
                total += float(np.linalg.norm(oracle.grad(x)) ** 2)
                x, state = step(x, oracle, c, state)
            assert total / steps <= bound


class TestValidation:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", lr=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig("nope", lr=0.1)
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", lr=0.1, rho=-0.1)
        for decay in (-1e-4, float("nan")):
            with pytest.raises(ValueError):
                OptimizerConfig("sgd", lr=0.1, weight_decay=decay)
        for key in ("rho", "alpha", "grad_floor"):
            with pytest.raises(ValueError):
                OptimizerConfig("sam", lr=0.1, **{key: float("nan")})
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", lr=float("nan"))
