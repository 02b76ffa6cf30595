"""Drift decomposition, diffusion assembly, integrator, and moment probes."""

import numpy as np
import pytest

from samlab import engine as eng
from samlab.data import analytic_family, gen_synthetic, mlp_family
from samlab.errors import GapViolated, NonFiniteState
from samlab.hessian import spectrum_deflated
from samlab.models import MlpSpec, init_params
from samlab.optim import GRAD_FLOOR, sam_perturbation
from samlab.oracle import LossOracle, polynomial_oracle_1d, quadratic_oracle
from samlab.rng import STREAM_SDE_NOISE, stream
from samlab.sde import (ALIGNED, SampledNoise, VARIANT_ALIGNED_RHO,
                        VARIANT_ALIGNED_RHO2, DriftDecomposition,
                        _per_batch_terms, drift,
                        drift_aligned, euler_maruyama_step,
                        one_step_moment_probe, sde_coefficients, sigma_exact)
from samlab.toys import TOYS


def terms_at(fam, x, order=3):
    """The per-batch terms at x that an order-``order`` model reads."""
    return _per_batch_terms(fam, x, order == 3, GRAD_FLOOR)


class TestDrift:
    def test_quadratic_single_batch(self):
        # f = 0.5 x^T A x: term3 = 0, term2 = A^2 x / ||A x||.
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        fam = analytic_family([quadratic_oracle(a)])
        x = np.array([0.7, -0.4])
        dd = drift(fam, terms_at(fam, x), order=3, rho=0.1)
        np.testing.assert_allclose(dd.term3, 0.0, atol=1e-12)
        ax = a @ x
        np.testing.assert_allclose(dd.term2, a @ ax / np.linalg.norm(ax), atol=1e-12)
        np.testing.assert_allclose(dd.term1, ax, atol=1e-14)

    def test_cubic_three_terms(self):
        fam = analytic_family([polynomial_oracle_1d([0, 0, 0, 1.0])])
        dd = drift(fam, terms_at(fam, np.array([1.0])), order=3, rho=0.1)
        assert dd.term1[0] == pytest.approx(3.0)
        assert dd.term2[0] == pytest.approx(6.0)
        assert dd.term3[0] == pytest.approx(6.0)

    def test_two_batch_enumeration(self):
        # Batch losses x^2/2 and x^2 at x = 1: term2 = mean(1, 2) = 1.5.
        fam, x0 = TOYS["twobatch1d"]()
        dd = drift(fam, terms_at(fam, x0), order=3, rho=0.2)
        assert dd.term1[0] == pytest.approx(1.5)
        assert dd.term2[0] == pytest.approx(1.5)
        assert dd.term3[0] == pytest.approx(0.0, abs=1e-12)

    def test_order2_zeroes_term3(self):
        fam = analytic_family([polynomial_oracle_1d([0, 0, 0, 1.0])])
        dd = drift(fam, terms_at(fam, np.array([1.0]), 2), order=2, rho=0.1)
        assert dd.term3[0] == 0.0

    def test_combined_identity(self):
        rng = np.random.default_rng(0)
        dd = DriftDecomposition(rng.standard_normal(4), rng.standard_normal(4),
                                rng.standard_normal(4), rho=0.3)
        manual = dd.term1 + 0.3 * dd.term2 + 0.5 * 0.09 * dd.term3
        np.testing.assert_array_equal(dd.combined(), manual)

    def test_degenerate_batch_contributes_zero(self):
        # One batch has its minimum at the probe point: it must not inject
        # a division blow-up into terms 2-3.
        fam = analytic_family([quadratic_oracle(np.eye(1)),
                               polynomial_oracle_1d([0, 0, 0.5])])
        dd = drift(fam, terms_at(fam, np.array([0.0])), order=3, rho=0.1)
        assert np.isfinite(dd.term2).all()
        np.testing.assert_array_equal(dd.term2, 0.0)

    def test_live_batches_are_the_ones_sam_moves(self):
        # tau exactly at a batch's gradient norm, taken row by row or along
        # an axis: the two norms can differ in the last bit, and the SDE
        # terms must put the batch on the same side of the floor as SAM.
        spec = MlpSpec((2, 16, 2))
        fam = mlp_family(spec, gen_synthetic(256, 2, 2, 4.0, 0), 32)
        x = init_params(spec, 0).values
        t1s = _per_batch_terms(fam, x, False, GRAD_FLOOR)[0]
        taus = {*(np.linalg.norm(row) for row in t1s),
                *np.linalg.norm(t1s, axis=1)}
        for tau in sorted(taus):
            live = _per_batch_terms(fam, x, False, tau)[3]
            np.testing.assert_array_equal(
                live, sam_perturbation(t1s, tau).any(axis=1), err_msg=repr(tau))


class TestSigmaExact:
    def test_single_batch_zero(self):
        fam = analytic_family([quadratic_oracle(np.diag([2.0, 1.0]))])
        dm = sigma_exact(fam, terms_at(fam, np.array([1.0, 1.0])), rho=0.3)
        np.testing.assert_allclose(dm.sigma, 0.0, atol=1e-14)
        np.testing.assert_allclose(dm.sqrt, 0.0, atol=1e-14)

    def test_rho0_is_gradient_covariance(self):
        fam, x0 = TOYS["twobatch2d"]()
        dm = sigma_exact(fam, terms_at(fam, x0), rho=0.0)
        grads = [o.grad(x0) for o in fam.oracles]
        mean = np.mean(grads, axis=0)
        want = np.mean([np.outer(g - mean, g - mean) for g in grads], axis=0)
        np.testing.assert_allclose(dm.sigma, want, atol=1e-12)

    def test_rows_equal_the_per_point_loop_bit_for_bit(self):
        # Reference: each point's rows centered by family.mean, its K from
        # np.kron, and its own 2-D qr and eigh.
        spec, rho, orders = MlpSpec((2, 16, 2)), 0.2, [2, 3, 3]
        fam = mlp_family(spec, gen_synthetic(100, 2, 2, 4.0, 0), 32)
        x = np.stack([init_params(spec, s).values for s in range(3)])
        # The floor leaves points 0 and 1 with live and dead batches.
        terms = _per_batch_terms(fam, x, [o == 3 for o in orders], 3.1)
        assert all(0 < live.sum() < live.size for live in terms[3][:2])
        for dm, *point, order in zip(sigma_exact(fam, terms, rho, orders),
                                     *terms, orders):
            t1s, t2s, t3s, live = point
            rows = np.concatenate([t1s - fam.mean(t1s)] + [
                np.where(live[:, None], t - fam.mean(t), 0.0) for t in (t2s, t3s)])
            r2 = rho ** 2 if order == 3 else 0.0
            k = np.kron([[1.0, rho, 0.5 * r2], [rho, r2, 0.0], [0.5 * r2, 0.0, 0.0]],
                        np.diag(fam.weights))
            q, r = np.linalg.qr(rows.T)
            core = r @ k @ r.T
            vals, vecs = np.linalg.eigh(0.5 * (core + core.T))
            assert dm.vals.tobytes() == vals.tobytes()
            assert dm.basis.tobytes() == (q @ vecs).tobytes()

    def test_matches_brute_force_outer_products(self):
        fam, x0 = TOYS["twobatch2d"]()
        rho = 0.15
        g = [o.grad(x0) for o in fam.oracles]
        t2 = [o.hvp(x0, gi) / np.linalg.norm(gi) for o, gi in zip(fam.oracles, g)]
        t3 = [o.third_directional(x0, gi / np.linalg.norm(gi))
              for o, gi in zip(fam.oracles, g)]
        c1 = [v - np.mean(g, axis=0) for v in g]
        c2 = [v - np.mean(t2, axis=0) for v in t2]
        c3 = [v - np.mean(t3, axis=0) for v in t3]
        s11 = np.mean([np.outer(a, a) for a in c1], axis=0)
        s12 = np.mean([np.outer(a, b) for a, b in zip(c1, c2)], axis=0)
        s22 = np.mean([np.outer(b, b) for b in c2], axis=0)
        s13 = np.mean([np.outer(a, c) for a, c in zip(c1, c3)], axis=0)
        brute = {2: s11 + rho * (s12 + s12.T),
                 3: s11 + rho * (s12 + s12.T)
                 + rho ** 2 * (s22 + 0.5 * (s13 + s13.T))}
        for order, want in brute.items():
            dm = sigma_exact(fam, terms_at(fam, x0, order), rho=rho, order=order)
            np.testing.assert_allclose(dm.sigma, 0.5 * (want + want.T),
                                       atol=1e-12)

    def test_psd_projection_and_root(self):
        fam, x0 = TOYS["twobatch2d"]()
        dm = sigma_exact(fam, terms_at(fam, x0), rho=0.2)
        vals = np.linalg.eigvalsh(dm.sqrt @ dm.sqrt)
        assert np.all(vals >= -1e-12)
        assert dm.clipped_mass >= 0.0

    def test_dimension_guard(self):
        # d = 746: Sigma is factored through its rank <= 3B row space, so
        # exact diffusion has no dimension limit. Check the factor against a
        # dense Sigma built here from the per-batch terms.
        spec = MlpSpec((12, 32, 10))
        fam = mlp_family(spec, gen_synthetic(64, 12, 10, 1.0, 0), 32)
        x = init_params(spec, 0).values
        d, n, rho = spec.dim, len(fam), 0.2
        terms = _per_batch_terms(fam, x, True, GRAD_FLOOR)
        c1, c2, c3 = (t - fam.weights @ t for t in terms[:3])
        want = sum(w * (np.outer(a, a) + rho * (np.outer(a, b) + np.outer(b, a))
                        + rho ** 2 * (np.outer(b, b)
                                      + 0.5 * (np.outer(a, c) + np.outer(c, a))))
                   for w, a, b, c in zip(fam.weights, c1, c2, c3))
        dm = sigma_exact(fam, terms, rho)
        assert d == 746 and dm.basis.shape == (d, dm.vals.size)
        assert dm.basis.shape[1] <= min(d, 3 * n)
        scale = np.abs(want).max()
        assert np.abs(dm.sigma - want).max() <= 1e-12 * scale
        vals = np.linalg.eigvalsh(want)
        assert dm.clipped_mass > 0.0
        assert dm.clipped_mass == pytest.approx(-vals[vals < 0].sum(), rel=1e-10)
        for seed, step in ((0, 0), (3, 7)):
            z = stream(seed, STREAM_SDE_NOISE, step).standard_normal(d)
            want_draw = dm.sqrt @ z
            assert (np.abs(dm.draw(seed, step) - want_draw).max()
                    <= 1e-12 * np.abs(want_draw).max())


class TestSampledNoise:
    def test_single_batch_always_zero(self):
        fam = analytic_family([quadratic_oracle(np.diag([2.0, 1.0]))])
        for k in range(5):
            out = SampledNoise(fam, terms_at(fam, np.array([1.0, -1.0])),
                               0.2).draw(3, k)
            np.testing.assert_array_equal(out, 0.0)

    def test_mean_and_covariance(self):
        fam, x0 = TOYS["twobatch2d"]()
        rho = 0.1
        sn = SampledNoise(fam, terms_at(fam, x0), rho)
        draws = np.array([sn.draw(11, k) for k in range(20_000)])
        stderr = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 * stderr + 1e-12)
        emp = draws.T @ draws / len(draws)
        exact = sigma_exact(fam, terms_at(fam, x0), rho).sigma
        rel = np.linalg.norm(emp - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_deterministic_per_step(self):
        fam, x0 = TOYS["twobatch2d"]()
        a = SampledNoise(fam, terms_at(fam, x0), 0.1).draw(2, 7)
        b = SampledNoise(fam, terms_at(fam, x0), 0.1).draw(2, 7)
        np.testing.assert_array_equal(a, b)


class TestEulerMaruyama:
    def test_gradient_flow_step(self):
        fam = analytic_family([quadratic_oracle(np.array([[1.0]]))])
        dd = drift(fam, terms_at(fam, np.array([1.0])), 3, 0.0)
        out = euler_maruyama_step(np.array([1.0]), 0.1, 0.1, dd.combined(),
                                  None)
        assert out[0] == pytest.approx(0.9, abs=1e-15)

    def test_noise_increment_variance(self):
        # Zero drift, identity covariance: per-coordinate variance eta * dt.
        rng = np.random.default_rng(0)
        incs = np.array([euler_maruyama_step(np.zeros(2), 0.01, 0.01,
                                             np.zeros(2),
                                             rng.standard_normal(2))
                         for _ in range(100_000)])
        var = incs.var(axis=0)
        stderr = var * np.sqrt(2.0 / len(incs))
        assert np.all(np.abs(var - 1e-4) <= 4.0 * stderr)

    def test_third_order_drift_cubic(self):
        fam = analytic_family([polynomial_oracle_1d([0, 0, 0, 1.0])])
        dd = drift(fam, terms_at(fam, np.array([1.0])), 3, 0.1)
        out = euler_maruyama_step(np.array([1.0]), 0.01, 0.01, dd.combined(),
                                  None)
        assert out[0] == pytest.approx(0.9637, abs=1e-12)

    def test_nonfinite_state(self):
        with pytest.raises(NonFiniteState):
            euler_maruyama_step(np.array([1.0]), 0.1, 0.1, np.array([np.inf]),
                                None)

    def test_richardson_halving(self):
        fam, x0 = TOYS["twobatch2d"]()

        def endpoint(substeps):
            x = x0.copy()
            for _ in range(20 * substeps):
                dd = drift(fam, terms_at(fam, x), 3, 0.1)
                x = euler_maruyama_step(x, 0.05, 0.05 / substeps,
                                        dd.combined(), None)
            return x

        e1, e2, e4 = endpoint(1), endpoint(2), endpoint(4)
        ratio = np.linalg.norm(e1 - e2) / np.linalg.norm(e2 - e4)
        assert 1.5 <= ratio <= 2.5


class TestDriftAligned:
    def test_1d_coincides_with_plain_drift(self):
        fam = analytic_family([polynomial_oracle_1d([0, 0, 0, 1.0])])
        x = np.array([1.0])
        plain = drift(fam, terms_at(fam, x), 3, 0.1)
        for variant in (VARIANT_ALIGNED_RHO, VARIANT_ALIGNED_RHO2):
            ad = drift_aligned(fam, x, terms_at(fam, x, 2), variant, 0.1, q=50,
                               seed=0, check_gap=False)
            np.testing.assert_allclose(ad.term1, plain.term1, atol=1e-12)
            np.testing.assert_allclose(ad.term3, plain.term3, atol=1e-8)
            np.testing.assert_allclose(ad.combined(), plain.combined(), atol=1e-8)

    def test_quadratic_constant_hessian(self):
        # Constant Hessian: grad of lambda1 vanishes, so the aligned-rho
        # drift is term1 + rho * term2 exactly.
        a = np.diag([3.0, 1.0])
        fam = analytic_family([quadratic_oracle(a)])
        x = np.array([0.8, 0.5])
        ad = drift_aligned(fam, x, terms_at(fam, x, 2), VARIANT_ALIGNED_RHO,
                           0.1, q=80, seed=0, check_gap=True)
        np.testing.assert_allclose(ad.term3, 0.0, atol=1e-10)
        plain = drift(fam, terms_at(fam, x, 2), 2, 0.1)
        np.testing.assert_allclose(ad.term2, plain.term2, atol=1e-12)

    def test_aligned_rho2_term2_quadratic(self):
        # On a quadratic with gradient along the top eigenvector, term2
        # becomes s* lam1 v1 = H g / ||g|| exactly.
        a = np.diag([3.0, 1.0])
        fam = analytic_family([quadratic_oracle(a)])
        x = np.array([2.0, 0.0])  # gradient (6, 0) is the top eigendirection
        ad = drift_aligned(fam, x, terms_at(fam, x, 2), VARIANT_ALIGNED_RHO2,
                           0.1, q=80, seed=0)
        np.testing.assert_allclose(ad.term2, [3.0, 0.0], atol=1e-8)

    def test_aligned_rho2_orients_tiny_live_gradients(self):
        # Gradients of norm 2e-13 and 3e-13 are live under tau = 1e-15, and
        # s* = sign(g . v1) is Eigen-SAM's rule, with no floor of its own:
        # each term2 row is s* lam1 v1 = lam1 e1, whatever v1's sign.
        fam = analytic_family([quadratic_oracle(np.diag([2.0, 1.0])),
                               quadratic_oracle(np.diag([3.0, 0.5]))])
        x = np.array([1e-13, 0.0])
        dd, _ = sde_coefficients(fam, x, 0.1, VARIANT_ALIGNED_RHO2, "none",
                                 tau=1e-15)
        assert np.isfinite(dd.combined()).all()
        rows = []
        for b, oracle in enumerate(fam.oracles):
            spec = spectrum_deflated(oracle, x, k=2, q=50, seed=b)
            s = 1.0 if oracle.grad(x) @ spec.vectors[0] >= 0.0 else -1.0
            rows.append(s * spec.values[0] * spec.vectors[0])
        np.testing.assert_array_equal(dd.term2, fam.mean(np.array(rows)))
        np.testing.assert_allclose(dd.term2, [2.5, 0.0], atol=1e-12)

    def test_exact_alignment_construction_2d(self):
        # f = a x1^4 + b x2^2 with v1 = e2 along the x2 axis: on that axis the
        # gradient is parallel to v1, so aligned and plain drifts agree to
        # O(rho^3) (here: exactly, because the cubic term vanishes on-axis).
        def build(tape, x):
            x1 = eng.sum_all(eng.slice1d(x, 0, 1))
            x2 = eng.sum_all(eng.slice1d(x, 1, 2))
            return eng.add(eng.scale(eng.pow_int(x1, 4), 0.05),
                           eng.scale(eng.pow_int(x2, 2), 2.0))

        fam = analytic_family([LossOracle(build, 2)])
        x = np.array([0.0, 1.0])  # H = diag(0.6 x1^2, 4) = diag(0, 4): v1 = e2
        plain = drift(fam, terms_at(fam, x), 3, 0.05)
        ad = drift_aligned(fam, x, terms_at(fam, x, 2), VARIANT_ALIGNED_RHO,
                           0.05, q=60, seed=0, check_gap=False)
        np.testing.assert_allclose(ad.combined(), plain.combined(), atol=1e-6)

    def test_gap_violation_detected(self):
        fam = analytic_family([quadratic_oracle(np.eye(2))])
        with pytest.raises(GapViolated):
            drift_aligned(fam, np.array([1.0, 0.3]),
                          terms_at(fam, np.array([1.0, 0.3]), 2),
                          VARIANT_ALIGNED_RHO, 0.1, q=60, seed=0, check_gap=True)

    def test_check_gap_only_switches_the_raise(self):
        # v1 comes from the same Lanczos solve with or without the gap
        # check, so where the gap is clear the drifts are bit-identical.
        spec = MlpSpec((2, 6, 2))
        fam = mlp_family(spec, gen_synthetic(64, 2, 2, 1.0, 0), 32)
        x = init_params(spec, 0).values
        for variant in ALIGNED:
            on = drift_aligned(fam, x, terms_at(fam, x, 2), variant, 0.1, q=30,
                               seed=0, check_gap=True)
            off = drift_aligned(fam, x, terms_at(fam, x, 2), variant, 0.1, q=30,
                                seed=0, check_gap=False)
            for a, b in ((on.term1, off.term1), (on.term2, off.term2),
                         (on.term3, off.term3)):
                assert a.tobytes() == b.tobytes()
        # Without the check, coincident top eigenvalues still give a drift.
        eye = analytic_family([quadratic_oracle(np.eye(2))])
        ad = drift_aligned(eye, np.array([1.0, 0.3]),
                           terms_at(eye, np.array([1.0, 0.3]), 2),
                           VARIANT_ALIGNED_RHO, 0.1, q=60, seed=0,
                           check_gap=False)
        assert np.isfinite(ad.combined()).all()

    def test_hvp_calls_are_live_batches_plus_spectra(self):
        # aligned-rho spends one HVP per batch at or above the floor (its
        # jet) and the HVPs of each batch's top-2 Lanczos spectrum; the
        # flattest of the three batches falls under the floor here.
        spec, q = MlpSpec((2, 16, 2)), 10
        fam = mlp_family(spec, gen_synthetic(96, 2, 2, 1.0, 3), 32)
        x = init_params(spec, 1).values
        norms = sorted(np.linalg.norm(o.grad(x)) for o in fam.oracles)
        tau = 0.5 * (norms[0] + norms[1])
        dd, _ = sde_coefficients(fam, x, 0.2, VARIANT_ALIGNED_RHO, "exact",
                                 tau=tau, q=q, seed=0)
        spectra = [spectrum_deflated(o, x, k=2, q=q, seed=b).hvp_calls
                   for b, o in enumerate(fam.oracles)]
        assert min(spectra) > 0
        assert dd.hvp_calls == len(fam) - 1 + sum(spectra)


class TestMomentProbe:
    def test_quadratic_errors_at_roundoff(self):
        fam, x0 = TOYS["quadratic1d"]()
        rep = one_step_moment_probe(fam, x0, 0.01, (0.02, 0.04, 0.08, 0.16))
        for row in rep.rows:
            assert row.e1_order3 < 1e-14
            assert row.e1_order2 < 1e-14
        assert np.isnan(rep.slope_e1_order3)
        assert np.isnan(rep.slope_e1_order2)

    def test_quartic_slopes_separate(self):
        fam, x0 = TOYS["quartic1d"]()
        rep = one_step_moment_probe(fam, x0, 0.01, (0.02, 0.04, 0.08, 0.16))
        assert rep.slope_e1_order3 >= 2.5
        assert rep.slope_e1_order2 <= 2.5
        # The quartic one-step error is exactly eta rho^3 for the full drift.
        for row in rep.rows:
            assert row.e1_order3 == pytest.approx(0.01 * row.rho ** 3, rel=1e-6)

    def test_two_batch_2d_slopes_separate(self):
        fam, x0 = TOYS["twobatch2d"]()
        rep = one_step_moment_probe(fam, x0, 0.01, (0.02, 0.04, 0.08, 0.16))
        assert rep.slope_e1_order3 >= 2.5
        assert rep.slope_e1_order2 <= 2.5

    @staticmethod
    def dense_e2(fam, x, eta, rho, order):
        """|| second - eta^2 (d d^T + Sigma) ||_F with every matrix dense."""
        t1s, t2s, t3s, live = _per_batch_terms(fam, x, True, GRAD_FLOOR)
        w = fam.weights
        deltas = [-eta * o.grad(x + rho * sam_perturbation(g, GRAD_FLOOR))
                  for o, g in zip(fam.oracles, t1s)]
        second = sum(wb * np.outer(dl, dl) for wb, dl in zip(w, deltas))
        r2 = rho ** 2 if order == 3 else 0.0
        d = w @ t1s + rho * (w @ t2s) + 0.5 * r2 * (w @ t3s)
        c1 = t1s - w @ t1s
        c2, c3 = (np.where(live[:, None], t - w @ t, 0.0) for t in (t2s, t3s))
        sigma = sum(wb * (np.outer(a, a) + rho * (np.outer(a, b) + np.outer(b, a))
                          + r2 * (np.outer(b, b)
                                  + 0.5 * (np.outer(a, c) + np.outer(c, a))))
                    for wb, a, b, c in zip(w, c1, c2, c3))
        return np.linalg.norm(second - eta ** 2 * (np.outer(d, d) + sigma))

    def check_against_dense(self, fam, x, rep):
        for row in rep.rows:
            for order, got in ((3, row.e2_order3), (2, row.e2_order2)):
                want = self.dense_e2(fam, x, 0.01, row.rho, order)
                np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-16)

    def test_second_moment_from_factors_at_d70(self):
        # Two quadratic batches: for order 3 the prediction is exact and e2
        # sits at round-off; for order 2 it misses rho^2 S22.
        fam = analytic_family([quadratic_oracle(np.eye(70)),
                               quadratic_oracle(np.diag(np.linspace(0.5, 2.0, 70)))])
        x = np.random.default_rng(0).standard_normal(70)
        rep = one_step_moment_probe(fam, x, 0.01, (0.02, 0.04, 0.08, 0.16))
        self.check_against_dense(fam, x, rep)
        assert all(row.e2_order2 > 1e-9 for row in rep.rows)

    def test_mlp_family_slopes_separate_above_the_old_cap(self):
        # d = 82, 8 batches of 32: the third-order model is one order better
        # in both the first and the second moment.
        spec = MlpSpec((2, 16, 2))
        fam = mlp_family(spec, gen_synthetic(256, 2, 2, 1.0, 0), 32)
        x = init_params(spec, 0).values
        rep = one_step_moment_probe(fam, x, 0.01, (0.02, 0.04, 0.08, 0.16))
        self.check_against_dense(fam, x, rep)
        assert rep.slope_e1_order3 >= 2.5 > rep.slope_e1_order2
        assert rep.slope_e2_order3 >= 2.5 > rep.slope_e2_order2


class TestSdeCoefficients:
    def test_shared_pass_matches_separate_calls(self):
        fam, x0 = TOYS["twobatch2d"]()
        dd, dm = sde_coefficients(fam, x0, 0.1, order=3, diffusion="exact")
        np.testing.assert_allclose(
            dd.combined(), drift(fam, terms_at(fam, x0), 3, 0.1).combined(),
            atol=1e-14)
        np.testing.assert_allclose(
            dm.sigma, sigma_exact(fam, terms_at(fam, x0), 0.1).sigma, atol=1e-14)

    def test_none_and_sampled_modes(self):
        fam, x0 = TOYS["twobatch2d"]()
        _, none = sde_coefficients(fam, x0, 0.1, order=2, diffusion="none")
        assert none is None
        _, sn = sde_coefficients(fam, x0, 0.1, order=3, diffusion="sampled")
        assert isinstance(sn, SampledNoise)
