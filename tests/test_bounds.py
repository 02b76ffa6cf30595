"""Closed-form bound evaluators against independently recomputed values."""

import math

import numpy as np
import pytest

from samlab.bounds import (PINNED_CONSTANT, BoundInputs, ConvergenceInputs,
                           alpha_admissible_range, convergence_bound,
                           pac_bayes_bound)
from samlab.errors import DomainError

# Frozen with a 40-digit evaluation of the closed form (mpmath), independent
# of the implementation below.
PAC_CASES = (
    # (inputs, expected)
    (BoundInputs(0.1, 10.0, 10.0, 100, 10_000, 0.01, 1.0, 1.0, 0.05),
     0.4720622960020037),
    (BoundInputs(0.2, 0.0, 0.0, 50, 400, 0.1, 2.0, 0.0, 0.1),
     0.4785568215014086),
    (BoundInputs(0.05, 25.0, 3.0, 42, 2000, 0.05, 0.5, 2.0, 0.01),
     4.534117238184662),
)


class TestPacBayesBound:
    def test_pinned_constant(self):
        assert PINNED_CONSTANT == pytest.approx(1.0 + 2.0 * math.log(math.pi ** 2 / 6.0))
        assert PINNED_CONSTANT == pytest.approx(1.9954, abs=1e-4)

    @pytest.mark.parametrize("inputs,expected", PAC_CASES)
    def test_frozen_values(self, inputs, expected):
        assert pac_bayes_bound(inputs) == pytest.approx(expected, rel=1e-9)

    def test_vanishing_terms_reduce_to_complexity(self):
        b = PAC_CASES[1][0]
        want = b.empirical_loss + b.loss_bound / (2 * math.sqrt(b.n)) * math.sqrt(
            PINNED_CONSTANT + 2 * math.log(1 / b.delta) + 4 * math.log(b.n + b.d))
        assert pac_bayes_bound(b) == pytest.approx(want, rel=1e-12)

    def test_affine_in_lam1(self):
        base = BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.05)
        bumped = BoundInputs(0.1, 7.5, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.05)
        slope = (pac_bayes_bound(bumped) - pac_bayes_bound(base)) / 2.5
        assert slope == pytest.approx(base.d * base.sigma ** 2 / 2, rel=1e-12)

    def test_monotone_in_each_input(self):
        base = BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.05)
        ref = pac_bayes_bound(base)
        ups = (
            BoundInputs(0.1, 6.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.05),   # lam1
            BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.9, 0.05),   # C
            BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.4, 0.5, 0.05),   # L
            BoundInputs(0.1, 5.0, 3.0, 30, 500, 0.05, 1.0, 0.5, 0.05),   # ||x||
            BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.01),   # 1/delta
        )
        for up in ups:
            assert pac_bayes_bound(up) > ref

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pac_bayes_bound(BoundInputs(0.1, 1.0, 1.0, 0, 10, 0.1, 1.0, 0.0, 0.05))
        with pytest.raises(DomainError):
            pac_bayes_bound(BoundInputs(0.1, 1.0, 1.0, 10, 10, 0.0, 1.0, 0.0, 0.05))
        with pytest.raises(DomainError):
            pac_bayes_bound(BoundInputs(0.1, 1.0, 1.0, 10, 10, 0.1, 1.0, 0.0, 1.5))
        with pytest.raises(DomainError):
            pac_bayes_bound(BoundInputs(0.1, 1.0, 1.0, 10, 10, 0.1, 0.0, 0.0, 0.05))
        with pytest.raises(DomainError):
            pac_bayes_bound(BoundInputs(0.1, 1.0, 1.0, 10, 10, 0.1, 1.0, -1.0, 0.05))


class TestAlphaAdmissibleRange:
    def test_reference_endpoints_two_decimals(self):
        assert alpha_admissible_range(0.8)[1] == pytest.approx(3.43, abs=5e-3)
        assert alpha_admissible_range(0.9)[1] == pytest.approx(1.27, abs=5e-3)

    def test_below_threshold_unbounded(self):
        assert alpha_admissible_range(0.5) == (0.0, math.inf)
        assert alpha_admissible_range(math.sqrt(0.5)) == (0.0, math.inf)

    def test_limits_at_both_ends(self):
        assert alpha_admissible_range(0.7072)[1] > 100.0
        assert alpha_admissible_range(0.9999)[1] < 0.05

    def test_domain(self):
        for omega in (0.0, 1.0, -0.3, 1.2):
            with pytest.raises(DomainError):
                alpha_admissible_range(omega)

    def test_improvement_inside_and_failure_beyond(self):
        # Geometry of the interval: with the normalized orthogonal component,
        # alpha < upper improves the cosine and 1.5x the upper bound does not.
        rng = np.random.default_rng(1)
        for _ in range(500):
            omega = rng.uniform(0.711, 0.995)
            ghat = np.array([1.0, 0.0])
            v = np.array([omega, math.sqrt(1 - omega ** 2)])
            v_perp = v - (v @ ghat) * ghat
            v_perp /= np.linalg.norm(v_perp)
            _, upper = alpha_admissible_range(omega)
            alpha = rng.uniform(1e-6, upper * (1 - 1e-9))
            new = ghat + alpha * v_perp
            assert new @ v / np.linalg.norm(new) > omega
            bad = ghat + 1.5 * upper * v_perp
            assert bad @ v / np.linalg.norm(bad) <= omega


class TestConvergenceBound:
    def test_deterministic_case(self):
        # sigma^2 = 0, rho = alpha = 0: eta = 1/(2 beta), bound = 4 beta gap / T.
        eta, bound = convergence_bound(ConvergenceInputs(2.0, 3.0, 0.0, 50, 0.0, 0.0))
        assert eta == pytest.approx(1.0 / 4.0, rel=1e-12)
        assert bound == pytest.approx(4.0 * 2.0 * 3.0 / 50.0, rel=1e-9)

    def test_tagged_numeric_case(self):
        eta, bound = convergence_bound(ConvergenceInputs(1.0, 1.0, 1.0, 100, 0.0, 0.0))
        assert eta == pytest.approx(0.1, rel=1e-12)
        assert bound == pytest.approx(0.4, rel=1e-9)

    def test_large_horizon_limit(self):
        beta, rho, alpha = 1.5, 0.2, 0.1
        inputs = ConvergenceInputs(beta, 1.0, 0.5, 10 ** 8, rho, alpha)
        eta, bound = convergence_bound(inputs)
        # Independent recomputation of the same closed form.
        eta_hand = min(1 / (2 * beta), math.sqrt(1.0) / math.sqrt(beta * 0.5 * 10 ** 8))
        hand = (2 * 1.0 / (eta_hand * 10 ** 8) + beta ** 2 * (rho ** 2 + alpha ** 2)
                + 2 * beta * 0.5 * eta_hand)
        assert bound == pytest.approx(hand, rel=1e-9)
        floor = beta ** 2 * (rho ** 2 + alpha ** 2)
        assert floor < bound < floor * 1.01

    def test_floor_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            inputs = ConvergenceInputs(beta=rng.uniform(0.1, 5),
                                       gap=rng.uniform(0, 10),
                                       batch_var=rng.uniform(0, 4),
                                       steps=int(rng.integers(1, 10_000)),
                                       rho=rng.uniform(0, 1),
                                       alpha=rng.uniform(0, 1))
            _, bound = convergence_bound(inputs)
            assert bound >= inputs.beta ** 2 * (inputs.rho ** 2 + inputs.alpha ** 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            convergence_bound(ConvergenceInputs(0.0, 1.0, 1.0, 10, 0.0, 0.0))
        with pytest.raises(DomainError):
            convergence_bound(ConvergenceInputs(1.0, 1.0, 1.0, 0, 0.0, 0.0))
