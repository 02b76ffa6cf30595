"""Analytic toy objectives for moment probes and integrator studies.

Each toy is a family of batch losses with exact enumeration expectations,
small enough that every moment can be cross-checked by hand or brute force.
"""

from __future__ import annotations

import numpy as np

from . import engine as eng
from .data import analytic_family
from .oracle import LossOracle, polynomial_oracle_1d


def _coord(x, i):
    return eng.sum_all(eng.slice1d(x, i, i + 1))


def quartic1d():
    """Single batch, f(x) = x^4 / 4; default probe point x = 1."""
    fam = analytic_family([polynomial_oracle_1d([0.0, 0.0, 0.0, 0.0, 0.25])])
    return fam, np.array([1.0])


def quadratic1d():
    """Single batch, f(x) = x^2 / 2; the expansion is exact for this one."""
    fam = analytic_family([polynomial_oracle_1d([0.0, 0.0, 0.5])])
    return fam, np.array([1.0])


def twobatch1d():
    """Two quadratic batch losses x^2/2 and x^2; exact two-point expectation."""
    fam = analytic_family([polynomial_oracle_1d([0.0, 0.0, 0.5]),
                           polynomial_oracle_1d([0.0, 0.0, 1.0])])
    return fam, np.array([1.0])


def twobatch2d():
    """Two smooth non-quadratic losses in two parameters.

    batch 1: x1^4/4 + x2^2/2 + 0.3 x1 x2
    batch 2: x2^4/4 + x1^2/2 - 0.2 x1 x2
    Probe point (0.8, -0.6): both batch gradients are safely nonzero and the
    quartic terms keep the fourth derivative alive, so the one-step expansion
    error scales as rho^3.
    """

    def build1(tape, x):
        x1, x2 = _coord(x, 0), _coord(x, 1)
        out = eng.scale(eng.pow_int(x1, 4), 0.25)
        out = eng.add(out, eng.scale(eng.pow_int(x2, 2), 0.5))
        return eng.add(out, eng.scale(eng.mul(x1, x2), 0.3))

    def build2(tape, x):
        x1, x2 = _coord(x, 0), _coord(x, 1)
        out = eng.scale(eng.pow_int(x2, 4), 0.25)
        out = eng.add(out, eng.scale(eng.pow_int(x1, 2), 0.5))
        return eng.add(out, eng.scale(eng.mul(x1, x2), -0.2))

    fam = analytic_family([LossOracle(build1, 2), LossOracle(build2, 2)])
    return fam, np.array([0.8, -0.6])


TOYS = {
    "quartic1d": quartic1d,
    "quadratic1d": quadratic1d,
    "twobatch1d": twobatch1d,
    "twobatch2d": twobatch2d,
}
