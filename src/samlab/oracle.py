"""Loss oracles: scalar losses with gradient, HVP, and third-order queries.

A :class:`LossOracle` bundles a loss graph builder with a derivative mode.
Its one derivative primitive is :meth:`LossOracle.jet`, the Taylor
coefficients (grad, H u, third(u, u) / 2) of t -> grad f(x + t u); the HVP
and the third-order queries read their coefficient of it. Exact mode takes
the jet from one tape pass (tangent-carrying forward pass, then a backward
sweep); at the point of the pass before it, with the same builder, the pass
pushes that recorded tape and sweeps only the tangent coefficients (see
:func:`jet_pass`). Finite-difference mode takes it from exact
gradients along u, with steps ``EPS0_FIRST * (1 + ||x||)`` for H u and
``EPS0_THIRD * (1 + ||x||)`` for third(u, u): 5 gradients for a dense
third-order vector at any d. Repeated queries at the same point are
bit-identical in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine as eng
from .errors import NonFiniteLoss, ZeroDirection

EPS0_FIRST = 1e-5   # FD step scale for the first difference (H u)
EPS0_THIRD = 1e-4   # FD step scale for the second difference (third(u, u))


@dataclass(frozen=True)
class ParamVector:
    """Flat, ordered view of all parameters, in the order of the model's
    layout (such as :attr:`samlab.models.MlpSpec.layout`)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.float64).ravel())

    @property
    def dim(self) -> int:
        return self.values.size


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not (math.isfinite(a) if a.ndim == 0 else np.isfinite(a).all()):
            raise NonFiniteLoss("non-finite value in loss or derivative")


# numpy's warnings are off during a pass; non-finite values raise NonFiniteLoss
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


# The record: the tape of the last pass, emptied when the next pass that
# makes a new tape ends (see _tape_pass), and the builder and point at which
# jet_pass may push it, or None.
_held_tape = None
_recorded_at = None


@np.errstate(**_QUIET)      # costs less per call than a new context
def _tape_pass(run: Callable, x: np.ndarray, degree: int = 0,
               tangent=None) -> tuple:
    """The arrays ``run(tape, leaf)`` returns, from one pass on a new tape
    of the given degree at the leaf x with its tangent; NonFiniteLoss if
    any is not finite. Every pass that records a new tape, forward only or
    not, is one call of this; a pass at the recorded point pushes the held
    tape instead (see :func:`jet_pass`).

    Tape lifetime: the new tape becomes the record, the one tape held, and
    the tape held before it is emptied (its references dropped, so arrays a
    pass returned stay as they are). A tape is a Tape<->Tensor cycle, which
    left alone only the cyclic collector frees. Emptying a tape at the end
    of its own pass is slower: glibc trims the freed arrays off the top of
    the heap and the next pass page-faults them back in, while a tape held
    until the next pass ends leaves a hole that pass reuses. On a loop of
    1024-row ``12,32,10`` HVPs at changing points (Xeon, single-threaded
    OpenBLAS, glibc 2.36), per pass and at peak: left to the collector 28
    faults, 1.9-2.0 ms, 87.6 MB; emptied after its own pass 832 faults,
    2.9-3.1 ms, 39.6 MB; after the next pass (this rule) 68 faults,
    1.8-1.9 ms, 42.1 MB.
    """
    global _held_tape, _recorded_at
    tape = eng.Tape(degree=degree)
    values = run(tape, tape.leaf(x, tangent=tangent))
    if _held_tape is not None:
        _held_tape.nodes.clear()
    _held_tape, _recorded_at = tape, None
    _check_finite(*values)
    return values


def jet_pass(builder: Callable, x: np.ndarray, degree: int = 0, tangent=None,
             with_loss: bool = False):
    """Adjoint jet of ``builder(tape, leaf)`` at the leaf x, from one tape pass.

    Degree 0 gives (grad,), degree 1 along the tangent u gives (grad, H u),
    degree 2 gives (grad, H u, third(u, u) / 2); see :func:`engine.backward`.
    With ``with_loss`` the result is ``(loss, jet)``, the loss being the
    pass's own forward value, so no second pass is needed for it. Raises
    NonFiniteLoss if the loss or any coefficient is not finite. With a
    stacked leaf ``(B, d)`` and a builder that sums B per-batch losses, row
    b of every coefficient is batch b's own.

    A pass at the recorded point, the same builder object and the same
    bytes of x as the held tape's pass, pushes that tape along the new
    tangent (see :meth:`engine.Tape.push`): the loss, the gradient and
    every point-only factor come from the record, and only coefficients
    1..degree are swept. A pass anywhere else records anew (see
    :func:`_tape_pass`), and becomes the record only if all it returns is
    finite. The record keeps its own copy of x, and the caller gets its
    own copy of the gradient.
    """
    global _recorded_at
    x = np.array(x, dtype=np.float64)
    at = (x.shape, x.tobytes())
    if (_recorded_at is not None and _recorded_at[0] is builder
            and _recorded_at[1] == at):
        tape = _held_tape
        leaf, out = tape.nodes[0], tape.nodes[tape.adjoint[0]]
        with np.errstate(**_QUIET):
            tape.push(leaf, tangent, degree)
            jet = eng.backward(out, [leaf])[0]
        _check_finite(*jet[1:])
        loss = out.value
    else:
        def run(tape, leaf):
            out = builder(tape, leaf)
            return (out.value, *eng.backward(out, [leaf])[0])

        loss, *jet = _tape_pass(run, x, degree, tangent)
        _recorded_at = (builder, at)
    jet = (jet[0].copy(), *jet[1:])
    return (float(loss), jet) if with_loss else jet


class LossOracle:
    """Scalar loss over a flat parameter vector, with derivative queries.

    ``builder(tape, x_node)`` must construct the loss graph and return the
    scalar output node. The builder closes over its data batch; the oracle is
    a pure function of the query point.
    """

    def __init__(self, builder: Callable, dim: int, mode: str = "exact"):
        if mode not in ("exact", "fd"):
            raise ValueError(f"unknown derivative mode {mode!r}")
        self.builder = builder
        self.dim = dim
        self.mode = mode

    # -- helpers ------------------------------------------------------------

    def _as_array(self, x) -> np.ndarray:
        """x as float64; exact mode also takes stacked ``(..., d)`` rows."""
        v = x.values if isinstance(x, ParamVector) else np.asarray(x, dtype=np.float64)
        if v.ndim > 1 and self.mode == "exact":
            if v.shape[-1] != self.dim:
                raise ValueError(f"parameter rows have size {v.shape[-1]}, "
                                 f"expected {self.dim}")
            return v
        if v.size != self.dim:
            raise ValueError(f"parameter vector has size {v.size}, expected {self.dim}")
        return v

    # -- queries ------------------------------------------------------------

    def loss(self, x) -> float:
        loss, = _tape_pass(lambda tape, leaf: (self.builder(tape, leaf).value,),
                           self._as_array(x))
        return float(loss)

    def grad(self, x, with_loss: bool = False):
        """Gradient at x (row by row for stacked x) from one tape pass; with
        ``with_loss`` the pair (loss, gradient), the loss being that pass's
        forward value."""
        out = jet_pass(self.builder, self._as_array(x), with_loss=with_loss)
        return (out[0], out[1][0]) if with_loss else out[0]

    def jet(self, x, u, degree: int) -> tuple:
        """Adjoint jet along u: (grad, H u) at degree 1 and, at degree 2,
        (grad, H u, third(u, u) / 2), dense at any d.

        These are the Taylor coefficients of t -> grad(x + t u). Exact mode
        takes them from one tape pass (see :func:`jet_pass`);
        stacked x and u give one jet per row. fd mode takes them from
        gradients on the line through x along u_bar = u / ||u||, scaling
        coefficient k by ||u||^k: coefficient 1 is the central difference
        at step EPS0_FIRST (1 + ||x||), coefficient 2 the second difference
        at step EPS0_THIRD (1 + ||x||). Coefficient 0 is the gradient at x at
        degree 2, which needs it, and at degree 1 the mean of the central
        pair, within O(step^2) of it. That is 2 gradients at degree 1 and 5
        at degree 2, at any d.
        """
        x = self._as_array(x)
        u = self._as_array(u)
        if u.shape != x.shape:
            raise ValueError(f"direction shape {u.shape} != point shape {x.shape}")
        if degree not in (1, 2):
            raise ValueError("jet degree must be 1 or 2")
        if self.mode == "exact":
            return jet_pass(self.builder, x, degree, u)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            raise ZeroDirection("fd jet needs a nonzero direction")
        ubar = u / nu
        h = EPS0_FIRST * (1.0 + np.linalg.norm(x))
        g_plus, g_minus = self.grad(x + h * ubar), self.grad(x - h * ubar)
        hu = (g_plus - g_minus) / (2.0 * h) * nu
        _check_finite(hu)
        if degree == 1:
            return 0.5 * (g_plus + g_minus), hu
        g0 = self.grad(x)
        h = EPS0_THIRD * (1.0 + np.linalg.norm(x))
        half_third = ((self.grad(x + h * ubar) - 2.0 * g0 + self.grad(x - h * ubar))
                      / (2.0 * h * h) * nu * nu)
        _check_finite(half_third)
        return g0, hu, half_third

    def hvp(self, x, v) -> np.ndarray:
        """H v (row by row for stacked x and v): coefficient 1 of the jet."""
        return self.jet(x, v, 1)[1]

    def third_directional(self, x, u) -> np.ndarray:
        """Full vector w with w_i = d/dx_i (u^T H(x) u) = third(u, u), at any
        d: twice coefficient 2 of the jet."""
        if not np.any(self._as_array(u)):
            raise ZeroDirection("third_directional needs a nonzero direction")
        return 2.0 * self.jet(x, u, 2)[2]

    def third_directional_along(self, x, u, w) -> float:
        """w^T third(u, u)."""
        return float(self._as_array(w) @ self.third_directional(x, u))


# ---------------------------------------------------------------------------
# analytic oracles used by probes and tests; for a custom graph builder
# (tape, x_node) -> scalar node, construct a LossOracle directly.
# ---------------------------------------------------------------------------

def quadratic_oracle(a: np.ndarray, b: np.ndarray | None = None,
                     mode: str = "exact") -> LossOracle:
    """f(x) = 0.5 x^T A x + b^T x for a fixed symmetric matrix A."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    b = np.zeros(d) if b is None else np.asarray(b, dtype=np.float64)

    def build(tape, x):
        xa = eng.matmul(eng.reshape(x, (1, d)), tape.const(a))
        out = eng.scale(eng.sum_all(eng.mul(xa, x)), 0.5)
        return eng.add(out, eng.sum_all(eng.mul(x, tape.const(b))))

    return LossOracle(build, d, mode=mode)


def polynomial_oracle_1d(coeffs: list[float], mode: str = "exact") -> LossOracle:
    """f(x) = sum_p coeffs[p] * x^p for a single scalar parameter."""

    def build(tape, x):
        x0 = eng.slice1d(x, 0, 1)
        out = eng.scale(eng.sum_all(x0), 0.0)
        for p, c in enumerate(coeffs):
            if c == 0.0:
                continue
            if p == 0:
                out = eng.add(out, tape.const(np.asarray(float(c))))
            else:
                out = eng.add(out, eng.scale(eng.sum_all(eng.pow_int(x0, p)), float(c)))
        return out

    return LossOracle(build, 1, mode=mode)

