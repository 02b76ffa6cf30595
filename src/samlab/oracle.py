"""Loss oracles: scalar losses with gradient, HVP, and third-order queries.

A :class:`LossOracle` bundles a loss graph builder with a derivative mode.
Exact mode differentiates the recorded tape (tangent-carrying forward pass,
then a backward sweep). Finite-difference mode computes second- and
third-order quantities by central differences of exact gradients with step
``eps0 * (1 + ||x||)``. A dense third-order vector is one tape pass in exact
mode at any d, and 2d HVPs in fd mode, which needs d <= DENSE_THIRD_LIMIT.
Repeated queries at the same point are bit-identical in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine as eng
from .errors import DimensionTooLarge, NonFiniteLoss, ZeroDirection

# Dense third-order output in fd mode takes 2d HVPs, so it is restricted to
# small parameter counts; exact mode and the directional form are not.
DENSE_THIRD_LIMIT = 512

EPS0_FIRST = 1e-5   # FD step scale for first differences (HVP mode)
EPS0_THIRD = 1e-4   # FD step scale for the third-order map


@dataclass(frozen=True)
class ParamVector:
    """Flat, ordered view of all parameters.

    ``layout`` lists (name, shape, offset) triples partitioning [0, d).
    """

    values: np.ndarray
    layout: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.float64).ravel())
        if self.layout:
            off = 0
            for name, shape, offset in self.layout:
                if offset != off:
                    raise ValueError(f"layout gap or overlap at {name}")
                off += int(np.prod(shape))
            if off != self.values.size:
                raise ValueError("layout does not cover the value vector")

    @property
    def dim(self) -> int:
        return self.values.size


class CallCounter:
    """Mutable HVP counter shared across the oracles of one experiment run."""

    def __init__(self):
        self.hvp = 0


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteLoss("non-finite value in loss or derivative")


def jet_pass(builder: Callable, x: np.ndarray, degree: int = 0, tangent=None,
             release: bool = False) -> eng.Jet:
    """Adjoint jet of ``builder(tape, leaf)`` at the leaf x, from one tape pass.

    Degree 0 gives (grad,), degree 1 along the tangent u gives (grad, H u),
    degree 2 gives (grad, H u, third(u, u) / 2); see :func:`engine.backward`.
    Raises NonFiniteLoss if the loss or any coefficient is not finite. With
    a stacked leaf ``(B, d)`` and a builder that sums B per-batch losses,
    row b of every coefficient is batch b's own. ``release`` empties the
    tape once the sweep is done: its Tape<->Tensor reference cycles then
    free the arrays at once instead of at the next cyclic collection.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tape = eng.Tape(degree=degree)
        leaf = tape.leaf(x, tangent=tangent)
        out = builder(tape, leaf)
        adj = eng.backward(out, [leaf])[0]
    if release:
        tape.nodes.clear()
    _check_finite(out.value, *adj)
    return adj


class LossOracle:
    """Scalar loss over a flat parameter vector, with derivative queries.

    ``builder(tape, x_node)`` must construct the loss graph and return the
    scalar output node. The builder closes over its data batch; the oracle is
    a pure function of the query point.
    """

    def __init__(self, builder: Callable, dim: int, layout: tuple = (),
                 mode: str = "exact", eps0: float = EPS0_FIRST,
                 eps0_third: float = EPS0_THIRD, counter: CallCounter | None = None):
        if mode not in ("exact", "fd"):
            raise ValueError(f"unknown derivative mode {mode!r}")
        self.builder = builder
        self.dim = dim
        self.layout = layout
        self.mode = mode
        self.eps0 = eps0
        self.eps0_third = eps0_third
        self.counter = counter

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
        x = self._as_array(x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tape = eng.Tape(degree=0)
            out = self.builder(tape, tape.leaf(x))
        _check_finite(out.value)
        return float(out.value)

    def grad(self, x) -> np.ndarray:
        return jet_pass(self.builder, self._as_array(x))[0]

    def hvp(self, x, v, release: bool = False) -> np.ndarray:
        """H v, row by row for stacked x and v. ``release`` frees the exact
        tape at once (see :func:`jet_pass`)."""
        x = self._as_array(x)
        v = self._as_array(v)
        if v.shape != x.shape:
            raise ValueError(f"direction shape {v.shape} != point shape {x.shape}")
        if self.counter is not None:
            self.counter.hvp += 1
        if self.mode == "fd":
            nv = np.linalg.norm(v)
            if nv == 0.0:
                raise ZeroDirection("FD hvp needs a nonzero direction")
            h = self.eps0 * (1.0 + np.linalg.norm(x))
            vbar = v / nv
            out = (self.grad(x + h * vbar) - self.grad(x - h * vbar)) / (2.0 * h) * nv
            _check_finite(out)
            return out
        return jet_pass(self.builder, x, 1, v, release)[1]

    def jet(self, x, u, degree: int) -> tuple:
        """Adjoint jet along u from one exact-mode tape pass: (grad, H u) at
        degree 1, and at degree 2 (grad, H u, third(u, u) / 2), whose last
        entry is dense at any d. Counts one HVP, as hvp would."""
        x = self._as_array(x)
        u = self._as_array(u)
        if self.mode != "exact":
            raise ValueError("jet needs exact mode")
        if degree not in (1, 2):
            raise ValueError("jet degree must be 1 or 2")
        if self.counter is not None:
            self.counter.hvp += 1
        return jet_pass(self.builder, x, degree, u)

    def third_directional(self, x, u) -> np.ndarray:
        """Full vector w with w_i = d/dx_i (u^T H(x) u): one degree-2 tape
        pass in exact mode (any d), 2d HVPs in fd mode (d <= DENSE_THIRD_LIMIT)."""
        x = self._as_array(x)
        u = self._as_array(u)
        if np.linalg.norm(u) == 0.0:
            raise ZeroDirection("third_directional needs a nonzero direction")
        if self.mode == "fd":
            if self.dim > DENSE_THIRD_LIMIT:
                raise DimensionTooLarge(f"fd dense third-order output needs "
                                        f"d <= {DENSE_THIRD_LIMIT}, got {self.dim}")
            return self._third_fd_dense(x, u)
        return 2.0 * jet_pass(self.builder, x, 2, u)[2]

    def third_directional_along(self, x, u, w) -> float:
        """w^T third(u, u) at any d; fd mode takes it from two HVPs without
        the dense vector."""
        x = self._as_array(x)
        u = self._as_array(u)
        w = self._as_array(w)
        if np.linalg.norm(u) == 0.0:
            raise ZeroDirection("third_directional_along needs a nonzero direction")
        if self.mode == "fd":
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            h = self.eps0_third * (1.0 + np.linalg.norm(x))
            wbar = w / nw
            s_plus = float(u @ self.hvp(x + h * wbar, u))
            s_minus = float(u @ self.hvp(x - h * wbar, u))
            out = (s_plus - s_minus) / (2.0 * h) * nw
            _check_finite(np.asarray(out))
            return out
        return float(w @ (2.0 * jet_pass(self.builder, x, 2, u)[2]))

    def _third_fd_dense(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Central difference of s(x) = u^T hvp(x, u) along every coordinate.
        h = self.eps0_third * (1.0 + np.linalg.norm(x))
        out = np.zeros(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = h
            s_plus = float(u @ self.hvp(x + e, u))
            s_minus = float(u @ self.hvp(x - e, u))
            out[i] = (s_plus - s_minus) / (2.0 * h)
        _check_finite(out)
        return out


# ---------------------------------------------------------------------------
# analytic oracles used by probes and tests
# ---------------------------------------------------------------------------

def quadratic_oracle(a: np.ndarray, b: np.ndarray | None = None,
                     mode: str = "exact", counter: CallCounter | None = None) -> LossOracle:
    """f(x) = 0.5 x^T A x + b^T x for a fixed symmetric matrix A."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    b = np.zeros(d) if b is None else np.asarray(b, dtype=np.float64)

    def build(tape, x):
        ax = eng.matvec(tape.const(a), x)
        out = eng.scale(eng.dot(x, ax), 0.5)
        return eng.add(out, eng.dot(tape.const(b), x))

    return LossOracle(build, d, mode=mode, counter=counter)


def polynomial_oracle_1d(coeffs: list[float], mode: str = "exact",
                         counter: CallCounter | None = None) -> LossOracle:
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

    return LossOracle(build, 1, mode=mode, counter=counter)


def analytic_oracle(builder: Callable, dim: int, mode: str = "exact",
                    counter: CallCounter | None = None) -> LossOracle:
    """Oracle over a custom graph builder (tape, x_node) -> scalar node."""
    return LossOracle(builder, dim, mode=mode, counter=counter)
