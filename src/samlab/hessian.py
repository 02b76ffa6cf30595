"""Spectral probes of the loss Hessian, accessed only through HVPs.

Power iteration converges to the eigenpair largest in magnitude, which is
not the largest *algebraic* eigenvalue where strong negative curvature
dominates; the signed top-k values come from :func:`spectrum_deflated`.
Power iteration stays the Eigen-SAM refresh, whose q + 2 HVP budget the
paper defines, and gives the CSV ``lambda1``.

The top-k spectrum is Lanczos with full reorthogonalization. Its function
keeps the name ``spectrum_deflated`` from the deflated power iteration it
replaced, because the runner, the aligned SDE drift and the benchmark's
tracer (``perfbench/tracer.py``) look it up by that name. Lanczos finds
eigenvalues of either sign at once, so equal-magnitude opposite-sign pairs
no longer stall it, and it restarts after a breakdown to find repeated
eigenvalues. Its one Krylov state is the basis, the stored HVP of each
basis row and their projection P = V (HV)^T; the Ritz pairs are those of
P (Rayleigh-Ritz), and a block of the basis is just its start row. Every
reported pair's ``converged`` flag follows from an explicitly computed
residual, so a pair the budget did not resolve is flagged rather than
silently wrong. That residual takes no HVP beyond the basis: the Ritz
vector's image is the same combination of the basis rows' stored HVPs.

The Hessian trace is a separate probe, :func:`hutchinson_trace`. The
``spectrum`` runner calls it after the top-k spectrum, at the same point
and seed, and adds its HVPs to the report's ``hvp_calls``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVector, ZeroIterate
from .oracle import LossOracle, ParamVector
from .rng import STREAM_HUTCH, STREAM_POWER, stream

ALIGN_FLOOR = 1e-12
CONVERGED_RTOL = 1e-6
BREAKDOWN_RTOL = 1e-10


@dataclass(frozen=True)
class EigenEstimate:
    """Rayleigh-quotient estimate: value, unit vector, residual ||Hv - lam v||.

    A stacked estimate holds one row per seed: ``value`` and ``residual``
    of shape (S,), ``vector`` of shape (S, d). ``hvp_calls`` is per row.
    """

    value: float | np.ndarray
    vector: np.ndarray
    residual: float | np.ndarray
    hvp_calls: int

    @property
    def values(self) -> np.ndarray:
        """The value of each row, as in :class:`SpectrumReport`."""
        return np.atleast_1d(self.value)

    @property
    def converged(self) -> np.ndarray:
        """One flag per row: residual <= CONVERGED_RTOL max(1, |value|)."""
        return np.atleast_1d(self.residual <= CONVERGED_RTOL
                             * np.maximum(1.0, np.abs(self.value)))


@dataclass(frozen=True)
class SpectrumReport:
    values: np.ndarray          # descending by magnitude
    vectors: np.ndarray         # one row per eigenpair
    residuals: np.ndarray
    hvp_calls: int

    @property
    def converged(self) -> np.ndarray:
        """One flag per pair, by the rule of :class:`EigenEstimate`."""
        return EigenEstimate(self.values, self.vectors, self.residuals,
                             self.hvp_calls).converged


def _as_array(x) -> np.ndarray:
    return x.values if isinstance(x, ParamVector) else np.asarray(x, dtype=np.float64)


def _unit_start(dim: int, seed, substream: int, v0) -> np.ndarray:
    """v0 normalized row by row, else the seeded unit start; a sequence of
    seeds gives one row per seed. Any zero row of v0 raises DegenerateVector."""
    if v0 is not None:
        v0 = _as_array(v0)
        n = np.linalg.norm(v0, axis=-1, keepdims=True)
        if not n.all():
            raise DegenerateVector("start vector must be nonzero")
        return v0 / n
    if np.ndim(seed):
        return np.stack([_unit_start(dim, s, substream, None) for s in seed])
    v = stream(seed, STREAM_POWER, substream).standard_normal(dim)
    return v / np.linalg.norm(v)


def power_iterates(oracle: LossOracle, x, qs, seed,
                   v0: np.ndarray | None = None, substream: int = 0) -> list:
    """The iterates of v <- Hv/||Hv|| after q rounds, for each q in ``qs``,
    from one run of max(qs) rounds and max(qs) HVPs.

    The start is as in :func:`power_iteration`, which takes its iterate
    from this loop, so the iterate at q is bit for bit the vector of
    ``power_iteration`` with that q. Any row whose iterate vanishes raises
    ZeroIterate for all.
    """
    if min(qs) < 1:
        raise ValueError("q must be >= 1")
    x = _as_array(x)
    v = _unit_start(oracle.dim, seed, substream, v0)
    at = {}
    for i in range(1, max(qs) + 1):
        w = oracle.hvp(x, v)
        norm = np.linalg.norm(w, axis=-1, keepdims=True)
        if norm.min() < 1e-300:
            raise ZeroIterate("numerically zero curvature along the iterate")
        v = w / norm
        if i in qs:
            at[i] = v
    return [at[q] for q in qs]


def power_iteration(oracle: LossOracle, x, q: int, seed,
                    v0: np.ndarray | None = None,
                    substream: int = 0) -> EigenEstimate:
    """q rounds of v <- Hv/||Hv|| from a seeded random unit start.

    Uses exactly q + 2 HVPs: q iterations, one for the Rayleigh quotient,
    and one more for the residual.

    A stacked x of shape (S, d), on an oracle whose builder sums S per-row
    losses, with a sequence of S seeds, iterates every row at once: row s
    starts from seed s's stream, or from row s of an ``(S, d)`` v0, and
    each round is one stacked HVP. Any row whose iterate vanishes raises
    ZeroIterate for all.
    """
    x = _as_array(x)
    v, = power_iterates(oracle, x, (q,), seed, v0, substream)
    lam = np.sum(v * oracle.hvp(x, v), axis=-1)
    residual = np.linalg.norm(oracle.hvp(x, v) - lam[..., None] * v, axis=-1)
    if x.ndim == 1:
        lam, residual = float(lam), float(residual)
    return EigenEstimate(lam, v, residual, hvp_calls=q + 2)


def align(eps, v) -> float:
    """Alignment of a perturbation with a unit eigenvector, sign-resolved:
    1 - min over s = +-1 of ||eps/||eps|| - s v||, which is 1 when eps is
    parallel or antiparallel to v and 1 - sqrt(2) when it is orthogonal."""
    eps = _as_array(eps)
    v = _as_array(v)
    n = np.linalg.norm(eps)
    if n < ALIGN_FLOOR:
        raise DegenerateVector("perturbation norm below the floor")
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise DegenerateVector("eigenvector argument must be unit length")
    s = 1 if float(eps @ v) / n >= 0.0 else -1
    # The norm of the difference itself: sqrt(2 - 2|cos|) would lose half
    # the digits as |cos| -> 1.
    return float(1.0 - np.linalg.norm(eps / n - s * v))


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w minus its projection on the rows of ``basis``: two Gram-Schmidt passes."""
    for _ in range(2):
        w = w - basis.T @ (basis @ w)
    return w


def spectrum_deflated(oracle: LossOracle, x, k: int, q: int,
                      seed: int) -> SpectrumReport:
    """Top-k eigenpairs by magnitude, by Lanczos with full reorthogonalization.

    The Krylov basis V grows from the seeded start of substream 0, one HVP
    per row. The HVP of each row is kept as returned, before it is
    reorthogonalized, and the projection P = V (HV)^T grows by the one row
    and column ``basis @ images[-1]`` per step (H is symmetric). The Ritz
    pairs are those of P. The run stops when the k pairs of largest |theta|
    and the current block's own leading pair all have Lanczos residual
    |beta s_mi| <= CONVERGED_RTOL max(1, |theta|), or when the basis reaches
    min(dim, k q) rows, so no more than k q HVPs go to the basis.

    A block is the run of rows from its start row on, and a Ritz pair
    belongs to the current block when at least half of its vector's weight
    lies on those rows. A breakdown (beta ~ 0) means the block spans an
    invariant subspace and its Ritz pairs are exact. So the entries of P
    between an earlier block and a later row are zero, and they are kept
    zero: P stays block diagonal, and two blocks' equal Ritz values do not
    mix in its vectors. For a generic start, every eigenvalue left in the
    rest of the space is one of that block's, so the run stops there if
    none of the top k pairs is the block's. Otherwise a new block starts
    from the seeded vector of the next substream, orthogonalized against
    the basis. That finds repeated eigenvalues.

    A reported Ritz vector y = sum_i s_i v_i has the image
    H y = sum_i s_i H v_i, so no pair costs a further HVP: its value is the
    Rayleigh quotient, its residual ||Hy - lam y|| is computed from those
    vectors (not the Lanczos estimate |beta s_m|), and ``converged``
    follows from that residual. ``hvp_calls`` counts every HVP, one per
    basis row.

    ``converged`` certifies a pair's residual: its value is within that
    residual of some eigenvalue. It does not certify that no copy of a
    repeated eigenvalue was missed. Without a breakdown the run stops once
    the top k and the block's leading pair converge, and one Krylov block
    holds one copy of each eigenvalue, so a top-k whose largest eigenvalue
    is repeated can report smaller eigenvalues in the place of its later
    copies, every pair flagged converged.
    """
    dim = oracle.dim
    if not 1 <= k <= min(64, dim):
        raise ValueError("k must be in [1, min(64, dim)]")
    if q < 1:
        raise ValueError("q must be >= 1")
    x = _as_array(x)
    cap = min(dim, k * q)
    basis = images = np.empty((0, dim))     # rows v and H v as returned
    proj = np.empty((0, 0))                 # basis @ images.T within blocks
    start = restarts = 0                    # current block's first row
    v = _unit_start(dim, seed, 0, None)
    while True:
        basis = np.vstack((basis, v))
        w = oracle.hvp(x, v)
        images = np.vstack((images, w))
        col = basis @ w
        col[:start] = 0.0       # earlier blocks span invariant subspaces
        proj = np.vstack((np.column_stack((proj, col[:-1])), col))
        w = _reorthogonalize(w, basis)
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(proj)
        top = np.argsort(-np.abs(theta), kind="stable")[:k]
        fresh = np.sum(s[start:] ** 2, axis=0) >= 0.5   # the block's pairs
        exhausted = beta <= BREAKDOWN_RTOL * max(1.0, np.abs(theta).max())
        if exhausted:
            done = not fresh[top].any()
        else:
            ok = (np.abs(beta * s[-1])
                  <= CONVERGED_RTOL * np.maximum(1.0, np.abs(theta)))
            done = (len(basis) >= k and ok[top].all()
                    and ok[np.argmax(np.abs(theta) * fresh)])
        if done or len(basis) == cap:
            break
        if exhausted:
            restarts += 1
            start = len(basis)
            w = _reorthogonalize(_unit_start(dim, seed, restarts, None), basis)
            beta = np.linalg.norm(w)
            if beta < BREAKDOWN_RTOL:
                raise ZeroIterate("restart vector lies in the explored subspace")
        v = w / beta

    pairs = []
    for i in top:
        y, hy = s[:, i] @ basis, s[:, i] @ images
        norm = np.linalg.norm(y)
        y, hy = y / norm, hy / norm
        lam = float(y @ hy)
        pairs.append((lam, y, float(np.linalg.norm(hy - lam * y))))
    pairs.sort(key=lambda pair: -abs(pair[0]))
    values, vectors, residuals = map(np.asarray, zip(*pairs))
    return SpectrumReport(values, vectors, residuals, hvp_calls=len(basis))


def hutchinson_trace(oracle: LossOracle, x, m: int, seed: int) -> tuple:
    """Mean and standard error of z^T H z over m Rademacher probes."""
    if m < 2:
        raise ValueError("m must be >= 2")
    x = _as_array(x)
    rng = stream(seed, STREAM_HUTCH)
    samples = np.empty(m)
    for i in range(m):
        z = rng.integers(0, 2, size=oracle.dim).astype(np.float64) * 2.0 - 1.0
        samples[i] = z @ oracle.hvp(x, z)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(m))


def sharpness_proxy(lam1: float, rho: float) -> float:
    """Curvature-based sharpness at radius rho: rho^2 * lam1 / 2."""
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    return 0.5 * rho * rho * lam1
