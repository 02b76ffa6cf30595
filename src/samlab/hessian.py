"""Spectral probes of the loss Hessian, accessed only through HVPs.

Power iteration converges to the eigenpair largest in magnitude; for a
largest *algebraic* eigenvalue in the presence of strong negative curvature,
use the optional shift (iterate on H + c I) and record that c in run
metadata. It stays the Eigen-SAM refresh, whose q + 2 HVP budget the paper
defines.

The top-k spectrum is Lanczos with full reorthogonalization. Its function
keeps the name ``spectrum_deflated`` from the deflated power iteration it
replaced, because the runner, the aligned SDE drift and the benchmark's
tracer (``perfbench/tracer.py``) look it up by that name. Lanczos finds
eigenvalues of either sign at once, so equal-magnitude opposite-sign pairs
no longer stall it, and it restarts after a breakdown to find repeated
eigenvalues. Every reported pair's ``converged`` flag follows from an
explicitly computed residual, so a pair the budget did not resolve is
flagged rather than silently wrong.
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
    """Rayleigh-quotient estimate: value, unit vector, residual ||Hv - lam v||."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    hvp_calls: int
    shift: float = 0.0

    @property
    def converged(self) -> bool:
        return self.residual <= CONVERGED_RTOL * max(1.0, abs(self.value))


@dataclass(frozen=True)
class AlignmentReport:
    """1 - min_s ||eps/||eps|| - s v||, its minimizing sign, and |cos|."""

    value: float
    s_star: int
    omega: float


@dataclass(frozen=True)
class SpectrumReport:
    values: np.ndarray          # descending by magnitude
    vectors: np.ndarray         # one row per eigenpair
    residuals: np.ndarray
    converged: np.ndarray       # bool per pair
    trace_estimate: float
    trace_stderr: float
    hvp_calls: int


def _as_array(x) -> np.ndarray:
    return x.values if isinstance(x, ParamVector) else np.asarray(x, dtype=np.float64)


def _unit_start(dim: int, seed: int, substream: int, v0) -> np.ndarray:
    if v0 is not None:
        v0 = _as_array(v0)
        n = np.linalg.norm(v0)
        if n == 0.0:
            raise DegenerateVector("start vector must be nonzero")
        return v0 / n
    v = stream(seed, STREAM_POWER, substream).standard_normal(dim)
    return v / np.linalg.norm(v)


def power_iteration(oracle: LossOracle, x, q: int, seed: int,
                    v0: np.ndarray | None = None, shift: float = 0.0,
                    substream: int = 0) -> EigenEstimate:
    """q rounds of v <- Hv/||Hv|| from a seeded random unit start.

    Uses exactly q + 2 HVPs: q iterations, one for the Rayleigh quotient,
    and one more for the residual.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    x = _as_array(x)
    v = _unit_start(oracle.dim, seed, substream, v0)

    def apply(vec):
        hv = oracle.hvp(x, vec)
        return hv + shift * vec if shift != 0.0 else hv

    for _ in range(q):
        w = apply(v)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            raise ZeroIterate("numerically zero curvature along the iterate")
        v = w / norm
    lam_shifted = float(v @ apply(v))
    lam = lam_shifted - shift
    residual = float(np.linalg.norm(apply(v) - lam_shifted * v))
    return EigenEstimate(lam, v, residual, iterations=q, hvp_calls=q + 2,
                         shift=shift)


def align(eps, v, floor: float = ALIGN_FLOOR) -> AlignmentReport:
    """Alignment of a perturbation with a unit eigenvector, sign-resolved."""
    eps = _as_array(eps)
    v = _as_array(v)
    n = np.linalg.norm(eps)
    if n < floor:
        raise DegenerateVector("perturbation norm below the floor")
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise DegenerateVector("eigenvector argument must be unit length")
    inner = float(eps @ v) / n
    s_star = 1 if inner >= 0.0 else -1
    omega = abs(inner)
    value = 1.0 - np.sqrt(max(2.0 - 2.0 * omega, 0.0))
    return AlignmentReport(value=float(value), s_star=s_star, omega=float(omega))


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w minus its projection on the rows of ``basis``: two Gram-Schmidt passes."""
    for _ in range(2):
        w = w - basis.T @ (basis @ w)
    return w


def spectrum_deflated(oracle: LossOracle, x, k: int, q: int, seed: int,
                      m_trace: int = 64) -> SpectrumReport:
    """Top-k eigenpairs by magnitude, by Lanczos with full reorthogonalization.

    The Krylov basis grows from the seeded start of substream 0, one HVP per
    vector. After each step the tridiagonal T of the current block is
    diagonalized; the run stops when the k Ritz pairs of largest |theta| and
    the block's own leading pair all have Lanczos residual
    |beta_m s_mi| <= CONVERGED_RTOL max(1, |theta|), or when the basis
    reaches min(dim, k q) vectors, so no more than k q HVPs go to the basis.

    A breakdown (beta ~ 0) means the block spans an invariant subspace and
    its Ritz pairs are exact. For a generic start, every eigenvalue left in
    the rest of the space is one of that block's, so the run stops there if
    none of the block's pairs is among the top k; otherwise a new block
    starts from the seeded vector of the next substream, orthogonalized
    against the basis. That finds repeated eigenvalues.

    Each reported pair then costs one explicit HVP: its value is the
    Rayleigh quotient, its residual ||Hv - lam v||, and ``converged``
    follows from that residual. ``hvp_calls`` counts every HVP, the
    ``m_trace`` Hutchinson probes included.
    """
    dim = oracle.dim
    if not 1 <= k <= min(64, dim):
        raise ValueError("k must be in [1, min(64, dim)]")
    if q < 1:
        raise ValueError("q must be >= 1")
    x = _as_array(x)
    cap = min(dim, k * q)
    basis = np.empty((0, dim))
    locked_vals: list = []          # Ritz pairs of exhausted blocks
    locked_vecs: list = []
    alphas: list = []               # tridiagonal of the current block
    betas: list = []
    start = restarts = 0            # current block's first basis row; restarts
    v = _unit_start(dim, seed, 0, None)
    while True:
        basis = np.vstack((basis, v))
        w = oracle.hvp(x, v)
        alphas.append(float(v @ w))
        w = _reorthogonalize(w, basis)
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                  + np.diag(betas, -1))
        ritz_vals = np.concatenate((locked_vals, theta))
        top = np.argsort(-np.abs(ritz_vals), kind="stable")[:k]
        fresh = top[top >= len(locked_vals)] - len(locked_vals)
        exhausted = beta <= BREAKDOWN_RTOL * max(1.0, np.abs(ritz_vals).max())
        if exhausted:
            done = fresh.size == 0
        else:
            ok = (np.abs(beta * s[-1])
                  <= CONVERGED_RTOL * np.maximum(1.0, np.abs(theta)))
            lead = np.argmax(np.abs(theta))
            done = len(ritz_vals) >= k and ok[fresh].all() and ok[lead]
        if done or len(basis) == cap:
            break
        if exhausted:
            locked_vals.extend(theta)
            locked_vecs.extend(s.T @ basis[start:])
            restarts += 1
            v = _reorthogonalize(_unit_start(dim, seed, restarts, None), basis)
            norm = np.linalg.norm(v)
            if norm < BREAKDOWN_RTOL:
                raise ZeroIterate("restart vector lies in the explored subspace")
            v = v / norm
            alphas, betas, start = [], [], len(basis)
        else:
            betas.append(beta)
            v = w / beta
    calls = len(basis)

    ritz = [locked_vecs[i] if i < len(locked_vals)
            else s[:, i - len(locked_vals)] @ basis[start:] for i in top]
    vectors, values, residuals = [], [], []
    for y in ritz:
        y = y / np.linalg.norm(y)
        hy = oracle.hvp(x, y)
        calls += 1
        lam = float(y @ hy)
        vectors.append(y)
        values.append(lam)
        residuals.append(float(np.linalg.norm(hy - lam * y)))
    values, residuals = np.asarray(values), np.asarray(residuals)
    order = np.argsort(-np.abs(values), kind="stable")
    trace, trace_se = (float("nan"), float("nan"))
    if m_trace >= 2:
        trace, trace_se = hutchinson_trace(oracle, x, m_trace, seed)
        calls += m_trace
    return SpectrumReport(values=values[order],
                          vectors=np.asarray(vectors)[order],
                          residuals=residuals[order],
                          converged=(residuals <= CONVERGED_RTOL
                                     * np.maximum(1.0, np.abs(values)))[order],
                          trace_estimate=trace, trace_stderr=trace_se,
                          hvp_calls=calls)


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
