"""Continuous-time models of sharpness-aware training dynamics.

The drift decomposes into three terms at scales (1, rho, rho^2/2):

  term1 = E[grad f_g]                      (full gradient)
  term2 = E[H_g grad f_g / ||grad f_g||]   (gradient of E ||grad f_g||)
  term3 = E[third_g(u_g, u_g)]             with u_g the unit batch gradient

The diffusion covariance comes from the centered per-batch vectors c1, c2,
c3 of t1 = grad f_g, t2 = H_g g / ||g||, t3 = third_g(g, g) / ||g||^2:

  Sigma = S11 + rho (S12 + S12^T) + rho^2 (S22 + (S13 + S13^T) / 2)
        = M^T K M,  M = [c1; c2; c3] (3B x d),
        K = [[1, rho, rho^2/2], [rho, rho^2, 0], [rho^2/2, 0, 0]] (x) diag(w)

so its rank is at most 3B, and :func:`sigma_exact` factors it at any d
through a QR of M^T and an eigh of size at most 3B. A second-order model
zeroes term3 and the rho^2 entries of K. The aligned orders ("aligned-rho",
"aligned-rho2") keep term1, replace term3 with the expected gradient of the
top batch eigenvalue (and, for "aligned-rho2", term2 with E[s* lam1 v1]),
and pair with the third-order diffusion. :func:`sde_coefficients` gives
drift and diffusion for all four orders from one evaluation of the per-batch
vectors, which :func:`drift`, :func:`sigma_exact`, :class:`SampledNoise` and
:func:`drift_aligned` take as their ``terms``. Expectations run over a
fixed enumeration of batches, so they are exact and every probe here is
deterministic. Batches whose gradient norm falls below the floor, the ones
SAM's perturbation does not move, contribute zero to terms 2-3 and to
their centered covariance vectors.

The per-batch vectors come from a gradient, then one jet along
u_g = g / ||g|| (degree 1 for order 2, degree 2 for order 3), whose
coefficients are (g, H_g u_g, third_g(u_g, u_g) / 2), dense at any d. Each
is one exact tape pass per stack of the family, on a leaf whose row is one
batch's point: an ``mlp_family`` stacks its batches as
:func:`data.stack_plan` decides, and any other family has one batch per
stack. The jet pass of a stack pushes the tape its gradient pass recorded,
so it sweeps only the tangent coefficients. At R points, as ``simulate-sde``
advances its rows, the stacks cover R x B (point, batch) pairs, each pushed
at the highest degree its points need (its coefficient 1 is the same bits
at degree 1 and 2), and :func:`sigma_exact` factors the R covariances in
one batched qr and eigh. The aligned term3 and the moment probe's one-step
deltas come from the same per-stack passes.

:func:`one_step_moment_probe` checks the weak order of the expansion: it
compares the exact one-step mean and second moment of discrete SAM with
the drift and diffusion, the second moment from factors of rank at most
4B + 1, so it too runs at any d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OracleFamily
from .errors import GapViolated, NonFiniteState
# power_iteration is unused here; perfbench's tracer test reads it from sde.
from .hessian import power_iteration, spectrum_deflated  # noqa: F401
from .optim import GRAD_FLOOR, _row_dot, sam_perturbation
from .oracle import jet_pass
from .rng import STREAM_SDE_NOISE, stream

VARIANT_ALIGNED_RHO = "aligned-rho"
VARIANT_ALIGNED_RHO2 = "aligned-rho2"
ALIGNED = (VARIANT_ALIGNED_RHO, VARIANT_ALIGNED_RHO2)
DIFFUSIONS = ("exact", "sampled", "none")


@dataclass(frozen=True)
class DriftDecomposition:
    """The three drift terms and the HVPs they cost: one per batch at or
    above the gradient floor, plus the aligned drifts' Lanczos spectra."""
    term1: np.ndarray
    term2: np.ndarray
    term3: np.ndarray
    rho: float
    hvp_calls: int = 0

    def combined(self) -> np.ndarray:
        return self.term1 + self.rho * self.term2 + 0.5 * self.rho ** 2 * self.term3


@dataclass(frozen=True)
class DiffusionModel:
    """Sigma = basis diag(vals) basis^T; zero off the span of the basis."""
    basis: np.ndarray             # (d, k) orthonormal columns, k <= min(d, 3B)
    vals: np.ndarray              # eigenvalues of Sigma along the basis
    clipped_mass: float           # total negative eigenmass removed

    @property
    def sigma(self) -> np.ndarray:
        """The dense, symmetrized covariance."""
        sigma = (self.basis * self.vals) @ self.basis.T
        return 0.5 * (sigma + sigma.T)

    @property
    def sqrt(self) -> np.ndarray:
        """The dense principal square root of the PSD part of Sigma."""
        return (self.basis * np.sqrt(np.clip(self.vals, 0.0, None))) @ self.basis.T

    def draw(self, seed: int, step: int) -> np.ndarray:
        """sqrt(Sigma) z for the standard normal z of the (seed, step) stream."""
        z = stream(seed, STREAM_SDE_NOISE, step).standard_normal(len(self.basis))
        return self.basis @ (np.sqrt(np.clip(self.vals, 0.0, None))
                             * (self.basis.T @ z))


def _batch_jets(family: OracleFamily, xs: np.ndarray, degree: int = 0,
                tangents: np.ndarray | None = None) -> list:
    """Row b of each coefficient is batch b's adjoint jet at xs[b] along
    tangents[b] (see :func:`oracle.jet_pass`), from one tape pass per stack."""
    coefs = [np.zeros((len(family), family.dim)) for _ in range(degree + 1)]
    for ids, builder in family.stacks():
        jet = jet_pass(builder, xs[ids], degree,
                       None if tangents is None else tangents[ids])
        for coef, rows in zip(coefs, jet):
            coef[ids] = rows
    return coefs


def _per_batch_terms(family: OracleFamily, x: np.ndarray, need_third,
                     tau: float) -> tuple:
    """Rows t1_b = grad f_b, t2_b = H_b u_b and t3_b = third_b(u_b, u_b) (zero
    unless need_third), and the mask of the live batches. u_b is SAM's
    perturbation :func:`optim.sam_perturbation` of t1_b, and the live
    batches are the ones it moves, u_b != 0, so ||t1_b|| >= tau by SAM's
    own norm. t2_b = t3_b = 0 off the mask; each live batch costs one HVP
    (its jet). Each stack takes its gradient and then, if a row is live,
    its jet with the same builder at the same point, so the jet pass is a
    push of the gradient pass's record. At R points ``(R, d)``, with one
    need_third each, the terms are ``(R, B, d)`` and the mask ``(R, B)``."""
    if np.ndim(x) == 1:
        return tuple(t[0] for t in _per_batch_terms(
            family, np.reshape(x, (1, -1)), [need_third], tau))
    n, thirds = len(family), np.asarray(need_third)
    t1s, t2s, t3s = (np.zeros((len(x) * n, family.dim)) for _ in range(3))
    live = np.zeros(len(x) * n, dtype=bool)
    for ids, builder in family.stacks([*range(n)] * len(x)):
        at, third = x[ids // n], thirds[ids // n]
        g = jet_pass(builder, at)[0]
        units = sam_perturbation(g, tau)
        on = units.any(axis=1)
        t1s[ids], live[ids] = g, on
        if not on.any():
            continue
        jet = jet_pass(builder, at, 2 if third.any() else 1, units)
        t2s[ids] = np.where(on[:, None], jet[1], 0.0)
        if third.any():
            t3s[ids] = np.where((on & third)[:, None], 2.0 * jet[2], 0.0)
    return (*(t.reshape(len(x), n, -1) for t in (t1s, t2s, t3s)),
            live.reshape(len(x), n))


def drift(family: OracleFamily, terms: tuple, order: int,
          rho: float) -> DriftDecomposition:
    """Three-term drift from the per-batch terms at a point; order 2 zeroes
    the cubic term."""
    if order not in (2, 3):
        raise ValueError("drift order must be 2 or 3")
    t1s, t2s, t3s, live = terms
    term3 = family.mean(t3s) if order == 3 else np.zeros(family.dim)
    return DriftDecomposition(term1=family.mean(t1s), term2=family.mean(t2s),
                              term3=term3, rho=rho, hvp_calls=int(live.sum()))


def sigma_exact(family: OracleFamily, terms: tuple, rho: float, order=3):
    """Diffusion covariance M^T K M, factored: with M^T = QR, the eigenpairs
    (vals, U) of the symmetrized R K R^T give Sigma = (QU) diag(vals) (QU)^T.
    The c2 and c3 rows of batches under the gradient floor are zero. The
    ``(R, B, d)`` terms of R points, one order each, give R models."""
    if terms[3].ndim == 1:
        return sigma_exact(family, [t[None] for t in terms], rho, [order])[0]
    if not set(order) <= {2, 3}:
        raise ValueError("diffusion order must be 2 or 3")
    # Each point's terms less their family.mean, taken over axis 1.
    dev = [t - (family.weights[:, None] * t).sum(axis=1, keepdims=True)
           for t in terms[:3]]
    rows = np.concatenate([dev[0]] + [np.where(terms[3][..., None], t, 0.0)
                                      for t in dev[1:]], axis=1)
    q, r = np.linalg.qr(rows.transpose(0, 2, 1))
    # K = kron(mix, diag(weights)) per row, as one broadcast product.
    mix = np.array([[[1.0, rho, 0.5 * r2], [rho, r2, 0.0], [0.5 * r2, 0.0, 0.0]]
                    for r2 in (rho ** 2 if o == 3 else 0.0 for o in order)])
    k = (mix[:, :, None, :, None] * np.diag(family.weights)[:, None, :]).reshape(
        len(order), 3 * len(family), 3 * len(family))
    core = r @ k @ r.transpose(0, 2, 1)
    vals, vecs = np.linalg.eigh(0.5 * (core + core.transpose(0, 2, 1)))
    return [DiffusionModel(basis=basis, vals=v, clipped_mass=float(-v[v < 0.0].sum()))
            for basis, v in zip(q @ vecs, vals)]


def sde_coefficients(family: OracleFamily, x, rho: float, order,
                     diffusion: str, tau: float = GRAD_FLOOR, q: int = 50,
                     seed=0, check_gap: bool = True):
    """Drift and diffusion at x from one evaluation of the per-batch terms.

    ``order`` is 2, 3, "aligned-rho" or "aligned-rho2". The aligned orders
    take their drift from :func:`drift_aligned` (``q``, ``seed`` and
    ``check_gap`` go there) and always pair with the third-order diffusion.
    The evaluation is two passes per stack: a degree-0 tape pass whose
    adjoint rows are the batch gradients, then a push of its record along
    the unit gradients (degree 1 for order 2 and for aligned orders without
    diffusion, degree 2 otherwise) whose adjoint rows give H_b u_b and
    third_b(u_b, u_b) at any d.

    Returns (DriftDecomposition, diffusion object), where the second element
    is a DiffusionModel for "exact", a SampledNoise for "sampled", or None.
    At R points ``(R, d)``, with one order and one seed per point, it
    returns the R points' pairs from one evaluation and one sigma_exact.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return sde_coefficients(family, x[None], rho, [order], diffusion, tau,
                                q, [seed], check_gap)[0]
    if not set(order) <= {2, 3, *ALIGNED}:
        raise ValueError(f"unknown SDE order in {order!r}")
    if diffusion not in DIFFUSIONS:
        raise ValueError(f"unknown diffusion mode {diffusion!r}")
    terms = _per_batch_terms(family, x, [
        o == 3 or (o in ALIGNED and diffusion != "none") for o in order], tau)
    rows = list(zip(*terms))
    dds = [drift_aligned(family, xr, tr, o, rho, q=q, seed=s,
                         check_gap=check_gap) if o in ALIGNED
           else drift(family, tr, o, rho)
           for xr, tr, o, s in zip(x, rows, order, seed)]
    if diffusion == "exact":
        diffs = sigma_exact(family, terms, rho,
                            [3 if o in ALIGNED else o for o in order])
    else:
        diffs = [SampledNoise(family, tr, rho) if diffusion == "sampled"
                 else None for tr in rows]
    return list(zip(dds, diffs))


class SampledNoise:
    """Zero-mean batch-resampling noise whose covariance matches sigma_exact
    up to the same O(rho^3) terms the expansion already discards.

    Draw k returns u_g - mean(u) for a batch g picked by the (seed, step)
    stream, where u_g = t1 + rho t2 + (rho^2/2) t3; terms taken without the
    third-order vectors have t3 = 0, which gives the second-order noise.
    """

    def __init__(self, family: OracleFamily, terms: tuple, rho: float):
        t1s, t2s, t3s, _ = terms
        self.table = t1s + rho * t2s + 0.5 * rho ** 2 * t3s
        self.family = family
        self.mean = family.weights @ self.table

    def draw(self, seed: int, step: int) -> np.ndarray:
        return self.table[self.family.pick(seed, STREAM_SDE_NOISE, step)] - self.mean


def euler_maruyama_step(x: np.ndarray, eta: float, dt: float,
                        drift_vec: np.ndarray,
                        noise: np.ndarray | None) -> np.ndarray:
    """X' = X - drift dt + sqrt(eta) sqrt(dt) xi, with xi ~ cov Sigma."""
    x_next = x - drift_vec * dt
    if noise is not None:
        x_next = x_next + np.sqrt(eta) * np.sqrt(dt) * noise
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteState("integrator state left the finite range")
    return x_next


def drift_aligned(family: OracleFamily, x, terms: tuple, variant: str,
                  rho: float, q: int = 50, seed: int = 0,
                  check_gap: bool = True) -> DriftDecomposition:
    """Aligned-regime drifts: the cubic term becomes the expected gradient of
    the top eigenvalue; the rho^2 variant also replaces term2 with
    E[s* lam1 v1].

    Per batch, v1 comes from the top-2 Lanczos spectrum of its oracle, and
    s* from Eigen-SAM's orientation rule (see
    :func:`optim.eigen_sam_perturbation`): +1 where g . v1 >= 0, else -1.
    term3 takes the rows third_b(v1_b, v1_b) from one degree-2 pass per
    stack. ``check_gap`` only decides whether a vanishing eigenvalue gap
    raises GapViolated; v1 is the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if variant not in ALIGNED:
        raise ValueError(f"unknown aligned variant {variant!r}")
    t1s, t2s, _, live = terms
    vecs, lam1s = np.zeros_like(t1s), np.zeros(len(family))
    hvp_calls = int(live.sum())
    for b, oracle in enumerate(family.oracles):
        spec = spectrum_deflated(oracle, x, k=min(2, family.dim), q=q,
                                 seed=seed + b)
        hvp_calls += spec.hvp_calls
        if check_gap and len(spec.values) > 1:
            lam1, lam2 = spec.values[0], spec.values[1]
            if abs(lam1 - lam2) <= 1e-8 * max(1.0, abs(lam1)):
                raise GapViolated(f"batch {b}: top eigenvalues "
                                  f"{lam1:.6g} and {lam2:.6g} coincide")
        vecs[b], lam1s[b] = spec.vectors[0], spec.values[0]
    term2s = t2s
    if variant == VARIANT_ALIGNED_RHO2:
        s_star = np.where(_row_dot(t1s, vecs) >= 0.0, 1.0, -1.0)
        term2s = np.where(live[:, None], s_star * lam1s[:, None] * vecs, t2s)
    term3s = 2.0 * _batch_jets(family, np.broadcast_to(x, vecs.shape), 2, vecs)[2]
    return DriftDecomposition(term1=family.mean(t1s), term2=family.mean(term2s),
                              term3=family.mean(term3s), rho=rho,
                              hvp_calls=hvp_calls)


@dataclass(frozen=True)
class MomentProbeRow:
    rho: float
    e1_order3: float
    e1_order2: float
    e2_order3: float
    e2_order2: float


@dataclass(frozen=True)
class MomentProbeReport:
    rows: tuple
    slope_e1_order3: float
    slope_e1_order2: float
    slope_e2_order3: float
    slope_e2_order2: float


def _fit_slope(rhos, errors):
    errors = np.asarray(errors)
    # At round-off level a log-log fit is meaningless; report undefined.
    if np.any(errors <= 1e-13 * max(1.0, errors.max())):
        return float("nan")
    coef = np.polyfit(np.log(rhos), np.log(errors), 1)
    return float(coef[0])


def one_step_moment_probe(family: OracleFamily, x, eta: float, rho_grid,
                          tau: float = GRAD_FLOOR) -> MomentProbeReport:
    """Compare exact one-step moments of the discrete algorithm against the
    drift/diffusion prediction, per rho, with fitted log-log slopes.

    The deltas dx_g = -eta grad f_g(x + rho u_g) come from one degree-0
    pass per stack. e1(rho) = || E[dx] + eta * drift ||; e2(rho) is the
    Frobenius error of E[dx dx^T] against eta^2 (drift drift^T + Sigma),
    computed from factors at any d: the error is F^T diag(c) F for the rows
    F = [dx_g; drift; basis^T] and weights c = (w_g, -eta^2, -eta^2 vals),
    so with F^T = QR it is || R diag(c) R^T ||_F. Raises NonFiniteState if
    an error is not finite, as when eta^2 overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    eta = np.float64(eta)
    rho_grid = [float(r) for r in rho_grid]
    rows = []
    # The per-batch terms do not depend on rho, and order 2 reads only t1, t2.
    terms = _per_batch_terms(family, x, need_third=True, tau=tau)
    for rho in rho_grid:
        xs = x + rho * sam_perturbation(terms[0], tau)
        e1 = {}
        e2 = {}
        with np.errstate(over="ignore", invalid="ignore"):
            deltas = -eta * _batch_jets(family, xs)[0]
            mean_delta = family.mean(deltas)
            for order in (3, 2):
                d = drift(family, terms, order, rho).combined()
                e1[order] = float(np.linalg.norm(mean_delta + eta * d))
                dm = sigma_exact(family, terms, rho, order=order)
                r = np.linalg.qr(np.vstack([deltas, d, dm.basis.T]).T, mode="r")
                c = np.concatenate([family.weights, [-eta ** 2],
                                    -eta ** 2 * dm.vals])
                e2[order] = float(np.linalg.norm((r * c) @ r.T))
        if not np.all(np.isfinite([*e1.values(), *e2.values()])):
            raise NonFiniteState(f"one-step moment error at rho={rho} is not "
                                 f"finite (eta={eta:g})")
        rows.append(MomentProbeRow(rho, e1[3], e1[2], e2[3], e2[2]))
    return MomentProbeReport(
        rows=tuple(rows),
        slope_e1_order3=_fit_slope(rho_grid, [r.e1_order3 for r in rows]),
        slope_e1_order2=_fit_slope(rho_grid, [r.e1_order2 for r in rows]),
        slope_e2_order3=_fit_slope(rho_grid, [r.e2_order3 for r in rows]),
        slope_e2_order2=_fit_slope(rho_grid, [r.e2_order2 for r in rows]),
    )
