"""Continuous-time models of sharpness-aware training dynamics.

The drift decomposes into three terms at scales (1, rho, rho^2/2):

  term1 = E[grad f_g]                      (full gradient)
  term2 = E[H_g grad f_g / ||grad f_g||]   (gradient of E ||grad f_g||)
  term3 = E[third_g(u_g, u_g)]             with u_g the unit batch gradient

The diffusion covariance assembles four blocks from the centered per-batch
vectors t1 = grad f_g, t2 = H_g g / ||g||, t3 = third_g(g, g) / ||g||^2:

  Sigma = S11 + rho (S12 + S12^T) + rho^2 (S22 + (S13 + S13^T) / 2)

A second-order model zeroes term3 and drops the rho^2 blocks. The aligned
orders ("aligned-rho", "aligned-rho2") keep term1, replace term3 with the
expected gradient of the top batch eigenvalue (and, for "aligned-rho2",
term2 with E[s* lam1 v1]), and pair with the third-order diffusion.
:func:`sde_coefficients` gives drift and diffusion for all four orders from
one evaluation of the per-batch vectors. Expectations run over a fixed
enumeration of batches, so they are exact and every probe here is
deterministic. Batches whose gradient norm falls below the floor contribute
zero to terms 2-3 and to their centered covariance vectors.

The per-batch vectors come from two tape passes per batch: a gradient, then
one jet pass along u_g = g / ||g|| (degree 1 for order 2, degree 2 for
order 3) whose adjoint jet is (g, H_g u_g, third_g(u_g, u_g) / 2). A family
with stacks (every exact-mode ``mlp_family``) runs each of the two passes
once per stack, on a ``(B, d)`` leaf holding x in every row, instead of once
per batch; a stack holds as many batches of one row count as fit in
``data.STACK_ELEMENTS``. Other families loop over their oracles, and fd-mode
oracles take their HVPs and third-order vectors by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OracleFamily
from .errors import DimensionTooLarge, GapViolated, NonFiniteState
from .hessian import align, power_iteration, spectrum_deflated
from .optim import GRAD_FLOOR, sam_perturbation
from .oracle import check_dense_third, jet_pass
from .rng import STREAM_SDE_NOISE, stream

SIGMA_EXACT_LIMIT = 512
SECOND_MOMENT_LIMIT = 64

VARIANT_ALIGNED_RHO = "aligned-rho"
VARIANT_ALIGNED_RHO2 = "aligned-rho2"
ALIGNED = (VARIANT_ALIGNED_RHO, VARIANT_ALIGNED_RHO2)


@dataclass(frozen=True)
class DriftDecomposition:
    term1: np.ndarray
    term2: np.ndarray
    term3: np.ndarray
    rho: float

    def combined(self) -> np.ndarray:
        return self.term1 + self.rho * self.term2 + 0.5 * self.rho ** 2 * self.term3


@dataclass(frozen=True)
class DiffusionModel:
    mode: str                     # "exact" or "sampled"
    sigma: np.ndarray | None      # assembled, symmetrized covariance
    sqrt: np.ndarray | None       # principal square root of the PSD part
    clipped_mass: float           # total negative eigenmass removed
    rho: float
    order: int

    def draw(self, seed: int, step: int) -> np.ndarray:
        """sqrt(Sigma) z for the standard normal z of the (seed, step) stream."""
        return self.sqrt @ stream(seed, STREAM_SDE_NOISE, step).standard_normal(
            len(self.sqrt))


@dataclass(frozen=True)
class SdeConfig:
    eta: float = 0.01
    rho: float = 0.0
    steps: int = 0                # horizon in eta-sized units (T = steps * eta)
    substeps: int = 1             # integrator steps per unit (dt = eta / substeps)
    diffusion: str = "exact"      # exact | sampled | none

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1 (dt cannot exceed eta)")
        if self.diffusion not in ("exact", "sampled", "none"):
            raise ValueError(f"unknown diffusion mode {self.diffusion!r}")

    @property
    def dt(self) -> float:
        return self.eta / self.substeps

    @property
    def rho_warning(self) -> bool:
        """Flag runs where rho exceeds eta^(1/3), outside the model's regime."""
        return self.rho > self.eta ** (1.0 / 3.0)


def _per_batch_terms(family: OracleFamily, x: np.ndarray, need_third: bool,
                     tau: float) -> tuple:
    """Rows t1_b = grad f_b, t2_b = H_b u_b and t3_b = third_b(u_b, u_b) (zero
    unless need_third), with t2_b = t3_b = 0 where ||t1_b|| < tau."""
    if family.stacks is not None:
        return _stacked_terms(family, x, need_third, tau)
    degree = 2 if need_third else 1
    t1s, t2s, t3s = (np.zeros((len(family), family.dim)) for _ in range(3))
    for b, oracle in enumerate(family.oracles):
        g = t1s[b] = oracle.grad(x)
        norm = np.linalg.norm(g)
        if norm < tau:
            continue
        if oracle.mode == "fd":
            t2s[b] = oracle.hvp(x, g) / norm
            if need_third:
                t3s[b] = oracle.third_directional(x, g / norm)
            continue
        jet = oracle.jet(x, g / norm, degree)
        t2s[b] = jet[1]
        if need_third:
            t3s[b] = 2.0 * jet[2]
    return t1s, t2s, t3s


def _stacked_terms(family: OracleFamily, x: np.ndarray, need_third: bool,
                   tau: float) -> tuple:
    """_per_batch_terms from two passes per stack; counts what the loop would."""
    n, d, degree = len(family), family.dim, 2 if need_third else 1
    t1s, t2s, t3s = (np.zeros((n, d)) for _ in range(3))
    for ids, builder in family.stacks():
        xs = np.tile(x, (len(ids), 1))
        g = t1s[ids] = jet_pass(builder, xs, release=True)[0]
        norms = np.array([np.linalg.norm(row) for row in g])
        live = norms >= tau
        if not live.any():
            continue
        if need_third:
            check_dense_third(d)
        units = np.zeros_like(g)
        units[live] = g[live] / norms[live, None]
        jet = jet_pass(builder, xs, degree, tangent=units, release=True)
        t2s[ids[live]] = jet[1][live]
        if need_third:
            t3s[ids[live]] = 2.0 * jet[2][live]
        if family.counter is not None:
            family.counter.hvp += int(live.sum())
            family.counter.third += int(live.sum()) if need_third else 0
    return t1s, t2s, t3s


def drift(family: OracleFamily, x, order: int, rho: float,
          tau: float = GRAD_FLOOR, terms: tuple | None = None) -> DriftDecomposition:
    """Three-term drift at x; order 2 zeroes the cubic term."""
    x = np.asarray(x, dtype=np.float64)
    if order not in (2, 3):
        raise ValueError("drift order must be 2 or 3")
    t1s, t2s, t3s = terms if terms is not None else _per_batch_terms(
        family, x, need_third=(order == 3), tau=tau)
    term3 = family.mean(t3s) if order == 3 else np.zeros(family.dim)
    return DriftDecomposition(term1=family.mean(t1s), term2=family.mean(t2s),
                              term3=term3, rho=rho)


def sigma_exact(family: OracleFamily, x, rho: float, order: int = 3,
                tau: float = GRAD_FLOOR, terms: tuple | None = None) -> DiffusionModel:
    """Assembled diffusion covariance, symmetrized, PSD-projected, rooted."""
    x = np.asarray(x, dtype=np.float64)
    if family.dim > SIGMA_EXACT_LIMIT:
        raise DimensionTooLarge(
            f"exact diffusion needs d <= {SIGMA_EXACT_LIMIT}, got {family.dim}")
    if order not in (2, 3):
        raise ValueError("diffusion order must be 2 or 3")
    t1s, t2s, t3s = terms if terms is not None else _per_batch_terms(
        family, x, need_third=(order == 3), tau=tau)
    sigma = _assemble_sigma(family, t1s, t2s, t3s, rho, order, tau)
    sigma = 0.5 * (sigma + sigma.T)
    vals, vecs = np.linalg.eigh(sigma)
    clipped = float(-vals[vals < 0.0].sum())
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return DiffusionModel(mode="exact", sigma=sigma, sqrt=root,
                          clipped_mass=clipped, rho=rho, order=order)


def sde_coefficients(family: OracleFamily, x, rho: float, order,
                     diffusion: str, tau: float = GRAD_FLOOR, q: int = 50,
                     seed: int = 0, check_gap: bool = True) -> tuple:
    """Drift and diffusion at x from one evaluation of the per-batch terms.

    ``order`` is 2, 3, "aligned-rho" or "aligned-rho2". The aligned orders
    take their drift from :func:`drift_aligned` (``q``, ``seed`` and
    ``check_gap`` go there) and always pair with the third-order diffusion.
    On a stacked family the evaluation is two tape passes per stack: a
    degree-0 pass whose adjoint rows are the batch gradients, then one pass
    along the unit gradients (degree 1 for order 2 and for aligned orders
    without diffusion, degree 2 otherwise) whose adjoint rows give H_b u_b
    and third_b(u_b, u_b). A degree-2 pass needs d <= 512, as the dense
    third-order vectors do.

    Returns (DriftDecomposition, diffusion object), where the second element
    is a DiffusionModel for "exact", a SampledNoise for "sampled", or None.
    """
    x = np.asarray(x, dtype=np.float64)
    if order not in (2, 3) + ALIGNED:
        raise ValueError(f"unknown SDE order {order!r}")
    if diffusion not in ("exact", "sampled", "none"):
        raise ValueError(f"unknown diffusion mode {diffusion!r}")
    aligned = order in ALIGNED
    need_third = order == 3 or (aligned and diffusion != "none")
    terms = _per_batch_terms(family, x, need_third=need_third, tau=tau)
    if aligned:
        dd = drift_aligned(family, x, order, rho, q=q, seed=seed, tau=tau,
                           check_gap=check_gap, terms=terms)
    else:
        dd = drift(family, x, order, rho, tau=tau, terms=terms)
    diffusion_order = 3 if aligned else order
    if diffusion == "exact":
        return dd, sigma_exact(family, x, rho, order=diffusion_order, tau=tau,
                               terms=terms)
    if diffusion == "sampled":
        return dd, SampledNoise(family, x, rho, order=diffusion_order, tau=tau,
                                terms=terms)
    return dd, None


def _assemble_sigma(family, t1s, t2s, t3s, rho, order, tau):
    """Sigma from weighted products of the centered per-batch rows; the t2
    and t3 rows of batches under the gradient floor are zero."""
    w = family.weights[:, None]
    live = (np.linalg.norm(t1s, axis=1) >= tau)[:, None]
    c1 = t1s - family.mean(t1s)
    c2 = np.where(live, t2s - family.mean(t2s), 0.0)
    s12 = c1.T @ (w * c2)
    sigma = c1.T @ (w * c1) + rho * (s12 + s12.T)
    if order == 3:
        c3 = np.where(live, t3s - family.mean(t3s), 0.0)
        s13 = c1.T @ (w * c3)
        sigma = sigma + rho ** 2 * (c2.T @ (w * c2) + 0.5 * (s13 + s13.T))
    return sigma


class SampledNoise:
    """Zero-mean batch-resampling noise whose covariance matches sigma_exact
    up to the same O(rho^3) terms the expansion already discards.

    Draw k returns u_g - mean(u) for a batch g picked by the (seed, step)
    stream, where u_g = t1 + rho t2 + (rho^2/2) t3.
    """

    def __init__(self, family: OracleFamily, x, rho: float, order: int = 3,
                 tau: float = GRAD_FLOOR, terms: tuple | None = None):
        x = np.asarray(x, dtype=np.float64)
        t1s, t2s, t3s = terms if terms is not None else _per_batch_terms(
            family, x, need_third=(order == 3), tau=tau)
        self.table = np.asarray([t1 + rho * t2 + 0.5 * rho ** 2 * t3
                                 for t1, t2, t3 in zip(t1s, t2s, t3s)])
        self.family = family
        self.mean = family.weights @ self.table

    def draw(self, seed: int, step: int) -> np.ndarray:
        return self.table[self.family.pick(seed, STREAM_SDE_NOISE, step)] - self.mean


def euler_maruyama_step(x: np.ndarray, cfg: SdeConfig, drift_vec: np.ndarray,
                        noise: np.ndarray | None) -> np.ndarray:
    """X' = X - drift dt + sqrt(eta) sqrt(dt) xi, with xi ~ cov Sigma."""
    x_next = x - drift_vec * cfg.dt
    if noise is not None:
        x_next = x_next + np.sqrt(cfg.eta) * np.sqrt(cfg.dt) * noise
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteState("integrator state left the finite range")
    return x_next


def drift_aligned(family: OracleFamily, x, variant: str, rho: float,
                  q: int = 50, seed: int = 0, tau: float = GRAD_FLOOR,
                  check_gap: bool = True,
                  terms: tuple | None = None) -> DriftDecomposition:
    """Aligned-regime drifts: the cubic term becomes the expected gradient of
    the top eigenvalue; the rho^2 variant also replaces term2 with
    E[s* lam1 v1].

    Per batch, v1 comes from the top-2 Lanczos spectrum (with ``check_gap``;
    a vanishing eigenvalue gap raises GapViolated) or from q rounds of power
    iteration (without), and s* from the alignment sign of the batch
    gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    if variant not in ALIGNED:
        raise ValueError(f"unknown aligned variant {variant!r}")
    t1s, t2s_raw, _ = terms if terms is not None else _per_batch_terms(
        family, x, need_third=False, tau=tau)
    term2s, term3s = [], []
    zero = np.zeros(family.dim)
    for b, oracle in enumerate(family.oracles):
        if check_gap:
            spec = spectrum_deflated(oracle, x, k=min(2, family.dim), q=q,
                                     seed=seed + b, m_trace=0)
            if len(spec.values) > 1:
                lam1, lam2 = spec.values[0], spec.values[1]
                if abs(lam1 - lam2) <= 1e-8 * max(1.0, abs(lam1)):
                    raise GapViolated(f"batch {b}: top eigenvalues "
                                      f"{lam1:.6g} and {lam2:.6g} coincide")
            est_vec, est_val = spec.vectors[0], float(spec.values[0])
        else:
            est = power_iteration(oracle, x, q, seed=seed, substream=b)
            est_vec, est_val = est.vector, est.value
        term3s.append(oracle.third_directional(x, est_vec))
        g = t1s[b]
        if np.linalg.norm(g) < tau:
            term2s.append(zero)
        elif variant == VARIANT_ALIGNED_RHO2:
            s_star = float(align(g, est_vec).s_star)
            term2s.append(s_star * est_val * est_vec)
        else:
            term2s.append(t2s_raw[b])
    return DriftDecomposition(term1=family.mean(t1s), term2=family.mean(term2s),
                              term3=family.mean(term3s), rho=rho)


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
                          tau: float = GRAD_FLOOR,
                          with_second: bool = True) -> MomentProbeReport:
    """Compare exact one-step moments of the discrete algorithm against the
    drift/diffusion prediction, per rho, with fitted log-log slopes.

    e1(rho) = || E[dx] + eta * drift ||; e2(rho) is the Frobenius error of
    E[dx dx^T] against eta^2 (drift drift^T + Sigma).
    """
    x = np.asarray(x, dtype=np.float64)
    if with_second and family.dim > SECOND_MOMENT_LIMIT:
        raise DimensionTooLarge(
            f"second-moment table needs d <= {SECOND_MOMENT_LIMIT}")
    rho_grid = [float(r) for r in rho_grid]
    rows = []
    grads = [o.grad(x) for o in family.oracles]
    # The per-batch terms do not depend on rho, and order 2 reads only t1, t2.
    terms = _per_batch_terms(family, x, need_third=True, tau=tau)
    for rho in rho_grid:
        deltas = []
        for oracle, g in zip(family.oracles, grads):
            eps = sam_perturbation(g, tau)
            deltas.append(-eta * oracle.grad(x + rho * eps))
        mean_delta = family.mean(deltas)
        if with_second:
            second = sum(w * np.outer(dl, dl)
                         for w, dl in zip(family.weights, deltas))
        e1 = {}
        e2 = {}
        for order in (3, 2):
            d = drift(family, x, order, rho, tau=tau, terms=terms).combined()
            e1[order] = float(np.linalg.norm(mean_delta + eta * d))
            if with_second:
                sig = sigma_exact(family, x, rho, order=order, tau=tau,
                                  terms=terms).sigma
                target = eta ** 2 * (np.outer(d, d) + sig)
                e2[order] = float(np.linalg.norm(second - target))
            else:
                e2[order] = float("nan")
        rows.append(MomentProbeRow(rho, e1[3], e1[2], e2[3], e2[2]))
    return MomentProbeReport(
        rows=tuple(rows),
        slope_e1_order3=_fit_slope(rho_grid, [r.e1_order3 for r in rows]),
        slope_e1_order2=_fit_slope(rho_grid, [r.e1_order2 for r in rows]),
        slope_e2_order3=_fit_slope(rho_grid, [r.e2_order3 for r in rows])
        if with_second else float("nan"),
        slope_e2_order2=_fit_slope(rho_grid, [r.e2_order2 for r in rows])
        if with_second else float("nan"),
    )
