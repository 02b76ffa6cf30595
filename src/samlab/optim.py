"""The optimizer family: SGD, SAM, Eigen-SAM, Reverse-SAM, and EGR.

One pure function, ``step(x, oracle, cfg, state) -> (x', state')``, serves
every method. SGD descends along the mini-batch gradient g and EGR along
the gradient of f + rho ||grad f||. SAM, Reverse-SAM and Eigen-SAM differ
only in their perturbation eps and descend along the gradient at
x + rho eps: eps is g / ||g||, its negation, or g / ||g|| steered toward the
top Hessian eigenvector. The perturbation is always computed from g; weight
decay joins only in the final update, and momentum applies to the composite
direction (perturbed gradient plus decay). Gradients with norm below the
floor tau produce a zero perturbation, so every method degrades to plain SGD
at near-stationary points instead of dividing by zero.

Every step works row-wise over the last axis, so x may be one parameter
vector or an ``(S, d)`` stack of S independent ones (the replicate seeds of
a training run, advanced in lockstep on one stacked oracle). Norms, the
gradient floor, the Eigen-SAM sign, momentum and decay then act per row,
and ``hvp_count`` holds one count per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hessian import power_iteration
from .oracle import LossOracle

METHODS = ("sgd", "sam", "eigensam", "reversesam", "egr")
SCHEDULES = ("constant", "cosine")

GRAD_FLOOR = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    lr: float
    rho: float = 0.0
    alpha: float = 0.0
    refresh_every: int = 100      # p: eigenvector refresh interval, in steps
    power_iters: int = 5          # q: power-iteration rounds per refresh
    momentum: float = 0.0
    weight_decay: float = 0.0
    schedule: str = "constant"
    total_steps: int = 1          # cosine horizon
    grad_floor: float = GRAD_FLOOR

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not (self.lr > 0 and self.rho >= 0 and self.alpha >= 0):
            raise ValueError("lr must be positive; rho and alpha nonnegative")
        if not self.weight_decay >= 0.0:
            raise ValueError("weight_decay must be nonnegative")
        if self.refresh_every < 1 or self.power_iters < 1:
            raise ValueError("refresh_every and power_iters must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.grad_floor > 0.0:
            raise ValueError("grad_floor must be positive")


@dataclass(frozen=True)
class OptimizerState:
    step: int                     # t1: completed step count
    momentum_buf: np.ndarray
    eigvec: np.ndarray | None = None
    hvp_count: np.ndarray = 0     # HVPs spent, one count per row
    seed: int | tuple = 0         # power-iteration stream seed, one per row


def init_state(dim: int, seed: int | tuple = 0) -> OptimizerState:
    """Fresh state for one parameter vector, or for an ``(S, d)`` stack when
    ``seed`` is a sequence of S seeds (one row per seed)."""
    rows = np.shape(seed)
    return OptimizerState(step=0, momentum_buf=np.zeros(rows + (dim,)),
                          hvp_count=np.zeros(rows, dtype=np.int64), seed=seed)


def schedule_lr(cfg: OptimizerConfig, t1: int) -> float:
    """Learning rate at 1-based step t1; cosine reaches 0 at total_steps."""
    if cfg.schedule == "constant":
        return cfg.lr
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * t1 / cfg.total_steps))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.add.reduce(a * b, axis=-1, keepdims=True)


def _unit_rows(g: np.ndarray, tau: float) -> tuple:
    """(g / ||g||, live) per row, with ``np.linalg.norm``'s norm along the
    last axis, bit for bit. Rows with ||g|| < tau are not live and their
    unit vector is zero; ``live`` is a mask that broadcasts against g, or
    None when every row is live (skipping the masks leaves the same bits)."""
    g = np.asarray(g, dtype=np.float64)
    norm = np.sqrt(_row_dot(g, g))
    live = norm >= tau
    if live.all():
        return g / norm, None
    return np.where(live, g / np.where(live, norm, 1.0), 0.0), live


def sam_perturbation(g: np.ndarray, tau: float = GRAD_FLOOR) -> np.ndarray:
    """Normalized gradient, or zero when the gradient norm is below tau."""
    return _unit_rows(g, tau)[0]


def eigen_sam_perturbation(g: np.ndarray, v: np.ndarray, alpha: float,
                           tau: float = GRAD_FLOOR) -> np.ndarray:
    """Normalized gradient plus alpha times the sign-resolved orthogonal
    component of the unit eigenvector; zero below the gradient floor."""
    ghat, live = _unit_rows(g, tau)
    eps = _row_dot(v, ghat) * ghat
    np.subtract(v, eps, out=eps)                       # v_perp
    eps *= np.where(_row_dot(g, v) >= 0.0, alpha, -alpha)
    eps += ghat
    return eps if live is None else np.where(live, eps, 0.0)


def step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
         state: OptimizerState):
    """One step of ``cfg.method``: (x, state) -> (x', state').

    Eigen-SAM first refreshes its eigenvector estimate at steps t1 = 1,
    p + 1, 2p + 1, ... (every step when p == 1), via q rounds of power
    iteration on the current mini-batch Hessian, which costs q + 2 HVPs per
    row. EGR descends f + rho ||grad f||, whose gradient adds rho H g / ||g||
    to g: the HVP is taken once for all rows if any row's gradient is above
    the floor, and only those rows use it and count it.
    """
    t1 = state.step + 1
    v, hvp_used = state.eigvec, 0
    if cfg.method == "eigensam" and (v is None
                                     or (t1 - 1) % cfg.refresh_every == 0):
        est = power_iteration(oracle, x, cfg.power_iters, seed=state.seed,
                              substream=t1)
        v, hvp_used = est.vector, est.hvp_calls
    g = oracle.grad(x)
    direction = g
    if cfg.method == "egr":
        norm = np.sqrt(_row_dot(g, g))
        live = (norm >= cfg.grad_floor) & (cfg.rho != 0.0)
        if live.any():
            hg = oracle.hvp(x, g)
            direction = np.where(live, g + cfg.rho * hg / np.where(live, norm, 1.0),
                                 g)
        hvp_used = live.sum(axis=-1)
    elif cfg.method != "sgd":
        eps = (eigen_sam_perturbation(g, v, cfg.alpha, cfg.grad_floor)
               if cfg.method == "eigensam" else sam_perturbation(g, cfg.grad_floor))
        sign = -1.0 if cfg.method == "reversesam" else 1.0
        direction = oracle.grad(x + sign * cfg.rho * eps)
    buf = cfg.weight_decay * x
    buf += direction
    buf += cfg.momentum * state.momentum_buf
    x_next = schedule_lr(cfg, t1) * buf
    np.subtract(x, x_next, out=x_next)
    return x_next, OptimizerState(t1, buf, v, state.hvp_count + hvp_used,
                                  state.seed)
