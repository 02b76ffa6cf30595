"""The optimizer family: SGD, SAM, Eigen-SAM, Reverse-SAM, and EGR.

Each step is a pure function (x, oracle, cfg, state) -> (x', state'). The
perturbation is always computed from the raw mini-batch gradient; weight
decay joins only in the final update, and momentum applies to the composite
direction (perturbed gradient plus decay). Gradients with norm below the
floor tau produce a zero perturbation, so every method degrades to plain SGD
at near-stationary points instead of dividing by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if self.lr <= 0 or self.rho < 0 or self.alpha < 0:
            raise ValueError("lr must be positive; rho and alpha nonnegative")
        if self.refresh_every < 1 or self.power_iters < 1:
            raise ValueError("refresh_every and power_iters must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.grad_floor <= 0.0:
            raise ValueError("grad_floor must be positive")


@dataclass(frozen=True)
class OptimizerState:
    step: int                     # t1: completed step count
    momentum_buf: np.ndarray
    eigvec: np.ndarray | None = None
    hvp_count: int = 0
    seed: int = 0                 # stream seed for power-iteration starts


def init_state(dim: int, seed: int = 0) -> OptimizerState:
    return OptimizerState(step=0, momentum_buf=np.zeros(dim), seed=seed)


def schedule_lr(cfg: OptimizerConfig, t1: int) -> float:
    """Learning rate at 1-based step t1; cosine reaches 0 at total_steps."""
    if cfg.schedule == "constant":
        return cfg.lr
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * t1 / cfg.total_steps))


def sam_perturbation(g: np.ndarray, tau: float = GRAD_FLOOR) -> np.ndarray:
    """Normalized gradient, or zero when the gradient norm is below tau."""
    norm = np.linalg.norm(g)
    if norm < tau:
        return np.zeros_like(g)
    return g / norm


def eigen_sam_perturbation(g: np.ndarray, v: np.ndarray, alpha: float,
                           tau: float = GRAD_FLOOR) -> np.ndarray:
    """Normalized gradient plus alpha times the sign-resolved orthogonal
    component of the unit eigenvector; zero below the gradient floor."""
    norm = np.linalg.norm(g)
    if norm < tau:
        return np.zeros_like(g)
    ghat = g / norm
    vperp = v - (v @ ghat) * ghat
    s = 1.0 if (g @ v) >= 0.0 else -1.0
    return ghat + alpha * s * vperp


_KEEP = object()


def _descend(x, update_grad, cfg, state, t1, hvp_used=0, eigvec=_KEEP):
    direction = update_grad + cfg.weight_decay * x
    buf = cfg.momentum * state.momentum_buf + direction
    x_next = x - schedule_lr(cfg, t1) * buf
    new_vec = state.eigvec if eigvec is _KEEP else eigvec
    return x_next, replace(state, step=t1, momentum_buf=buf,
                           hvp_count=state.hvp_count + hvp_used, eigvec=new_vec)


def sgd_step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
             state: OptimizerState):
    t1 = state.step + 1
    return _descend(x, oracle.grad(x), cfg, state, t1)


def sam_step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
             state: OptimizerState):
    t1 = state.step + 1
    eps = sam_perturbation(oracle.grad(x), cfg.grad_floor)
    return _descend(x, oracle.grad(x + cfg.rho * eps), cfg, state, t1)


def reverse_sam_step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
                     state: OptimizerState):
    t1 = state.step + 1
    eps = -sam_perturbation(oracle.grad(x), cfg.grad_floor)
    return _descend(x, oracle.grad(x + cfg.rho * eps), cfg, state, t1)


def egr_step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
             state: OptimizerState):
    """Descend f + rho ||grad f||; the exact gradient adds rho H g / ||g||."""
    t1 = state.step + 1
    g = oracle.grad(x)
    norm = np.linalg.norm(g)
    hvp_used = 0
    direction = g
    if cfg.rho != 0.0 and norm >= cfg.grad_floor:
        direction = g + cfg.rho * oracle.hvp(x, g) / norm
        hvp_used = 1
    return _descend(x, direction, cfg, state, t1, hvp_used=hvp_used)


def eigen_sam_step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
                   state: OptimizerState):
    """SAM with the perturbation steered toward the top Hessian eigenvector.

    The eigenvector estimate refreshes at steps t1 = 1, p + 1, 2p + 1, ...
    (every step when p == 1), via q rounds of power iteration on the current
    mini-batch Hessian, which costs q + 2 HVPs.
    """
    t1 = state.step + 1
    v = state.eigvec
    hvp_used = 0
    if v is None or (t1 - 1) % cfg.refresh_every == 0:
        est = power_iteration(oracle, x, cfg.power_iters, seed=state.seed,
                              substream=t1)
        v = est.vector
        hvp_used = est.hvp_calls
    eps = eigen_sam_perturbation(oracle.grad(x), v, cfg.alpha, cfg.grad_floor)
    x_next, new_state = _descend(x, oracle.grad(x + cfg.rho * eps), cfg, state,
                                 t1, hvp_used=hvp_used, eigvec=v)
    return x_next, new_state


STEP_FUNCTIONS = {
    "sgd": sgd_step,
    "sam": sam_step,
    "eigensam": eigen_sam_step,
    "reversesam": reverse_sam_step,
    "egr": egr_step,
}


def step(x: np.ndarray, oracle: LossOracle, cfg: OptimizerConfig,
         state: OptimizerState):
    return STEP_FUNCTIONS[cfg.method](x, oracle, cfg, state)
