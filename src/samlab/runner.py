"""Experiment orchestration: training runs, SDE simulations, and probes.

Every runner takes a resolved config dict (see :mod:`samlab.config`), writes
a deterministic artifact (CSV for trajectories, JSON for probe reports), and
returns the output path. Replicate seeds produce separate rows merged by
(process, seed, step); identical configs reproduce identical bytes except
for the wall-clock column.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from . import sde as sde_mod
from .bounds import (PINNED_CONSTANT, BoundInputs, ConvergenceInputs,
                     alpha_admissible_range, convergence_bound, pac_bayes_bound)
from .config import render
from .data import (BatchSampler, Dataset, OracleFamily, gen_synthetic,
                   load_idx, mlp_family, sample_batch)
from .errors import ConfigError, SamlabError
from .hessian import align, power_iteration, spectrum_deflated
from .metrics import MetricRow, sort_rows, write_csv
from .models import MlpSpec, accuracy, init_params, mlp_oracle
from .optim import OptimizerConfig, init_state, step as optimizer_step
from .oracle import CallCounter, ParamVector
from .rng import (STREAM_BATCH, STREAM_EVAL_BATCH, STREAM_PROBE,
                  STREAM_SDE_NOISE, stream)
from .toys import TOYS

EVAL_BATCH_MAX = 128

SDE_PROCESSES = ("discrete-sam", "sde2", "sde3", "sde-aligned-rho",
                 "sde-aligned-rho2")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _model_spec(config: dict) -> MlpSpec:
    try:
        return MlpSpec(config["model_layers"], config["activation"],
                       config["loss_head"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _datasets(config: dict) -> tuple:
    spec = _model_spec(config)
    if config["data"] == "idx":
        for key in ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels"):
            if not config[key]:
                raise ConfigError(f"data=idx requires {key}")
        train = load_idx(config["idx_images"], config["idx_labels"], "train")
        test = load_idx(config["idx_test_images"], config["idx_test_labels"], "test")
    elif config["data"] == "synthetic":
        train = gen_synthetic(config["data_n"], config["data_dim"],
                              config["data_classes"], config["data_margin"],
                              config["data_seed"], "train")
        test = gen_synthetic(config["test_n"], config["data_dim"],
                             config["data_classes"], config["data_margin"],
                             config["data_seed"], "test")
    else:
        raise ConfigError(f"unknown data source {config['data']!r}")
    if train.dim != spec.layers[0]:
        raise ConfigError("model input width does not match the dataset")
    return spec, train, test


def _probe_row(spec: MlpSpec, x: np.ndarray, layout, t: int, process: str,
               seed: int, train: Dataset, test: Dataset, hvp_count: int,
               probe_q: int, started: float) -> MetricRow:
    """One full metric row; spectral quantities use the evaluation batch."""
    pv = ParamVector(x, layout)
    train_oracle = mlp_oracle(spec, train.inputs, train.labels)
    test_oracle = mlp_oracle(spec, test.inputs, test.labels)
    g_full = train_oracle.grad(x)

    size = min(EVAL_BATCH_MAX, train.n)
    idx = stream(seed, STREAM_EVAL_BATCH, t).choice(train.n, size=size,
                                                    replace=False)
    eval_oracle = mlp_oracle(spec, *train.take(idx))
    v0 = stream(seed, STREAM_PROBE, t).standard_normal(spec.dim)
    est = power_iteration(eval_oracle, x, q=probe_q, seed=seed, v0=v0)
    g_eval = eval_oracle.grad(x)
    if np.linalg.norm(g_eval) >= 1e-12:
        alignment = align(g_eval, est.vector).value
    else:
        alignment = float("nan")

    return MetricRow(
        step=t, process=process, seed=seed,
        train_loss=train_oracle.loss(x),
        test_loss=test_oracle.loss(x),
        test_accuracy=accuracy(spec, pv, test.inputs, test.labels),
        param_norm=float(np.linalg.norm(x)),
        grad_norm=float(np.linalg.norm(g_full)),
        lambda1=est.value,
        alignment=alignment,
        hvp_count=hvp_count,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )


def _probe_steps(steps: int, eval_every: int):
    marks = set(range(0, steps + 1, eval_every))
    marks.add(steps)
    return marks


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _optimizer_config(config: dict, total_steps: int) -> OptimizerConfig:
    try:
        return OptimizerConfig(
            method=config["method"], lr=config["lr"], rho=config["rho"],
            alpha=config["alpha"], refresh_every=config["p"],
            power_iters=config["q"], momentum=config["momentum"],
            weight_decay=config["weight_decay"], schedule=config["schedule"],
            total_steps=total_steps, grad_floor=config["grad_floor"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _train_one(config: dict, seed: int, rows: list) -> np.ndarray:
    spec, train, test = _datasets(config)
    steps = config["steps"]
    if config["fair_compute"] and config["method"] == "sgd":
        steps *= 2
    opt_cfg = _optimizer_config(config, total_steps=max(steps, 1))
    sampler = BatchSampler(config["batch_size"], seed, config["sampler"])
    x = init_params(spec, seed).values
    state = init_state(spec.dim, seed)
    probe_at = _probe_steps(steps, config["eval_every"])
    started = time.perf_counter()
    for t in range(steps + 1):
        if t in probe_at:
            rows.append(_probe_row(spec, x, spec.layout, t, config["method"],
                                   seed, train, test, state.hvp_count,
                                   config["probe_q"], started))
        if t == steps:
            break
        idx = sample_batch(sampler, train, t)
        oracle = mlp_oracle(spec, *train.take(idx))
        x, state = optimizer_step(x, oracle, opt_cfg, state)
    return x


def run_train(config: dict, out_name: str = "train.csv") -> Path:
    """Train under the configured optimizer, one trajectory per seed."""
    out = Path(config["out"]) / out_name
    rows: list = []
    try:
        for seed in config["seeds"]:
            _train_one(config, seed, rows)
    except SamlabError as exc:
        write_csv(out, render(config), sort_rows(rows),
                  error=f"{type(exc).__name__}: {exc}")
        raise
    write_csv(out, render(config), sort_rows(rows))
    return out


# ---------------------------------------------------------------------------
# simulate-sde
# ---------------------------------------------------------------------------

_PROCESS_ORDER = {"sde2": 2, "sde3": 3,
                  "sde-aligned-rho": sde_mod.VARIANT_ALIGNED_RHO,
                  "sde-aligned-rho2": sde_mod.VARIANT_ALIGNED_RHO2}


def _weighted_batch_index(family: OracleFamily, seed: int, t: int) -> int:
    u = stream(seed, STREAM_BATCH, t).random()
    idx = int(np.searchsorted(np.cumsum(family.weights), u, side="right"))
    return min(idx, len(family.oracles) - 1)


def _simulate_discrete_sam(config, spec, train, test, seed, rows) -> None:
    sde_cfg = _sde_config(config)
    opt_cfg = OptimizerConfig(method="sam", lr=sde_cfg.eta, rho=sde_cfg.rho,
                              schedule="constant", total_steps=sde_cfg.steps,
                              grad_floor=config["grad_floor"])
    counter = CallCounter()
    family = mlp_family(spec, train, config["batch_size"], counter=counter)
    x = init_params(spec, seed).values
    state = init_state(spec.dim, seed)
    probe_at = _probe_steps(sde_cfg.steps, config["eval_every"])
    started = time.perf_counter()
    for t in range(sde_cfg.steps + 1):
        if t in probe_at:
            rows.append(_probe_row(spec, x, spec.layout, t, "discrete-sam",
                                   seed, train, test, counter.hvp,
                                   config["probe_q"], started))
        if t == sde_cfg.steps:
            break
        oracle = family.oracles[_weighted_batch_index(family, seed, t)]
        x, state = optimizer_step(x, oracle, opt_cfg, state)


def _simulate_sde_process(config, spec, train, test, seed, process, rows) -> None:
    sde_cfg = _sde_config(config)
    order = _PROCESS_ORDER[process]
    aligned = isinstance(order, str)
    counter = CallCounter()
    family = mlp_family(spec, train, config["batch_size"], counter=counter)
    x = init_params(spec, seed).values
    probe_at = _probe_steps(sde_cfg.steps, config["eval_every"])
    started = time.perf_counter()
    for t in range(sde_cfg.steps + 1):
        if t in probe_at:
            rows.append(_probe_row(spec, x, spec.layout, t, process, seed,
                                   train, test, counter.hvp,
                                   config["probe_q"], started))
        if t == sde_cfg.steps:
            break
        for j in range(sde_cfg.substeps):
            substep = t * sde_cfg.substeps + j
            tau = config["grad_floor"]
            if aligned:
                # Aligned drifts always pair with the full diffusion.
                dd = sde_mod.drift_aligned(family, x, order, sde_cfg.rho,
                                           q=config["aligned_q"], seed=seed,
                                           tau=tau,
                                           check_gap=config["aligned_check_gap"])
                if sde_cfg.diffusion == "exact":
                    diff = sde_mod.sigma_exact(family, x, sde_cfg.rho,
                                               order=3, tau=tau)
                elif sde_cfg.diffusion == "sampled":
                    diff = sde_mod.SampledNoise(family, x, sde_cfg.rho,
                                                order=3, tau=tau)
                else:
                    diff = None
            else:
                dd, diff = sde_mod.sde_coefficients(family, x, sde_cfg.rho,
                                                    order, sde_cfg.diffusion,
                                                    tau=tau)
            noise = None
            if isinstance(diff, sde_mod.DiffusionModel):
                z = stream(seed, STREAM_SDE_NOISE, substep).standard_normal(spec.dim)
                noise = diff.sqrt @ z
            elif isinstance(diff, sde_mod.SampledNoise):
                noise = diff.draw(seed, substep)
            x = sde_mod.euler_maruyama_step(x, sde_cfg, dd.combined(), noise)


def _sde_config(config: dict) -> sde_mod.SdeConfig:
    try:
        return sde_mod.SdeConfig(order=3, eta=config["eta"], rho=config["rho"],
                                 steps=config["steps"],
                                 substeps=config["substeps"],
                                 diffusion=config["diffusion"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_simulate_sde(config: dict, out_name: str = "sde.csv") -> Path:
    """Discrete SAM plus requested SDE processes from shared initializations."""
    spec, train, test = _datasets(config)
    sde_cfg = _sde_config(config)
    unknown = [p for p in config["processes"] if p not in SDE_PROCESSES]
    if unknown:
        raise ConfigError(f"unknown processes: {', '.join(unknown)}")
    config_lines = render(config)
    config_lines.append(f"rho_warning={'true' if sde_cfg.rho_warning else 'false'}")
    out = Path(config["out"]) / out_name
    rows: list = []
    try:
        for seed in config["seeds"]:
            for process in config["processes"]:
                if process == "discrete-sam":
                    _simulate_discrete_sam(config, spec, train, test, seed, rows)
                else:
                    _simulate_sde_process(config, spec, train, test, seed,
                                          process, rows)
    except SamlabError as exc:
        write_csv(out, config_lines, sort_rows(rows),
                  error=f"{type(exc).__name__}: {exc}")
        raise
    write_csv(out, config_lines, sort_rows(rows))
    return out


# ---------------------------------------------------------------------------
# probes and bounds (JSON artifacts)
# ---------------------------------------------------------------------------

def _jsonable(value):
    """Strict-JSON form: undefined numerics (NaN/Inf) become null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _write_json(config: dict, results: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"config": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in config.items()},
               "results": _jsonable(results)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path


def run_probe_moments(config: dict, out_name: str = "moments.json") -> Path:
    if config["toy"] not in TOYS:
        raise ConfigError(f"unknown toy {config['toy']!r}; "
                          f"options: {', '.join(sorted(TOYS))}")
    family, default_x0 = TOYS[config["toy"]]()
    x0 = np.asarray(config["x0"], dtype=np.float64) if config["x0"] else default_x0
    if x0.size != family.dim:
        raise ConfigError(f"x0 must have {family.dim} coordinates")
    report = sde_mod.one_step_moment_probe(family, x0, config["eta"],
                                           config["rho_grid"],
                                           with_second=config["with_second"])
    results = {
        "rows": [{"rho": r.rho, "e1_order3": r.e1_order3,
                  "e1_order2": r.e1_order2, "e2_order3": r.e2_order3,
                  "e2_order2": r.e2_order2} for r in report.rows],
        "slope_e1_order3": report.slope_e1_order3,
        "slope_e1_order2": report.slope_e1_order2,
        "slope_e2_order3": report.slope_e2_order3,
        "slope_e2_order2": report.slope_e2_order2,
    }
    return _write_json(config, results, Path(config["out"]) / out_name)


def _trained_point(config: dict, seed: int) -> tuple:
    """Model, datasets, and parameters after the configured training prefix."""
    spec, train, test = _datasets(config)
    if config["steps"] > 0:
        local = dict(config)
        local["eval_every"] = max(config["steps"], 1)
        local["probe_q"] = 1
        local["fair_compute"] = False
        x = _train_one(local, seed, rows=[])
    else:
        x = init_params(spec, seed).values
    return spec, train, test, x


def run_spectrum(config: dict, out_name: str = "spectrum.json") -> Path:
    per_seed = []
    for seed in config["seeds"]:
        spec, train, _test, x = _trained_point(config, seed)
        oracle = mlp_oracle(spec, train.inputs, train.labels)
        report = spectrum_deflated(oracle, x, k=config["k"],
                                   q=config["spectrum_q"], seed=seed,
                                   m_trace=config["m_trace"])
        per_seed.append({
            "seed": seed,
            "eigenvalues": [float(v) for v in report.values],
            "residuals": [float(r) for r in report.residuals],
            "converged": [bool(c) for c in report.converged],
            "trace_estimate": report.trace_estimate,
            "trace_stderr": report.trace_stderr,
            "hvp_calls": report.hvp_calls,
        })
    return _write_json(config, {"spectra": per_seed},
                       Path(config["out"]) / out_name)


def run_probe_power(config: dict, out_name: str = "power.json") -> Path:
    """Alignment of the power-iteration estimate with a converged reference,
    as a function of the iteration budget q."""
    per_seed = []
    for seed in config["seeds"]:
        spec, train, _test, x = _trained_point(config, seed)
        oracle = mlp_oracle(spec, train.inputs, train.labels)
        ref = power_iteration(oracle, x, q=config["q_ref"], seed=seed,
                              v0=stream(seed, STREAM_PROBE, 0).standard_normal(spec.dim))
        curves = []
        for q in config["q_grid"]:
            alignments = []
            for start in range(config["n_starts"]):
                v0 = stream(seed, STREAM_PROBE, 1 + start).standard_normal(spec.dim)
                est = power_iteration(oracle, x, q=q, seed=seed, v0=v0)
                alignments.append(align(est.vector, ref.vector).value)
            curves.append({"q": q,
                           "mean_alignment": float(np.mean(alignments)),
                           "min_alignment": float(np.min(alignments)),
                           "max_alignment": float(np.max(alignments))})
        per_seed.append({"seed": seed, "reference_lambda1": ref.value,
                         "reference_residual": ref.residual, "curve": curves})
    return _write_json(config, {"power_curves": per_seed},
                       Path(config["out"]) / out_name)


def run_bound(config: dict, out_name: str = "bound.json") -> Path:
    inputs = BoundInputs(
        empirical_loss=config["f_s"], lam1=config["lambda1"],
        x_norm=config["x_norm"], d=config["d"], n=config["n"],
        sigma=config["sigma"], loss_bound=config["loss_bound"],
        third_bound=config["third_bound"], delta=config["delta"])
    value = pac_bayes_bound(inputs)
    return _write_json(config, {"bound": value,
                                "pinned_constant": PINNED_CONSTANT},
                       Path(config["out"]) / out_name)


def run_align_range(config: dict, out_name: str = "align_range.json") -> Path:
    lo, hi = alpha_admissible_range(config["omega"])
    return _write_json(config, {"lower": lo,
                                "upper": hi if hi != float("inf") else "inf"},
                       Path(config["out"]) / out_name)


def evaluate_convergence(inputs: ConvergenceInputs) -> dict:
    eta, bound = convergence_bound(inputs)
    return {"eta": eta, "bound": bound}
