"""Experiment orchestration: training runs, SDE simulations, and probes.

Every runner takes a resolved config dict (see :mod:`samlab.config`), writes
a deterministic artifact (CSV for trajectories, JSON for probe reports), and
returns the output path. Replicate seeds produce separate rows merged by
(process, seed, step); identical configs reproduce identical bytes except
for the wall-clock column.

Every trajectory (a training run, discrete SAM, or an SDE process) goes
through :func:`_trajectory`, the one loop that takes the metric rows and
stops at the last step. A process only supplies ``advance(x, t) -> x`` and
the :class:`CallCounter` its oracles count HVPs into; ``hvp_count`` is read
from that counter. An error stops the run and the rows so far are written
with an ``# error=`` line.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from . import sde as sde_mod
from .bounds import (PINNED_CONSTANT, BoundInputs, alpha_admissible_range,
                     pac_bayes_bound)
from .config import render
from .data import (BatchSampler, Dataset, gen_synthetic, load_idx, mlp_family,
                   sample_batch)
from .errors import ConfigError, SamlabError
from .hessian import align, power_iteration, spectrum_deflated
from .metrics import MetricRow, sort_rows, write_csv
from .models import MlpSpec, accuracy, init_params, mlp_oracle
from .optim import OptimizerConfig, init_state, step as optimizer_step
from .oracle import CallCounter, ParamVector
from .rng import STREAM_BATCH, STREAM_EVAL_BATCH, STREAM_PROBE, stream
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


def _probe_row(spec: MlpSpec, x: np.ndarray, t: int, process: str, seed: int,
               train: Dataset, test: Dataset, hvp_count: int, probe_q: int,
               started: float) -> MetricRow:
    """One full metric row; spectral quantities use the evaluation batch."""
    pv = ParamVector(x, spec.layout)
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


def _trajectory(config: dict, spec: MlpSpec, train: Dataset, test: Dataset,
                seed: int, process: str, steps: int, advance,
                counter: CallCounter, rows: list | None) -> np.ndarray:
    """Advance from the seed's initialization for ``steps`` steps, appending
    a metric row every ``eval_every`` steps and at the last; returns x.
    With ``rows=None`` no row is computed."""
    x = init_params(spec, seed).values
    probe_at = (set() if rows is None else
                set(range(0, steps + 1, config["eval_every"])) | {steps})
    started = time.perf_counter()
    for t in range(steps + 1):
        if t in probe_at:
            rows.append(_probe_row(spec, x, t, process, seed, train, test,
                                   counter.hvp, config["probe_q"], started))
        if t == steps:
            break
        x = advance(x, t)
    return x


def _write_rows(config_lines: list, out: Path, fill) -> Path:
    """CSV of the rows ``fill(rows)`` appends; on a SamlabError the rows so
    far are written with an ``# error=`` line and the error is re-raised."""
    rows: list = []
    try:
        fill(rows)
    except SamlabError as exc:
        write_csv(out, config_lines, sort_rows(rows),
                  error=f"{type(exc).__name__}: {exc}")
        raise
    write_csv(out, config_lines, sort_rows(rows))
    return out


def _optimizer_process(opt_cfg: OptimizerConfig, dim: int, seed: int,
                       batch_oracle):
    """advance(x, t): one optimizer step on ``batch_oracle(t)``."""
    state = init_state(dim, seed)

    def advance(x, t):
        nonlocal state
        x, state = optimizer_step(x, batch_oracle(t), opt_cfg, state)
        return x
    return advance


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


def _train(config: dict, spec: MlpSpec, train: Dataset, test: Dataset,
           seed: int, rows: list | None) -> np.ndarray:
    """One training trajectory on sampled mini-batches; returns the end x."""
    steps = config["steps"]
    if config["fair_compute"] and config["method"] == "sgd":
        steps *= 2
    opt_cfg = _optimizer_config(config, total_steps=max(steps, 1))
    sampler = BatchSampler(config["batch_size"], seed, config["sampler"])
    counter = CallCounter()

    def batch_oracle(t):
        idx = sample_batch(sampler, train, t)
        return mlp_oracle(spec, *train.take(idx), counter=counter)

    advance = _optimizer_process(opt_cfg, spec.dim, seed, batch_oracle)
    return _trajectory(config, spec, train, test, seed, config["method"],
                       steps, advance, counter, rows)


def run_train(config: dict, out_name: str = "train.csv") -> Path:
    """Train under the configured optimizer, one trajectory per seed."""
    def fill(rows):
        spec, train, test = _datasets(config)
        for seed in config["seeds"]:
            _train(config, spec, train, test, seed, rows)

    return _write_rows(render(config), Path(config["out"]) / out_name, fill)


# ---------------------------------------------------------------------------
# simulate-sde
# ---------------------------------------------------------------------------

_PROCESS_ORDER = {"sde2": 2, "sde3": 3,
                  "sde-aligned-rho": sde_mod.VARIANT_ALIGNED_RHO,
                  "sde-aligned-rho2": sde_mod.VARIANT_ALIGNED_RHO2}


def _sam_process(config: dict, sde_cfg: sde_mod.SdeConfig, family, seed: int):
    """advance(x, t): one SAM step on a batch drawn with probability equal to
    its weight, the discrete process the SDE models approximate."""
    sam_cfg = OptimizerConfig(method="sam", lr=sde_cfg.eta, rho=sde_cfg.rho,
                              schedule="constant", total_steps=sde_cfg.steps,
                              grad_floor=config["grad_floor"])
    return _optimizer_process(
        sam_cfg, family.dim, seed,
        lambda t: family.oracles[family.pick(seed, STREAM_BATCH, t)])


def _sde_process(config: dict, sde_cfg: sde_mod.SdeConfig, family, order,
                 seed: int):
    """advance(x, t): ``substeps`` Euler-Maruyama steps of the SDE model."""
    def advance(x, t):
        for j in range(sde_cfg.substeps):
            dd, diff = sde_mod.sde_coefficients(
                family, x, sde_cfg.rho, order, sde_cfg.diffusion,
                tau=config["grad_floor"], q=config["aligned_q"], seed=seed,
                check_gap=config["aligned_check_gap"])
            noise = None if diff is None else diff.draw(
                seed, t * sde_cfg.substeps + j)
            x = sde_mod.euler_maruyama_step(x, sde_cfg, dd.combined(), noise)
        return x
    return advance


def _sde_config(config: dict) -> sde_mod.SdeConfig:
    try:
        return sde_mod.SdeConfig(eta=config["eta"], rho=config["rho"],
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

    def fill(rows):
        for seed in config["seeds"]:
            for process in config["processes"]:
                counter = CallCounter()
                family = mlp_family(spec, train, config["batch_size"],
                                    counter=counter)
                if process == "discrete-sam":
                    advance = _sam_process(config, sde_cfg, family, seed)
                else:
                    advance = _sde_process(config, sde_cfg, family,
                                           _PROCESS_ORDER[process], seed)
                _trajectory(config, spec, train, test, seed, process,
                            sde_cfg.steps, advance, counter, rows)

    return _write_rows(config_lines, Path(config["out"]) / out_name, fill)


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
        x = _train(dict(config, fair_compute=False), spec, train, test, seed,
                   rows=None)
    else:
        x = init_params(spec, seed).values
    return spec, train, test, x


def run_spectrum(config: dict, out_name: str = "spectrum.json") -> Path:
    dim = _model_spec(config).dim
    if not 1 <= config["k"] <= min(64, dim):
        raise ConfigError(f"k must be in [1, {min(64, dim)}] for a model "
                          f"with {dim} parameters")
    if config["spectrum_q"] < 1:
        raise ConfigError("spectrum_q must be >= 1")
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

