"""Experiment orchestration: training runs, SDE simulations, and probes.

Every runner takes a resolved config dict (see :mod:`samlab.config`), writes
a deterministic artifact (CSV for trajectories, JSON for probe reports), and
returns the output path. Replicate seeds produce separate rows merged by
(process, seed, step); identical configs reproduce identical bytes except
for the wall-clock column.

Every trajectory (a training run, discrete SAM, or an SDE process) goes
through :func:`_trajectory`, the one loop that takes the metric rows and
stops at the last step. It advances an ``(S, d)`` array whose row s belongs
to seed s: a process only supplies ``advance(x, t) -> x`` and a function
that gives each row's ``hvp_count`` so far. Training advances all seeds of
a run in lockstep: each step samples every seed's batch, stacks them, and
takes one optimizer step on one stacked oracle, so a tape pass serves every
seed. SDE processes run one seed at a time (S = 1). Metric rows are taken
per seed from its row, with ``wall_ms`` counted from the shared start. An
error in any seed stops every seed, and the rows so far are written with
an ``# error=`` line.
"""

from __future__ import annotations

import dataclasses
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
from .hessian import (align, hutchinson_trace, power_iteration,
                      spectrum_deflated)
from .metrics import MetricRow, sort_rows, write_csv
from .models import MlpSpec, accuracy, init_params, mlp_oracle
from .optim import OptimizerConfig, init_state, step as optimizer_step
from .oracle import ParamVector
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
               started: float, release: bool = False) -> MetricRow:
    """One full metric row; spectral quantities use the evaluation batch.
    ``release`` frees the power iteration's tapes as it goes."""
    pv = ParamVector(x, spec.layout)
    train_oracle = mlp_oracle(spec, train.inputs, train.labels)
    test_oracle = mlp_oracle(spec, test.inputs, test.labels)
    g_full = train_oracle.grad(x)

    size = min(EVAL_BATCH_MAX, train.n)
    idx = stream(seed, STREAM_EVAL_BATCH, t).choice(train.n, size=size,
                                                    replace=False)
    eval_oracle = mlp_oracle(spec, *train.take(idx))
    v0 = stream(seed, STREAM_PROBE, t).standard_normal(spec.dim)
    est = power_iteration(eval_oracle, x, q=probe_q, seed=seed, v0=v0,
                          release=release)
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
                seeds: tuple, process: str, steps: int, advance, hvp_counts,
                rows: list | None) -> np.ndarray:
    """Advance the rows of ``seeds``, row s from seed s's initialization, for
    ``steps`` steps; append one metric row per seed every ``eval_every``
    steps and at the last, with ``hvp_counts()[s]`` as seed s's count.
    Returns the ``(S, d)`` end point. With ``rows=None`` no row is computed."""
    x = np.stack([init_params(spec, seed).values for seed in seeds])
    probe_at = (set() if rows is None else
                set(range(0, steps + 1, config["eval_every"])) | {steps})
    started = time.perf_counter()
    for t in range(steps + 1):
        if t in probe_at:
            counts = hvp_counts()
            for s, seed in enumerate(seeds):
                # The rows of several seeds run back to back; unreleased,
                # all their power-iteration tapes would wait for the cyclic
                # collector at once and raise the peak memory.
                rows.append(_probe_row(spec, x[s], t, process, seed, train,
                                       test, int(counts[s]), config["probe_q"],
                                       started, release=len(seeds) > 1))
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


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _trainer(config: dict, spec: MlpSpec, train: Dataset, test: Dataset,
             seeds: tuple):
    """``run(rows)``: the training trajectories of ``seeds`` on sampled
    mini-batches, in lockstep, returning the ``(S, d)`` end points, row s
    for seed s. The optimizer config and the batch samplers are built here,
    so a bad value raises ConfigError before any artifact is opened."""
    steps = config["steps"]
    if config["fair_compute"] and config["method"] == "sgd":
        steps *= 2
    try:
        opt_cfg = OptimizerConfig(
            method=config["method"], lr=config["lr"], rho=config["rho"],
            alpha=config["alpha"], refresh_every=config["p"],
            power_iters=config["q"], momentum=config["momentum"],
            weight_decay=config["weight_decay"], schedule=config["schedule"],
            total_steps=max(steps, 1), grad_floor=config["grad_floor"])
        samplers = [BatchSampler(config["batch_size"], seed, config["sampler"])
                    for seed in seeds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def run(rows: list | None) -> np.ndarray:
        state = init_state(spec.dim, tuple(seeds))

        def advance(x, t):
            nonlocal state
            idx = np.stack([sample_batch(sampler, train, t)
                            for sampler in samplers])
            oracle = mlp_oracle(spec, *train.take(idx))
            x, state = optimizer_step(x, oracle, opt_cfg, state)
            return x

        return _trajectory(config, spec, train, test, seeds, config["method"],
                           steps, advance, lambda: state.hvp_count, rows)
    return run


def run_train(config: dict, out_name: str = "train.csv") -> Path:
    """Train under the configured optimizer, every seed in lockstep."""
    spec, train, test = _datasets(config)
    return _write_rows(render(config), Path(config["out"]) / out_name,
                       _trainer(config, spec, train, test, config["seeds"]))


# ---------------------------------------------------------------------------
# simulate-sde
# ---------------------------------------------------------------------------

_PROCESS_ORDER = {"sde2": 2, "sde3": 3,
                  "sde-aligned-rho": sde_mod.VARIANT_ALIGNED_RHO,
                  "sde-aligned-rho2": sde_mod.VARIANT_ALIGNED_RHO2}


def _sam_process(config: dict, sde_cfg: sde_mod.SdeConfig, family, seed: int):
    """(advance, hvp_counts): advance(x, t) takes one SAM step on a batch
    drawn with probability equal to its weight, the discrete process the SDE
    models approximate."""
    sam_cfg = OptimizerConfig(method="sam", lr=sde_cfg.eta, rho=sde_cfg.rho,
                              schedule="constant", total_steps=sde_cfg.steps,
                              grad_floor=config["grad_floor"])
    state = init_state(family.dim, seed)

    def advance(x, t):
        nonlocal state
        oracle = family.oracles[family.pick(seed, STREAM_BATCH, t)]
        x, state = optimizer_step(x, oracle, sam_cfg, state)
        return x
    return advance, lambda: state.hvp_count[None]


def _sde_process(config: dict, sde_cfg: sde_mod.SdeConfig, family, order,
                 seed: int):
    """(advance, hvp_counts): advance(x, t) takes ``substeps`` Euler-Maruyama
    steps of the SDE model; the count is the HVPs of their drifts so far."""
    hvps = 0

    def advance(x, t):
        nonlocal hvps
        for j in range(sde_cfg.substeps):
            dd, diff = sde_mod.sde_coefficients(
                family, x, sde_cfg.rho, order, sde_cfg.diffusion,
                tau=config["grad_floor"], q=config["aligned_q"], seed=seed,
                check_gap=config["aligned_check_gap"])
            hvps += dd.hvp_calls
            noise = None if diff is None else diff.draw(
                seed, t * sde_cfg.substeps + j)
            x = sde_mod.euler_maruyama_step(x, sde_cfg, dd.combined(), noise)
        return x
    return advance, lambda: (hvps,)


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
                family = mlp_family(spec, train, config["batch_size"])
                if process == "discrete-sam":
                    advance, hvp_counts = _sam_process(config, sde_cfg,
                                                       family, seed)
                else:
                    advance, hvp_counts = _sde_process(
                        config, sde_cfg, family, _PROCESS_ORDER[process], seed)
                _trajectory(config, spec, train, test, (seed,), process,
                            sde_cfg.steps,
                            lambda x, t: advance(x[0], t)[None],
                            hvp_counts, rows)

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
    if len(set(config["rho_grid"])) < 2:
        raise ConfigError("rho_grid needs at least two distinct values "
                          "to fit a slope")
    report = sde_mod.one_step_moment_probe(family, x0, config["eta"],
                                           config["rho_grid"])
    return _write_json(config, dataclasses.asdict(report),
                       Path(config["out"]) / out_name)


def _trained_points(config: dict) -> tuple:
    """Model, datasets, and the ``(S, d)`` parameters of the configured seeds
    after the training prefix, trained in lockstep; row s is seed s."""
    spec, train, test = _datasets(config)
    xs = _trainer(dict(config, fair_compute=False), spec, train, test,
                  config["seeds"])(None)
    return spec, train, test, xs


def run_spectrum(config: dict, out_name: str = "spectrum.json") -> Path:
    dim = _model_spec(config).dim
    if not 1 <= config["k"] <= min(64, dim):
        raise ConfigError(f"k must be in [1, {min(64, dim)}] for a model "
                          f"with {dim} parameters")
    spec, train, _test, xs = _trained_points(config)
    oracle = mlp_oracle(spec, train.inputs, train.labels)
    m_trace = config["m_trace"]
    per_seed = []
    for seed, x in zip(config["seeds"], xs):
        report = spectrum_deflated(oracle, x, k=config["k"],
                                   q=config["spectrum_q"], seed=seed)
        trace, trace_se = float("nan"), float("nan")
        calls = report.hvp_calls
        if m_trace >= 2:
            trace, trace_se = hutchinson_trace(oracle, x, m_trace, seed)
            calls += m_trace
        per_seed.append({
            "seed": seed,
            "eigenvalues": [float(v) for v in report.values],
            "residuals": [float(r) for r in report.residuals],
            "converged": [bool(c) for c in report.converged],
            "trace_estimate": trace,
            "trace_stderr": trace_se,
            "hvp_calls": calls,
        })
    return _write_json(config, {"spectra": per_seed},
                       Path(config["out"]) / out_name)


def run_probe_power(config: dict, out_name: str = "power.json") -> Path:
    """Alignment of the power-iteration estimate with a converged reference,
    as a function of the iteration budget q."""
    spec, train, _test, xs = _trained_points(config)
    oracle = mlp_oracle(spec, train.inputs, train.labels)
    per_seed = []
    for seed, x in zip(config["seeds"], xs):
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

