"""Experiment orchestration: training runs, SDE simulations, and probes.

Every runner takes a resolved config dict (see :mod:`samlab.config`), writes
a deterministic artifact (CSV for trajectories, JSON for probe reports), and
returns the output path. Replicate seeds produce separate rows merged by
(process, seed, step); identical configs reproduce identical bytes except
for the wall-clock column.

Every run's trajectories (a training run's seeds, or every process and
seed of an SDE simulation) go through one call of :func:`_trajectory`, the
one loop that takes the metric rows and stops at the last step. It owns
the run's row state: the points ``x``, an ``(R, d)`` array whose row r
belongs to the label ``(process, seed)``, and the HVP counts ``hvps``, one
per row. A run supplies row groups, pairs ``(at, advance)``: each step,
in group order, ``advance(x[at], t)`` returns the group's next points and
the HVPs each of its rows spent, which ``_trajectory`` writes into a fresh
array and adds to ``hvps``. ``x[at]`` may be a view of ``x``, and no
group's input is written afterwards. Training is one group: every seed in
lockstep, one optimizer step per step on one stacked oracle of the seeds'
batches (:func:`_optimizer_rows`), so a tape pass serves every seed.
``simulate-sde`` has the discrete-SAM rows of all seeds as one such group,
then all its SDE rows as another, which share their tape passes and Sigma
factorization (:func:`_sde_rows`). The metric rows of all labels come from
one :func:`_probe_row` call per probe step, with ``wall_ms`` counted from
the shared start. An error in any row stops every row, and the rows so
far are written with an ``# error=`` line. A JSON report stopped by an
error holds the results so far and an ``"error"`` key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from pathlib import Path

import numpy as np

from . import sde as sde_mod
from .bounds import (PINNED_CONSTANT, BoundInputs, alpha_admissible_range,
                     pac_bayes_bound)
from .config import render
from .data import (POLICY_SHUFFLE, BatchSampler, Dataset, gen_synthetic,
                   load_idx, mlp_family, sample_batch, stack_plan)
from .errors import ConfigError, SamlabError
from .hessian import (ALIGN_FLOOR, align, hutchinson_trace, power_iterates,
                      power_iteration, spectrum_deflated)
from .metrics import MetricRow, sort_rows, write_csv
from .models import MlpSpec, init_params, loss_and_accuracy, mlp_oracle
from .optim import OptimizerConfig, init_state, step as optimizer_step
from .rng import STREAM_BATCH, STREAM_EVAL_BATCH, STREAM_PROBE, stream
from .toys import TOYS

EVAL_BATCH_MAX = 128

_PROCESS_ORDER = {"sde2": 2, "sde3": 3,
                  "sde-aligned-rho": sde_mod.VARIANT_ALIGNED_RHO,
                  "sde-aligned-rho2": sde_mod.VARIANT_ALIGNED_RHO2}

SDE_PROCESSES = ("discrete-sam", *_PROCESS_ORDER)


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
        train = load_idx(config["idx_images"], config["idx_labels"])
        test = load_idx(config["idx_test_images"], config["idx_test_labels"])
    elif config["data"] == "synthetic":
        try:
            train = gen_synthetic(config["data_n"], config["data_dim"],
                                  config["data_classes"], config["data_margin"],
                                  config["data_seed"], "train")
            test = gen_synthetic(config["test_n"], config["data_dim"],
                                 config["data_classes"], config["data_margin"],
                                 config["data_seed"], "test")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"unknown data source {config['data']!r}")
    if not train.dim == test.dim == spec.layers[0]:
        raise ConfigError("model input width does not match the dataset")
    width = spec.layers[-1]
    if any(ds.n and (ds.labels.min() < 0 or ds.labels.max() >= width)
           for ds in (train, test)):
        raise ConfigError(f"labels out of range for an output width of {width}")
    return spec, train, test


def _probe_row(spec: MlpSpec, xs: np.ndarray, t: int, labels: tuple,
               train: Dataset, test: Dataset, hvp_counts, probe_q: int,
               started: float) -> list:
    """The metric rows at step t of every ``labels[r] = (process, seed)``,
    row r of ``xs`` being its parameters and ``hvp_counts[r]`` its count.

    Losses, accuracy and the gradient norm are full-data passes, one per
    row: a gradient pass on the training set, whose forward value is
    ``train_loss``, and one forward pass on the test set, whose logits give
    both ``test_loss`` and ``test_accuracy``. ``lambda1`` and
    ``alignment`` use the evaluation batch and the start vector that the
    row's seed draws at t. The rows' evaluation batches are stacked as
    :func:`data.stack_plan` decides, and each stack takes one stacked power
    iteration and one stacked evaluation-batch gradient."""
    train_oracle = mlp_oracle(spec, train.inputs, train.labels)
    seeds = [seed for _, seed in labels]
    size = min(EVAL_BATCH_MAX, train.n)
    idx = np.stack([stream(seed, STREAM_EVAL_BATCH, t).choice(
        train.n, size=size, replace=False) for seed in seeds])
    v0 = np.stack([stream(seed, STREAM_PROBE, t).standard_normal(spec.dim)
                   for seed in seeds])
    lam1 = np.empty(len(labels))
    alignment = np.full(len(labels), np.nan)
    for at, rows in stack_plan(spec, idx):
        eval_oracle = mlp_oracle(spec, *train.take(rows))
        est = power_iteration(eval_oracle, xs[at], q=probe_q,
                              seed=[seeds[r] for r in at], v0=v0[at])
        lam1[at] = est.value
        g_eval = eval_oracle.grad(xs[at])
        for r, g, v in zip(at, g_eval, est.vector):
            if np.linalg.norm(g) >= ALIGN_FLOOR:
                alignment[r] = align(g, v)

    rows = []
    for r, ((process, seed), x) in enumerate(zip(labels, xs)):
        train_loss, g_full = train_oracle.grad(x, with_loss=True)
        test_loss, test_accuracy = loss_and_accuracy(spec, x, test.inputs,
                                                     test.labels)
        rows.append(MetricRow(
            step=t, process=process, seed=seed,
            train_loss=train_loss,
            test_loss=test_loss,
            test_accuracy=test_accuracy,
            param_norm=float(np.linalg.norm(x)),
            grad_norm=float(np.linalg.norm(g_full)),
            lambda1=float(lam1[r]),
            alignment=float(alignment[r]),
            hvp_count=int(hvp_counts[r]),
            wall_ms=(time.perf_counter() - started) * 1000.0,
        ))
    return rows


def _trajectory(config: dict, spec: MlpSpec, train: Dataset, test: Dataset,
                labels: tuple, steps: int, groups: list,
                rows: list | None) -> np.ndarray:
    """Advance one row per ``labels[r] = (process, seed)``, row r from its
    seed's initialization, for ``steps`` steps, by the row groups
    ``(at, advance)`` in order (see the module docstring); every
    ``eval_every`` steps and at the last, append the metric rows of every
    label (see :func:`_probe_row`), with the HVPs row r spent so far as its
    count. Returns the ``(R, d)`` end point. With ``rows=None`` no row is
    computed."""
    x = np.stack([init_params(spec, seed).values for _, seed in labels])
    hvps = np.zeros(len(labels), dtype=np.int64)
    probe_at = (set() if rows is None else
                set(range(0, steps + 1, config["eval_every"])) | {steps})
    started = time.perf_counter()
    for t in range(steps + 1):
        if t in probe_at:
            rows.extend(_probe_row(spec, x, t, labels, train, test, hvps,
                                   config["probe_q"], started))
        if t == steps:
            break
        x_next = np.empty_like(x)
        for at, advance in groups:
            x_next[at], spent = advance(x[at], t)
            hvps[at] += spent
        x = x_next
    return x


def _write(path: Path, results, fill, write) -> Path:
    """``write(results)`` to path after ``fill(results)``; on a SamlabError
    the results so far are written with ``error=`` the error's text and the
    error is re-raised."""
    try:
        fill(results)
    except SamlabError as exc:
        write(results, error=f"{type(exc).__name__}: {exc}")
        raise
    write(results)
    return path


def _write_rows(config_lines: list, out: Path, fill) -> Path:
    """CSV of the rows ``fill(rows)`` appends, an ``# error=`` line after
    the rows so far if it stops (see :func:`_write`)."""
    return _write(out, [], fill, lambda rows, error=None: write_csv(
        out, config_lines, sort_rows(rows), error=error))


def _optimizer_rows(cfg: OptimizerConfig, seeds: tuple, dim: int, oracle_at):
    """``advance(x, t)`` of ``cfg``'s optimizer for ``seeds`` in lockstep:
    one step of the ``(S, d)`` rows, row s for seed s, on the stacked
    oracle ``oracle_at(t)``, returning the next rows and each row's HVPs."""
    state = init_state(dim, seeds)

    def advance(x, t):
        nonlocal state
        spent = state.hvp_count
        x, state = optimizer_step(x, oracle_at(t), cfg, state)
        return x, state.hvp_count - spent
    return advance


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _trainer(config: dict, spec: MlpSpec, train: Dataset, test: Dataset,
             seeds: tuple):
    """``run(rows)``: the training trajectories of ``seeds`` on sampled
    mini-batches, in lockstep, returning the ``(S, d)`` end points, row s
    for seed s. The optimizer config and the batch samplers are built here,
    so a bad value, or a batch that shuffle-each-epoch cannot fill, raises
    ConfigError before any artifact is opened."""
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
    if (steps and config["sampler"] == POLICY_SHUFFLE
            and config["batch_size"] > train.n):
        raise ConfigError(f"batch_size {config['batch_size']} exceeds the "
                          f"{train.n} training rows, so {POLICY_SHUFFLE} "
                          "has no full batch")

    def oracle_at(t):
        # np.array stacks the equal-length index sets as np.stack would,
        # for a fifth of its call cost
        idx = np.array([sample_batch(sampler, train, t) for sampler in samplers])
        return mlp_oracle(spec, *train.take(idx))

    labels = tuple((config["method"], seed) for seed in seeds)
    return lambda rows: _trajectory(
        config, spec, train, test, labels, steps,
        [(slice(None), _optimizer_rows(opt_cfg, tuple(seeds), spec.dim,
                                       oracle_at))], rows)


def run_train(config: dict, out_name: str = "train.csv") -> Path:
    """Train under the configured optimizer, every seed in lockstep."""
    spec, train, test = _datasets(config)
    return _write_rows(render(config), Path(config["out"]) / out_name,
                       _trainer(config, spec, train, test, config["seeds"]))


# ---------------------------------------------------------------------------
# simulate-sde
# ---------------------------------------------------------------------------

def _sde_rows(config: dict, family, labels: list, x: np.ndarray,
              t: int) -> tuple:
    """The ``substeps`` Euler-Maruyama steps, each of dt = eta / substeps, of
    step t of the SDE rows x, row r of ``labels[r] = (process, seed)``, in
    lockstep: (the end points, the HVPs of each row's drifts)."""
    eta, substeps = config["eta"], config["substeps"]
    orders, seeds = zip(*[(_PROCESS_ORDER[p], seed) for p, seed in labels])
    hvps = 0
    for j in range(substeps):
        coefs = sde_mod.sde_coefficients(
            family, x, config["rho"], orders, config["diffusion"],
            tau=config["grad_floor"], q=config["aligned_q"], seed=seeds,
            check_gap=config["aligned_check_gap"])
        hvps += np.array([dd.hvp_calls for dd, _ in coefs])
        x = np.stack([sde_mod.euler_maruyama_step(
            row, eta, eta / substeps, dd.combined(),
            None if diff is None else diff.draw(seed, t * substeps + j))
            for row, seed, (dd, diff) in zip(x, seeds, coefs)])
    return x, hvps


def run_simulate_sde(config: dict, out_name: str = "sde.csv") -> Path:
    """Discrete SAM plus requested SDE processes from shared initializations."""
    spec, train, test = _datasets(config)
    if config["diffusion"] not in sde_mod.DIFFUSIONS:
        raise ConfigError(f"unknown diffusion mode {config['diffusion']!r}")
    unknown = [p for p in config["processes"] if p not in SDE_PROCESSES]
    if unknown:
        raise ConfigError(f"unknown processes: {', '.join(unknown)}")
    # rho above eta^(1/3) is outside the regime the SDE models expand in.
    rho_warning = config["rho"] > config["eta"] ** (1.0 / 3.0)
    config_lines = render(config)
    config_lines.append(f"rho_warning={'true' if rho_warning else 'false'}")

    def fill(rows):
        family = mlp_family(spec, train, config["batch_size"])
        labels = tuple((process, seed) for seed in config["seeds"]
                       for process in config["processes"])
        sam = [r for r, (process, _) in enumerate(labels)
               if process == "discrete-sam"]
        groups = []
        if sam:
            seeds = tuple(labels[r][1] for r in sam)
            # Discrete SAM, the process the SDE models approximate: one
            # stacked step, row s on the batch that seed s draws with
            # probability equal to its weight.
            sam_cfg = OptimizerConfig(
                method="sam", lr=config["eta"], rho=config["rho"],
                schedule="constant", total_steps=config["steps"],
                grad_floor=config["grad_floor"])
            groups.append((sam, _optimizer_rows(
                sam_cfg, seeds, spec.dim, lambda t: family.picked(
                    [family.pick(seed, STREAM_BATCH, t) for seed in seeds]))))
        sde = [r for r, (process, _) in enumerate(labels)
               if process != "discrete-sam"]
        if sde:
            groups.append((sde, functools.partial(
                _sde_rows, config, family, [labels[r] for r in sde])))
        _trajectory(config, spec, train, test, labels, config["steps"],
                    groups, rows)

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


def _write_json(config: dict, out_name: str, fill) -> Path:
    """JSON report of the results ``fill(results)`` puts in a dict, an
    ``"error"`` key beside the results so far if it stops (see
    :func:`_write`)."""
    path = Path(config["out"]) / out_name

    def write(results, **error):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"config": {k: list(v) if isinstance(v, tuple) else v
                              for k, v in config.items()},
                   "results": _jsonable(results), **error}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")
    return _write(path, {}, fill, write)


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

    def fill(results):
        results.update(dataclasses.asdict(sde_mod.one_step_moment_probe(
            family, x0, config["eta"], config["rho_grid"])))
    return _write_json(config, out_name, fill)


def _trained_points(config: dict) -> tuple:
    """Model, datasets, and ``points()``: the ``(S, d)`` parameters of the
    configured seeds after the training prefix, trained in lockstep when
    called; row s is seed s. A bad config raises here, before any step."""
    spec, train, test = _datasets(config)
    run = _trainer(dict(config, fair_compute=False), spec, train, test,
                   config["seeds"])
    return spec, train, test, lambda: run(None)


def run_spectrum(config: dict, out_name: str = "spectrum.json") -> Path:
    dim = _model_spec(config).dim
    if not 1 <= config["k"] <= min(64, dim):
        raise ConfigError(f"k must be in [1, {min(64, dim)}] for a model "
                          f"with {dim} parameters")
    m_trace = config["m_trace"]
    if m_trace == 1:
        # One probe has no standard error.
        raise ConfigError("m_trace must be 0 (no trace) or at least 2")
    spec, train, _test, points = _trained_points(config)

    def fill(results):
        per_seed = results["spectra"] = []
        oracle = mlp_oracle(spec, train.inputs, train.labels)
        for seed, x in zip(config["seeds"], points()):
            report = spectrum_deflated(oracle, x, k=config["k"],
                                       q=config["spectrum_q"], seed=seed)
            trace, trace_se = float("nan"), float("nan")
            calls = report.hvp_calls
            if m_trace:
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
    return _write_json(config, out_name, fill)


def run_probe_power(config: dict, out_name: str = "power.json") -> Path:
    """Alignment of the power-iteration estimate with a converged reference,
    as a function of the iteration budget q. Each start takes one run of
    max(q_grid) rounds, read at every q of the grid (see
    :func:`samlab.hessian.power_iterates`)."""
    spec, train, _test, points = _trained_points(config)

    def fill(results):
        per_seed = results["power_curves"] = []
        oracle = mlp_oracle(spec, train.inputs, train.labels)
        for seed, x in zip(config["seeds"], points()):
            ref = power_iteration(oracle, x, q=config["q_ref"], seed=seed,
                                  v0=stream(seed, STREAM_PROBE, 0)
                                  .standard_normal(spec.dim))
            runs = [power_iterates(oracle, x, config["q_grid"], seed,
                                   v0=stream(seed, STREAM_PROBE, 1 + start)
                                   .standard_normal(spec.dim))
                    for start in range(config["n_starts"])]
            curves = []
            for i, q in enumerate(config["q_grid"]):
                alignments = [align(vectors[i], ref.vector)
                              for vectors in runs]
                curves.append({"q": q,
                               "mean_alignment": float(np.mean(alignments)),
                               "min_alignment": float(np.min(alignments)),
                               "max_alignment": float(np.max(alignments))})
            per_seed.append({"seed": seed, "reference_lambda1": ref.value,
                             "reference_residual": ref.residual,
                             "curve": curves})
    return _write_json(config, out_name, fill)


def run_bound(config: dict, out_name: str = "bound.json") -> Path:
    def fill(results):
        inputs = BoundInputs(
            empirical_loss=config["f_s"], lam1=config["lambda1"],
            x_norm=config["x_norm"], d=config["d"], n=config["n"],
            sigma=config["sigma"], loss_bound=config["loss_bound"],
            third_bound=config["third_bound"], delta=config["delta"])
        results.update(bound=pac_bayes_bound(inputs),
                       pinned_constant=PINNED_CONSTANT)
    return _write_json(config, out_name, fill)


def run_align_range(config: dict, out_name: str = "align_range.json") -> Path:
    def fill(results):
        lo, hi = alpha_admissible_range(config["omega"])
        results.update(lower=lo, upper=hi if hi != float("inf") else "inf")
    return _write_json(config, out_name, fill)

