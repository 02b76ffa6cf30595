"""Tests of the benchmark itself: metric names, output checks, tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import check_artifact  # noqa: E402
from tracer import END, NAME, NOTE, PARENT, START, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, raw_config  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "6", "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    text, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split()[2] for line in text
               if not line.startswith("#")}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert printed[m["name"]] == m["unit"]
    assert printed["failed_frac"] == "ratio"
    assert any(line.startswith("# ") and "OPENBLAS_NUM_THREADS=1" in line
               for line in text)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sde-exact",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _artifact(workload: str, tmp_path: Path) -> Path:
    from samlab import runner
    from samlab.config import resolve
    from child import RUNNER_FUNCTIONS

    subcommand = WORKLOADS[workload][0]
    config = resolve(subcommand, raw_config(workload, "tiny", 2, str(tmp_path)))
    return Path(getattr(runner, RUNNER_FUNCTIONS[subcommand])(config))


def _edit_csv_cell(path: Path, column: str, edit) -> None:
    from samlab.metrics import COLUMNS

    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("step,")) + 1
    parts = lines[first].split(",")
    i = COLUMNS.index(column)
    parts[i] = edit(parts[i])
    lines[first] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["train-eigensam", "sde-exact"])
def test_trajectory_check_catches_perturbed_artifacts(workload, tmp_path):
    path = _artifact(workload, tmp_path)
    assert check_artifact(workload, "tiny", 2, path) == []
    _edit_csv_cell(path, "wall_ms", lambda v: repr(float(v) * 3.0))
    assert check_artifact(workload, "tiny", 2, path) == []

    _edit_csv_cell(path, "train_loss", lambda v: repr(float(v) * (1 + 1e-5)))
    assert any("train_loss" in p for p in check_artifact(workload, "tiny", 2, path))

    path = _artifact(workload, tmp_path)
    _edit_csv_cell(path, "hvp_count", lambda v: str(int(v) + 1))
    assert any("hvp_count" in p for p in check_artifact(workload, "tiny", 2, path))


def _copy_top(entry, dense):
    entry["eigenvalues"] = [entry["eigenvalues"][0]] * len(entry["eigenvalues"])


def _shift_into_bulk(entry, dense):
    entry["eigenvalues"][-1] = sorted(dense)[len(dense) // 2]


def _push_past_radius(entry, dense):
    entry["eigenvalues"][0] += 10 * entry["residuals"][0] + 1e-3


def _flip_converged(entry, dense):
    entry["converged"][0] = not entry["converged"][0]


def _move_trace(entry, dense):
    entry["trace_estimate"] = sum(dense) + 5 * entry["trace_stderr"]


def _drop_hvps(entry, dense):
    entry["hvp_calls"] = 2


@pytest.mark.parametrize("edit, message", [
    (_copy_top, "dense eigenvalue of its own"),
    (_shift_into_bulk, "dense eigenvalue of its own"),
    (_push_past_radius, "dense eigenvalue of its own"),
    (_flip_converged, "converged="),
    (_move_trace, "trace estimate"),
    (_drop_hvps, "hvp_calls="),
])
def test_spectrum_check_catches_perturbed_reports(edit, message, tmp_path):
    from checks import load_ref

    path = _artifact("spectrum-fullbatch", tmp_path)
    assert check_artifact("spectrum-fullbatch", "tiny", 2, path) == []
    report = json.loads(path.read_text())
    entry = report["results"]["spectra"][0]
    dense = load_ref("spectrum-fullbatch", "tiny", 2)["dense_eigenvalues"][
        str(entry["seed"])]
    edit(entry, dense)
    path.write_text(json.dumps(report))
    problems = check_artifact("spectrum-fullbatch", "tiny", 2, path)
    assert any(message in p for p in problems), problems


def test_tracer_patches_every_lookup_site_and_restores_them():
    from samlab import data, engine, hessian, optim, runner, sde
    from samlab.oracle import LossOracle

    before = (runner.power_iteration, runner.optimizer_step, optim.power_iteration,
              sde.power_iteration, data.mlp_oracle, runner.sample_batch,
              engine.backward, LossOracle.hvp)
    with Tracer():
        assert runner.power_iteration is optim.power_iteration is hessian.power_iteration
        assert runner.power_iteration is not before[0]
        assert runner.optimizer_step is optim.step is not before[1]
        assert data.mlp_oracle is runner.mlp_oracle is not before[4]
        assert engine.backward is not before[6]
        assert LossOracle.hvp is not before[7]
    after = (runner.power_iteration, runner.optimizer_step, optim.power_iteration,
             sde.power_iteration, data.mlp_oracle, runner.sample_batch,
             engine.backward, LossOracle.hvp)
    assert after == before


def test_tracer_refuses_a_missing_name_and_patches_nothing(monkeypatch):
    import tracer
    from samlab import hessian, runner

    before = runner.power_iteration
    gone = ("samlab.hessian", "gone", "hessian.gone")
    monkeypatch.setattr(tracer, "FUNCTIONS", tracer.FUNCTIONS + (gone,))
    with pytest.raises(AttributeError, match="samlab.hessian.gone"):
        Tracer().install()
    assert runner.power_iteration is hessian.power_iteration is before


def test_layer_metrics_self_time_and_attribution():
    def span(name, start, end, parent, note=None):
        s = [None] * 5
        s[NAME], s[START], s[END], s[PARENT], s[NOTE] = name, start, end, parent, note
        return s

    spans = [
        span("runner", 0.0, 10.0, -1),
        span("optim.step", 1.0, 4.0, 0),
        span("hessian.power_iteration", 1.5, 3.5, 1, (1, 0)),
        span("oracle.hvp", 2.0, 3.0, 2),
        span("engine.backward", 2.5, 3.0, 3, 31),
        span("runner.probe_row", 4.5, 9.5, 0),
        span("hessian.spectrum_deflated", 5.0, 9.0, 5, (2, 1)),
        span("oracle.hvp", 5.0, 6.0, 6),
        span("hessian.hutchinson_trace", 7.0, 8.0, 6),
        span("oracle.hvp", 7.0, 7.5, 8),
    ]
    m = layer_metrics(spans)
    assert m["runner.self_s"] == pytest.approx(10.0 - 3.0 - 5.0)
    assert m["optim.step.self_s"] == pytest.approx(1.0)
    assert m["oracle.forward_s"] == pytest.approx(0.5 + 1.0 + 0.5)
    assert m["engine.us_per_node"] == pytest.approx(0.5e6 / 31)
    assert m["runner.probe_s"] == pytest.approx(5.0)
    assert m["optim.refresh_hvps"] == 1
    assert m["hessian.power_iteration.hvps"] == 1
    assert m["hessian.spectrum_deflated.hvps"] == 1
    assert m["hessian.hutchinson_trace.hvps"] == 1
    assert m["hessian.converged_frac"] == pytest.approx(1 / 3)
    assert m["hessian.hvps_per_converged_pair"] == pytest.approx(2.0)
    assert m["oracle.hvp.us"] == pytest.approx(2.5e6 / 3)
