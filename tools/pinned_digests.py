"""Digests of a pinned set of CLI runs, the byte gate for a refactor.

    python tools/pinned_digests.py
    python tools/pinned_digests.py --against ../other-checkout

runs each pinned ``samlab`` command, with the package from the ``src``
directory next to this file, into its own temporary directory and prints
one ``name sha256[:16]`` line per artifact. A CSV is hashed through
``metrics.canonical_bytes`` (the wall-clock column blanked), a JSON report
as written; in both the temporary directory is first replaced by a fixed
token. Run it in two checkouts and diff the outputs. Exits 1 if any run
fails.

With ``--against CHECKOUT`` the same commands also run with the package
from ``CHECKOUT/src``, in a subprocess. For every artifact whose digest
differs, the line names the other digest and is followed by one
``  column deviation`` line per column: the largest relative deviation
``|a - b| / max(|a|, |b|)`` over its values (``inf`` where a value is
missing or a string differs). A CSV column is a metric column (the
wall-clock column left out), a JSON column a key path with list positions
dropped, such as ``results.spectra[].eigenvalues[]``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from samlab.cli import main  # noqa: E402
from samlab.metrics import COLUMNS, WALL_COLUMN, canonical_bytes, read_csv  # noqa: E402

_SDE = ("model_layers=2,16,2", "data_n=256", "probe_q=10")

# name -> (subcommand, --set items, --seed or None)
PINNED = {
    "sde": ("simulate-sde", _SDE + ("steps=20", "eval_every=5"), None),
    "sde-aligned": ("simulate-sde", _SDE + (
        "steps=3", "eval_every=1",
        "processes=sde-aligned-rho,sde-aligned-rho2", "aligned_q=10"), None),
    "sde-sampled": ("simulate-sde", (
        "model_layers=2,16,2", "data_n=100", "steps=5", "eval_every=1",
        "diffusion=sampled", "processes=sde3,sde-aligned-rho", "aligned_q=10",
        "probe_q=10"), "1,2"),
    "train-egr": ("train", ("method=egr", "steps=30", "eval_every=10"), "0,1"),
    "train-sgd": ("train", ("method=sgd", "steps=30", "eval_every=10"), "0,1"),
    "train-reversesam": ("train", ("method=reversesam", "steps=30",
                                   "eval_every=10"), "0,1"),
    "train-eigensam": ("train", ("method=eigensam", "p=5", "steps=30",
                                 "eval_every=10"), None),
    # Two lockstep Eigen-SAM seeds on the benchmark's 12,32,10 model: a
    # two-row stack of 32-row batches through every refresh and step.
    "train-eigensam-seeds": ("train", (
        "model_layers=12,32,10", "data_dim=12", "data_classes=10",
        "data_n=512", "method=eigensam", "rho=0.2", "p=10", "steps=40",
        "eval_every=20"), "0,1"),
    "moments-quartic1d": ("probe-moments", ("toy=quartic1d",), None),
    "moments-twobatch2d": ("probe-moments", ("toy=twobatch2d",), None),
    "sde-aligned-none": ("simulate-sde", (
        "model_layers=2,16,2", "data_n=100", "steps=3", "eval_every=1",
        "diffusion=none", "processes=sde-aligned-rho2", "aligned_q=10",
        "probe_q=10"), None),
    "spectrum": ("spectrum", ("model_layers=2,16,2", "steps=50", "k=4",
                              "m_trace=16"), "0,1"),
    # Dozens of ReLU/MSE HVPs at one point: pushes through relu, sub, mul,
    # sum_all and scale.
    "spectrum-relu-mse": ("spectrum", (
        "model_layers=2,16,2", "activation=relu", "loss_head=mse", "k=2",
        "m_trace=8"), None),
    # Twelve pairs of a 2,3,2 model (d = 17): its first Krylov block breaks
    # down, so the run takes a Lanczos restart.
    "spectrum-restart": ("spectrum", ("model_layers=2,3,2", "data_n=64",
                                      "k=12", "m_trace=0"), None),
    "probe-power": ("probe-power", ("model_layers=2,16,2", "steps=20",
                                    "q_grid=1,3,8", "n_starts=2",
                                    "q_ref=100"), None),
    "train-relu-mse": ("train", ("activation=relu", "loss_head=mse",
                                 "steps=30", "eval_every=10"), None),
    "sde-mse": ("simulate-sde", _SDE + ("loss_head=mse", "steps=10",
                                        "eval_every=5"), None),
    # Three seeds on batches of 32, 32, 32 and 4 rows: lockstep discrete-SAM
    # steps whose picks share one row count and steps whose picks do not.
    "sde-sam-seeds": ("simulate-sde", (
        "model_layers=2,16,2", "data_n=100", "processes=discrete-sam,sde2",
        "steps=20", "eval_every=5", "probe_q=10"), "0,1,2"),
    # A wide 64,256,2 model (d = 17 154) on three 32-row batches: two sets
    # fill one tape's STACK_ELEMENTS, so each step's three equal-size
    # discrete-SAM picks take 2 + 1 tapes and the nine SDE sets five.
    "sde-wide": ("simulate-sde", (
        "model_layers=64,256,2", "data_dim=64", "data_n=96", "test_n=32",
        "processes=discrete-sam,sde2", "steps=4", "eval_every=2",
        "probe_q=5"), "0,1,2"),
    # Three Euler-Maruyama substeps per step, so each row's hvp_count sums
    # the HVPs of several drifts.
    "sde-substeps": ("simulate-sde", _SDE + (
        "steps=4", "eval_every=2", "substeps=3",
        "processes=sde3,sde-aligned-rho", "aligned_q=10"), None),
    # Three seeds of discrete SAM against both SDE orders with exact
    # diffusion: every Σ of a multi-seed run.
    "sde-seeds-exact": ("simulate-sde", _SDE + (
        "processes=discrete-sam,sde2,sde3", "steps=10", "eval_every=5",
        "diffusion=exact"), "0,1,2"),
    # The same rows with sampled diffusion: every row's noise table.
    "sde-seeds-sampled": ("simulate-sde", _SDE + (
        "processes=discrete-sam,sde2,sde3", "steps=10", "eval_every=5",
        "diffusion=sampled"), "0,1,2"),
    # Rows that need a degree-1 push (sde2, and aligned-rho2 without
    # diffusion) beside rows that need degree 2 (sde3), two substeps each.
    "sde-seeds-mixed": ("simulate-sde", _SDE + (
        "processes=sde2,sde3,sde-aligned-rho2", "steps=4", "eval_every=2",
        "diffusion=none", "substeps=2", "aligned_q=10"), "0,1"),
    # rho = 0.2 above eta^(1/3) = 0.1: the config echo says rho_warning=true.
    "sde-rho-warning": ("simulate-sde", _SDE + (
        "steps=4", "eval_every=2", "eta=0.001", "substeps=2",
        "processes=discrete-sam,sde3"), None),
    # Some of the 8 batches fall under the gradient floor, so they spend no
    # jet HVP and drop out of terms 2-3: sde2 spends 25 HVPs by step 5, not 40.
    "sde-floor": ("simulate-sde", _SDE + ("steps=10", "eval_every=5",
                                          "grad_floor=2.5"), None),
    # Two hidden layers: a dense fed by data, a dense fed by a GeLU output,
    # and pushes of degree 1 (the refresh's power iteration) through both
    # GeLUs on a two-row stack of Eigen-SAM seeds.
    "train-deep": ("train", (
        "model_layers=4,8,8,3", "data_dim=4", "data_classes=3", "data_n=128",
        "method=eigensam", "p=5", "steps=20", "eval_every=10"), "0,1"),
    # Degree-1 and degree-2 pushes through two GeLUs: sde2 and sde3 rows
    # with exact diffusion on a two-hidden-layer model.
    "sde-deep": ("simulate-sde", (
        "model_layers=2,8,8,2", "data_n=128", "probe_q=10",
        "processes=discrete-sam,sde2,sde3", "diffusion=exact", "steps=5",
        "eval_every=5"), None),
    "bound": ("bound", ("f_s=0.1", "lambda1=10", "x_norm=10", "d=100",
                        "n=10000", "sigma=0.01", "loss_bound=1",
                        "third_bound=1", "delta=0.05"), None),
    "align-range": ("align-range", ("omega=0.8",), None),
}

_OTHER_MAIN = ("import sys; from samlab.cli import main; "
               "raise SystemExit(main(sys.argv[1:]))")


def digest(path: Path, out: Path) -> str:
    data = canonical_bytes(path) if path.suffix == ".csv" else path.read_bytes()
    data = data.replace(str(out).encode(), b"<out>")
    return hashlib.sha256(data).hexdigest()[:16]


def _argv(subcommand: str, sets: tuple, seed, out: Path) -> list:
    argv = [subcommand, "--out", str(out)]
    argv += [arg for item in sets for arg in ("--set", item)]
    if seed is not None:
        argv += ["--seed", seed]
    return argv


def _run_other(checkout: Path, argv: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, "-c", _OTHER_MAIN, *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode


def _json_leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _json_leaves(value, path + "[]")
    else:
        yield path, obj


def _columns(path: Path, out: Path) -> list:
    """(column, value) pairs of an artifact, in file order."""
    if path.suffix == ".csv":
        rows = read_csv(path)[1]
        return [(col, getattr(row, col)) for row in rows for col in COLUMNS
                if col != WALL_COLUMN]
    text = path.read_text().replace(str(out), "<out>")
    return list(_json_leaves(json.loads(text)))


def _deviation(a, b) -> float:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    if a == b or (numbers and math.isnan(a) and math.isnan(b)):
        return 0.0
    if not numbers or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def deviations(mine: Path, mine_out: Path, other: Path,
               other_out: Path) -> dict:
    """Largest relative deviation per column between two artifacts; the
    column ``<structure>`` is inf when their columns do not line up."""
    a, b = _columns(mine, mine_out), _columns(other, other_out)
    if [col for col, _ in a] != [col for col, _ in b]:
        return {"<structure>": math.inf}
    worst: dict = {}
    for (col, va), (_, vb) in zip(a, b):
        worst[col] = max(worst.get(col, 0.0), _deviation(va, vb))
    return worst


def run(against: Path | None = None) -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (subcommand, sets, seed) in PINNED.items():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(_argv(subcommand, sets, seed, out))
            other_out = Path(tmp) / "against" / name
            if code == 0 and against is not None:
                code = _run_other(against, _argv(subcommand, sets, seed,
                                                 other_out))
            if code != 0:
                print(f"{name} FAILED", flush=True)
                failed += 1
                continue
            for path in sorted(out.iterdir()):
                mine = digest(path, out)
                if against is None:
                    print(f"{name} {mine}", flush=True)
                    continue
                other = other_out / path.name
                theirs = digest(other, other_out) if other.exists() else "missing"
                if mine == theirs:
                    print(f"{name} {mine}", flush=True)
                    continue
                print(f"{name} {mine} != {theirs} in {against}", flush=True)
                if not other.exists():
                    continue
                for col, dev in deviations(path, out, other,
                                           other_out).items():
                    print(f"  {col} {dev:.3g}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to compare the artifacts with")
    args = parser.parse_args()
    raise SystemExit(run(args.against))
