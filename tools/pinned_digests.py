"""Digests of a pinned set of CLI runs, the byte gate for a refactor.

    python tools/pinned_digests.py

runs each pinned ``samlab`` command, with the package from the ``src``
directory next to this file, into its own temporary directory and prints
one ``name sha256[:16]`` line per artifact. A CSV is hashed through
``metrics.canonical_bytes`` (the wall-clock column blanked), a JSON report
as written; in both the temporary directory is first replaced by a fixed
token. Run it in two checkouts and diff the outputs. Exits 1 if any run
fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from samlab.cli import main  # noqa: E402
from samlab.metrics import canonical_bytes  # noqa: E402

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
    "train-eigensam": ("train", ("method=eigensam", "p=5", "steps=30",
                                 "eval_every=10"), None),
    "moments-quartic1d": ("probe-moments", ("toy=quartic1d",), None),
    "moments-twobatch2d": ("probe-moments", ("toy=twobatch2d",), None),
    "sde-aligned-none": ("simulate-sde", (
        "model_layers=2,16,2", "data_n=100", "steps=3", "eval_every=1",
        "diffusion=none", "processes=sde-aligned-rho2", "aligned_q=10",
        "probe_q=10"), None),
    "spectrum": ("spectrum", ("model_layers=2,16,2", "steps=50", "k=4",
                              "m_trace=16"), "0,1"),
}


def digest(path: Path, out: Path) -> str:
    data = canonical_bytes(path) if path.suffix == ".csv" else path.read_bytes()
    data = data.replace(str(out).encode(), b"<out>")
    return hashlib.sha256(data).hexdigest()[:16]


def run() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (subcommand, sets, seed) in PINNED.items():
            out = Path(tmp) / name
            argv = [subcommand, "--out", str(out)]
            argv += [arg for item in sets for arg in ("--set", item)]
            if seed is not None:
                argv += ["--seed", seed]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                print(f"{name} FAILED", flush=True)
                failed += 1
                continue
            for path in sorted(out.iterdir()):
                print(f"{name} {digest(path, out)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(run())
