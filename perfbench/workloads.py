"""Workload definitions for the samlab benchmark.

Each workload is one public runner call with a fixed config. The benchmark
seed picks one of ``POOL`` input sets (data seed and model/training seeds);
the reference artifacts under ``refs/`` hold the expected output for every
pool entry, so any seed can be checked. The work done per run (steps,
passes, HVPs) does not depend on the seed, only the numbers do.

``full`` is the measured size; ``tiny`` runs the same code paths in well
under a second and exists for the benchmark's own tests.
"""

from __future__ import annotations

POOL = 4
SIZES = ("full", "tiny")

# name -> (runner subcommand, key=value config, {size: overrides}). Why each
# workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-eigensam": (
        "train",
        {"model_layers": "12,32,10", "data_dim": "12", "data_classes": "10",
         "data_n": "512", "data_margin": "1.0", "batch_size": "32",
         "method": "eigensam", "rho": "0.2", "alpha": "0.2", "p": "100",
         "q": "5", "schedule": "constant", "eval_every": "100",
         "probe_q": "20"},
        {"full": {"steps": "1000"},
         "tiny": {"steps": "20", "eval_every": "10"}},
    ),
    "sde-exact": (
        "simulate-sde",
        {"model_layers": "2,16,2", "data_n": "256", "batch_size": "32",
         "eta": "0.01", "rho": "0.2", "diffusion": "exact",
         "processes": "discrete-sam,sde2,sde3", "eval_every": "50",
         "probe_q": "25"},
        {"full": {"steps": "150"},
         "tiny": {"steps": "4", "eval_every": "2"}},
    ),
    "spectrum-fullbatch": (
        "spectrum",
        {"model_layers": "12,32,10", "data_dim": "12", "data_classes": "10",
         "data_n": "1024", "data_margin": "1.0", "batch_size": "1024",
         "steps": "0", "k": "8", "spectrum_q": "100", "m_trace": "64"},
        {"full": {},
         "tiny": {"data_n": "128", "batch_size": "128", "k": "2",
                  "spectrum_q": "40", "m_trace": "16"}},
    ),
}


def pool_index(seed: int) -> int:
    """The input set a benchmark seed selects."""
    return seed % POOL


def raw_config(workload: str, size: str, pool: int, out: str) -> dict:
    """Unresolved key=value config for one run, as the CLI would pass it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if not 0 <= pool < POOL:
        raise ValueError(f"pool index must be in [0, {POOL})")
    _subcommand, base, sizes = WORKLOADS[workload]
    raw = {**base, **sizes[size]}
    raw["data_seed"] = str(pool)
    # Two replicate seeds for training, so seed stacking has work to show.
    raw["seeds"] = (f"{2 * pool},{2 * pool + 1}" if workload == "train-eigensam"
                    else str(pool))
    raw["out"] = out
    return raw
