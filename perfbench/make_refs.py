"""Regenerate the reference artifacts in ``refs/`` from the current code.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only when an output change is intended, and say why in CHANGES.md:
the benchmark's output check compares every later run against these files.
Trajectory workloads store their CSV rows; the spectrum workload stores the
eigenvalues of the dense Hessian at the probed point, assembled from
finite-difference HVP columns (independent of the exact tape mode the
runner uses).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from samlab import runner  # noqa: E402
from samlab.config import resolve  # noqa: E402
from samlab.data import gen_synthetic  # noqa: E402
from samlab.models import MlpSpec, init_params, mlp_oracle  # noqa: E402

from checks import csv_rows, ref_path  # noqa: E402
from child import RUNNER_FUNCTIONS  # noqa: E402
from workloads import POOL, SIZES, WORKLOADS, raw_config  # noqa: E402


def dense_fd_eigenvalues(config: dict, seed: int) -> list:
    spec = MlpSpec(config["model_layers"], config["activation"],
                   config["loss_head"])
    train = gen_synthetic(config["data_n"], config["data_dim"],
                          config["data_classes"], config["data_margin"],
                          config["data_seed"], "train")
    x = init_params(spec, seed).values
    oracle = mlp_oracle(spec, train.inputs, train.labels, mode="fd")
    h = np.empty((spec.dim, spec.dim))
    for i in range(spec.dim):
        e = np.zeros(spec.dim)
        e[i] = 1.0
        h[:, i] = oracle.hvp(x, e)
    return [float(v) for v in np.linalg.eigvalsh(0.5 * (h + h.T))]


def reference(workload: str, size: str, pool: int, out_dir: str) -> dict:
    subcommand = WORKLOADS[workload][0]
    config = resolve(subcommand, raw_config(workload, size, pool, out_dir))
    if workload == "spectrum-fullbatch":
        if config["steps"] != 0:
            raise ValueError("the dense reference is taken at the init point")
        return {"k": config["k"],
                "dense_eigenvalues": {str(s): dense_fd_eigenvalues(config, s)
                                      for s in config["seeds"]}}
    path = getattr(runner, RUNNER_FUNCTIONS[subcommand])(config)
    return {"rows": csv_rows(path)}


def main() -> int:
    ref_path("x", "y").parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in WORKLOADS:
            for size in SIZES:
                refs = {str(p): reference(workload, size, p, os.path.join(tmp, str(p)))
                        for p in range(POOL)}
                path = ref_path(workload, size)
                path.write_text(json.dumps(refs, sort_keys=True) + "\n")
                print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
