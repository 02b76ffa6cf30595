"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py WORKLOAD SIZE POOL OUT_DIR TRACE T0

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, the numpy and samlab
imports and config resolution, up to the runner call. ``wall_s`` is the
runner call alone.

Both are reported in reference seconds: the measured seconds times
``REF_NOMINAL_S`` over the median time of a fixed reference loop, run
``REF_REPS`` times just before and just after the runner call. The loop
uses no samlab code, so a change to samlab moves these times as it moves
the measured ones, while a host that runs everything slower for a while
moves both and cancels. The measured seconds are kept as ``raw_wall_s``
and ``raw_setup_s``. The output check and, when traced, the per-layer
metrics are computed after the timed call; a traced spectrum run also
checks the report's HVP count against the HVPs the tracer saw.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_artifact  # noqa: E402
from workloads import WORKLOADS, raw_config  # noqa: E402

RUNNER_FUNCTIONS = {"train": "run_train", "simulate-sde": "run_simulate_sde",
                    "spectrum": "run_spectrum"}

# The reference loop takes about this long on the host the baseline was
# measured on; the constant only sets the scale of the reported seconds.
REF_NOMINAL_S = 0.0125
REF_REPS = 5


def reference_loop_s() -> list:
    """Times of a fixed loop of interpreter work and small numpy arrays."""
    import numpy as np

    times = []
    for _ in range(REF_REPS):
        a = np.linspace(0.0, 1.0, 64)
        b = np.linspace(1.0, 2.0, 64)
        total = 0.0
        start = time.perf_counter()
        for i in range(3000):
            a = a * 0.5 + b
            total += float(a[i % 64]) + sum([j * 0.5 for j in range(20)])
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def nodes_per_pass(config: dict) -> int:
    """Nodes on one degree-0 loss tape built through the public mlp_builder."""
    import numpy as np
    from samlab import engine
    from samlab.models import MlpSpec, mlp_builder

    spec = MlpSpec(config["model_layers"], config["activation"],
                   config["loss_head"])
    rows = config["batch_size"]
    inputs = np.zeros((rows, spec.layers[0]))
    labels = np.arange(rows) % spec.layers[-1]
    tape = engine.Tape(degree=0)
    mlp_builder(spec, inputs, labels)(tape, tape.leaf(np.zeros(spec.dim)))
    return len(tape.nodes)


def canonical_digest(path: Path) -> str:
    from samlab.metrics import canonical_bytes

    data = canonical_bytes(path) if path.suffix == ".csv" else path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run(workload: str, size: str, pool: int, out_dir: str, trace: bool,
        t0: float) -> dict:
    from samlab import runner
    from samlab.config import resolve

    subcommand = WORKLOADS[workload][0]
    config = resolve(subcommand, raw_config(workload, size, pool, out_dir))
    setup_s = time.monotonic() - t0
    ref = reference_loop_s()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    call = getattr(runner, RUNNER_FUNCTIONS[subcommand])
    start = time.monotonic()
    path = Path(call(config))
    wall_s = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    ref_s = statistics.median(ref + reference_loop_s())
    scale = REF_NOMINAL_S / ref_s
    result = {
        "wall_s": wall_s * scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": wall_s,
        "raw_setup_s": setup_s,
        "ref_ms": ref_s * 1e3,
        "digest": canonical_digest(path),
        "problems": check_artifact(workload, size, pool, path),
        "env": environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics
        layers = layer_metrics(tracer.spans)
        layers["engine.nodes_per_pass"] = nodes_per_pass(config)
        layers["metrics.bytes_written"] = path.stat().st_size
        result["layers"] = layers
        if workload == "spectrum-fullbatch":
            spectra = json.loads(path.read_text())["results"]["spectra"]
            reported = sum(entry["hvp_calls"] for entry in spectra)
            if reported != layers["oracle.hvp.calls"]:
                result["problems"].append(
                    f"report counts {reported} HVPs, the tracer saw "
                    f"{layers['oracle.hvp.calls']}")
    return result


def main(argv: list) -> int:
    workload, size, pool, out_dir, trace, t0 = argv
    result = run(workload, size, int(pool), out_dir, trace == "1", float(t0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
