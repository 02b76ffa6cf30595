"""samlab benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``). Each
workload process runs one public runner call (see ``workloads.py``); the
benchmark starts processes one after another until the next one would end
after ``--seconds``, with at least ``MIN_CHILDREN`` of them, and reports
medians over those that passed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the runner call),
``setup_s`` (process start to the runner call) and ``peak_rss_mb``. The
two times are in reference seconds, corrected for the host's speed by a
reference loop (``child.py``); a ``# measured`` line gives the medians of
the seconds as measured and of the reference loop's time.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of the traced ones (``tracer.py``), the tracing overhead,
and fails the run if tracing changed the artifact or if the per-layer
counts differ between traced processes.

A process fails when it exits non-zero or its artifact fails the check in
``checks.py``; ``failed_frac`` is failed over attempted. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS, pool_index  # noqa: E402

MIN_CHILDREN = 3
MEASURED = ("raw_wall_s", "raw_setup_s", "ref_ms")
MIN_TRACED_PAIRS = 2
# No workload process is started, or left running, past this many seconds
# into a run, so a run ends well inside the three minutes it is allowed.
DEADLINE_S = 150.0

# BLAS threads contend for the shared cores (eigh, matmul); pin them in the
# workload processes only. A fixed hash seed keeps dict and set layouts the
# same from one workload process to the next.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def is_count(name: str) -> bool:
    """Per-layer counts, which must repeat exactly between runs."""
    return UNITS[name] == "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, size: str, pool: int, trace: bool, out_dir: Path,
          env: dict, deadline: float) -> dict:
    """Run one workload process; returns its record with an ``ok`` flag.

    Every process of a run writes to the same ``out_dir`` (removed after
    each), because the artifact echoes it and artifacts are compared.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"ok": False, "problems": ["not started: run deadline passed"]}
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, size, str(pool),
           str(out_dir), "1" if trace else "0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"killed after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"ok": False,
                "problems": [f"exit {proc.returncode}: {tail[0]}"]}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["ok"] = not record["problems"]
    return record


def _median(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def _done(start: float, rounds: int, minimum: int, seconds: float) -> bool:
    """True when one more round would end after ``seconds`` (or the deadline)."""
    elapsed = time.monotonic() - start
    predicted = elapsed * (rounds + 1) / rounds
    return (rounds >= minimum and predicted > seconds) or predicted > DEADLINE_S


def timed_run(workload, size, pool, seconds, out_root, env):
    records = []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    while True:
        records.append(spawn(workload, size, pool, False, out_root, env, deadline))
        if _done(start, len(records), MIN_CHILDREN, seconds):
            break
    good = [r for r in records if r["ok"]]
    for r in good[1:]:
        if r["digest"] != good[0]["digest"]:
            r["ok"] = False
            r["problems"].append("artifact differs between identical runs")
    good = [r for r in good if r["ok"]]
    metrics = {name: _median(good, name) for name in END_TO_END} if good else {}
    return records, good, metrics


def traced_run(workload, size, pool, seconds, out_root, env):
    plain, traced = [], []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    while True:
        plain.append(spawn(workload, size, pool, False, out_root, env, deadline))
        traced.append(spawn(workload, size, pool, True, out_root, env, deadline))
        if _done(start, len(traced), MIN_TRACED_PAIRS, seconds):
            break
    good_plain = [r for r in plain if r["ok"]]
    digest = good_plain[0]["digest"] if good_plain else None
    first_counts = None
    for r in traced:
        if not r["ok"]:
            continue
        if digest is not None and r["digest"] != digest:
            r["ok"] = False
            r["problems"].append("traced artifact differs from the untraced one")
        counts = {k: v for k, v in r["layers"].items() if is_count(k)}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            r["ok"] = False
            diff = sorted(k for k in counts if counts[k] != first_counts.get(k))
            r["problems"].append(f"counts differ between traced runs: {diff}")
    good = [r for r in traced if r["ok"]]
    metrics = {}
    if good and good_plain:
        for name in good[0]["layers"]:
            values = [r["layers"][name] for r in good]
            metrics[name] = values[0] if is_count(name) else statistics.median(values)
        base = _median(good_plain, "wall_s")
        overhead = _median(good, "wall_s") - base
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / base
    return plain + traced, good_plain + good, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="'tiny' runs seconds-scale inputs for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "samlab" / "__init__.py").is_file():
        print(f"error: no samlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    pool = pool_index(args.seed)
    out_root = ROOT / ".perfbench_out" / str(os.getpid())
    run = traced_run if args.trace else timed_run
    try:
        records, good, metrics = run(args.workload, args.size, pool,
                                     args.seconds, out_root, env)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if out_root.parent.is_dir() and not any(out_root.parent.iterdir()):
            out_root.parent.rmdir()

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    for i, r in enumerate(records):
        for problem in r["problems"]:
            print(f"process {i}: {problem}", file=sys.stderr)
    if not metrics:
        print("error: no workload process passed; nothing was measured",
              file=sys.stderr)
        return 1

    env_info = good[0]["env"]
    print(f"# workload={args.workload} size={args.size} seed={args.seed} "
          f"pool={pool} processes={attempted} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    plain = [r for r in good if "layers" not in r]
    print("# measured " + " ".join(f"{k}={_median(plain, k)!r}" for k in MEASURED))
    for name, value in metrics.items():
        print(f"{name} {value!r} {UNITS[name]}")
    print(f"failed_frac {failed / attempted!r} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
