"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--trace 0|1]
                                [--first-seed 0] [--save FILE]

Runs ``run.py`` once per seed, one after another, with ``run_seconds`` from
BENCHMARK.json. For every metric it prints the median and the quartile
spread, ``(Q3 - Q1) / median`` from ``statistics.quantiles(values, n=4)``,
next to the metric's bound. Exits 1 if a run fails, if an end-to-end spread
exceeds a third of its bound, or, with ``--trace 1``, if a count differs
between runs (counts must repeat exactly).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import is_count  # noqa: E402


def quartile_spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--save", help="append each run's result line here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        results.append(result)
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "trace": args.trace, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()
                         if k in bounds), flush=True)

    status = 0
    if not all(r["correct"] for r in results):
        print("FAIL: a run reported correct=false")
        status = 1
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if args.trace and is_count(name):
            same = len(set(values)) == 1
            print(f"{name}: {values[0]} {'repeats exactly' if same else 'DIFFERS'}")
            status |= 0 if same else 1
            continue
        med = statistics.median(values)
        spread = quartile_spread(values) if med and len(values) > 1 else 0.0
        line = f"{name}: median {med:.6g} spread {spread:.4f}"
        if name in bounds:
            ok = spread <= bounds[name] / 3
            line += f" bound {bounds[name]} {'ok' if ok else 'TOO WIDE'}"
            status |= 0 if ok else 1
        print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
