"""Output checks against the stored reference artifacts in ``refs/``.

Trajectory CSVs (train, simulate-sde) must match the reference rows: every
float column except ``wall_ms`` within ``RTOL``, the integer columns and
the process tag exactly. Digests of ``canonical_bytes`` are not compared,
because a refactor may move the numbers by round-off.

Spectrum reports are checked against the eigenvalues of the dense Hessian
assembled once from finite-difference HVP columns. For a symmetric matrix
H, a unit vector v and lam = v.Hv, some eigenvalue of H lies within
||Hv - lam v|| of lam. A solver that found the top k reports k
values that can each be given a different one of the k dense eigenvalues
of largest magnitude, within the value's residual plus ``FD_SLACK`` times
the spectral radius (for the finite-difference error). A repeated or a
missed eigenvalue leaves some value without one. The converged flags must
follow from the residuals, the trace estimate must lie within
``TRACE_Z`` standard errors of the dense trace, and the HVP count must
cover one HVP per pair and per trace probe. The checks hold for any solver
that reports honest residuals and standard errors.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from pathlib import Path

from workloads import raw_config

REFS = Path(__file__).resolve().parent / "refs"

RTOL = 1e-6
ATOL = 1e-12
FD_SLACK = 1e-8
TRACE_Z = 4.0

FLOAT_COLUMNS = ("train_loss", "test_loss", "test_accuracy", "param_norm",
                 "grad_norm", "lambda1", "alignment")
EXACT_COLUMNS = ("step", "process", "seed", "hvp_count")


def ref_path(workload: str, size: str) -> Path:
    return REFS / f"{workload}-{size}.json"


def load_ref(workload: str, size: str, pool: int) -> dict:
    with open(ref_path(workload, size)) as fh:
        return json.load(fh)[str(pool)]


def csv_rows(path) -> list:
    """Rows of a trajectory CSV as dicts without the wall-clock column."""
    from samlab.metrics import read_csv

    _config, rows, error = read_csv(path)
    if error is not None:
        raise ValueError(f"artifact records an error: {error}")
    return [{k: getattr(r, k) for k in EXACT_COLUMNS + FLOAT_COLUMNS}
            for r in rows]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_rows(rows: list, ref_rows: list) -> list:
    """Problems found comparing trajectory rows with the reference rows."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for got, want in zip(rows, ref_rows):
        where = f"{got['process']} seed={got['seed']} step={got['step']}"
        for col in EXACT_COLUMNS:
            if got[col] != want[col]:
                problems.append(f"{where}: {col}={got[col]!r}, want {want[col]!r}")
        for col in FLOAT_COLUMNS:
            if not _close(got[col], want[col]):
                problems.append(f"{where}: {col}={got[col]!r}, want {want[col]!r}")
    return problems


def _unmatched(pairs: list, top: list, slack: float) -> list:
    """Pairs (value, residual) left without their own eigenvalue from top.

    Intervals take points greedily by right end, each the lowest free point
    inside it; this matches as many intervals as any assignment can.
    """
    free = sorted(top)
    left = []
    for lam, res in sorted(pairs, key=lambda p: p[0] + p[1]):
        i = bisect_left(free, lam - res - slack)
        if i < len(free) and free[i] <= lam + res + slack:
            free.pop(i)
        else:
            left.append((lam, res))
    return left


def check_spectrum(report: dict, ref: dict, m_trace: int) -> list:
    """Problems found checking a spectrum report against dense eigenvalues."""
    from samlab.hessian import CONVERGED_RTOL

    problems = []
    k = ref["k"]
    by_seed = {entry["seed"]: entry for entry in report["results"]["spectra"]}
    for seed_key, dense in ref["dense_eigenvalues"].items():
        where = f"seed {seed_key}"
        entry = by_seed.get(int(seed_key))
        if entry is None:
            problems.append(f"{where}: missing from the report")
            continue
        pairs = list(zip(entry["eigenvalues"], entry["residuals"]))
        if len(pairs) != k or len(entry["converged"]) != k:
            problems.append(f"{where}: {len(pairs)} eigenpairs, want {k}")
            continue
        if any(v is None for pair in pairs for v in pair):
            problems.append(f"{where}: non-finite eigenpair")
            continue
        top = sorted(dense, key=abs, reverse=True)[:k]
        slack = FD_SLACK * abs(top[0])
        for lam, res in _unmatched(pairs, top, slack):
            problems.append(f"{where}: eigenvalue {lam!r} (residual {res:.3g}) "
                            f"has no top-{k} dense eigenvalue of its own")
        for (lam, res), flag in zip(pairs, entry["converged"]):
            if flag != (res <= CONVERGED_RTOL * max(1.0, abs(lam))):
                problems.append(f"{where}: eigenvalue {lam!r} converged={flag} "
                                f"but residual {res:.3g}")
        trace = math.fsum(dense)
        est, se = entry["trace_estimate"], entry["trace_stderr"]
        if est is None or se is None or abs(est - trace) > TRACE_Z * se:
            problems.append(f"{where}: trace estimate {est!r} (stderr {se!r}), "
                            f"dense trace {trace!r}")
        calls = entry["hvp_calls"]
        if not isinstance(calls, int) or calls < k + m_trace:
            problems.append(f"{where}: hvp_calls={calls!r}, want at least "
                            f"{k + m_trace}")
    return problems


def check_artifact(workload: str, size: str, pool: int, path) -> list:
    """Problems with a runner's artifact; an empty list means it passed."""
    ref = load_ref(workload, size, pool)
    if workload == "spectrum-fullbatch":
        m_trace = int(raw_config(workload, size, pool, "")["m_trace"])
        return check_spectrum(json.loads(Path(path).read_text()), ref, m_trace)
    return check_rows(csv_rows(path), ref["rows"])
