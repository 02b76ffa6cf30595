"""Metric rows and the CSV dialect shared by all runners.

One row per (process, seed, probe step). Files start with ``# key=value``
comment lines echoing the fully resolved config, then a fixed header row.
Fields are numeric or bare tags, so no quoting is needed; floats are written
with shortest round-trip repr and parse back losslessly. The wall_ms column
is the only nondeterministic field and is excluded from byte comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

WALL_COLUMN = "wall_ms"


@dataclass(frozen=True)
class MetricRow:
    step: int
    process: str
    seed: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    param_norm: float
    grad_norm: float
    lambda1: float
    alignment: float
    hvp_count: int
    wall_ms: float

    def render(self) -> str:
        parts = []
        for name in COLUMNS:
            value = getattr(self, name)
            if isinstance(value, float):
                parts.append(repr(value))
            else:
                parts.append(str(value))
        return ",".join(parts)


COLUMNS = tuple(f.name for f in fields(MetricRow))


def sort_rows(rows: list) -> list:
    return sorted(rows, key=lambda r: (r.process, r.seed, r.step))


def write_csv(path, config_lines: list, rows: list, error: str | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in config_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(COLUMNS) + "\n")
        for row in rows:
            fh.write(row.render() + "\n")
        if error is not None:
            fh.write(f"# error={error}\n")


def read_csv(path) -> tuple:
    """(config dict, list of MetricRow, error or None); inverse of write_csv."""
    config, rows, error = {}, [], None
    header = None
    # Annotations are strings here (``from __future__ import annotations``).
    parsers = [{"int": int, "float": float, "str": str}[f.type]
               for f in fields(MetricRow)]
    for line in Path(path).read_text().splitlines():
        if line.startswith("# error="):
            error = line[len("# error="):]
        elif line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif header is None:
            header = tuple(line.split(","))
            if header != COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
        else:
            rows.append(MetricRow(*(parse(part) for parse, part
                                    in zip(parsers, line.split(",")))))
    return config, rows, error


def canonical_bytes(path) -> bytes:
    """File contents with the wall-clock column blanked, for byte comparison."""
    wall_idx = COLUMNS.index(WALL_COLUMN)
    out = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith(COLUMNS[0] + ","):
            out.append(line)
            continue
        parts = line.split(",")
        parts[wall_idx] = "_"
        out.append(",".join(parts))
    return ("\n".join(out) + "\n").encode()
