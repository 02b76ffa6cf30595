"""Flat key=value run configuration with typed schemas per subcommand.

Config files hold one ``key=value`` pair per line; ``#`` starts a comment.
Command-line overrides replace file values. Unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _at_least(conv, low, strict: bool = False, below: float = math.inf):
    """Converter through ``conv`` that rejects values under ``low``, ``low``
    itself if ``strict``, from ``below`` up, and NaN or infinite values."""
    def convert(text: str):
        value = conv(text)
        # below <= inf, so an infinite or NaN value fails one of the two
        if not ((value > low if strict else value >= low) and value < below):
            raise ValueError(f"must be finite and {'>' if strict else '>='} {low}"
                             + (f" and < {below}" if below < math.inf else ""))
        return value
    return convert


def _finite_float(text: str) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


_positive_int = _at_least(int, 1)
_nonnegative_int = _at_least(int, 0)
_positive_float = _at_least(float, 0, strict=True)
_nonnegative_float = _at_least(float, 0)
_open_unit = _at_least(float, 0, strict=True, below=1)


def _list_of(conv):
    """Converter of comma-separated items, each through ``conv``."""
    def convert(text: str) -> tuple:
        return tuple(conv(p) for p in text.split(",") if p.strip() != "")
    return convert


REQUIRED = object()

# key -> (converter, default); REQUIRED means the key must be supplied.
_MODEL_DATA = {
    "model_layers": (_list_of(int), (2, 8, 2)),
    "activation": (str, "gelu"),
    "loss_head": (str, "ce"),
    "data": (str, "synthetic"),
    "data_n": (_positive_int, 256),
    "data_dim": (_positive_int, 2),
    "data_classes": (_positive_int, 2),
    "data_margin": (_nonnegative_float, 4.0),
    "data_seed": (_nonnegative_int, 0),
    "test_n": (_positive_int, 256),
    "idx_images": (str, ""),
    "idx_labels": (str, ""),
    "idx_test_images": (str, ""),
    "idx_test_labels": (str, ""),
    "batch_size": (_positive_int, 32),
}

_COMMON = {
    "out": (str, "runs"),
    "seeds": (_list_of(_nonnegative_int), (0,)),
}

_OPTIMIZER = {
    "method": (str, "sam"),
    "lr": (_positive_float, 0.1),
    "rho": (_nonnegative_float, 0.05),
    "alpha": (_nonnegative_float, 0.2),
    "p": (int, 100),
    "q": (int, 5),
    "momentum": (_finite_float, 0.9),
    "weight_decay": (_nonnegative_float, 5e-5),
    "schedule": (str, "cosine"),
    "grad_floor": (_positive_float, 1e-12),
}

SCHEMAS = {
    "train": {**_COMMON, **_MODEL_DATA, **_OPTIMIZER,
              "sampler": (str, "shuffle-each-epoch"),
              "steps": (_nonnegative_int, 500),
              "eval_every": (_positive_int, 50),
              "probe_q": (_positive_int, 20),
              "fair_compute": (_bool, False)},
    "simulate-sde": {**_COMMON, **_MODEL_DATA,
                     "processes": (_list_of(str.strip),
                                   ("discrete-sam", "sde2", "sde3")),
                     "eta": (_positive_float, 0.01),
                     "rho": (_nonnegative_float, 0.2),
                     "steps": (_nonnegative_int, 2000),
                     "substeps": (_positive_int, 1),
                     "diffusion": (str, "exact"),
                     "eval_every": (_positive_int, 100),
                     "probe_q": (_positive_int, 20),
                     "aligned_q": (_positive_int, 50),
                     "aligned_check_gap": (_bool, True),
                     "grad_floor": (_positive_float, 1e-12)},
    "spectrum": {**_COMMON, **_MODEL_DATA, **_OPTIMIZER,
                 "sampler": (str, "shuffle-each-epoch"),
                 "steps": (_nonnegative_int, 0),
                 "k": (int, 8),
                 "spectrum_q": (_positive_int, 100),
                 "m_trace": (_nonnegative_int, 64)},
    "probe-moments": {**_COMMON,
                      "toy": (str, "quartic1d"),
                      "x0": (_list_of(_finite_float), ()),
                      "eta": (_positive_float, 0.01),
                      "rho_grid": (_list_of(_positive_float),
                                   (0.02, 0.04, 0.08, 0.16))},
    "probe-power": {**_COMMON, **_MODEL_DATA, **_OPTIMIZER,
                    "sampler": (str, "shuffle-each-epoch"),
                    "steps": (_nonnegative_int, 0),
                    "q_grid": (_list_of(_positive_int), (1, 2, 3, 5, 8, 13, 21)),
                    "n_starts": (_positive_int, 5),
                    "q_ref": (_positive_int, 500)},
    "bound": {"out": (str, "runs"),
              "f_s": (_finite_float, REQUIRED),
              "lambda1": (_finite_float, REQUIRED),
              "x_norm": (_finite_float, REQUIRED),
              "d": (_positive_int, REQUIRED),
              "n": (_positive_int, REQUIRED),
              "sigma": (_positive_float, REQUIRED),
              "loss_bound": (_positive_float, REQUIRED),
              "third_bound": (_nonnegative_float, REQUIRED),
              "delta": (_open_unit, REQUIRED)},
    "align-range": {"out": (str, "runs"),
                    "omega": (_open_unit, REQUIRED)},
}


def parse_config_file(path) -> dict:
    """Raw key=value pairs from a config file."""
    out = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve(subcommand: str, raw: dict) -> dict:
    """Typed config with defaults expanded; rejects unknown keys."""
    schema = SCHEMAS[subcommand]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: {', '.join(unknown)}")
    resolved = {}
    for key, (conv, default) in schema.items():
        if key in raw:
            try:
                resolved[key] = conv(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})") from exc
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key: {key}")
        else:
            resolved[key] = default
    for key in ("seeds", "processes"):
        items = resolved.get(key, ())
        if len(set(items)) != len(items):
            raise ConfigError(f"{key} must be distinct")
    for key in ("seeds", "processes", "q_grid"):
        if key in resolved and not resolved[key]:
            raise ConfigError(f"{key} needs at least one value")
    return resolved


def render(config: dict) -> list:
    """Config as sorted key=value lines (the echo embedded in outputs)."""
    lines = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, tuple):
            text = ",".join(repr(v) if isinstance(v, float) else str(v)
                            for v in value)
        elif isinstance(value, float):
            text = repr(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return lines
