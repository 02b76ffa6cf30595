"""Span tracing around samlab's public functions, from outside the package.

A :class:`Tracer` wraps the layer-boundary functions of each samlab module
and records one span per call: name, start, end, parent span and an
optional note taken from the call's arguments or result. Spans stay in
memory; :func:`layer_metrics` turns them into per-layer counts and times.

Functions are patched where their callers look them up. ``runner``,
``optim``, ``sde`` and ``data`` bind ``power_iteration``, ``step`` (as
``optimizer_step``), ``mlp_oracle``, ``sample_batch`` and the rest with
``from ... import``, so patching only the home module would miss those
calls: every samlab module attribute that *is* the original function is
replaced. ``LossOracle`` methods are patched on the class. A listed function
or method that samlab no longer has is an error, so a renamed layer fails
the traced run instead of reading 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (home module, attribute, span name). Span names start with their layer.
FUNCTIONS = (
    ("samlab.runner", "run_train", "runner"),
    ("samlab.runner", "run_simulate_sde", "runner"),
    ("samlab.runner", "run_spectrum", "runner"),
    ("samlab.runner", "_probe_row", "runner.probe_row"),
    ("samlab.engine", "backward", "engine.backward"),
    ("samlab.models", "mlp_oracle", "models.mlp_oracle"),
    ("samlab.models", "accuracy", "models.accuracy"),
    ("samlab.data", "sample_batch", "data.sample_batch"),
    ("samlab.optim", "step", "optim.step"),
    ("samlab.hessian", "power_iteration", "hessian.power_iteration"),
    ("samlab.hessian", "spectrum_deflated", "hessian.spectrum_deflated"),
    ("samlab.hessian", "hutchinson_trace", "hessian.hutchinson_trace"),
    ("samlab.sde", "sde_coefficients", "sde.sde_coefficients"),
    ("samlab.sde", "sigma_exact", "sde.sigma_exact"),
    ("samlab.sde", "euler_maruyama_step", "sde.euler_maruyama_step"),
    ("samlab.metrics", "write_csv", "metrics.write_csv"),
)

# LossOracle method -> span name; both third-order queries are one kind.
ORACLE_METHODS = (
    ("loss", "oracle.loss"),
    ("grad", "oracle.grad"),
    ("hvp", "oracle.hvp"),
    ("third_directional", "oracle.third"),
    ("third_directional_along", "oracle.third"),
)

NAME, START, END, PARENT, NOTE = range(5)


def _nodes_swept(args, kwargs, result):
    return len(args[0].tape.nodes)


def _pairs(args, kwargs, result):
    """(pairs computed, pairs converged) of an eigen-solver result."""
    if hasattr(result, "values") and hasattr(result, "converged"):
        flags = [bool(c) for c in result.converged]
        return len(flags), sum(flags)
    return 1, int(bool(result.converged))


def _order_note(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, result):
        return sig.bind(*args, **kwargs).arguments.get("order")
    return note


def _note_for(span_name: str, fn):
    if span_name == "engine.backward":
        return _nodes_swept
    if span_name in ("hessian.power_iteration", "hessian.spectrum_deflated"):
        return _pairs
    if span_name == "sde.sde_coefficients":
        return _order_note(fn)
    return None


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores samlab."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        import samlab.runner  # noqa: F401  (loads every traced module)
        from samlab.oracle import LossOracle

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "samlab" or n.startswith("samlab.")) and m is not None]
        functions = [(getattr(sys.modules.get(home), attr, None), name,
                      f"{home}.{attr}") for home, attr, name in FUNCTIONS]
        methods = [(LossOracle.__dict__.get(method), method, name)
                   for method, name in ORACLE_METHODS]
        missing = [where for orig, _, where in functions if orig is None]
        missing += [f"LossOracle.{m}" for orig, m, _ in methods if orig is None]
        if missing:
            raise AttributeError(f"traced names missing from samlab: {missing}")
        for orig, span_name, _ in functions:
            traced = self.wrap(span_name, orig, _note_for(span_name, orig))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, traced)
        for orig, method, span_name in methods:
            self._undo.append((LossOracle, method, orig))
            setattr(LossOracle, method, self.wrap(span_name, orig))
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _nearest(spans, idx, prefix):
    """Index of the closest ancestor whose name starts with prefix, or -1."""
    p = spans[idx][PARENT]
    while p >= 0 and not spans[p][NAME].startswith(prefix):
        p = spans[p][PARENT]
    return p


def _has_ancestor(spans, idx, name):
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _ratio(num, den):
    # Layers a workload never enters report 0 rather than an undefined ratio.
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times, keyed by the per_layer metric names."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    own = [dur[i] - child[i] for i in range(n)]

    calls, total, self_s = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + own[i]

    def c(name):
        return calls.get(name, 0)

    def t(table, name):
        return table.get(name, 0.0)

    hvps = {"hessian.power_iteration": 0, "hessian.spectrum_deflated": 0,
            "hessian.hutchinson_trace": 0}
    refresh_hvps = 0
    passes_o3 = 0
    nodes = 0
    pairs = converged = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "oracle.hvp":
            h = _nearest(spans, i, "hessian.")
            if h >= 0:
                hvps[spans[h][NAME]] += 1
            if _has_ancestor(spans, i, "optim.step"):
                refresh_hvps += 1
        if name.startswith("oracle."):
            a = _nearest(spans, i, "sde.sde_coefficients")
            if a >= 0 and spans[a][NOTE] == 3:
                passes_o3 += 1
        elif name == "engine.backward":
            nodes += s[NOTE]
        elif name in ("hessian.power_iteration", "hessian.spectrum_deflated"):
            pairs += s[NOTE][0]
            converged += s[NOTE][1]

    oracle_names = [k for k in calls if k.startswith("oracle.")]
    o3_calls = sum(1 for s in spans
                   if s[NAME] == "sde.sde_coefficients" and s[NOTE] == 3)
    eig_hvps = hvps["hessian.power_iteration"] + hvps["hessian.spectrum_deflated"]

    out = {
        "engine.backward.calls": c("engine.backward"),
        "engine.backward.self_s": t(self_s, "engine.backward"),
        "engine.us_per_node": _ratio(t(self_s, "engine.backward") * 1e6, nodes),
        "oracle.loss.calls": c("oracle.loss"),
        "oracle.grad.calls": c("oracle.grad"),
        "oracle.hvp.calls": c("oracle.hvp"),
        "oracle.third.calls": c("oracle.third"),
        "oracle.forward_s": sum(self_s[k] for k in oracle_names),
        "oracle.grad.us": _ratio(t(total, "oracle.grad") * 1e6, c("oracle.grad")),
        "oracle.hvp.us": _ratio(t(total, "oracle.hvp") * 1e6, c("oracle.hvp")),
        "oracle.third.us": _ratio(t(total, "oracle.third") * 1e6, c("oracle.third")),
        "models.mlp_oracle.calls": c("models.mlp_oracle"),
        "models.mlp_oracle.self_s": t(self_s, "models.mlp_oracle"),
        "models.accuracy.self_s": t(self_s, "models.accuracy"),
        "data.sample_batch.self_s": t(self_s, "data.sample_batch"),
        "optim.step.calls": c("optim.step"),
        "optim.step.self_s": t(self_s, "optim.step"),
        "optim.refresh_hvps": refresh_hvps,
        "hessian.converged_frac": _ratio(converged, pairs),
        # With no pair converged this is every eigen-solver HVP spent.
        "hessian.hvps_per_converged_pair": eig_hvps / max(converged, 1),
        "sde.sde_coefficients.calls": c("sde.sde_coefficients"),
        "sde.sde_coefficients.total_s": t(total, "sde.sde_coefficients"),
        "sde.passes_per_call": _ratio(passes_o3, o3_calls),
        "sde.sigma_exact.self_s": t(self_s, "sde.sigma_exact"),
        "sde.euler_maruyama_step.self_s": t(self_s, "sde.euler_maruyama_step"),
        "runner.self_s": t(self_s, "runner"),
        "runner.probe_s": t(total, "runner.probe_row"),
        "metrics.write_csv.s": t(total, "metrics.write_csv"),
    }
    for name, count in hvps.items():
        out[f"{name}.calls"] = c(name)
        out[f"{name}.hvps"] = count
    return out
