"""Small fully-connected models over the flat-parameter engine.

Activations: GeLU (tanh form, the fused :func:`samlab.engine.gelu` with
the constants pinned there) and ReLU. GeLU is smooth, so spectral and SDE
probes default to it; ReLU is not three times differentiable and is meant
for optimizer-level runs only.

Loss heads: softmax cross-entropy over integer labels (the fused
:func:`samlab.engine.softmax_ce`, one tape node), and mean squared error
``sum((pred - target)^2) / (2 n)`` over vector targets (integer labels are
one-hot encoded for the MSE head on each pass, so an oracle keeps only the
labels). Each layer is one
:func:`samlab.engine.dense` node, which reads its weights and biases from
the flat parameter leaf and the data batch as a plain array, so a
one-hidden-layer GeLU/CE loss tape has 5 nodes, stacked or not.

A builder over stacked batches, inputs ``(B, n, in)`` with labels ``(B, n)``
or targets ``(B, n, out)``, takes a ``(B, d)`` parameter leaf and returns
the sum of the B per-batch losses, so one tape evaluates every batch (see
the stack axis in :mod:`samlab.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine as eng
from .oracle import LossOracle, ParamVector, _tape_pass
from .rng import STREAM_INIT, stream

ACTIVATIONS = ("gelu", "relu")
HEADS = ("ce", "mse")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., output), activation, and loss head."""

    layers: tuple
    activation: str = "gelu"
    head: str = "ce"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(int(w) for w in self.layers))
        if len(self.layers) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w < 1 for w in self.layers):
            raise ValueError("all layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown loss head {self.head!r}")

    # Both are computed on first use and kept: every oracle build reads dim
    # and every forward pass reads layout. The cache is not a field, so
    # equality and hashing still see the three fields only.
    @cached_property
    def layout(self) -> tuple:
        entries = []
        offset = 0
        for i, (fan_in, fan_out) in enumerate(zip(self.layers[:-1], self.layers[1:])):
            entries.append((f"w{i}", (fan_in, fan_out), offset))
            offset += fan_in * fan_out
            entries.append((f"b{i}", (fan_out,), offset))
            offset += fan_out
        return tuple(entries)

    @cached_property
    def dim(self) -> int:
        return sum(int(np.prod(shape)) for _, shape, _ in self.layout)


def init_params(spec: MlpSpec, seed: int) -> ParamVector:
    """Glorot-uniform weights, zero biases, drawn from the init stream."""
    rng = stream(seed, STREAM_INIT)
    values = np.zeros(spec.dim)
    for name, shape, offset in spec.layout:
        n = int(np.prod(shape))
        if name.startswith("w"):
            fan_in, fan_out = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            values[offset:offset + n] = rng.uniform(-a, a, size=n)
    return ParamVector(values)


def _forward_logits(x: eng.Tensor, spec: MlpSpec, inputs: np.ndarray) -> eng.Tensor:
    act = eng.gelu if spec.activation == "gelu" else eng.relu
    h = inputs
    for i, (_, shape, offset) in enumerate(spec.layout[::2]):
        h = eng.dense(act(h) if i else h, x, offset, shape)
    return h


def _mse_loss(tape: eng.Tape, logits: eng.Tensor, targets: np.ndarray) -> eng.Tensor:
    diff = eng.sub(logits, tape.const(targets))
    return eng.scale(eng.sum_all(eng.mul(diff, diff)), 0.5 / targets.shape[-2])


def _loss_head(spec: MlpSpec, inputs: np.ndarray, labels: np.ndarray):
    """``head(tape, logits)``: the loss node of the spec's head over one
    label, or one target row of output width, per input row. The CE label
    index is made here, once."""
    rows, width = inputs.shape[:-1], spec.layers[-1]
    if spec.head == "mse" and np.ndim(labels) != inputs.ndim - 1:
        targets = np.asarray(labels, dtype=np.float64)
        if targets.shape != rows + (width,):
            raise ValueError(f"targets of shape {targets.shape} do not match "
                             f"{rows} input rows of width {width}")
        return lambda tape, logits: _mse_loss(tape, logits, targets)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != rows:
        raise ValueError(f"labels of shape {labels.shape} do not match {rows} input rows")
    try:
        flat = eng.label_index(labels, width)
    except ValueError:
        raise ValueError("labels out of range for the output layer") from None
    if spec.head == "ce":
        return lambda tape, logits: eng.softmax_ce(logits, labels, flat)
    return lambda tape, logits: _mse_loss(tape, logits, np.eye(width)[labels])


def mlp_builder(spec: MlpSpec, inputs: np.ndarray, labels: np.ndarray):
    """Loss-graph builder over a data batch, for use in a LossOracle, or
    over stacked batches (see the module docstring)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[-1] != spec.layers[0]:
        raise ValueError("input width does not match the model spec")
    head = _loss_head(spec, inputs, labels)

    def build(tape, x):
        return head(tape, _forward_logits(x, spec, inputs))
    return build


def mlp_oracle(spec: MlpSpec, inputs: np.ndarray, labels: np.ndarray,
               mode: str = "exact") -> LossOracle:
    return LossOracle(mlp_builder(spec, inputs, labels), spec.dim, mode=mode)


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        return float("nan")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def accuracy(spec: MlpSpec, x: ParamVector, inputs: np.ndarray,
             labels: np.ndarray) -> float:
    """Share of rows whose largest logit is their integer label (NaN for
    vector targets), from one degree-0 pass. Raises NonFiniteLoss if a
    logit is not finite."""
    inputs = np.asarray(inputs, dtype=np.float64)
    logits, = _tape_pass(lambda tape, leaf: (
        _forward_logits(leaf, spec, inputs).value,), x.values)
    return _accuracy(logits, labels)


def loss_and_accuracy(spec: MlpSpec, x: np.ndarray, inputs: np.ndarray,
                      labels: np.ndarray) -> tuple:
    """(loss, accuracy) of the flat parameters x on a data batch, both from
    one degree-0 pass: the loss of ``mlp_oracle(spec, inputs, labels)`` at
    x and :func:`accuracy`, bit for bit. Raises NonFiniteLoss if the loss
    or a logit is not finite."""
    inputs = np.asarray(inputs, dtype=np.float64)
    head = _loss_head(spec, inputs, labels)

    def run(tape, leaf):
        logits = _forward_logits(leaf, spec, inputs)
        return head(tape, logits).value, logits.value

    loss, logits = _tape_pass(run, x)
    return float(loss), _accuracy(logits, labels)
