"""Datasets and deterministic mini-batch sampling.

Synthetic data are Gaussian blobs with one class mean per class placed on a
scaled coordinate simplex (pairwise mean distance equals ``margin``). The IDX
reader ingests the classic big-endian image/label format, optionally
gzip-compressed. All sampling is a pure function of (seed, policy, step).
"""

from __future__ import annotations

import functools
import gzip
import struct
from dataclasses import dataclass

import numpy as np

from . import engine as eng
from .errors import BadMagic, CountMismatch, EmptyDataset, TruncatedFile
from .models import MlpSpec, mlp_builder, mlp_oracle
from .oracle import LossOracle
from .rng import STREAM_BATCH, STREAM_DATA_TEST, STREAM_DATA_TRAIN, stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

POLICY_SHUFFLE = "shuffle-each-epoch"
POLICY_REPLACEMENT = "with-replacement"
POLICY_ENUMERATION = "full-enumeration"
POLICIES = (POLICY_SHUFFLE, POLICY_REPLACEMENT, POLICY_ENUMERATION)

# Per-coefficient size of a stacked tape, in float64 elements of the leaf and
# the activations (see stack_plan): a large model runs one batch per tape.
STACK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        labels = np.asarray(self.labels)
        object.__setattr__(self, "labels", labels)
        if self.inputs.shape[0] != labels.shape[0]:
            raise ValueError("inputs and labels disagree on row count")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def take(self, idx: np.ndarray) -> tuple:
        return self.inputs[idx], self.labels[idx]


def gen_synthetic(n: int, dim: int, classes: int, margin: float, seed: int,
                  split: str = "train") -> Dataset:
    """Balanced Gaussian blobs; label of row i is i mod classes."""
    if n < 1 or dim < 1 or classes < 1:
        raise ValueError("n, dim and classes must all be >= 1")
    if classes > dim:
        raise ValueError("the simplex embedding needs dim >= classes")
    sid = STREAM_DATA_TRAIN if split == "train" else STREAM_DATA_TEST
    rng = stream(seed, sid)
    means = np.zeros((classes, dim))
    np.fill_diagonal(means[:, :classes], margin / np.sqrt(2.0))
    labels = np.arange(n, dtype=np.int64) % classes
    inputs = means[labels] + rng.standard_normal((n, dim))
    return Dataset(inputs, labels)


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedFile(f"{what}: expected {count} bytes, got {len(data)}")
    return data


def _open_idx(path):
    return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label pair; pixels scaled to [0, 1]."""
    with _open_idx(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "image header"))
        if magic != IDX_IMAGE_MAGIC:
            raise BadMagic(f"image magic {magic:#010x}, expected {IDX_IMAGE_MAGIC:#010x}")
        raw = _read_exact(fh, count * rows * cols, "image data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with _open_idx(labels_path) as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, "label header"))
        if magic != IDX_LABEL_MAGIC:
            raise BadMagic(f"label magic {magic:#010x}, expected {IDX_LABEL_MAGIC:#010x}")
        labels = np.frombuffer(_read_exact(fh, label_count, "label data"), dtype=np.uint8)
    if count != label_count:
        raise CountMismatch(f"{count} images vs {label_count} labels")
    return Dataset(images / 255.0, labels.astype(np.int64))


@dataclass(frozen=True)
class BatchSampler:
    """Deterministic batch index source; see POLICIES for the options."""

    batch_size: int
    seed: int
    policy: str = POLICY_SHUFFLE

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown sampling policy {self.policy!r}")


def enumeration_batches(n: int, batch_size: int) -> list:
    """The fixed partition [0,B), [B,2B), ... used for exact expectations."""
    if n < 1:
        raise EmptyDataset("cannot partition an empty dataset")
    return [np.arange(lo, min(lo + batch_size, n))
            for lo in range(0, n, batch_size)]


def sample_batch(sampler: BatchSampler, dataset: Dataset, step: int) -> np.ndarray:
    """Index set for the given step, fully determined by (seed, policy, step).
    Shuffled batches are read-only views of their epoch's permutation."""
    n = dataset.n
    if n == 0:
        raise EmptyDataset("dataset has no rows")
    if step < 0:
        raise ValueError("step must be >= 0")
    b = sampler.batch_size
    if sampler.policy == POLICY_REPLACEMENT:
        return stream(sampler.seed, STREAM_BATCH, step).integers(0, n, size=b)
    if sampler.policy == POLICY_ENUMERATION:
        parts = enumeration_batches(n, b)
        return parts[step % len(parts)]
    # shuffle-each-epoch: one permutation per epoch, last partial batch dropped
    per_epoch = n // b
    if per_epoch == 0:
        raise EmptyDataset(f"batch size {b} exceeds dataset size {n}")
    epoch, slot = divmod(step, per_epoch)
    perm = _epoch_permutation(sampler.seed, epoch, n)
    return perm[slot * b:(slot + 1) * b]


@functools.lru_cache(maxsize=32)
def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """The shuffle of one epoch, drawn once and shared by its steps; it is
    read-only, so a caller cannot change the batches of later steps."""
    perm = stream(seed, STREAM_BATCH, epoch).permutation(n)
    perm.flags.writeable = False
    return perm


class OracleFamily:
    """Per-batch oracles over a fixed partition, with exact expectations.

    Expectations weight each batch by its share of the dataset, so linear
    per-batch statistics average exactly to the full-dataset statistic.

    The family owns which batches share a tape. ``stacks(picks)`` yields
    ``(positions, builder)`` pairs covering each position of ``picks`` once,
    position i being batch ``picks[i]`` and each batch once by default; a
    builder takes a ``(len(positions), dim)`` leaf and returns the sum of
    those batches' losses (:func:`samlab.oracle.jet_pass`). A family over a
    dataset (:func:`mlp_family`) stacks its batches as :func:`stack_plan`
    decides; by default each position is a stack of its own. A stack is one
    exact tape pass, so every oracle must be in exact mode.
    """

    def __init__(self, oracles: list, weights: np.ndarray, stacks=None):
        if len(oracles) != len(weights):
            raise ValueError("one weight per oracle required")
        if any(o.mode != "exact" for o in oracles):
            raise ValueError("a family takes exact-mode oracles only")
        self.oracles = list(oracles)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.weights = self.weights / self.weights.sum()
        self.dim = oracles[0].dim
        self.stacks = stacks or (lambda picks=range(len(oracles)): (
            (np.array([i]), unstacked(self.oracles[b]))
            for i, b in enumerate(picks)))

    def __len__(self) -> int:
        return len(self.oracles)

    def pick(self, seed: int, stream_id: int, step: int) -> int:
        """Batch index drawn with probability equal to its weight, from the
        uniform draw of the (seed, stream_id, step) stream."""
        u = stream(seed, stream_id, step).random()
        idx = int(np.searchsorted(np.cumsum(self.weights), u, side="right"))
        return min(idx, len(self.weights) - 1)

    def picked(self, picks) -> LossOracle:
        """Stacked oracle whose row s is the loss on batch ``picks[s]``, its
        tapes those of ``stacks(picks)``. A plan of one stack is that
        stack's builder. A plan of more reads each stack's rows of the
        ``(S, d)`` leaf through a constant 0/1 selection matrix, which
        copies them exactly, and sums the stacks' losses."""
        plan = list(self.stacks(picks))
        if len(plan) == 1:
            return LossOracle(plan[0][1], self.dim)
        tapes = [(np.eye(len(picks))[ids], builder) for ids, builder in plan]

        def build(tape, leaf):
            losses = [builder(tape, eng.matmul(tape.const(rows), leaf))
                      for rows, builder in tapes]
            return functools.reduce(eng.add, losses)
        return LossOracle(build, self.dim)

    def mean(self, rows: np.ndarray) -> np.ndarray:
        """The weighted mean of per-batch rows ``(B, d)``."""
        return (self.weights[:, None] * rows).sum(axis=0)


def mlp_family(spec: MlpSpec, dataset: Dataset, batch_size: int) -> OracleFamily:
    """Oracles over the enumeration partition, stacked by
    :func:`stack_plan`. Each part is a contiguous range, so its oracle
    holds a view of the data. Whole copies of the partition (the SDE
    terms' tiling) are planned once per copy count, other picks per call,
    and each stack's builder on demand: a family holds no copy of its data."""
    parts = enumeration_batches(dataset.n, batch_size)
    oracles = [mlp_oracle(spec, *dataset.take(slice(idx[0], idx[-1] + 1)))
               for idx in parts]
    tiling = functools.lru_cache(maxsize=2)(lambda rows: stack_plan(spec, parts * rows))

    def stacks(picks=range(len(parts))):
        rows = len(picks) // len(parts)
        tiled = list(picks) == [*range(len(parts))] * rows
        plan = tiling(rows) if tiled else stack_plan(spec, [parts[b] for b in picks])
        return ((ids, mlp_builder(spec, *dataset.take(at))) for ids, at in plan)
    return OracleFamily(oracles, np.array([len(p) for p in parts], dtype=np.float64),
                        stacks=stacks)


def stack_plan(spec: MlpSpec, index_sets) -> list:
    """Which data index sets share a stacked tape of the model: one
    ``(positions, rows)`` pair per tape, ``positions`` indexing
    ``index_sets`` and ``rows`` the ``(B, n)`` stack of those sets. Sets
    are grouped by row count n, largest first, and each group is cut in
    order into tapes of B * (dim + n * sum(layer widths)) <= STACK_ELEMENTS,
    at least one set per tape. Every position is in exactly one tape."""
    sizes = np.array([len(s) for s in index_sets])
    plan = []
    for size in sorted(set(sizes.tolist()), reverse=True):
        at = np.flatnonzero(sizes == size)
        per_tape = max(1, STACK_ELEMENTS // (spec.dim + size * sum(spec.layers)))
        for lo in range(0, len(at), per_tape):
            chunk = at[lo:lo + per_tape]
            plan.append((chunk, np.stack([index_sets[i] for i in chunk])))
    return plan


def unstacked(oracle):
    """The oracle's builder over a (1, dim) leaf: a stack of one batch."""
    return lambda tape, leaf: oracle.builder(tape, eng.reshape(leaf, (oracle.dim,)))


def analytic_family(oracles: list) -> OracleFamily:
    """Equal-weight family over hand-built oracles (toy problems, tests)."""
    return OracleFamily(list(oracles), np.ones(len(oracles)))
