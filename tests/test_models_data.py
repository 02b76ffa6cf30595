"""Model initialization, synthetic data, IDX ingestion, batch sampling."""

import gzip
import struct

import numpy as np
import pytest

import samlab.data
from samlab import engine as eng
from samlab.data import (POLICY_ENUMERATION, POLICY_REPLACEMENT, POLICY_SHUFFLE,
                         BatchSampler, Dataset, enumeration_batches,
                         gen_synthetic, load_idx, mlp_family, sample_batch,
                         stack_plan)
from samlab.errors import BadMagic, CountMismatch, EmptyDataset, TruncatedFile
from samlab.models import MlpSpec, init_params, mlp_builder, mlp_oracle
from samlab.rng import STREAM_BATCH, stream


def by_layout(spec, values):
    """Named parameter blocks, sliced from the flat vector by spec.layout."""
    return {name: values[offset:offset + int(np.prod(shape))].reshape(shape)
            for name, shape, offset in spec.layout}


class TestInitParams:
    def test_biases_zero(self):
        spec = MlpSpec((3, 5, 2))
        named = by_layout(spec, init_params(spec, 9).values)
        assert np.all(named["b0"] == 0.0)
        assert np.all(named["b1"] == 0.0)

    def test_deterministic(self):
        spec = MlpSpec((4, 6, 3))
        a = init_params(spec, 7).values
        b = init_params(spec, 7).values
        assert a.tobytes() == b.tobytes()
        assert init_params(spec, 8).values.tobytes() != a.tobytes()

    def test_parameter_count_2_8_2(self):
        assert MlpSpec((2, 8, 2)).dim == 42

    def test_layout_and_dim_computed_once(self):
        spec = MlpSpec([2, 16, 2])
        assert spec.layout == (("w0", (2, 16), 0), ("b0", (16,), 32),
                               ("w1", (16, 2), 48), ("b1", (2,), 80))
        assert spec.dim == 82
        assert spec.layout is spec.layout
        # The kept values are not fields: the spec stays frozen, equal to
        # and hashed like a fresh spec of the same widths.
        assert spec == MlpSpec((2, 16, 2))
        assert hash(spec) == hash(MlpSpec((2, 16, 2)))
        with pytest.raises(AttributeError):
            spec.layers = (2, 2)

    def test_weight_range(self):
        spec = MlpSpec((10, 20, 5))
        named = by_layout(spec, init_params(spec, 0).values)
        for i, (fan_in, fan_out) in enumerate(((10, 20), (20, 5))):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = named[f"w{i}"]
            assert np.all(np.abs(w) <= bound)
            assert np.abs(w).max() > 0.5 * bound  # actually fills the range

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))
        with pytest.raises(ValueError):
            MlpSpec((4, 0, 2))
        with pytest.raises(ValueError):
            MlpSpec((4, 2), activation="sigmoid")


class TestGenSynthetic:
    def test_balanced_labels(self):
        ds = gen_synthetic(10, 4, 2, 3.0, seed=0)
        assert np.sum(ds.labels == 0) == 5
        assert np.sum(ds.labels == 1) == 5

    def test_wide_margin_linearly_separable(self):
        ds = gen_synthetic(200, 5, 3, 100.0, seed=1)
        # Nearest-class-mean is a linear classifier; fit on train, score train.
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(((ds.inputs[:, None, :] - means) ** 2).sum(axis=2), axis=1)
        assert np.all(pred == ds.labels)

    def test_first_row_frozen(self):
        # Pinned reproduction of the documented Philox stream.
        ds = gen_synthetic(8, 3, 2, 4.0, seed=0)
        expected = stream(0, 2).standard_normal((8, 3))[0].copy()
        expected[0] += 4.0 / np.sqrt(2.0)
        np.testing.assert_array_equal(ds.inputs[0], expected)

    def test_same_seed_same_data(self):
        a = gen_synthetic(16, 3, 2, 4.0, seed=3)
        b = gen_synthetic(16, 3, 2, 4.0, seed=3)
        assert a.inputs.tobytes() == b.inputs.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 3, 2, 1.0, 0)
        with pytest.raises(ValueError):
            gen_synthetic(4, 2, 3, 1.0, 0)


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path.write_bytes(blob)
    lab_path.write_bytes(struct.pack(">II", label_magic,
                                     n if label_count is None else label_count)
                         + labels.tobytes())
    return img_path, lab_path


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 13, 7] = 128
        img, lab = write_idx_pair(tmp_path, images, [3, 9])
        ds = load_idx(img, lab)
        assert ds.inputs.shape == (2, 784)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert ds.inputs[0, 0] == 1.0
        assert ds.inputs[1, 13 * 28 + 7] == pytest.approx(128 / 255)
        np.testing.assert_array_equal(ds.labels, [3, 9])

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                                  [0], image_magic=0x804)
        with pytest.raises(BadMagic):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                                  [0, 1, 1], label_count=3)
        with pytest.raises(CountMismatch):
            load_idx(img, lab)

    def test_truncated(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8),
                                  [0, 1], truncate_images=5)
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    def test_gzip_supported(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [7])
        gz = tmp_path / "images.idx.gz"
        gz.write_bytes(gzip.compress(img.read_bytes()))
        ds = load_idx(gz, lab)
        assert ds.labels[0] == 7


class TestSampler:
    def test_enumeration_partition(self):
        ds = gen_synthetic(6, 2, 2, 3.0, seed=0)
        sampler = BatchSampler(2, seed=0, policy=POLICY_ENUMERATION)
        np.testing.assert_array_equal(sample_batch(sampler, ds, 1), [2, 3])
        np.testing.assert_array_equal(sample_batch(sampler, ds, 0), [0, 1])
        # Cycles past the end of the partition.
        np.testing.assert_array_equal(sample_batch(sampler, ds, 4), [2, 3])

    def test_replacement_deterministic(self):
        ds = gen_synthetic(10, 2, 2, 3.0, seed=0)
        sampler = BatchSampler(4, seed=5, policy=POLICY_REPLACEMENT)
        a = sample_batch(sampler, ds, 3)
        b = sample_batch(sampler, ds, 3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample_batch(sampler, ds, 4))

    def test_shuffle_epoch_coverage_divisible(self):
        ds = gen_synthetic(12, 2, 2, 3.0, seed=0)
        sampler = BatchSampler(3, seed=1, policy=POLICY_SHUFFLE)
        seen = np.concatenate([sample_batch(sampler, ds, t) for t in range(4)])
        assert sorted(seen.tolist()) == list(range(12))

    def test_shuffle_drops_partial_batch(self):
        ds = gen_synthetic(10, 2, 2, 3.0, seed=0)
        sampler = BatchSampler(4, seed=1, policy=POLICY_SHUFFLE)
        epoch0 = np.concatenate([sample_batch(sampler, ds, t) for t in range(2)])
        assert len(epoch0) == 8
        assert len(set(epoch0.tolist())) == 8  # no repeats within the epoch
        # Step 2 starts epoch 1 with a fresh permutation.
        epoch1_first = sample_batch(sampler, ds, 2)
        assert len(epoch1_first) == 4

    def test_shuffle_is_a_pure_function_of_the_step(self):
        # The epoch permutation is drawn once and shared, read-only; the
        # order of the queries does not change any batch.
        ds = gen_synthetic(12, 2, 2, 3.0, seed=0)
        sampler = BatchSampler(4, seed=2, policy=POLICY_SHUFFLE)
        forward = [sample_batch(sampler, ds, t).copy() for t in range(7)]
        backward = [sample_batch(sampler, ds, t) for t in reversed(range(7))]
        for a, b in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(a, b)
        for t in range(7):
            epoch, slot = divmod(t, 3)
            perm = stream(2, STREAM_BATCH, epoch).permutation(12)
            np.testing.assert_array_equal(forward[t], perm[4 * slot:4 * slot + 4])
        batch = sample_batch(sampler, ds, 0)
        with pytest.raises(ValueError):
            batch[0] = 99

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            sample_batch(BatchSampler(2, 0, POLICY_ENUMERATION), ds, 0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchSampler(2, 0, "bogus")


class TestFamilyExpectations:
    def test_linear_statistic_matches_full_dataset(self):
        # Mean per-batch gradient over the enumeration equals the full-data
        # gradient, including with a remainder batch (weights are by size).
        spec = MlpSpec((2, 4, 2))
        ds = gen_synthetic(22, 2, 2, 4.0, seed=2)
        x = init_params(spec, 0).values
        family = mlp_family(spec, ds, batch_size=8)
        per_batch = [o.grad(x) for o in family.oracles]
        full = mlp_oracle(spec, ds.inputs, ds.labels).grad(x)
        np.testing.assert_allclose(family.mean(per_batch), full, atol=1e-12)

    def test_parts_are_each_batchs_data_rows(self):
        spec = MlpSpec((2, 4, 2))
        ds = gen_synthetic(22, 2, 2, 4.0, seed=2)
        x = init_params(spec, 0).values
        family = mlp_family(spec, ds, batch_size=8)
        parts = enumeration_batches(22, 8)
        assert len(family) == len(parts)
        for oracle, rows in zip(family.oracles, parts):
            assert oracle.loss(x) == mlp_oracle(spec, *ds.take(rows)).loss(x)

    def test_family_holds_no_copy_of_the_data(self):
        import tracemalloc

        spec = MlpSpec((256, 32, 10))
        ds = gen_synthetic(8192, 256, 10, 1.0, seed=0)
        tracemalloc.start()
        try:
            family = mlp_family(spec, ds, batch_size=32)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(family) == 256
        assert held < ds.inputs.nbytes / 10

    def test_mse_family_holds_no_one_hot_targets(self):
        # An MSE oracle builds its one-hot targets on each pass, so the
        # family holds what the CE family holds, not batch x classes floats.
        import tracemalloc

        ds = gen_synthetic(8192, 256, 10, 1.0, seed=0)
        held = {}
        for head in ("ce", "mse"):
            tracemalloc.start()
            try:
                family = mlp_family(MlpSpec((256, 32, 10), head=head), ds,
                                    batch_size=32)
                held[head] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del family
        one_hot = ds.labels.size * 10 * 8
        assert held["mse"] - held["ce"] < one_hot / 10

    def test_enumeration_batches_shapes(self):
        parts = enumeration_batches(10, 4)
        assert [len(p) for p in parts] == [4, 4, 2]
        with pytest.raises(EmptyDataset):
            enumeration_batches(0, 4)


class TestStackPlan:
    SPEC = MlpSpec((2, 16, 2))  # 82 + n * 20 elements per set of n rows

    def assert_valid_plan(self, plan, index_sets):
        positions = np.concatenate([at for at, _ in plan]).tolist()
        assert sorted(positions) == list(range(len(index_sets)))
        for at, rows in plan:
            sizes = {len(index_sets[i]) for i in at}
            assert len(sizes) == 1
            np.testing.assert_array_equal(
                rows, np.stack([index_sets[i] for i in at]))
            per_set = self.SPEC.dim + sizes.pop() * sum(self.SPEC.layers)
            assert len(at) == 1 or len(at) * per_set <= samlab.data.STACK_ELEMENTS

    @pytest.mark.parametrize("n,picks,budget,want", [
        # The family case: 7 full batches of 32 (722 elements each, two per
        # tape at 2000) and a tail of 26 rows on a tape of its own.
        (250, None, 2000, [[0, 1], [2, 3], [4, 5], [6], [7]]),
        # Repeated, ragged picks on 32, 32, 32, 4 rows: the 32-row pick
        # first, then the three 4-row picks on one tape.
        (100, [3, 3, 0, 3], None, [[2], [0, 1, 3]]),
        # A budget below one set still gives each set a tape.
        (100, [3, 3, 0, 3], 100, [[2], [0], [1], [3]]),
    ])
    def test_positions_sizes_and_capacity(self, monkeypatch, n, picks, budget,
                                          want):
        if budget is not None:
            monkeypatch.setattr(samlab.data, "STACK_ELEMENTS", budget)
        parts = enumeration_batches(n, 32)
        index_sets = parts if picks is None else [parts[b] for b in picks]
        plan = stack_plan(self.SPEC, index_sets)
        assert [at.tolist() for at, _ in plan] == want
        self.assert_valid_plan(plan, index_sets)


class TestBuilderChecksLabels:
    """A builder rejects labels or targets that do not match its inputs'
    rows when it is made, not at its first pass, and not by broadcasting."""

    INPUTS = np.arange(10.0).reshape(5, 2)

    def test_mse_targets_of_one_row_for_five_inputs(self):
        # They would broadcast over the 5 rows, and the loss would divide
        # by 1 row instead of 5.
        spec = MlpSpec((2, 4, 3), head="mse")
        with pytest.raises(ValueError, match="targets of shape"):
            mlp_builder(spec, self.INPUTS, np.ones((1, 3)))

    def test_mse_targets_of_the_wrong_width(self):
        spec = MlpSpec((2, 4, 3), head="mse")
        with pytest.raises(ValueError, match="targets of shape"):
            mlp_builder(spec, self.INPUTS, np.ones((5, 1)))

    @pytest.mark.parametrize("head", ["ce", "mse"])
    def test_three_labels_for_five_inputs(self, head):
        spec = MlpSpec((2, 4, 3), head=head)
        with pytest.raises(ValueError, match="labels of shape"):
            mlp_builder(spec, self.INPUTS, np.array([0, 1, 2]))

    def test_stacked_labels_of_other_batches(self):
        spec = MlpSpec((2, 4, 3))
        with pytest.raises(ValueError, match="labels of shape"):
            mlp_builder(spec, np.zeros((2, 5, 2)), np.zeros((3, 5), dtype=int))

    def test_matching_labels_and_targets_build(self):
        for head, labels in (("ce", np.array([0, 1, 2, 0, 1])),
                             ("mse", np.array([0, 1, 2, 0, 1])),
                             ("mse", np.ones((5, 3)))):
            spec = MlpSpec((2, 4, 3), head=head)
            loss = mlp_oracle(spec, self.INPUTS, labels).loss(
                init_params(spec, 0))
            assert np.isfinite(loss)

    def test_softmax_ce_keeps_its_own_check(self):
        # A direct caller of the engine op, which makes its label index on
        # every pass, still gets the op's own error.
        tape = eng.Tape(degree=0)
        z = tape.leaf(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="one label per row"):
            eng.softmax_ce(z, np.array([0, 1, 2]))
