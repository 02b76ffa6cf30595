"""Loss oracle queries: examples, invariants, and error paths."""

import gc
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import central_diff_grad, straightline_mlp_loss, zoo_oracle, zoo_specs
from samlab import engine as eng
from samlab.data import gen_synthetic
from samlab.errors import NonFiniteLoss, ZeroDirection
from samlab.models import (MlpSpec, accuracy, init_params, loss_and_accuracy,
                           mlp_oracle)
from samlab.oracle import (EPS0_FIRST, LossOracle, ParamVector, jet_pass,
                           polynomial_oracle_1d, quadratic_oracle)


def mlp_282():
    spec = MlpSpec((2, 8, 2))
    ds = gen_synthetic(32, 2, 2, 4.0, seed=0)
    return spec, ds, mlp_oracle(spec, ds.inputs, ds.labels), init_params(spec, 0)


class TestLoss:
    def test_quadratic_value(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        assert oracle.loss(np.array([2.0])) == pytest.approx(2.0)

    def test_uniform_softmax_is_log_k(self):
        spec = MlpSpec((3, 4))
        x = ParamVector(np.zeros(spec.dim))  # zero weights: equal logits
        oracle = mlp_oracle(spec, np.ones((5, 3)), np.zeros(5, dtype=int))
        assert oracle.loss(x) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_mlp_matches_straightline_forward(self):
        spec, ds, oracle, x = mlp_282()
        reference = straightline_mlp_loss(spec, x.values, ds.inputs, ds.labels)
        assert oracle.loss(x.values) == pytest.approx(reference, rel=1e-12)

    def test_nonfinite_loss_raises(self):
        oracle = LossOracle(lambda tape, x: eng.sum_all(eng.pow_int(x, 3)), 1)
        with pytest.raises(NonFiniteLoss):
            oracle.loss(np.array([1e200]))

    def test_wrong_length_rejected(self):
        oracle = quadratic_oracle(np.eye(2))
        with pytest.raises(ValueError):
            oracle.loss(np.zeros(3))


class TestGrad:
    def test_quadratic(self):
        oracle = quadratic_oracle(np.array([[1.0]]))
        assert oracle.grad(ParamVector(np.array([3.0])))[0] == pytest.approx(3.0)

    def test_zero_at_interpolating_minimum(self):
        # Linear map that reproduces the targets exactly: MSE gradient is 0.
        spec = MlpSpec((2, 2), head="mse")
        w = np.array([[2.0, 0.0], [0.0, -1.0]])
        params = np.concatenate([w.ravel(), np.zeros(2)])
        inputs = np.random.default_rng(0).standard_normal((6, 2))
        oracle = mlp_oracle(spec, inputs, inputs @ w)
        np.testing.assert_allclose(oracle.grad(params), 0.0, atol=1e-14)

    def test_central_difference_agreement_on_mlp(self):
        spec, ds, oracle, x = mlp_282()
        g = oracle.grad(x.values)
        fd = central_diff_grad(oracle.loss, x.values)
        assert np.linalg.norm(g - fd) / (1 + np.linalg.norm(g)) < 1e-5

    def test_loss_beside_gradient_from_one_pass(self):
        spec, ds, oracle, x = mlp_282()
        loss, g = oracle.grad(x.values, with_loss=True)
        assert loss == oracle.loss(x.values)
        np.testing.assert_array_equal(g, oracle.grad(x.values))

    def test_stacked_gradient_is_row_by_row(self):
        spec, ds, _, _ = mlp_282()
        xs = np.stack([init_params(spec, s).values for s in (0, 1)])
        stacked = mlp_oracle(spec, np.stack([ds.inputs[:16], ds.inputs[16:]]),
                             np.stack([ds.labels[:16], ds.labels[16:]]))
        got = stacked.grad(xs)
        for r, rows in enumerate((slice(0, 16), slice(16, 32))):
            want = mlp_oracle(spec, ds.inputs[rows], ds.labels[rows]).grad(xs[r])
            np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=1e-15)


class TestHvp:
    def test_diagonal_quadratic_exact(self):
        oracle = quadratic_oracle(np.diag([2.0, 3.0]))
        out = oracle.hvp(np.zeros(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [2.0, 3.0], atol=1e-14)

    def test_quartic_fd_mode(self):
        # f = x^4 / 4 at x = 1 has curvature 3 x^2; direction of length 2.
        oracle = polynomial_oracle_1d([0, 0, 0, 0, 0.25], mode="fd")
        out = oracle.hvp(np.array([1.0]), np.array([2.0]))
        assert out[0] == pytest.approx(6.0, abs=1e-6)

    def test_eigenvector_relation(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        oracle = quadratic_oracle(a)
        v = np.array([1.0, 1.0]) / np.sqrt(2)  # eigenvector, eigenvalue 3
        np.testing.assert_allclose(oracle.hvp(np.zeros(2), v), 3.0 * v, atol=1e-12)

    def test_zero_direction_fd(self):
        oracle = quadratic_oracle(np.eye(2), mode="fd")
        with pytest.raises(ZeroDirection):
            oracle.hvp(np.zeros(2), np.zeros(2))

    def test_symmetry_and_linearity(self):
        rng = np.random.default_rng(7)
        for spec in zoo_specs():
            oracle = zoo_oracle(spec)
            x = init_params(spec, 1).values
            u = rng.standard_normal(spec.dim)
            v = rng.standard_normal(spec.dim)
            hu, hv = oracle.hvp(x, u), oracle.hvp(x, v)
            sym = abs(v @ hu - u @ hv)
            assert sym < 1e-6 * (1 + np.linalg.norm(u) * np.linalg.norm(v))
            combo = oracle.hvp(x, 0.3 * u - 1.7 * v)
            np.testing.assert_allclose(combo, 0.3 * hu - 1.7 * hv, atol=1e-8)

    def test_fd_is_the_central_difference_bit_for_bit(self):
        # perfbench/make_refs.py builds the spectrum refs from fd hvp columns.
        rng = np.random.default_rng(12)
        for spec in zoo_specs():
            fd = zoo_oracle(spec, mode="fd")
            x = init_params(spec, 2).values
            v = rng.standard_normal(spec.dim)
            h = EPS0_FIRST * (1.0 + np.linalg.norm(x))
            vbar = v / np.linalg.norm(v)
            want = ((fd.grad(x + h * vbar) - fd.grad(x - h * vbar)) / (2.0 * h)
                    * np.linalg.norm(v))
            assert fd.hvp(x, v).tobytes() == want.tobytes()

    def test_mode_agreement_on_zoo(self):
        rng = np.random.default_rng(11)
        for spec in zoo_specs():
            exact = zoo_oracle(spec, mode="exact")
            fd = zoo_oracle(spec, mode="fd")
            x = init_params(spec, 2).values
            v = rng.standard_normal(spec.dim)
            he, hf = exact.hvp(x, v), fd.hvp(x, v)
            assert np.linalg.norm(he - hf) / np.linalg.norm(he) < 1e-4


class TestThirdDirectional:
    def test_cubic(self):
        oracle = polynomial_oracle_1d([0, 0, 0, 1.0])
        out = oracle.third_directional(np.array([2.0]), np.array([1.0]))
        assert out[0] == pytest.approx(6.0, rel=1e-12)

    def test_quadratic_vanishes(self):
        oracle = quadratic_oracle(np.array([[4.0, 1.0], [1.0, 2.0]]))
        out = oracle.third_directional(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_x1sq_x2(self):
        # f = x1^2 x2, u = e1: gradient of u^T H u = 2 x2 is (0, 2) anywhere.
        def build(tape, x):
            x1 = eng.sum_all(eng.slice1d(x, 0, 1))
            x2 = eng.sum_all(eng.slice1d(x, 1, 2))
            return eng.mul(eng.mul(x1, x1), x2)

        oracle = LossOracle(build, 2)
        out = oracle.third_directional(np.array([0.4, -1.3]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-12)

    def test_fd_dense_matches_exact(self):
        spec = MlpSpec((2, 5, 2))
        exact = zoo_oracle(spec, mode="exact")
        fd = zoo_oracle(spec, mode="fd")
        x = init_params(spec, 3).values
        u = np.random.default_rng(1).standard_normal(spec.dim)
        we = exact.third_directional(x, u)
        wf = fd.third_directional(x, u)
        assert np.linalg.norm(we - wf) / np.linalg.norm(we) < 1e-6

    def test_directional_form(self):
        oracle = polynomial_oracle_1d([0, 0, 0, 1.0])
        out = oracle.third_directional_along(np.array([2.0]), np.array([1.0]),
                                             np.array([0.5]))
        assert out == pytest.approx(3.0, rel=1e-12)

    def test_fd_dense_matches_exact_at_d1240(self):
        # d = 30*30 + 30 + 30*10 + 10 = 1240: both modes give the dense
        # vector from one degree-2 jet (one tape pass, or 5 gradients in fd
        # mode), so neither has a size limit, and they agree.
        spec = MlpSpec((30, 30, 10))
        rng = np.random.default_rng(4)
        inputs, labels = rng.standard_normal((4, 30)), np.arange(4) % 10
        x = init_params(spec, 0).values
        u, w = rng.standard_normal((2, spec.dim))
        exact = mlp_oracle(spec, inputs, labels)
        fd = mlp_oracle(spec, inputs, labels, mode="fd")
        v = exact.third_directional(x, u)
        assert v.shape == (spec.dim,) and np.abs(v).max() > 0.0
        assert float(w @ v) == exact.third_directional_along(x, u, w)
        vf = fd.third_directional(x, u)
        assert np.linalg.norm(vf - v) / np.linalg.norm(v) < 1e-6
        assert float(w @ vf) == fd.third_directional_along(x, u, w)

    @pytest.mark.parametrize("layers", [(2, 5, 2), (30, 30, 10)],
                             ids=["d27", "d1240"])
    def test_fd_jet_gradient_count(self, layers):
        # A degree-2 fd jet is the gradient at x and two pairs along u: 5
        # gradients at any d (degree 1: one pair).
        spec = MlpSpec(layers)
        rng = np.random.default_rng(6)
        inputs, labels = rng.standard_normal((4, layers[0])), np.arange(4) % 2
        fd = mlp_oracle(spec, inputs, labels, mode="fd")
        grads = []
        fd.grad = (lambda f: lambda x: grads.append(1) or f(x))(fd.grad)
        x = init_params(spec, 0).values
        u = rng.standard_normal(spec.dim)
        g, hu, _ = fd.jet(x, u, 2)
        assert len(grads) == 5
        mean, hu1 = fd.jet(x, u, 1)
        assert len(grads) == 7
        # Coefficient 1 does not depend on the degree; at degree 1 the
        # gradient is the mean of the central pair.
        assert hu1.tobytes() == hu.tobytes()
        assert np.linalg.norm(mean - g) <= 1e-8 * np.linalg.norm(g)
        fd.third_directional(x, u)
        assert len(grads) == 12

    def test_zero_direction(self):
        oracle = polynomial_oracle_1d([0, 0, 0, 1.0])
        with pytest.raises(ZeroDirection):
            oracle.third_directional(np.array([1.0]), np.array([0.0]))


class TestGradientCheckZoo:
    def test_ten_random_points_per_spec(self):
        rng = np.random.default_rng(13)
        for spec in zoo_specs():
            oracle = zoo_oracle(spec)
            for _ in range(10):
                x = rng.standard_normal(spec.dim) * 0.7
                g = oracle.grad(x)
                fd = central_diff_grad(oracle.loss, x)
                assert np.linalg.norm(g - fd) / (1 + np.linalg.norm(g)) < 1e-5


class TestDeterminism:
    def test_bit_identical_repeat(self):
        spec, ds, oracle, x = mlp_282()
        v = np.linspace(-1, 1, spec.dim)
        assert oracle.loss(x.values) == oracle.loss(x.values)
        assert oracle.grad(x.values).tobytes() == oracle.grad(x.values).tobytes()
        assert oracle.hvp(x.values, v).tobytes() == oracle.hvp(x.values, v).tobytes()


class TestTapeLifetime:
    def test_at_most_one_finished_tape_is_alive(self):
        # A tape is a Tape<->Tensor reference cycle. With the cyclic
        # collector off, only jet_pass itself can free the tapes of its
        # earlier passes.
        spec, ds, oracle, x = mlp_282()
        v = np.linspace(-1, 1, spec.dim)
        tape = eng.Tape(degree=1)
        oracle.builder(tape, tape.leaf(x.values, tangent=v))
        per_tape = len(tape.nodes)
        tape.nodes.clear()
        first = jet_pass(oracle.builder, x.values, 1, v)
        kept = [c.copy() for c in first]
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                jet_pass(oracle.builder, x.values, 1, v)
            live = sum(isinstance(o, eng.Tensor) for o in gc.get_objects())
        finally:
            gc.enable()
        assert live <= per_tape
        for got, want in zip(first, kept):
            np.testing.assert_array_equal(got, want)

    def test_forward_only_passes_keep_one_tape(self):
        spec, ds, oracle, x = mlp_282()
        tape = eng.Tape()
        oracle.builder(tape, tape.leaf(x.values))
        per_tape = len(tape.nodes)
        tape.nodes.clear()
        want = (loss_and_accuracy(spec, x.values, ds.inputs, ds.labels),
                oracle.loss(x), accuracy(spec, x, ds.inputs, ds.labels))
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                got = (loss_and_accuracy(spec, x.values, ds.inputs, ds.labels),
                       oracle.loss(x), accuracy(spec, x, ds.inputs, ds.labels))
                assert got == want
            live = sum(isinstance(o, eng.Tensor) for o in gc.get_objects())
        finally:
            gc.enable()
        assert live <= per_tape
        assert want[0] == (want[1], want[2])


# Run in a fresh interpreter with samlab imported: allocate, touch and free
# `count` arrays of `shape`, a few rounds to warm up, then print the minor
# page faults of 100 more rounds.
_CHURN = """
import resource, sys
import numpy as np
import samlab.oracle
shape, count = tuple(map(int, sys.argv[1].split(","))), int(sys.argv[2])

def faults(rounds):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        arrays = [np.ones(shape) for _ in range(count)]
        del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(5)
print(faults(100))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's")
class TestAllocatorPolicy:
    """Memory a pass frees stays in the process: freeing arrays and making
    them again faults no pages in."""

    @pytest.mark.parametrize("shape, count", [
        ("8192", 32),       # 2 MiB of 64 KiB blocks, freed at the heap's top
        ("1024,32", 8),     # 256 KiB blocks, above glibc's 128 KiB mmap floor
    ])
    def test_churn_faults_no_pages_in(self, shape, count):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", _CHURN, shape, str(count)],
                             env=env, capture_output=True, text=True, check=True)
        # Under glibc's defaults the 100 rounds fault 20,800-28,900 and
        # 35,200 pages in (Xeon, glibc 2.36); kept, they fault 0. The bound,
        # one fault per round, leaves room for the interpreter's own
        # allocations and is 200 times below the smaller default count.
        assert int(out.stdout) <= 100
