"""The fused ``gelu`` and ``softmax_ce`` engine ops.

The MLP loss tape is built from them, so they are checked against the
independent references in ``helpers``: the straight-line numpy MLP, central
differences of its loss, and central differences of tape gradients and HVPs.
"""

import numpy as np
import pytest

from helpers import (central_diff_derivatives, central_diff_grad, gelu,
                     straightline_mlp_loss)
from samlab import engine as eng
from samlab.data import gen_synthetic, mlp_family
from samlab.models import MlpSpec, init_params, mlp_builder, mlp_oracle
from samlab.oracle import jet_pass

SPECS = [MlpSpec((2, 16, 2)), MlpSpec((12, 32, 10))]
IDS = ["2,16,2", "12,32,10"]


def ce_batch(spec, n=24, seed=4):
    ds = gen_synthetic(n, spec.layers[0], min(spec.layers[0], spec.layers[-1]),
                       1.0, seed)
    return ds.inputs, ds.labels


def point(spec, seed=1):
    # Init weights plus nonzero biases, so no coordinate sits at a symmetry.
    rng = np.random.default_rng(seed)
    return init_params(spec, seed).values + 0.1 * rng.standard_normal(spec.dim)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_loss_and_grad_match_straightline_mlp(spec):
    inputs, labels = ce_batch(spec)
    o = mlp_oracle(spec, inputs, labels)
    x = point(spec)

    def ref(v):
        return straightline_mlp_loss(spec, v, inputs, labels)

    assert o.loss(x) == pytest.approx(ref(x), rel=1e-13)
    g = o.grad(x)
    np.testing.assert_allclose(g, central_diff_grad(ref, x, h=1e-6),
                               rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_hvp_and_third_match_central_differences(spec):
    inputs, labels = ce_batch(spec)
    o = mlp_oracle(spec, inputs, labels)
    x = point(spec)
    u = np.random.default_rng(7).standard_normal(spec.dim)
    u /= np.linalg.norm(u)
    h = 1e-5
    _, hu = o.jet(x, u, 1)
    fd_hu = (o.grad(x + h * u) - o.grad(x - h * u)) / (2 * h)
    np.testing.assert_allclose(hu, fd_hu, rtol=1e-6,
                               atol=1e-7 * np.abs(hu).max())
    g2, hu2, half_third = o.jet(x, u, 2)
    assert g2.tobytes() == o.grad(x).tobytes()
    assert hu2.tobytes() == hu.tobytes()
    fd_third = (o.jet(x + h * u, u, 1)[1] - o.jet(x - h * u, u, 1)[1]) / (2 * h)
    np.testing.assert_allclose(half_third, fd_third / 2, rtol=1e-5,
                               atol=1e-6 * np.abs(half_third).max())


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_stacked_leaf_gives_each_batch_its_own_jet(spec):
    # 40 rows in batches of 16: two full batches on one stack, and a ragged
    # tail of 8 rows on a stack of its own.
    ds = gen_synthetic(40, spec.layers[0], min(spec.layers[0], spec.layers[-1]),
                       1.0, 2)
    family = mlp_family(spec, ds, 16)
    stacks = list(family.stacks())
    assert [len(ids) for ids, _ in stacks] == [2, 1]
    rng = np.random.default_rng(3)
    xs = point(spec) + 0.05 * rng.standard_normal((len(family), spec.dim))
    us = rng.standard_normal((len(family), spec.dim))
    for degree in (0, 1, 2):
        tangent = None if degree == 0 else us
        for ids, builder in stacks:
            got = jet_pass(builder, xs[ids], degree,
                           None if tangent is None else tangent[ids])
            for row, b in enumerate(ids):
                want = jet_pass(family.oracles[b].builder, xs[b], degree,
                                None if tangent is None else tangent[b])
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g[row], w, rtol=1e-12,
                                               atol=1e-14 * np.abs(w).max())


def ce_grad(logits, labels, degree=0, tangent=None):
    tape = eng.Tape(degree=degree)
    z = tape.leaf(logits, tangent=tangent)
    out = eng.softmax_ce(z, labels)
    return out, eng.backward(out, [z])[0]


def reference_ce(logits, labels):
    # Numpy log-sum-exp with the max shift, and its gradient (p - onehot) / n.
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    p = e / e.sum(axis=-1, keepdims=True)
    rows = np.arange(labels.size)
    loss = np.mean(np.log(e.sum(axis=-1)) + m[:, 0] - logits[rows, labels])
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0
    return loss, (p - onehot) / labels.size


class TestSoftmaxCe:
    def test_large_logits_stay_finite(self):
        rng = np.random.default_rng(0)
        logits = 1e3 * rng.standard_normal((6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        out, (g, hu, half_third) = ce_grad(logits, labels, degree=2,
                                          tangent=rng.standard_normal((6, 4)))
        loss, grad = reference_ce(logits, labels)
        assert np.isfinite(out.value) and out.value > 100.0
        assert float(out.value) == pytest.approx(loss, rel=1e-14)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(hu))
        assert np.all(np.isfinite(half_third))
        np.testing.assert_allclose(g, grad, rtol=1e-13, atol=1e-16)

    def test_label_on_the_max_logit(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 3))
        labels = logits.argmax(axis=1)
        out, (g,) = ce_grad(logits, labels)
        loss, grad = reference_ce(logits, labels)
        assert float(out.value) == pytest.approx(loss, rel=1e-14)
        np.testing.assert_allclose(g, grad, rtol=1e-13, atol=1e-16)
        rows = np.arange(5)
        assert np.all(g[rows, labels] < 0.0)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-16)

    def test_single_class_rows_have_zero_gradient(self):
        logits = np.array([[3.0], [-2.0], [1e3]])
        labels = np.zeros(3, dtype=np.int64)
        out, jet = ce_grad(logits, labels, degree=2, tangent=np.ones((3, 1)))
        assert float(out.value) == 0.0
        for c in jet:
            assert not c.any()

    def test_stacked_sum_of_batch_means(self):
        # Leading axes sum the per-batch means: row b of the adjoint is
        # batch b's own gradient.
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 5, 4))
        labels = rng.integers(0, 4, size=(3, 5))
        out, (g,) = ce_grad(logits, labels)
        refs = [reference_ce(logits[b], labels[b]) for b in range(3)]
        assert float(out.value) == pytest.approx(sum(r[0] for r in refs),
                                                 rel=1e-14)
        for b in range(3):
            np.testing.assert_allclose(g[b], refs[b][1], rtol=1e-13,
                                       atol=1e-16)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_builder_rejects_out_of_range_labels(self, bad):
        spec = MlpSpec((2, 4, 3))
        with pytest.raises(ValueError, match="labels out of range"):
            mlp_builder(spec, np.zeros((2, 2)), np.array([0, bad]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_mse_builder_rejects_out_of_range_labels(self, bad):
        # Integer labels of the MSE head pass the same check, when the
        # builder is made, as those of CE: a -1 would otherwise pick the
        # last class of each one-hot target.
        spec = MlpSpec((2, 4, 3), head="mse")
        with pytest.raises(ValueError, match="labels out of range"):
            mlp_builder(spec, np.zeros((2, 2)), np.array([0, bad]))


@pytest.mark.parametrize("activation,head,ops", [
    ("gelu", "ce", ("gelu", "softmax_ce")),
    # ReLU and the MSE head are unchanged by the fused ops: relu is one
    # node, and MSE is a const, sub, mul, sum and scale.
    ("relu", "ce", ("relu", "softmax_ce")),
    ("gelu", "mse", ("gelu", "const", "sub", "mul", "sum", "scale")),
])
def test_one_hidden_layer_tape_nodes(activation, head, ops):
    # Guards the fused ops: a one-hidden-layer GeLU/CE loss tape has 5
    # nodes, against 31 for the composite tanh-GeLU and log-sum-exp graphs
    # and per-layer slice/reshape/matmul/add nodes. The data batch is a
    # plain array that the first dense reads, not a node. A stacked tape
    # has the same nodes: its stack axis adds no reshape.
    spec = MlpSpec((12, 32, 10), activation, head)
    for lead in ((), (2,)):
        build = mlp_builder(spec, np.zeros(lead + (32, 12)),
                            np.resize(np.arange(32) % 10, lead + (32,)))
        tape = eng.Tape(degree=0)
        build(tape, tape.leaf(np.zeros(lead + (spec.dim,))))
        act, *loss = ops
        want = ("leaf", "dense", act, "dense") + tuple(loss)
        assert tuple(node.op for node in tape.nodes) == want
        if (activation, head) == ("gelu", "ce"):
            assert len(tape.nodes) == 5


def op_jets(op, coeffs, g):
    """(forward jet, VJP of the adjoint jet g) of ``op`` applied to one
    node whose jet is ``coeffs``."""
    tape = eng.Tape(degree=len(coeffs) - 1)
    a = eng.Tensor(tape, "leaf", tuple(coeffs), (), (), True)
    out = op(a)
    return out.jet, out.vjps[0](tuple(g))


class TestGeluJets:
    # 0 and +-1e-3 sit where u = c0 (a + c1 a^3) is near 0; at |a| >= 6,
    # t = tanh(u) saturates and the derivatives vanish.
    A0 = np.array([0.0, 1e-3, -1e-3, 0.5, -1.3, 2.7, -2.2, 6.0, -6.0, 8.0,
                   -8.0, 30.0, -30.0])

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_forward_and_vjp_match_central_differences(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = (self.A0,) + tuple(rng.standard_normal(self.A0.shape)
                                    for _ in range(degree))
        g = tuple(rng.standard_normal(self.A0.shape) for _ in range(degree + 1))
        got, vjp = op_jets(eng.gelu, coeffs, g)
        d1, d2, d3 = central_diff_derivatives(gelu, self.A0)
        # The jet of f' along the input's jet, and the input's jet mapped
        # through f, from the finite-difference derivatives.
        fp = (d1, d2 * coeffs[1] if degree else None,
              d2 * coeffs[2] + 0.5 * d3 * coeffs[1] ** 2 if degree > 1 else None)
        want = (gelu(self.A0), d1 * coeffs[1] if degree else None,
                d1 * coeffs[2] + 0.5 * d2 * coeffs[1] ** 2 if degree > 1 else None)
        want_vjp = eng.jmul(g, fp[:degree + 1])
        # Coefficient m of the forward jet involves f up to its m-th
        # derivative, that of the VJP up to the (m+1)-th; the differences
        # of order 0-3 are good to about 1e-15, 4e-11, 5e-8 and 4e-6.
        tols = (1e-12, 1e-8, 1e-5, 1e-4)
        assert len(got) == len(vjp) == degree + 1
        for m in range(degree + 1):
            np.testing.assert_allclose(got[m], want[m], rtol=0,
                                       atol=tols[m])
            np.testing.assert_allclose(vjp[m], want_vjp[m], rtol=0,
                                       atol=tols[m + 1])

    def test_saturated_inputs_are_exact(self):
        # Where t rounds to +-1, f is a or 0 and f', f'', f''' are 1 or 0
        # exactly, with no NaN from the vanishing sech^2.
        a0 = np.array([30.0, -30.0, 1e3, -1e3])
        ones = np.ones_like(a0)
        got, vjp = op_jets(eng.gelu, (a0, ones, ones), (ones, ones, ones))
        step = (a0 > 0).astype(np.float64)
        for c, want in zip(got, (a0 * step, step, step)):
            np.testing.assert_array_equal(c, want)
        for c, want in zip(vjp, (step, step, step)):
            np.testing.assert_array_equal(c, want)


class TestConstantMatmul:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_the_generic_product(self, degree, side):
        # A constant operand (no grad) against the same values on a node
        # that requires grad with zero higher coefficients, which takes the
        # generic jet product: equal jets and an equal VJP for the weight.
        rng = np.random.default_rng(degree)
        data = rng.standard_normal((3, 64, 12))
        weight = tuple(rng.standard_normal((3, 12, 8)) for _ in range(degree + 1))
        if side == "right":
            data, weight = data.swapaxes(-1, -2), tuple(
                c.swapaxes(-1, -2) for c in weight)
        shape = (3, 64, 8) if side == "left" else (3, 8, 64)
        g = tuple(rng.standard_normal(shape) for _ in range(degree + 1))
        results = []
        for constant in (True, False):
            tape = eng.Tape(degree=degree)
            zeros = (np.zeros_like(data),) * degree
            fixed = (tape.const(data) if constant else
                     eng.Tensor(tape, "leaf", (data,) + zeros, (), (), True))
            w = eng.Tensor(tape, "leaf", weight, (), (), True)
            pair = (fixed, w) if side == "left" else (w, fixed)
            out = eng.matmul(*pair)
            slot = 1 if side == "left" else 0
            results.append((out.jet, out.vjps[slot](g)))
            if constant:
                assert out.vjps[1 - slot] is None
        (jet_c, vjp_c), (jet_g, vjp_g) = results
        for got, want in zip(jet_c + vjp_c, jet_g + vjp_g):
            np.testing.assert_allclose(got, want, rtol=1e-15,
                                       atol=1e-15 * np.abs(want).max())


class TestDense:
    # A layer (4, 3) at offset 5 of a 27-coordinate leaf, with 7 coordinates
    # after its bias, so an adjoint written outside the layer's 15 shows.
    OFFSET, SHAPE, D = 5, (4, 3), 27

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["flat", "stacked"])
    @pytest.mark.parametrize("input_kind", ["const", "leaf"])
    def test_matches_the_composite_layer_bit_for_bit(self, degree, lead,
                                                     input_kind):
        # dense against slice1d/reshape/matmul/add over the same jets: equal
        # forward jets, and equal adjoint jets for the leaf and the input
        # after a backward sweep through a square, whose adjoint has
        # nonzero coefficients at every degree.
        rng = np.random.default_rng(degree)
        x_jet = tuple(rng.standard_normal(lead + (self.D,))
                      for _ in range(degree + 1))
        h_jet = tuple(rng.standard_normal(lead + (6, self.SHAPE[0]))
                      for _ in range(degree + 1))
        fan_in, fan_out = self.SHAPE
        mid = self.OFFSET + fan_in * fan_out
        results = []
        for fused in (True, False):
            tape = eng.Tape(degree=degree)
            x = eng.Tensor(tape, "leaf", x_jet, (), (), True)
            h = (tape.const(h_jet[0]) if input_kind == "const" else
                 eng.Tensor(tape, "leaf", h_jet, (), (), True))
            if fused:
                out = eng.dense(h, x, self.OFFSET, self.SHAPE)
                # A constant input is not a parent: x's VJP is the only one.
                assert out.parents == ((x,) if input_kind == "const"
                                       else (h, x))
            else:
                w = eng.reshape(eng.slice1d(x, self.OFFSET, mid),
                                lead + self.SHAPE)
                b = eng.slice1d(x, mid, mid + fan_out)
                if lead:
                    b = eng.reshape(b, lead + (1, fan_out))
                out = eng.add(eng.matmul(h, w), b)
            loss = eng.sum_all(eng.mul(out, out))
            wrt = [x] if input_kind == "const" else [x, h]
            results.append((out.jet, eng.backward(loss, wrt)))
        (jet_f, adj_f), (jet_c, adj_c) = results
        assert len(jet_f) == len(jet_c) == degree + 1
        for got, want in zip(jet_f, jet_c):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        for got_adj, want_adj in zip(adj_f, adj_c):
            for got, want in zip(got_adj, want_adj):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
