"""Record and push: a tape pass at the point of the pass before it, with the
same builder, pushes the recorded tape instead of recording a new one."""

import numpy as np
import pytest

import samlab.oracle as oracle_mod
from samlab import engine as eng
from samlab.data import gen_synthetic, unstacked
from samlab.errors import NonFiniteLoss
from samlab.models import MlpSpec, init_params, mlp_builder, mlp_oracle
from samlab.optim import OptimizerConfig, init_state, step as optim_step
from samlab.oracle import (LossOracle, jet_pass, polynomial_oracle_1d,
                           quadratic_oracle)

ZOO_INPUTS = np.linspace(-1.0, 1.0, 15).reshape(5, 3)


def zoo_builder(tape, x):
    """A loss over a 12-coordinate leaf that takes each of the 13 ops,
    matmul with both operands on the tape."""
    a = eng.reshape(eng.slice1d(x, 0, 6), (2, 3))
    b = eng.reshape(eng.slice1d(x, 6, 12), (3, 2))
    z = eng.matmul(a, b)
    act = eng.mul(eng.gelu(z), eng.relu(eng.sub(z, 0.1)))
    logits = eng.add(eng.scale(act, 0.7), eng.pow_int(eng.add(z, 0.5), 3))
    layer = eng.dense(tape.const(ZOO_INPUTS), x, 0, (3, 2))
    penalty = eng.scale(eng.sum_all(eng.mul(layer, layer)), 0.1)
    return eng.add(eng.softmax_ce(logits, np.array([0, 1])), penalty)


def mlp_case(layers, activation, head, stack):
    spec = MlpSpec(layers, activation, head)
    ds = gen_synthetic(16 * max(stack, 1), layers[0], layers[-1], 1.0, 0)
    if not stack:
        return (mlp_builder(spec, ds.inputs, ds.labels),
                init_params(spec, 0).values)
    inputs = ds.inputs.reshape(stack, 16, layers[0])
    labels = ds.labels.reshape(stack, 16)
    x = np.stack([init_params(spec, s).values for s in range(stack)])
    return mlp_builder(spec, inputs, labels), x


def case(name):
    if name == "quadratic":
        a = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 3.0]])
        return (quadratic_oracle(a, np.array([0.1, -0.2, 0.3])).builder,
                np.array([0.4, -1.1, 0.7]))
    if name == "polynomial":
        return polynomial_oracle_1d([0.5, -1.0, 0.3, 2.0, -0.7]).builder, np.array([0.8])
    if name == "unstacked":
        spec = MlpSpec((3, 5, 2))
        ds = gen_synthetic(16, 3, 2, 1.0, 0)
        o = mlp_oracle(spec, ds.inputs, ds.labels)
        return unstacked(o), init_params(spec, 1).values[None, :]
    if name == "zoo":
        return zoo_builder, np.linspace(-0.9, 1.3, 12)
    activation, head, hidden, stack = name.split("-")
    layers = (3,) + (6,) * int(hidden) + (2,)
    return mlp_case(layers, activation, head, int(stack))


CASES = [f"{a}-{h}-{n}-{s}" for a, h in (("gelu", "ce"), ("relu", "mse"))
         for n in (1, 2) for s in (0, 3)] + ["quadratic", "polynomial",
                                             "unstacked", "zoo"]


def tangent_for(x, seed):
    return np.random.default_rng(seed).standard_normal(x.shape)


def fresh(builder, x, degree, u):
    """A pass that cannot hit the record: the pass before it is elsewhere."""
    jet_pass(builder, x + 1.0)
    return jet_pass(builder, x, degree, u, with_loss=True)


def assert_bit_equal(got, want):
    (loss_g, jet_g), (loss_w, jet_w) = got, want
    assert loss_g == loss_w
    assert len(jet_g) == len(jet_w)
    for g, w in zip(jet_g, jet_w):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_push_equals_fresh_pass_bit_for_bit(name):
    builder, x = case(name)
    u = tangent_for(x, 0)
    want = {k: fresh(builder, x, k, u) for k in (0, 1, 2)}
    # Coefficients 0 and 1 of a degree-2 pass are those of a degree-1 pass,
    # so rows that need degree 1 can share a degree-2 push.
    assert_bit_equal((want[2][0], want[2][1][:2]), want[1])
    # Record at degree 0, then push at degrees 2, 1, 0 and 2 again: each
    # push equals the fresh pass of its degree, and none records anew.
    jet_pass(builder, x)
    record = oracle_mod._held_tape
    for k in (2, 1, 0, 2):
        assert_bit_equal(jet_pass(builder, x, k, u, with_loss=True), want[k])
        assert oracle_mod._held_tape is record
    # A record made at degree 2 pushes at degree 1 as well.
    fresh(builder, x, 2, u)
    assert_bit_equal(jet_pass(builder, x, 1, u, with_loss=True), want[1])


@pytest.mark.parametrize("name", ["gelu-ce-1-3", "relu-mse-2-0", "zoo"])
def test_push_along_a_new_tangent(name):
    # Every push seeds its own tangent; nothing of an earlier one remains.
    builder, x = case(name)
    u, v = tangent_for(x, 1), tangent_for(x, 2)
    want = fresh(builder, x, 2, v)
    jet_pass(builder, x, 2, u)
    assert_bit_equal(jet_pass(builder, x, 2, v, with_loss=True), want)


@pytest.mark.parametrize("name", ["gelu-ce-1-3", "relu-mse-2-0", "zoo"])
def test_returned_arrays_keep_their_bits(name):
    # Rules write in place only into arrays their own call allocated, so no
    # later pass, push or optimizer step reaches an array handed out before.
    # Each array is copied as it is returned; losses come back as floats.
    builder, x = case(name)
    oracle = LossOracle(builder, x.shape[-1])
    u, v = tangent_for(x, 4), tangent_for(x, 5)
    held = []

    def hold(*arrays):
        held.extend((a, a.copy()) for a in arrays)

    for k in (0, 1, 2):
        hold(*fresh(builder, x, k, u)[1])
        hold(*jet_pass(builder, x, k, v))             # a push
    hold(oracle.grad(x + 0.5), oracle.grad(x, with_loss=True)[1],
         oracle.hvp(x, u))
    cfg = OptimizerConfig("eigensam", lr=0.1, rho=0.05, alpha=0.3,
                          refresh_every=2, power_iters=2, momentum=0.9,
                          weight_decay=1e-3)
    state = init_state(x.shape[-1], (0,) * len(x) if x.ndim > 1 else 0)
    x1, state = optim_step(x, oracle, cfg, state)
    hold(x1, state.momentum_buf, state.eigvec)

    for k in (0, 1, 2):
        fresh(builder, x, k, v)
        for j in (2, 0, 1):
            jet_pass(builder, x, j, u)
    oracle.loss(x1)                                    # forward only
    optim_step(x1, oracle, cfg, state)
    for a, want in held:
        assert a.tobytes() == want.tobytes()


class TestRecordKey:
    def setup_method(self):
        self.builder, self.x = case("gelu-ce-1-0")
        self.u = tangent_for(self.x, 3)

    def test_other_builder_over_equal_data_misses(self):
        spec = MlpSpec((3, 6, 2))
        ds = gen_synthetic(16, 3, 2, 1.0, 0)
        other = mlp_builder(spec, ds.inputs, ds.labels)
        jet_pass(self.builder, self.x)
        record = oracle_mod._held_tape
        got = jet_pass(other, self.x, 1, self.u, with_loss=True)
        assert oracle_mod._held_tape is not record
        assert_bit_equal(got, fresh(self.builder, self.x, 1, self.u))

    @pytest.mark.parametrize("move", ["ulp", "negative-zero"])
    def test_other_bytes_miss(self, move):
        near = self.x.copy()
        if move == "ulp":
            near[0] = np.nextafter(near[0], np.inf)
        else:
            at = np.flatnonzero(near == 0.0)[0]   # biases start at +0.0
            near[at] = -0.0
            assert np.array_equal(near, self.x)
        want = fresh(self.builder, near, 1, self.u)
        jet_pass(self.builder, self.x)
        record = oracle_mod._held_tape
        got = jet_pass(self.builder, near, 1, self.u, with_loss=True)
        assert oracle_mod._held_tape is not record
        assert_bit_equal(got, want)

    def test_caller_mutating_x_does_not_reach_the_record(self):
        want = fresh(self.builder, self.x, 1, self.u)
        moved = fresh(self.builder, self.x + 0.25, 1, self.u)
        x = self.x.copy()
        g, = jet_pass(self.builder, x)
        record = oracle_mod._held_tape
        g += 1.0                      # the caller's gradient is its own
        x += 0.25                     # and so is its point
        assert_bit_equal(jet_pass(self.builder, self.x, 1, self.u,
                                  with_loss=True), want)
        assert oracle_mod._held_tape is record
        assert_bit_equal(jet_pass(self.builder, x, 1, self.u, with_loss=True),
                         moved)
        assert oracle_mod._held_tape is not record


class TestNonFinite:
    def test_nonfinite_loss_raises_on_every_pass(self):
        def build(tape, x):
            return eng.sum_all(eng.pow_int(x, 3))

        x = np.array([1e200])
        for degree in (0, 1, 0, 2):
            with pytest.raises(NonFiniteLoss):
                jet_pass(build, x, degree, np.ones(1))
            assert oracle_mod._recorded_at is None

    def test_nonfinite_gradient_raises_on_every_pass(self):
        # The loss 1e-310 * 1e300 * 1e300 is finite; its gradient 1e600 is not.
        def build(tape, x):
            return eng.scale(eng.scale(eng.sum_all(x), 1e300), 1e300)

        x = np.array([1e-310])
        for degree in (0, 0, 1):
            with pytest.raises(NonFiniteLoss):
                jet_pass(build, x, degree, np.ones(1))
            assert oracle_mod._recorded_at is None

    def test_nonfinite_push_raises_and_keeps_the_record(self):
        def build(tape, x):
            return eng.sum_all(eng.pow_int(x, 2))

        x = np.array([1.0, -2.0])
        want = fresh(build, x, 1, np.ones(2))
        jet_pass(build, x)
        record = oracle_mod._held_tape
        with pytest.raises(NonFiniteLoss):
            jet_pass(build, x, 1, np.array([1e308, 0.0]))
        assert oracle_mod._held_tape is record
        assert_bit_equal(jet_pass(build, x, 1, np.ones(2), with_loss=True), want)
