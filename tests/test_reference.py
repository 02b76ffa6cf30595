"""The tape against the straight-line numpy MLP of ``reference``.

The reference shares no code with the engine, so a pass that builds the
wrong graph, or a VJP that drops or misplaces a term, shows here as an
O(1) relative error, however its bits compare with those of the parent.
"""

import numpy as np
import pytest

import reference
from helpers import zoo_specs
from samlab.data import gen_synthetic
from samlab.models import MlpSpec, init_params, mlp_builder, mlp_oracle
from samlab.oracle import jet_pass

# The zoo's GeLU specs and their ReLU twins: both activations, both heads;
# then two hidden layers, so a hidden layer's adjoint reaches another.
SPECS = list(zoo_specs()) + [MlpSpec(s.layers, "relu", s.head)
                             for s in zoo_specs()] + [
    MlpSpec((3, 5, 4, 2), "gelu", "ce"), MlpSpec((2, 5, 4, 3), "relu", "mse")]
IDS = [f"{'-'.join(map(str, s.layers))}-{s.activation}-{s.head}"
       for s in SPECS]

# Engine and reference evaluate the same sums in different orders, so they
# agree to rounding: each entry sums at most n * max width = 24 * 8 terms,
# each with relative error a few eps (2.2e-16), which bounds the difference
# by about 1e-13 of the largest term. The bound below is 1e-11 of the
# largest entry, 100 times that (measured: at most 5e-16); a wrong or
# missing term is O(1).
RTOL = 1e-11


def batch(spec, stack, n=24, seed=5):
    """Inputs, labels or targets, and a point off the initialization: one
    batch, or ``stack`` batches stacked with one parameter row each."""
    rows = n * max(stack, 1)
    classes = min(spec.layers[0], spec.layers[-1])
    ds = gen_synthetic(rows, spec.layers[0], max(classes, 1), 3.0, seed)
    labels = ds.labels
    if spec.head == "mse":
        labels = np.random.default_rng(seed).standard_normal(
            (rows, spec.layers[-1]))
    rng = np.random.default_rng(seed + 1)
    x = np.stack([init_params(spec, s).values for s in range(max(stack, 1))])
    x = x + 0.1 * rng.standard_normal(x.shape)
    if not stack:
        return ds.inputs, labels, x[0]
    return (ds.inputs.reshape(stack, n, -1),
            labels.reshape((stack, n) + labels.shape[1:]), x)


def ref(spec, *args):
    return reference.loss_and_grad(spec.layers, spec.activation, spec.head,
                                   *args)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=RTOL * np.abs(want).max())


@pytest.mark.parametrize("stack", [0, 3], ids=["flat", "stacked"])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_grad_and_jet_pass_match_the_reference(spec, stack):
    inputs, labels, x = batch(spec, stack)
    want_loss, want = ref(spec, x, inputs, labels)
    oracle = mlp_oracle(spec, inputs, labels)
    loss, g = oracle.grad(x, with_loss=True)
    assert g.shape == want.shape
    assert loss == pytest.approx(want_loss, rel=RTOL)
    assert_close(g, want)
    loss, (g,) = jet_pass(mlp_builder(spec, inputs, labels), x + 0.0,
                          with_loss=True)
    assert loss == pytest.approx(want_loss, rel=RTOL)
    assert_close(g, want)


@pytest.mark.parametrize("stack", [0, 3], ids=["flat", "stacked"])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_hvp_matches_the_reference(spec, stack):
    # A fresh degree-1 pass, then a push at the same point along another
    # tangent: both against the hand-written forward-over-reverse pass.
    inputs, labels, x = batch(spec, stack)
    oracle = mlp_oracle(spec, inputs, labels)
    rng = np.random.default_rng(9)
    for _ in range(2):
        v = rng.standard_normal(x.shape)
        want = reference.hvp(spec.layers, spec.activation, spec.head, x,
                             inputs, labels, v)
        assert_close(oracle.hvp(x, v), want)


# third(u, u) against the reference's central difference D(h) of H u along a
# unit u. D(h) = third(u, u) + h^2 p / 6 + O(h^4), p being the fifth
# derivative of the loss along u, so at h = 1e-4 the truncation is
# 1.7e-9 |p|. Rounding adds about eps |H u| / h = 2.2e-12 |H u| per unit of
# the HVP's own relative rounding, which is a few hundred eps at most for
# these sums of a few hundred terms: under 1e-9 |H u| in all. On these nets
# |p| and |H u| are below 100 times the largest entry of third (measured: 11
# and 3), so D(h) is within 3e-7 of it; the bound is 1e-6 (measured: at most
# 2e-8). A wrong or missing term is O(1).
THIRD_H = 1e-4
THIRD_RTOL = 1e-6


def unit_rows(shape, seed):
    u = np.random.default_rng(seed).standard_normal(shape)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


@pytest.mark.parametrize("stack", [0, 3], ids=["flat", "stacked"])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_third_matches_the_reference(spec, stack, monkeypatch):
    # A fresh degree-2 pass, then a push of its tape at the same point
    # along another tangent: one recorded tape for both.
    import samlab.oracle

    real, passes = samlab.oracle._tape_pass, []
    monkeypatch.setattr(samlab.oracle, "_tape_pass",
                        lambda *a: passes.append(1) or real(*a))
    inputs, labels, x = batch(spec, stack)
    oracle = mlp_oracle(spec, inputs, labels)
    for seed in (11, 12):
        u = unit_rows(x.shape, seed)
        want = reference.third(spec.layers, spec.activation, spec.head, x,
                               inputs, labels, u, THIRD_H)
        np.testing.assert_allclose(2.0 * oracle.jet(x, u, 2)[2], want, rtol=0,
                                   atol=THIRD_RTOL * np.abs(want).max())
    assert len(passes) == 1


def test_integer_mse_labels_are_one_hot_targets():
    spec = MlpSpec((3, 5, 3), "gelu", "mse")
    ds = gen_synthetic(12, 3, 3, 2.0, 1)
    x = init_params(spec, 2).values
    want = ref(spec, x, ds.inputs, np.eye(3)[ds.labels])
    got = ref(spec, x, ds.inputs, ds.labels)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
    assert_close(mlp_oracle(spec, ds.inputs, ds.labels).grad(x), want[1])


def test_reference_gradient_is_its_loss_derivative():
    # The reference checked on its own: central differences of its loss,
    # step 1e-6, good to about 1e-9 of the gradient's scale.
    spec = MlpSpec((3, 7, 4))
    inputs, labels, x = batch(spec, 0, n=8)
    _, g = ref(spec, x, inputs, labels)
    h = 1e-6
    fd = np.array([(ref(spec, x + h * e, inputs, labels)[0]
                    - ref(spec, x - h * e, inputs, labels)[0]) / (2 * h)
                   for e in np.eye(x.size)])
    np.testing.assert_allclose(g, fd, rtol=0, atol=1e-8 * np.abs(g).max())


def test_reference_hvp_is_its_gradient_derivative():
    # Central differences of the reference gradient along v, step 1e-6.
    spec = MlpSpec((3, 5, 4, 2))
    inputs, labels, x = batch(spec, 0, n=8)
    v = np.random.default_rng(2).standard_normal(x.size)
    h = 1e-6
    fd = (ref(spec, x + h * v, inputs, labels)[1]
          - ref(spec, x - h * v, inputs, labels)[1]) / (2 * h)
    want = reference.hvp(spec.layers, spec.activation, spec.head, x, inputs,
                         labels, v)
    np.testing.assert_allclose(want, fd, rtol=0,
                               atol=1e-7 * np.abs(want).max())


def test_reference_third_is_second_order():
    # D(h) - third(u, u) = c h^2 + O(h^4), so halving h divides the change
    # in D by four.
    spec = MlpSpec((3, 5, 4, 2))
    inputs, labels, x = batch(spec, 0, n=8)
    u = unit_rows(x.shape, 2)
    d = [reference.third(spec.layers, spec.activation, spec.head, x, inputs,
                         labels, u, h) for h in (4e-3, 2e-3, 1e-3)]
    ratio = np.abs(d[0] - d[1]).max() / np.abs(d[1] - d[2]).max()
    assert ratio == pytest.approx(4.0, rel=0.05)
