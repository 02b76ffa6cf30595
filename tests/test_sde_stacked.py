"""Stacked per-batch SDE terms against the per-oracle loop as reference.

An exact-mode ``mlp_family`` evaluates every batch of a stack on one tape;
the same family without its stacks runs the per-oracle loop. Both must give
the same per-batch vectors, live-batch mask, drift and diffusion.
"""

import numpy as np
import pytest

import samlab.data
from helpers import dense_hessian
from samlab.data import Dataset, OracleFamily, gen_synthetic, mlp_family
from samlab.errors import NonFiniteLoss
from samlab.models import MlpSpec, init_params
from samlab.sde import _per_batch_terms, sde_coefficients

RTOL = 1e-12

CASES = {
    "ce-full": (MlpSpec((2, 16, 2)), 256),
    "ce-ragged": (MlpSpec((2, 16, 2)), 250),
    "mse-ragged": (MlpSpec((2, 6, 3), "gelu", "mse"), 250),
    "relu-ragged": (MlpSpec((2, 16, 2), "relu", "ce"), 250),
}


def dataset(spec, n, seed=3):
    return gen_synthetic(n, spec.layers[0], min(spec.layers[0], spec.layers[-1]),
                         1.0, seed)


def stacked_and_looped(spec, ds, batch_size=32):
    stacked = mlp_family(spec, ds, batch_size)
    plain = mlp_family(spec, ds, batch_size)
    return stacked, OracleFamily(plain.oracles, plain.weights)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= RTOL * scale


def floor_below_one_batch(family, x):
    """A gradient floor that exactly one batch (the flattest) falls under."""
    norms = sorted(np.linalg.norm(o.grad(x)) for o in family.oracles)
    return 0.5 * (norms[0] + norms[1])


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("order", [2, 3])
def test_stacked_terms_match_loop(case, order):
    spec, n = CASES[case]
    stacked, looped = stacked_and_looped(spec, dataset(spec, n))
    assert len(list(stacked.stacks())) == (1 if n % 32 == 0 else 2)
    x = init_params(spec, 1).values
    tau = floor_below_one_batch(looped, x)
    got = _per_batch_terms(stacked, x, order == 3, tau)
    want = _per_batch_terms(looped, x, order == 3, tau)
    for g, w in zip(got[:3], want[:3]):
        assert_close(g, w)
    degenerate = [np.linalg.norm(g) < tau for g in want[0]]
    assert sum(degenerate) == 1
    np.testing.assert_array_equal(got[3], np.logical_not(degenerate))
    np.testing.assert_array_equal(want[3], got[3])
    b = degenerate.index(True)
    assert not got[1][b].any() and not got[2][b].any()

    dd_s, dm_s = sde_coefficients(stacked, x, 0.2, order, "exact", tau=tau)
    dd_l, dm_l = sde_coefficients(looped, x, 0.2, order, "exact", tau=tau)
    assert_close(dd_s.combined(), dd_l.combined())
    assert_close(dm_s.sigma, dm_l.sigma)
    assert dd_s.hvp_calls == dd_l.hvp_calls == len(stacked) - 1


def test_stack_budget_splits_and_matches_loop(monkeypatch):
    # 82 + 32 * 20 = 722 elements per full batch: a budget of 2000 puts two
    # full batches in a stack, so 7 full batches and the tail need 5 stacks.
    monkeypatch.setattr(samlab.data, "STACK_ELEMENTS", 2000)
    spec, n = CASES["ce-ragged"]
    stacked, looped = stacked_and_looped(spec, dataset(spec, n))
    stacks = [ids.tolist() for ids, _ in stacked.stacks()]
    assert stacks == [[0, 1], [2, 3], [4, 5], [6], [7]]
    x = init_params(spec, 1).values
    tau = floor_below_one_batch(looped, x)
    got = _per_batch_terms(stacked, x, True, tau)
    want = _per_batch_terms(looped, x, True, tau)
    for g, w in zip(got[:3], want[:3]):
        assert_close(g, w)
    assert got[3].sum() == want[3].sum() == len(stacked) - 1


def test_fd_family_loops_without_extra_gradients():
    # An fd-mode family has no stacks; its loop takes one gradient per batch
    # and one jet along the unit gradient, and agrees with the exact terms.
    spec, n = CASES["ce-full"]
    ds = dataset(spec, n)
    fd = mlp_family(spec, ds, 32, mode="fd")
    stacked, _ = stacked_and_looped(spec, ds)
    assert fd.stacks is None
    x = init_params(spec, 1).values
    grads = []
    for oracle in fd.oracles:
        oracle.grad = (lambda f: lambda x: grads.append(1) or f(x))(oracle.grad)
    got = _per_batch_terms(fd, x, False, 1e-12)
    want = _per_batch_terms(stacked, x, False, 1e-12)
    # One gradient per batch, then the pair of the degree-1 jet.
    assert len(grads) == 3 * len(fd)
    assert got[3].sum() == want[3].sum() == len(fd)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[1], want[1], rtol=1e-5, atol=1e-7)
    # Order 3: the degree-2 jet adds the gradient at x and a second pair,
    # 6 gradients per batch at any d.
    del grads[:]
    got = _per_batch_terms(fd, x, True, 1e-12)
    want = _per_batch_terms(stacked, x, True, 1e-12)
    assert len(grads) == 6 * len(fd)
    assert got[3].sum() == want[3].sum() == len(fd)
    for g, w in zip(got[1:3], want[1:3]):
        assert np.linalg.norm(g - w) <= 1e-6 * np.linalg.norm(w)


def test_stacked_hvp_matches_dense_hessian():
    spec, n = CASES["ce-ragged"]
    ds = dataset(spec, n)
    stacked, looped = stacked_and_looped(spec, ds)
    x = init_params(spec, 2).values
    t1s, t2s, _, _ = _per_batch_terms(stacked, x, False, 1e-12)
    b = len(looped) - 1                    # the ragged tail batch
    u = t1s[b] / np.linalg.norm(t1s[b])
    h = dense_hessian(looped.oracles[b], x)
    np.testing.assert_allclose(t2s[b], h @ u, rtol=1e-9, atol=1e-12)


def test_nonfinite_batch_raises():
    spec, n = CASES["ce-ragged"]
    ds = dataset(spec, n)
    inputs = ds.inputs.copy()
    inputs[100, 0] = np.nan                # inside the fourth batch
    stacked, looped = stacked_and_looped(spec, Dataset(inputs, ds.labels))
    x = init_params(spec, 0).values
    for family in (stacked, looped):
        with pytest.raises(NonFiniteLoss):
            sde_coefficients(family, x, 0.2, 3, "none")


@pytest.mark.parametrize("diffusion", ["none", "sampled", "exact"])
def test_order3_runs_at_d746(diffusion):
    # d = 746: exact mode takes the dense third-order vectors from the
    # stacked degree-2 pass, fd mode from a 5-gradient jet per batch, and
    # exact diffusion factors Sigma, at any d.
    spec = MlpSpec((12, 32, 10))
    ds = gen_synthetic(64, 12, 10, 1.0, 0)
    stacked, looped = stacked_and_looped(spec, ds)
    x = init_params(spec, 0).values
    assert spec.dim == 746
    got = _per_batch_terms(stacked, x, True, 1e-12)
    want = _per_batch_terms(looped, x, True, 1e-12)
    for g, w in zip(got[:3], want[:3]):
        assert_close(g, w)
    fd = mlp_family(spec, ds, 32, mode="fd")
    w = np.random.default_rng(5).standard_normal(spec.dim)
    for b, oracle in enumerate(fd.oracles):
        u = got[0][b] / np.linalg.norm(got[0][b])
        third = oracle.third_directional(x, u)
        assert np.linalg.norm(third - got[2][b]) <= 1e-6 * np.linalg.norm(got[2][b])
        along = oracle.third_directional_along(x, u, w)
        assert float(w @ got[2][b]) == pytest.approx(along, rel=1e-6)
    for order in (3, "aligned-rho", "aligned-rho2"):
        drifts = []
        for family in (stacked, fd):
            dd, noise = sde_coefficients(family, x, 0.2, order, diffusion)
            drifts.append(dd.combined())
            assert np.isfinite(drifts[-1]).all()
            if noise is not None:
                assert np.isfinite(noise.draw(0, 0)).all()
        if order == 3:
            assert np.linalg.norm(drifts[1] - drifts[0]) <= 1e-6 * np.linalg.norm(drifts[0])
