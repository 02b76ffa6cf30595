"""Stacked per-batch SDE terms against a per-oracle reference loop.

An ``mlp_family`` evaluates every batch of a stack on one tape; a family
built from the same oracles without stacks runs one batch per stack. Both
must agree with a loop of per-oracle ``grad`` and ``jet`` calls on the
per-batch vectors and the live-batch mask, and with each other on the
drift and diffusion.
"""

import numpy as np
import pytest

import samlab.data
import samlab.sde
from helpers import dense_hessian
from samlab.data import (Dataset, OracleFamily, analytic_family,
                         enumeration_batches, gen_synthetic, mlp_family)
from samlab.errors import NonFiniteLoss
from samlab.hessian import spectrum_deflated
from samlab.models import MlpSpec, init_params, mlp_oracle
from samlab.oracle import polynomial_oracle_1d
from samlab.sde import (_per_batch_terms, drift_aligned, one_step_moment_probe,
                        sde_coefficients)

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


def stacked_and_single(spec, ds, batch_size=32):
    """The mlp_family and a family of the same oracles, one per stack."""
    stacked = mlp_family(spec, ds, batch_size)
    return stacked, OracleFamily(stacked.oracles, stacked.weights)


def looped_terms(family, x, need_third, tau):
    """_per_batch_terms from a per-oracle gradient, then a jet along the unit
    gradient of each batch at or above the floor."""
    t1s, t2s, t3s = (np.zeros((len(family), family.dim)) for _ in range(3))
    live = np.zeros(len(family), dtype=bool)
    for b, oracle in enumerate(family.oracles):
        g = t1s[b] = oracle.grad(x)
        norm = np.linalg.norm(g)
        if norm < tau:
            continue
        live[b] = True
        jet = oracle.jet(x, g / norm, 2 if need_third else 1)
        t2s[b] = jet[1]
        if need_third:
            t3s[b] = 2.0 * jet[2]
    return t1s, t2s, t3s, live


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= RTOL * scale


def assert_terms_close(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert_close(g, w)
    np.testing.assert_array_equal(got[3], want[3])


def floor_below_one_batch(family, x):
    """A gradient floor that exactly one batch (the flattest) falls under."""
    norms = sorted(np.linalg.norm(o.grad(x)) for o in family.oracles)
    return 0.5 * (norms[0] + norms[1])


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("order", [2, 3])
def test_stacked_terms_match_loop(case, order):
    spec, n = CASES[case]
    stacked, single = stacked_and_single(spec, dataset(spec, n))
    assert len(list(stacked.stacks())) == (1 if n % 32 == 0 else 2)
    assert len(list(single.stacks())) == len(single)
    x = init_params(spec, 1).values
    tau = floor_below_one_batch(stacked, x)
    want = looped_terms(stacked, x, order == 3, tau)
    got = _per_batch_terms(stacked, x, order == 3, tau)
    assert_terms_close(got, want)
    assert_terms_close(_per_batch_terms(single, x, order == 3, tau), want)
    degenerate = [np.linalg.norm(g) < tau for g in want[0]]
    assert sum(degenerate) == 1
    np.testing.assert_array_equal(got[3], np.logical_not(degenerate))
    b = degenerate.index(True)
    assert not got[1][b].any() and not got[2][b].any()

    dd_s, dm_s = sde_coefficients(stacked, x, 0.2, order, "exact", tau=tau)
    dd_1, dm_1 = sde_coefficients(single, x, 0.2, order, "exact", tau=tau)
    assert_close(dd_s.combined(), dd_1.combined())
    assert_close(dm_s.sigma, dm_1.sigma)
    assert dd_s.hvp_calls == dd_1.hvp_calls == len(stacked) - 1


def test_stack_budget_splits_and_matches_loop(monkeypatch):
    # 82 + 32 * 20 = 722 elements per full batch: a budget of 2000 puts two
    # full batches in a stack, so 7 full batches and the tail need 5 stacks.
    monkeypatch.setattr(samlab.data, "STACK_ELEMENTS", 2000)
    spec, n = CASES["ce-ragged"]
    stacked = mlp_family(spec, dataset(spec, n), 32)
    stacks = [ids.tolist() for ids, _ in stacked.stacks()]
    assert stacks == [[0, 1], [2, 3], [4, 5], [6], [7]]
    x = init_params(spec, 1).values
    tau = floor_below_one_batch(stacked, x)
    got = _per_batch_terms(stacked, x, True, tau)
    assert_terms_close(got, looped_terms(stacked, x, True, tau))
    assert got[3].sum() == len(stacked) - 1


def fd_oracles(spec, ds, batch_size=32):
    return [mlp_oracle(spec, *ds.take(idx), mode="fd")
            for idx in enumeration_batches(ds.n, batch_size)]


def assert_fd_jets_match(terms, fd, x):
    # fd-mode jets along each unit gradient: H u from a central pair, third
    # from a second difference, so they agree to the fd truncation error.
    t1s, t2s, t3s, live = terms
    assert live.all()
    for b, oracle in enumerate(fd):
        _, hu, half_third = oracle.jet(x, t1s[b] / np.linalg.norm(t1s[b]), 2)
        assert np.linalg.norm(hu - t2s[b]) <= 1e-6 * np.linalg.norm(t2s[b])
        third = 2.0 * half_third
        assert np.linalg.norm(third - t3s[b]) <= 1e-6 * np.linalg.norm(t3s[b])


def test_stacked_rows_match_fd_jets():
    spec, n = CASES["ce-ragged"]
    ds = dataset(spec, n)
    x = init_params(spec, 1).values
    terms = _per_batch_terms(mlp_family(spec, ds, 32), x, True, 1e-12)
    assert_fd_jets_match(terms, fd_oracles(spec, ds), x)


@pytest.mark.parametrize("oracle", [
    mlp_oracle(MlpSpec((2, 4, 2)), np.ones((3, 2)), np.array([0, 1, 0]),
               mode="fd"),
    polynomial_oracle_1d([0.0, 0.0, 0.5], mode="fd"),
], ids=["mlp", "poly"])
def test_fd_oracle_in_family_raises(oracle):
    # A stack is one exact tape pass, so an fd oracle would silently turn
    # exact; the family refuses it.
    with pytest.raises(ValueError, match="exact-mode"):
        OracleFamily([oracle], np.ones(1))
    with pytest.raises(ValueError, match="exact-mode"):
        analytic_family([polynomial_oracle_1d([0.0, 0.0, 1.0]), oracle])


def test_aligned_term3_matches_per_oracle_third():
    # The ragged family has two stacks; term3 is the mean over batches of
    # third_b(v1_b, v1_b) for the top Lanczos vector v1_b of each oracle.
    spec, n = CASES["ce-ragged"]
    family = mlp_family(spec, dataset(spec, n), 32)
    assert len(list(family.stacks())) == 2
    x = init_params(spec, 1).values
    terms = _per_batch_terms(family, x, False, 1e-12)
    dd = drift_aligned(family, x, terms, "aligned-rho", 0.2, q=10, seed=4)
    thirds = [oracle.third_directional(
                  x, spectrum_deflated(oracle, x, k=2, q=10, seed=4 + b).vectors[0])
              for b, oracle in enumerate(family.oracles)]
    assert_close(dd.term3, family.mean(thirds))


def test_moment_probe_deltas_match_per_oracle_gradients(monkeypatch):
    # The per-batch terms take their passes through jet_pass itself; each
    # rho then takes one degree-0 pass at x + rho u_b, and row b must be
    # batch b's gradient there.
    spec, n = CASES["ce-ragged"]
    family = mlp_family(spec, dataset(spec, n), 32)
    x = init_params(spec, 1).values
    tau = floor_below_one_batch(family, x)
    calls, batch_jets = [], samlab.sde._batch_jets

    def spy(*args, **kwargs):
        out = batch_jets(*args, **kwargs)
        calls.append((np.array(args[1]), out))
        return out

    monkeypatch.setattr(samlab.sde, "_batch_jets", spy)
    rho_grid = (0.05, 0.1, 0.2)
    one_step_moment_probe(family, x, 0.01, rho_grid, tau=tau)
    assert len(calls) == len(rho_grid)
    t1s, _, _, live = looped_terms(family, x, False, tau)
    for rho, (xs, out) in zip(rho_grid, calls):
        assert len(out) == 1
        for b, oracle in enumerate(family.oracles):
            u = t1s[b] / np.linalg.norm(t1s[b]) if live[b] else 0.0
            assert_close(xs[b], x + rho * u)
            assert_close(out[0][b], oracle.grad(xs[b]))


def test_stacked_hvp_matches_dense_hessian():
    spec, n = CASES["ce-ragged"]
    family = mlp_family(spec, dataset(spec, n), 32)
    x = init_params(spec, 2).values
    t1s, t2s, _, _ = _per_batch_terms(family, x, False, 1e-12)
    b = len(family) - 1                    # the ragged tail batch
    u = t1s[b] / np.linalg.norm(t1s[b])
    h = dense_hessian(family.oracles[b], x)
    np.testing.assert_allclose(t2s[b], h @ u, rtol=1e-9, atol=1e-12)


def test_nonfinite_batch_raises():
    spec, n = CASES["ce-ragged"]
    ds = dataset(spec, n)
    inputs = ds.inputs.copy()
    inputs[100, 0] = np.nan                # inside the fourth batch
    stacked, single = stacked_and_single(spec, Dataset(inputs, ds.labels))
    x = init_params(spec, 0).values
    for family in (stacked, single):
        with pytest.raises(NonFiniteLoss):
            sde_coefficients(family, x, 0.2, 3, "none")


@pytest.mark.parametrize("diffusion", ["none", "sampled", "exact"])
def test_order3_runs_at_d746(diffusion):
    # d = 746: the dense third-order vectors come from the stacked degree-2
    # pass and exact diffusion factors Sigma, at any d.
    spec = MlpSpec((12, 32, 10))
    ds = gen_synthetic(64, 12, 10, 1.0, 0)
    family = mlp_family(spec, ds, 32)
    x = init_params(spec, 0).values
    assert spec.dim == 746
    got = _per_batch_terms(family, x, True, 1e-12)
    assert_terms_close(got, looped_terms(family, x, True, 1e-12))
    assert_fd_jets_match(got, fd_oracles(spec, ds), x)
    for order in (3, "aligned-rho", "aligned-rho2"):
        dd, noise = sde_coefficients(family, x, 0.2, order, diffusion)
        assert np.isfinite(dd.combined()).all()
        if noise is not None:
            assert np.isfinite(noise.draw(0, 0)).all()
