"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The slow trajectory criteria (4 and 5) dominate the
runtime; everything stays within the stated budgets.
"""

import time

import numpy as np
import pytest

from helpers import central_diff_grad, matrix_with_spectrum, random_symmetric, \
    zoo_oracle, zoo_specs
from samlab.bounds import (BoundInputs, ConvergenceInputs,
                           alpha_admissible_range, convergence_bound,
                           pac_bayes_bound)
from samlab.config import resolve
from samlab.data import BatchSampler, gen_synthetic, sample_batch
from samlab.hessian import align, hutchinson_trace, power_iteration, \
    spectrum_deflated
from samlab.metrics import canonical_bytes, read_csv
from samlab.models import MlpSpec, init_params, mlp_oracle
from samlab.optim import GRAD_FLOOR, OptimizerConfig, init_state, step
from samlab.oracle import quadratic_oracle
from samlab.rng import STREAM_EVAL_BATCH, STREAM_PROBE, stream
from samlab.runner import run_simulate_sde, run_train
from samlab.sde import (SampledNoise, _per_batch_terms, one_step_moment_probe,
                        sigma_exact)
from samlab.toys import TOYS

SIX_METRICS = ("train_loss", "test_loss", "test_accuracy", "param_norm",
               "grad_norm", "lambda1")


def report(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {n:2d}] {status}  ({elapsed:6.1f}s / budget {budget:.0f}s)  {detail}")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget"


def test_criterion_1_correctness_core():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_grad, worst_sym, worst_mode = 0.0, 0.0, 0.0
    for spec in zoo_specs():
        exact = zoo_oracle(spec, mode="exact")
        fd = zoo_oracle(spec, mode="fd")
        for _ in range(10):
            x = rng.standard_normal(spec.dim) * 0.7
            g = exact.grad(x)
            rel = np.linalg.norm(g - central_diff_grad(exact.loss, x)) / (1 + np.linalg.norm(g))
            worst_grad = max(worst_grad, rel)
        x = rng.standard_normal(spec.dim) * 0.5
        u = rng.standard_normal(spec.dim)
        v = rng.standard_normal(spec.dim)
        sym = abs(v @ exact.hvp(x, u) - u @ exact.hvp(x, v))
        worst_sym = max(worst_sym, sym / (1 + np.linalg.norm(u) * np.linalg.norm(v)))
        he, hf = exact.hvp(x, u), fd.hvp(x, u)
        worst_mode = max(worst_mode, np.linalg.norm(he - hf) / np.linalg.norm(he))
    ok = worst_grad < 1e-5 and worst_sym < 1e-6 and worst_mode < 1e-4
    report(1, ok, f"grad rel {worst_grad:.2e}, hvp sym {worst_sym:.2e}, "
                  f"mode rel {worst_mode:.2e}", time.perf_counter() - started, 60)


def _trajectory(method, steps=100, seed=0, **kw):
    spec = MlpSpec((2, 8, 2))
    ds = gen_synthetic(64, 2, 2, 4.0, seed=0)
    sampler = BatchSampler(16, seed, "shuffle-each-epoch")
    cfg = OptimizerConfig(method=method, lr=0.1, momentum=0.9,
                          weight_decay=5e-5, schedule="constant",
                          total_steps=steps, **kw)
    x = init_params(spec, seed).values
    state = init_state(spec.dim, seed)
    for t in range(steps):
        idx = sample_batch(sampler, ds, t)
        oracle = mlp_oracle(spec, ds.inputs[idx], ds.labels[idx])
        x, state = step(x, oracle, cfg, state)
    return x


def test_criterion_2_optimizer_identities():
    started = time.perf_counter()
    diffs = {}
    sam = _trajectory("sam", rho=0.05)
    eig = _trajectory("eigensam", rho=0.05, alpha=0.0, refresh_every=20,
                      power_iters=5)
    diffs["eigensam(alpha=0)=sam"] = float(np.max(np.abs(sam - eig)))
    sgd = _trajectory("sgd")
    for method in ("sam", "reversesam", "egr"):
        x = _trajectory(method, rho=0.0)
        diffs[f"{method}(rho=0)=sgd"] = float(np.max(np.abs(sgd - x)))
    worst = max(diffs.values())
    report(2, worst < 1e-12, f"max trajectory diff {worst:.2e} over {diffs}",
           time.perf_counter() - started, 60)


def test_criterion_3_weak_order_separation():
    started = time.perf_counter()
    grid = (0.02, 0.04, 0.08, 0.16)
    details = []
    ok = True
    for name in ("quartic1d", "twobatch2d"):
        family, x0 = TOYS[name]()
        rep = one_step_moment_probe(family, x0, eta=0.01, rho_grid=grid)
        ok = ok and rep.slope_e1_order3 >= 2.5 and rep.slope_e1_order2 <= 2.5
        details.append(f"{name}: order3 {rep.slope_e1_order3:.2f}, "
                       f"order2 {rep.slope_e1_order2:.2f}")
    report(3, ok, "; ".join(details), time.perf_counter() - started, 60)


def test_criterion_4_sde_tracks_discrete_sam():
    started = time.perf_counter()
    cfg = resolve("simulate-sde", {
        "steps": "2000", "eval_every": "100", "seeds": "0,1,2,3,4",
        "out": "/tmp/samlab_acceptance/c4", "model_layers": "2,16,2",
        "data_n": "256", "test_n": "256", "batch_size": "32",
        "data_margin": "4.0", "eta": "0.01", "rho": "0.2",
        "diffusion": "exact", "processes": "discrete-sam,sde2,sde3",
        "probe_q": "25"})
    path = run_simulate_sde(cfg)
    _, rows, _ = read_csv(path)

    def tracking_error(seed, process):
        def curve(proc, metric):
            rs = sorted((r for r in rows if r.process == proc and r.seed == seed),
                        key=lambda r: r.step)
            return np.array([getattr(r, metric) for r in rs])
        errs = []
        for metric in SIX_METRICS:
            ref = curve("discrete-sam", metric)
            spread = max(ref.max() - ref.min(), 1e-12)
            errs.append(np.abs(curve(process, metric) - ref).mean() / spread)
        return float(np.mean(errs))

    e2 = np.mean([tracking_error(s, "sde2") for s in range(5)])
    e3 = np.mean([tracking_error(s, "sde3") for s in range(5)])
    report(4, e3 < e2, f"normalized tracking error: third-order {e3:.4f} < "
                       f"second-order {e2:.4f}", time.perf_counter() - started,
           20 * 60)


def _c5_run(method, seed, steps=4000, probe_every=100):
    spec = MlpSpec((12, 32, 10))
    train = gen_synthetic(512, 12, 10, 1.0, 0, "train")
    cfg = OptimizerConfig(method=method, lr=0.1, rho=0.2, alpha=0.2,
                          refresh_every=100, power_iters=5,
                          schedule="constant", total_steps=steps)
    sampler = BatchSampler(32, seed, "shuffle-each-epoch")
    x = init_params(spec, seed).values
    state = init_state(spec.dim, seed)
    alignments = {}
    for t in range(steps):
        if t % probe_every == 0 and method == "sam":
            idx = stream(seed, STREAM_EVAL_BATCH, t).choice(train.n, size=128,
                                                            replace=False)
            eval_oracle = mlp_oracle(spec, *train.take(idx))
            v0 = stream(seed, STREAM_PROBE, t).standard_normal(spec.dim)
            est = power_iteration(eval_oracle, x, q=30, seed=seed, v0=v0)
            alignments[t] = align(eval_oracle.grad(x), est.vector)
        idx = sample_batch(sampler, train, t)
        oracle = mlp_oracle(spec, train.inputs[idx], train.labels[idx])
        x, state = step(x, oracle, cfg, state)
    full = mlp_oracle(spec, train.inputs, train.labels)
    lam1 = max(power_iteration(full, x, q=200, seed=seed, substream=s).value
               for s in range(3))
    return alignments, lam1


def test_criterion_5_alignment_failure_and_repair():
    started = time.perf_counter()
    steps = 4000
    sam_aligns, sam_lams, eig_lams = [], [], []
    for seed in (0, 1, 2):
        aligns, lam = _c5_run("sam", seed, steps=steps)
        sam_aligns.append(aligns)
        sam_lams.append(lam)
        _, lam_eig = _c5_run("eigensam", seed, steps=steps)
        eig_lams.append(lam_eig)
    # (a) mean alignment across seeds stays below 0.5 after the first 10%.
    probe_steps = [t for t in sam_aligns[0] if t >= steps // 10]
    mean_aligns = [np.mean([a[t] for a in sam_aligns]) for t in probe_steps]
    align_ok = max(mean_aligns) < 0.5
    # (b) final top eigenvalue is lower under the eigenvector-steered variant.
    lam_sam, lam_eig = float(np.mean(sam_lams)), float(np.mean(eig_lams))
    lam_ok = lam_eig < lam_sam
    report(5, align_ok and lam_ok,
           f"max mean alignment {max(mean_aligns):.3f} (< 0.5); final lambda1 "
           f"{lam_eig:.4f} (steered) vs {lam_sam:.4f} (plain)",
           time.perf_counter() - started, 15 * 60)


def test_criterion_6_alignment_interval():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    improved = 0
    for _ in range(1000):
        omega = rng.uniform(0.05, 0.999)
        lo, hi = alpha_admissible_range(omega)
        alpha = rng.uniform(1e-6, min(hi, 10.0))
        ghat = np.array([1.0, 0.0])
        v = np.array([omega, np.sqrt(1 - omega ** 2)])
        v_perp = v - (v @ ghat) * ghat
        v_perp /= np.linalg.norm(v_perp)
        new = ghat + alpha * v_perp
        if new @ v / np.linalg.norm(new) > omega:
            improved += 1
    endpoints_ok = (round(alpha_admissible_range(0.8)[1], 2) == 3.43
                    and round(alpha_admissible_range(0.9)[1], 2) == 1.27)
    report(6, improved == 1000 and endpoints_ok,
           f"{improved}/1000 improved; interval endpoints 3.43 and 1.27 "
           f"reproduce to two decimals", time.perf_counter() - started, 5)


def test_criterion_7_bound_evaluators():
    started = time.perf_counter()
    pac_cases = (
        (BoundInputs(0.1, 10.0, 10.0, 100, 10_000, 0.01, 1.0, 1.0, 0.05),
         0.4720622960020037),
        (BoundInputs(0.2, 0.0, 0.0, 50, 400, 0.1, 2.0, 0.0, 0.1),
         0.4785568215014086),
        (BoundInputs(0.05, 25.0, 3.0, 42, 2000, 0.05, 0.5, 2.0, 0.01),
         4.534117238184662),
    )
    ok = all(abs(pac_bayes_bound(b) - want) <= 1e-9 * abs(want)
             for b, want in pac_cases)
    conv_cases = (
        (ConvergenceInputs(2.0, 3.0, 0.0, 50, 0.0, 0.0), (0.25, 0.48)),
        (ConvergenceInputs(1.0, 1.0, 1.0, 100, 0.0, 0.0), (0.1, 0.4)),
        (ConvergenceInputs(1.5, 1.0, 0.5, 10 ** 8, 0.2, 0.1),
         (min(1 / 3.0, 1.0 / np.sqrt(1.5 * 0.5 * 1e8)),
          2.0 / (min(1 / 3.0, 1.0 / np.sqrt(1.5 * 0.5 * 1e8)) * 1e8)
          + 2.25 * 0.05 + 1.5 * min(1 / 3.0, 1.0 / np.sqrt(1.5 * 0.5 * 1e8)))),
    )
    for inputs, (eta_want, bound_want) in conv_cases:
        eta, bound = convergence_bound(inputs)
        ok = ok and abs(eta - eta_want) <= 1e-9 * eta_want
        ok = ok and abs(bound - bound_want) <= 1e-9 * bound_want
    # Monotonicity sweep in each loosening input.
    base = BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.05)
    ref = pac_bayes_bound(base)
    sweeps = (
        BoundInputs(0.1, 6.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.05),
        BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.8, 0.05),
        BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.5, 0.5, 0.05),
        BoundInputs(0.1, 5.0, 2.5, 30, 500, 0.05, 1.0, 0.5, 0.05),
        BoundInputs(0.1, 5.0, 2.0, 30, 500, 0.05, 1.0, 0.5, 0.01),
    )
    ok = ok and all(pac_bayes_bound(b) > ref for b in sweeps)
    report(7, ok, "three frozen values per evaluator at 1e-9 rel; "
                  "monotonicity sweeps hold", time.perf_counter() - started, 5)


def test_criterion_8_spectral_probes():
    started = time.perf_counter()
    worst_pi, worst_spec = 0.0, 0.0
    for dim, seed in ((16, 0), (40, 1), (64, 2)):
        a = matrix_with_spectrum(8.0 * 0.88 ** np.arange(dim), seed=seed)
        oracle = quadratic_oracle(a)
        dense = np.sort(np.linalg.eigvalsh(a))[::-1]
        est = power_iteration(oracle, np.zeros(dim), q=300, seed=seed)
        worst_pi = max(worst_pi, abs(est.value - dense[0]))
        rep = spectrum_deflated(oracle, np.zeros(dim), k=4, q=300, seed=seed)
        worst_spec = max(worst_spec, np.abs(rep.values - dense[:4]).max())
    hutch_ok = True
    for seed in range(10):
        a = random_symmetric(30, seed=200 + seed)
        est, se = hutchinson_trace(quadratic_oracle(a), np.zeros(30),
                                   m=4000, seed=seed)
        hutch_ok = hutch_ok and abs(est - np.trace(a)) <= 3.0 * se
    ok = worst_pi < 1e-5 and worst_spec < 1e-5 and hutch_ok
    report(8, ok, f"power-iteration err {worst_pi:.2e}, deflated err "
                  f"{worst_spec:.2e}, trace within 3 stderr on 10 matrices",
           time.perf_counter() - started, 60)


def test_criterion_9_diffusion_consistency():
    started = time.perf_counter()
    family, x0 = TOYS["twobatch2d"]()
    rho = 0.1
    terms = _per_batch_terms(family, x0, True, GRAD_FLOOR)
    sampler = SampledNoise(family, terms, rho)
    draws = np.array([sampler.draw(17, k) for k in range(100_000)])
    empirical = draws.T @ draws / len(draws)
    exact = sigma_exact(family, terms, rho).sigma
    rel = np.linalg.norm(empirical - exact) / np.linalg.norm(exact)
    report(9, rel < 0.05, f"Frobenius relative error {rel:.4f} over 1e5 draws",
           time.perf_counter() - started, 120)


def test_criterion_10_determinism():
    started = time.perf_counter()
    base = {"steps": "30", "eval_every": "10", "seeds": "0,1",
            "model_layers": "2,6,2", "data_n": "48", "test_n": "24",
            "batch_size": "8", "probe_q": "5"}
    pair = []
    for tag in ("a", "b"):
        out = f"/tmp/samlab_acceptance/c10_{tag}"
        cfg = resolve("train", {**base, "method": "eigensam", "alpha": "0.1",
                                "out": out})
        run_train(cfg)
        cfg_sde = resolve("simulate-sde", {**base, "out": out,
                                           "diffusion": "sampled",
                                           "processes": "discrete-sam,sde3"})
        run_simulate_sde(cfg_sde)
        train_bytes = canonical_bytes(f"{out}/train.csv").replace(out.encode(), b"OUT")
        sde_bytes = canonical_bytes(f"{out}/sde.csv").replace(out.encode(), b"OUT")
        pair.append((train_bytes, sde_bytes))
    ok = pair[0] == pair[1]
    report(10, ok, "repeat runs byte-identical (wall-clock column excluded)",
           time.perf_counter() - started, 120)
