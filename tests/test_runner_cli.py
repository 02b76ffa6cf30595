"""Experiment runner artifacts and the CLI surface."""

import json

import numpy as np
import pytest

from samlab import engine as eng
from samlab import runner
from samlab.cli import main
from samlab.config import SCHEMAS, parse_config_file, render, resolve
from samlab.data import enumeration_batches, gen_synthetic, mlp_family
from samlab.errors import ConfigError, NonFiniteLoss, ZeroIterate
from samlab.metrics import COLUMNS, canonical_bytes, read_csv
from samlab.models import MlpSpec, init_params, mlp_builder
from samlab.oracle import jet_pass
from samlab.runner import (run_probe_moments, run_simulate_sde, run_spectrum,
                           run_train)
from samlab.toys import TOYS


# A small model and data set for the MLP runners.
SMALL = "model_layers=2,4,2 data_n=32 test_n=16"
# A complete, valid set of bound inputs.
BOUND = ("f_s=0.1 lambda1=10 x_norm=10 d=100 n=10000 sigma=0.01 "
         "loss_bound=1 third_bound=1 delta=0.05")


def train_cfg(tmp_path, **overrides):
    raw = {"steps": "20", "eval_every": "10", "seeds": "0", "out": str(tmp_path),
           "model_layers": "2,4,2", "data_n": "32", "test_n": "16",
           "batch_size": "8", "method": "sam", "lr": "0.1", "rho": "0.05",
           "momentum": "0.0", "weight_decay": "0.0", "schedule": "constant",
           "probe_q": "5"}
    raw.update({k: str(v) for k, v in overrides.items()})
    return resolve("train", raw)


def sde_cfg(tmp_path, **overrides):
    raw = {"steps": "10", "eval_every": "5", "seeds": "0", "out": str(tmp_path),
           "model_layers": "2,4,2", "data_n": "32", "test_n": "16",
           "batch_size": "8", "eta": "0.05", "rho": "0.1", "probe_q": "5"}
    raw.update({k: str(v) for k, v in overrides.items()})
    return resolve("simulate-sde", raw)


class TestConfig:
    def test_defaults_mirror_documented_hyperparameters(self):
        cfg = resolve("simulate-sde", {})
        assert cfg["eta"] == 0.01
        assert cfg["rho"] == 0.2
        train = resolve("train", {})
        assert train["p"] == 100 and train["q"] == 5
        assert train["momentum"] == 0.9
        assert train["weight_decay"] == 5e-5
        assert train["schedule"] == "cosine"
        assert train["alpha"] == 0.2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve("train", {"not_a_key": "1"})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError):
            resolve("train", {"seeds": "1,1"})

    def test_required_keys(self):
        with pytest.raises(ConfigError):
            resolve("bound", {"f_s": "0.1"})

    def test_file_parsing_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nsteps = 7\nlr=0.2  # trailing\n\n")
        raw = parse_config_file(path)
        assert raw == {"steps": "7", "lr": "0.2"}
        (tmp_path / "bad.cfg").write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "bad.cfg")

    def test_render_round_trips(self):
        cfg = resolve("train", {"lr": "0.125", "seeds": "0,3"})
        lines = dict(line.split("=", 1) for line in render(cfg))
        assert lines["lr"] == "0.125"
        assert lines["seeds"] == "0,3"


class TestRunTrain:
    def test_cadence_row_count(self, tmp_path):
        run_train(train_cfg(tmp_path, steps=100, eval_every=10))
        _, rows, error = read_csv(tmp_path / "train.csv")
        assert error is None
        assert [r.step for r in rows] == list(range(0, 101, 10))

    def test_schema_and_lossless_roundtrip(self, tmp_path):
        path = run_train(train_cfg(tmp_path))
        header = [l for l in path.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == ",".join(COLUMNS)
        _, rows, _ = read_csv(path)
        rerendered = [r.render() for r in rows]
        original = [l for l in path.read_text().splitlines()
                    if not l.startswith("#")][1:]
        assert rerendered == original

    def test_byte_identical_reproduction(self, tmp_path):
        cfg_a = train_cfg(tmp_path / "a", seeds="0,1")
        cfg_b = train_cfg(tmp_path / "b", seeds="0,1")
        pa, pb = run_train(cfg_a), run_train(cfg_b)
        ca = canonical_bytes(pa).replace(str(tmp_path / "a").encode(), b"OUT")
        cb = canonical_bytes(pb).replace(str(tmp_path / "b").encode(), b"OUT")
        assert ca == cb

    def test_step_strictly_increasing_and_hvp_nondecreasing(self, tmp_path):
        run_train(train_cfg(tmp_path, method="eigensam", alpha=0.1, p=5, q=2,
                            steps=30, eval_every=5))
        _, rows, _ = read_csv(tmp_path / "train.csv")
        steps = [r.step for r in rows]
        counts = [r.hvp_count for r in rows]
        assert steps == sorted(set(steps))
        assert counts == sorted(counts)
        assert counts[-1] > 0

    def test_hvp_count_is_the_optimizer_budget(self, tmp_path):
        # Eigen-SAM refreshes at steps 1, 6, 11, ... with q + 2 HVPs each;
        # EGR spends one per step; SAM none.
        expected = {"eigensam": [0, 5, 10, 15], "egr": [0, 5, 10, 15],
                    "sam": [0, 0, 0, 0]}
        for method, counts in expected.items():
            run_train(train_cfg(tmp_path / method, method=method, p=5, q=3,
                                steps=15, eval_every=5))
            _, rows, _ = read_csv(tmp_path / method / "train.csv")
            assert [r.hvp_count for r in rows] == counts, method

    def test_eigensam_alpha0_matches_sam_rows(self, tmp_path):
        run_train(train_cfg(tmp_path / "sam", method="sam"))
        run_train(train_cfg(tmp_path / "eig", method="eigensam", alpha=0.0))
        _, sam_rows, _ = read_csv(tmp_path / "sam" / "train.csv")
        _, eig_rows, _ = read_csv(tmp_path / "eig" / "train.csv")
        for a, b in zip(sam_rows, eig_rows):
            # Identical trajectories; only the tag and the HVP budget differ
            # (the eigenvector refresh costs HVPs even when alpha = 0).
            assert a.process == "sam" and b.process == "eigensam"
            for col in COLUMNS:
                if col in ("process", "hvp_count", "wall_ms"):
                    continue
                assert getattr(a, col) == getattr(b, col), col

    def test_fair_compute_doubles_sgd_steps(self, tmp_path):
        run_train(train_cfg(tmp_path, method="sgd", fair_compute=True,
                            steps=20, eval_every=10))
        _, rows, _ = read_csv(tmp_path / "train.csv")
        assert rows[-1].step == 40

    def test_separable_data_reaches_full_accuracy(self, tmp_path):
        from samlab.models import accuracy
        from samlab.oracle import ParamVector
        from samlab.runner import _trained_points

        cfg = train_cfg(tmp_path, steps=500, eval_every=500, data_margin=8.0,
                        lr=0.2, data_n=64, test_n=64)
        spec, train, _test, points = _trained_points(cfg)
        pv = ParamVector(points()[0])
        assert accuracy(spec, pv, train.inputs, train.labels) == 1.0
        run_train(cfg)
        _, rows, _ = read_csv(tmp_path / "train.csv")
        assert rows[-1].test_accuracy == 1.0

    def test_nonfinite_abort_flushes_partial_csv(self, tmp_path):
        cfg = train_cfg(tmp_path, lr=1e155, steps=50, eval_every=1,
                        loss_head="mse")
        with pytest.raises(NonFiniteLoss):
            run_train(cfg)
        _, rows, error = read_csv(tmp_path / "train.csv")
        assert error is not None and "NonFiniteLoss" in error
        assert len(rows) >= 1


    def test_probe_error_flushes_partial_csv(self, tmp_path, monkeypatch):
        # Any SamlabError, not only NonFiniteLoss, leaves the rows so far
        # and an error line behind; the CLI maps it to exit code 3.
        real = runner.power_iteration
        calls = []

        def fail_on_second_probe(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ZeroIterate("forced in the second probe row")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "power_iteration", fail_on_second_probe)
        code = main(["train", "--out", str(tmp_path), "--seed", "0",
                     "--set", "steps=4", "--set", "eval_every=2",
                     "--set", "model_layers=2,4,2", "--set", "data_n=16",
                     "--set", "test_n=16", "--set", "batch_size=8",
                     "--set", "method=sam", "--set", "probe_q=3"])
        assert code == 3
        _, rows, error = read_csv(tmp_path / "train.csv")
        assert [r.step for r in rows] == [0]
        assert error is not None and "ZeroIterate" in error


class TestLockstepSeeds:
    """Replicate seeds train in lockstep on one stacked oracle; each seed's
    rows must be those of its own single-seed run."""

    LOCKSTEP = dict(steps=12, eval_every=4, momentum=0.9, weight_decay=5e-4,
                    schedule="cosine", rho=0.1, alpha=0.3, q=3)

    @pytest.mark.parametrize("method,extra", [
        ("sgd", {}), ("sgd", {"fair_compute": True}), ("sam", {}),
        ("eigensam", {"p": 1}), ("eigensam", {"p": 5}), ("reversesam", {}),
        ("egr", {})])
    def test_three_seeds_match_three_single_seed_runs(self, tmp_path, method,
                                                       extra):
        opts = dict(self.LOCKSTEP, method=method, **extra)
        run_train(train_cfg(tmp_path / "all", seeds="0,1,2", **opts))
        _, rows, error = read_csv(tmp_path / "all" / "train.csv")
        assert error is None
        for seed in (0, 1, 2):
            run_train(train_cfg(tmp_path / str(seed), seeds=str(seed), **opts))
            _, single, _ = read_csv(tmp_path / str(seed) / "train.csv")
            mine = [r for r in rows if r.seed == seed]
            assert len(mine) == len(single) > 1
            for a, b in zip(mine, single):
                for col in COLUMNS:
                    if col == "wall_ms":
                        continue
                    va, vb = getattr(a, col), getattr(b, col)
                    if isinstance(vb, float):
                        np.testing.assert_allclose(va, vb, rtol=1e-12, atol=0,
                                                   err_msg=col)
                    else:
                        assert va == vb, col

    @pytest.mark.parametrize("row_scale,method,error", [
        (np.nan, "sam", NonFiniteLoss), (0.0, "eigensam", ZeroIterate)])
    def test_error_in_one_seed_stops_every_seed(self, tmp_path, monkeypatch,
                                                row_scale, method, error):
        # From the fourth step on, seed 1's row of the stacked training
        # oracle sees its parameters scaled by row_scale: NaN makes its loss
        # non-finite, 0 makes its Hessian vanish, so the Eigen-SAM refresh
        # at t1 = 4 (p = 3) meets a zero iterate. Seed 0 is unaffected.
        from samlab.oracle import LossOracle

        real = runner.mlp_oracle
        stacked_calls = []

        def faulty_oracle(spec, inputs, labels, **kwargs):
            oracle = real(spec, inputs, labels, **kwargs)
            # Training oracles stack 8-row batches; the probe's stacked
            # evaluation oracle has 16 rows per seed and is left alone.
            if np.ndim(inputs) != 3 or np.shape(inputs)[1] != 8:
                return oracle
            stacked_calls.append(1)
            if len(stacked_calls) < 4:
                return oracle
            scale = np.ones((len(inputs), 1))
            scale[1] = row_scale

            def build(tape, x):
                return oracle.builder(tape, eng.mul(x, tape.const(scale)))
            return LossOracle(build, oracle.dim)

        monkeypatch.setattr(runner, "mlp_oracle", faulty_oracle)
        code = main(["train", "--out", str(tmp_path), "--seed", "0,1",
                     "--set", "steps=10", "--set", "eval_every=2",
                     "--set", "model_layers=2,4,2", "--set", "data_n=16",
                     "--set", "test_n=16", "--set", "batch_size=8",
                     "--set", f"method={method}", "--set", "p=3",
                     "--set", "q=3", "--set", "probe_q=3"])
        assert code == 3
        _, rows, err = read_csv(tmp_path / "train.csv")
        assert [(r.seed, r.step) for r in rows] == [(0, 0), (0, 2),
                                                   (1, 0), (1, 2)]
        assert err is not None and error.__name__ in err


class TestRunSimulateSde:
    def test_rho0_without_noise_sde2_equals_sde3(self, tmp_path):
        cfg = sde_cfg(tmp_path, rho=0.0, diffusion="none",
                      processes="sde2,sde3")
        run_simulate_sde(cfg)
        _, rows, _ = read_csv(tmp_path / "sde.csv")
        by_proc = {p: [r for r in rows if r.process == p] for p in ("sde2", "sde3")}
        for a, b in zip(by_proc["sde2"], by_proc["sde3"]):
            assert abs(a.train_loss - b.train_loss) < 1e-12
            assert abs(a.param_norm - b.param_norm) < 1e-12

    def test_zero_steps_initial_row_only(self, tmp_path):
        cfg = sde_cfg(tmp_path, steps=0, processes="sde3")
        run_simulate_sde(cfg)
        _, rows, _ = read_csv(tmp_path / "sde.csv")
        assert len(rows) == 1 and rows[0].step == 0

    def test_processes_share_initialization(self, tmp_path):
        cfg = sde_cfg(tmp_path, processes="discrete-sam,sde2,sde3")
        run_simulate_sde(cfg)
        _, rows, _ = read_csv(tmp_path / "sde.csv")
        first = [r for r in rows if r.step == 0]
        assert len({r.train_loss for r in first}) == 1
        assert len({r.param_norm for r in first}) == 1

    def test_rows_sorted_by_process_seed_step(self, tmp_path):
        cfg = sde_cfg(tmp_path, seeds="1,0", processes="sde2,discrete-sam")
        run_simulate_sde(cfg)
        _, rows, _ = read_csv(tmp_path / "sde.csv")
        keys = [(r.process, r.seed, r.step) for r in rows]
        assert keys == sorted(keys)

    def test_unknown_process_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_simulate_sde(sde_cfg(tmp_path, processes="sde4"))

    def test_aligned_processes_run_with_gap_check(self, tmp_path):
        cfg = sde_cfg(tmp_path, steps=2, eval_every=2, data_n=16, test_n=16,
                      diffusion="none", aligned_q=40,
                      processes="sde-aligned-rho,sde-aligned-rho2")
        run_simulate_sde(cfg)
        _, rows, _ = read_csv(tmp_path / "sde.csv")
        procs = {r.process for r in rows}
        assert procs == {"sde-aligned-rho", "sde-aligned-rho2"}
        assert all(np.isfinite(r.train_loss) for r in rows)

    def test_aligned_exact_diffusion_evaluates_terms_once(self, tmp_path,
                                                         monkeypatch):
        # The aligned rows take drift and diffusion from one evaluation of
        # the per-batch terms per substep, shared by both rows, and one
        # batched sigma_exact, with the values of single-point evaluations.
        from samlab import sde
        from samlab.data import mlp_family

        cfg = sde_cfg(tmp_path, steps=2, substeps=2, eval_every=2,
                      diffusion="exact", aligned_q=10,
                      processes="sde-aligned-rho,sde-aligned-rho2")
        calls, sigmas, states = [], [], []
        terms, sigma_exact, em_step = (sde._per_batch_terms, sde.sigma_exact,
                                       sde.euler_maruyama_step)

        def counted_terms(*args, **kwargs):
            calls.append(1)
            return terms(*args, **kwargs)

        def kept_sigma(*args, **kwargs):
            models = sigma_exact(*args, **kwargs)
            sigmas.extend(model.sigma for model in models)
            return models

        def kept_step(x, eta, dt, drift_vec, noise):
            states.append((x, drift_vec))
            return em_step(x, eta, dt, drift_vec, noise)

        monkeypatch.setattr(sde, "_per_batch_terms", counted_terms)
        monkeypatch.setattr(sde, "sigma_exact", kept_sigma)
        monkeypatch.setattr(sde, "euler_maruyama_step", kept_step)
        run_simulate_sde(cfg)
        monkeypatch.undo()
        substeps = 2 * 2 * 2  # processes x steps x substeps
        assert len(states) == len(sigmas) == substeps
        assert len(calls) == substeps // 2

        spec, train, _ = runner._datasets(cfg)
        family = mlp_family(spec, train, cfg["batch_size"])
        tau = cfg["grad_floor"]
        # The processes run in lockstep: each substep steps the first
        # process, then the second.
        variants = [sde.VARIANT_ALIGNED_RHO2 if i % 2 else sde.VARIANT_ALIGNED_RHO
                    for i in range(substeps)]
        for variant, (x, drift_vec), sigma in zip(variants, states, sigmas):
            terms = sde._per_batch_terms(family, x, True, tau)
            dd = sde.drift_aligned(family, x, terms, variant, cfg["rho"], q=10,
                                   seed=0)
            np.testing.assert_array_equal(drift_vec, dd.combined())
            want = sde.sigma_exact(family, terms, cfg["rho"], order=3)
            np.testing.assert_array_equal(sigma, want.sigma)

    def test_hvp_count_is_the_sde_budget(self, tmp_path):
        # 8 batches above the floor cost one HVP each per substep, so 16 per
        # step at substeps=2; discrete SAM spends none.
        cfg = sde_cfg(tmp_path, model_layers="2,16,2", data_n=256,
                      batch_size=32, substeps=2, steps=3, eval_every=1,
                      processes="discrete-sam,sde2,sde3")
        run_simulate_sde(cfg)
        _, rows, _ = read_csv(tmp_path / "sde.csv")
        got = {(r.process, r.step): r.hvp_count for r in rows}
        assert got == {(p, t): 0 if p == "discrete-sam" else 16 * t
                       for p in ("discrete-sam", "sde2", "sde3")
                       for t in range(4)}

    def test_byte_identical_reproduction(self, tmp_path):
        pa = run_simulate_sde(sde_cfg(tmp_path / "a", diffusion="sampled"))
        pb = run_simulate_sde(sde_cfg(tmp_path / "b", diffusion="sampled"))
        ca = canonical_bytes(pa).replace(str(tmp_path / "a").encode(), b"OUT")
        cb = canonical_bytes(pb).replace(str(tmp_path / "b").encode(), b"OUT")
        assert ca == cb


def assert_rows_close(rows, single):
    """Every column but wall_ms within 1e-12 relative; ints exactly."""
    assert len(rows) == len(single) > 1
    for a, b in zip(rows, single):
        for col in COLUMNS:
            if col == "wall_ms":
                continue
            va, vb = getattr(a, col), getattr(b, col)
            if isinstance(vb, float):
                np.testing.assert_allclose(va, vb, rtol=1e-12, atol=0,
                                           err_msg=col)
            else:
                assert va == vb, col


def label_lines(path, process: str, seed: int) -> list:
    """The ``canonical_bytes`` lines of one label's rows."""
    return [line for line in canonical_bytes(path).decode().splitlines()
            if not line.startswith("#")
            and line.split(",")[1:3] == [process, str(seed)]]


class TestTrajectory:
    def test_groups_get_views_and_return_their_hvps(self):
        # Two row groups over three rows. The first keeps every array it is
        # handed, views of the trajectory's points; the trajectory writes
        # the next points into a fresh array, so the kept arrays keep their
        # values. Each row's hvp_count is the running sum of its group's
        # spends.
        cfg = train_cfg("unused", eval_every=2, probe_q=3)
        spec, train, test = runner._datasets(cfg)
        labels = (("kept", 0), ("kept", 1), ("moved", 2))
        kept = []

        def keeping(x, t):
            kept.append((x, x.copy()))
            return x + 0.5, np.array([2, 5])

        rows = []
        end = runner._trajectory(cfg, spec, train, test, labels, 5, [
            (slice(0, 2), keeping), (2, lambda x, t: (x - 0.5, 3))], rows)
        assert len(kept) == 5
        for x, copy in kept:
            assert x.tobytes() == copy.tobytes()
        spends = {("kept", 0): 2, ("kept", 1): 5, ("moved", 2): 3}
        assert sorted((r.process, r.seed, r.step, r.hvp_count)
                      for r in rows) == sorted(
            (*label, t, t * spend) for label, spend in spends.items()
            for t in (0, 2, 4, 5))
        start = np.stack([init_params(spec, seed).values for _, seed in labels])
        np.testing.assert_allclose(end, start + [[2.5], [2.5], [-2.5]])


class TestPickedOracle:
    """``family.picked``, the discrete-SAM oracle of one lockstep step, on
    the 32, 32, 32 and 4 row batches of 100 rows, and ``family.stacks``
    over the same picks."""

    SPEC = MlpSpec((2, 16, 2))

    def family(self):
        train = gen_synthetic(100, 2, 2, 1.0, 0)
        return train, mlp_family(self.SPEC, train, 32)

    def plan(self, name, monkeypatch):
        """(family, picks, stacks in the plan) of a named plan shape."""
        if name == "twobatch2d":
            return TOYS["twobatch2d"]()[0], [1, 0, 1], 3
        if name == "budget-split":
            # 82 + 32 * 20 = 722 elements per 32-row set: two sets a tape.
            import samlab.data
            monkeypatch.setattr(samlab.data, "STACK_ELEMENTS", 2 * 722)
        picks, stacks = {"one-tape": ([0, 2, 0], 1), "mixed": ([3, 3, 0, 3], 2),
                         "budget-split": ([0, 1, 2, 0], 2)}[name]
        return self.family()[1], picks, stacks

    @pytest.mark.parametrize("picks", [[1], [3], [0, 2, 0]])
    def test_one_tape_plan_is_the_plain_stacked_oracle(self, picks):
        train, family = self.family()
        oracle = family.picked(picks)
        parts = enumeration_batches(100, 32)
        plain = mlp_builder(self.SPEC, *train.take(
            np.stack([parts[b] for b in picks])))
        xs = np.zeros((len(picks), self.SPEC.dim))
        ops = tape_ops(oracle.builder, xs)
        assert ops == tape_ops(plain, xs)
        assert "matmul" not in ops

    def test_mixed_plan_rows_are_each_batchs_own(self):
        train, family = self.family()
        picks = [3, 3, 0, 3]
        oracle = family.picked(picks)
        xs = np.stack([init_params(self.SPEC, s).values for s in range(4)])
        loss, grads = oracle.grad(xs, with_loss=True)
        assert "matmul" in tape_ops(oracle.builder, xs)
        own = [family.oracles[b].grad(x, with_loss=True)
               for b, x in zip(picks, xs)]
        for g, (_, want) in zip(grads, own):
            np.testing.assert_array_equal(g, want)
        assert loss == pytest.approx(sum(l for l, _ in own), rel=1e-15)

    @pytest.mark.parametrize("name", ["one-tape", "budget-split",
                                      "twobatch2d"])
    def test_rows_are_each_batchs_own_gradient(self, monkeypatch, name):
        # The mixed plan is the test above. The analytic family has no data
        # to stack: each pick is a tape of its own, read through its
        # selection row.
        family, picks, stacks = self.plan(name, monkeypatch)
        assert len(list(family.stacks(picks))) == stacks
        xs = np.random.default_rng(3).standard_normal((len(picks), family.dim))
        grads = family.picked(picks).grad(xs)
        for b, x, g in zip(picks, xs, grads):
            np.testing.assert_array_equal(g, family.oracles[b].grad(x))

    @pytest.mark.parametrize("name", ["one-tape", "mixed", "budget-split",
                                      "twobatch2d"])
    def test_stacks_cover_each_position_once_with_its_batch(self, monkeypatch,
                                                            name):
        family, picks, _ = self.plan(name, monkeypatch)
        xs = np.random.default_rng(4).standard_normal((len(picks), family.dim))
        covered = []
        for ids, builder in family.stacks(picks):
            covered += ids.tolist()
            for i, g in zip(ids, jet_pass(builder, xs[ids])[0]):
                np.testing.assert_array_equal(
                    g, family.oracles[picks[i]].grad(xs[i]))
        assert sorted(covered) == list(range(len(picks)))


def tape_ops(build, xs):
    """The op of each node on the tape that ``build`` records at xs."""
    tape = eng.Tape()
    build(tape, tape.leaf(xs))
    return [node.op for node in tape.nodes]


class TestLockstepSde:
    """simulate-sde advances every (process, seed) row on one trajectory and
    takes the probe rows of all of them from stacked evaluations; each row
    must be that of its own single run."""

    @pytest.mark.parametrize("processes,extra", [
        # 36 rows in batches of 8: the last batch has 4, and at step 5 only
        # one seed's discrete-SAM pick is that batch.
        ("discrete-sam,sde2,sde3", dict(data_n=36, steps=6, eval_every=2)),
        ("discrete-sam,sde3", dict(data_n=32, steps=6, eval_every=3)),
        ("sde-aligned-rho,sde-aligned-rho2",
         dict(steps=2, eval_every=1, substeps=2, aligned_q=10))])
    def test_rows_match_single_runs(self, tmp_path, processes, extra):
        run_simulate_sde(sde_cfg(tmp_path / "all", seeds="0,1",
                                 processes=processes, **extra))
        _, rows, error = read_csv(tmp_path / "all" / "sde.csv")
        assert error is None
        for process in processes.split(","):
            for seed in (0, 1):
                out = tmp_path / f"{process}-{seed}"
                run_simulate_sde(sde_cfg(out, seeds=seed, processes=process,
                                         **extra))
                _, single, _ = read_csv(out / "sde.csv")
                assert_rows_close([r for r in rows if (r.process, r.seed)
                                   == (process, seed)], single)

    @pytest.mark.parametrize("diffusion,extra,stack_sets", [
        ("exact", {}, None),
        ("sampled", {}, None),
        ("none", {}, None),
        # At init, batches 1 and 3 of seed 0 fall under the floor.
        ("exact", dict(grad_floor=2.0), None),
        # Five sets of 22 + 8 * 8 = 86 elements per tape: the 24 sets of the
        # six SDE rows take five tapes, cut across rows.
        ("sampled", {}, 5)])
    def test_sde_rows_equal_single_runs_exactly(self, tmp_path, monkeypatch,
                                                diffusion, extra, stack_sets):
        import samlab.data

        processes = ("sde2", "sde3", "sde-aligned-rho2")
        cfg = dict(diffusion=diffusion, steps=3, eval_every=1, substeps=2,
                   aligned_q=10, **extra)
        if stack_sets:
            monkeypatch.setattr(samlab.data, "STACK_ELEMENTS", stack_sets * 86)
            spec, train, _ = runner._datasets(sde_cfg(tmp_path))
            assert len(list(mlp_family(spec, train, 8).stacks(
                [*range(4)] * 6))) == 5
        run_simulate_sde(sde_cfg(tmp_path / "all", seeds="0,1",
                                 processes=",".join(processes), **cfg))
        for process in processes:
            for seed in (0, 1):
                out = tmp_path / f"{process}-{seed}"
                run_simulate_sde(sde_cfg(out, seeds=seed, processes=process,
                                         **cfg))
                want = label_lines(out / "sde.csv", process, seed)
                assert len(want) == 4
                assert label_lines(tmp_path / "all" / "sde.csv", process,
                                   seed) == want
        if extra:
            _, rows, _ = read_csv(tmp_path / "all" / "sde.csv")
            assert any(r.hvp_count < 4 * 2 * r.step for r in rows
                       if r.process == "sde2")

    def test_tiling_is_planned_once_per_run(self, tmp_path, monkeypatch):
        # Two seeds of discrete SAM and sde2 on four batches of 8 rows, three
        # substeps a step: the 2 x 4 SDE sets are planned once in the run,
        # and each step's two discrete-SAM picks once, in that step.
        import samlab.data

        real, sizes = samlab.data.stack_plan, []

        def counted(spec, index_sets):
            sizes.append(len(index_sets))
            return real(spec, index_sets)
        monkeypatch.setattr(samlab.data, "stack_plan", counted)
        run_simulate_sde(sde_cfg(tmp_path, seeds="0,1", steps=4, eval_every=4,
                                 substeps=3, processes="discrete-sam,sde2"))
        assert (sizes.count(8), sizes.count(2)) == (1, 4)

    def test_one_pass_and_push_per_substep(self, tmp_path, monkeypatch):
        # Two seeds of sde2 and sde3 on four batches of 8 rows: 16 sets on
        # one tape, which takes one gradient pass and one push per substep,
        # not two passes per row.
        from samlab import sde

        real, passes = sde.jet_pass, []

        def counted(*args, **kwargs):
            passes.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sde, "jet_pass", counted)
        cfg = dict(steps=3, eval_every=1, substeps=2)
        run_simulate_sde(sde_cfg(tmp_path / "all", seeds="0,1",
                                 processes="sde2,sde3", **cfg))
        assert len(passes) == 2 * 3 * 2
        monkeypatch.undo()
        _, rows, _ = read_csv(tmp_path / "all" / "sde.csv")
        for process in ("sde2", "sde3"):
            for seed in (0, 1):
                out = tmp_path / f"{process}-{seed}"
                run_simulate_sde(sde_cfg(out, seeds=seed, processes=process,
                                         **cfg))
                _, single, _ = read_csv(out / "sde.csv")
                assert [r.hvp_count for r in rows
                        if (r.process, r.seed) == (process, seed)] == [
                    r.hvp_count for r in single]

    def test_nan_in_one_row_stops_every_row(self, tmp_path, monkeypatch):
        # The rows step as (sde2, 0), (sde3, 0), (sde2, 1), (sde3, 1) after
        # the stacked discrete-SAM rows; the 16th integrator call, at step 3,
        # gives the (sde3, 1) row a NaN drift.
        from samlab import sde

        real = sde.euler_maruyama_step
        calls = []

        def nan_drift(x, eta, dt, drift_vec, noise):
            calls.append(1)
            if len(calls) == 16:
                drift_vec = np.full_like(drift_vec, np.nan)
            return real(x, eta, dt, drift_vec, noise)

        monkeypatch.setattr(sde, "euler_maruyama_step", nan_drift)
        code = main(["simulate-sde", "--out", str(tmp_path), "--seed", "0,1",
                     "--set", "steps=6", "--set", "eval_every=1",
                     "--set", "model_layers=2,4,2", "--set", "data_n=32",
                     "--set", "test_n=16", "--set", "batch_size=8",
                     "--set", "probe_q=3",
                     "--set", "processes=discrete-sam,sde2,sde3"])
        assert code == 3
        _, rows, err = read_csv(tmp_path / "sde.csv")
        assert [(r.process, r.seed, r.step) for r in rows] == [
            (p, s, t) for p in ("discrete-sam", "sde2", "sde3")
            for s in (0, 1) for t in range(4)]
        assert err is not None and "NonFiniteState" in err

    CFG = dict(seeds="0,1", processes="discrete-sam,sde2", steps=4,
               eval_every=2)

    @staticmethod
    def counted_power_iterations(monkeypatch) -> list:
        """(rows, HVPs per row) of each probe power iteration."""
        real = runner.power_iteration
        calls = []

        def counted(oracle, x, *args, **kwargs):
            est = real(oracle, x, *args, **kwargs)
            calls.append((len(x), est.hvp_calls))
            return est

        monkeypatch.setattr(runner, "power_iteration", counted)
        return calls

    def test_one_power_iteration_per_probe_point(self, tmp_path, monkeypatch):
        calls = self.counted_power_iterations(monkeypatch)
        run_simulate_sde(sde_cfg(tmp_path, **self.CFG))
        # Three probe points; four rows in one stack, probe_q + 2 HVPs each.
        assert calls == [(4, 5 + 2)] * 3

    def test_probe_stacks_give_the_one_stack_rows(self, tmp_path, monkeypatch):
        import samlab.data

        run_simulate_sde(sde_cfg(tmp_path / "one", **self.CFG))
        _, one, _ = read_csv(tmp_path / "one" / "sde.csv")
        calls = self.counted_power_iterations(monkeypatch)
        # A probe row of 2,4,2 on 32 rows is 22 + 32 * 8 = 278 elements, so
        # two rows fit in a stack; the family's batches still fit in one.
        monkeypatch.setattr(samlab.data, "STACK_ELEMENTS", 2 * 278)
        run_simulate_sde(sde_cfg(tmp_path / "split", **self.CFG))
        _, split, _ = read_csv(tmp_path / "split" / "sde.csv")
        assert calls == [(2, 5 + 2)] * 6
        assert_rows_close(split, one)


class TestProbeRunners:
    def test_moments_json(self, tmp_path):
        cfg = resolve("probe-moments", {"toy": "quartic1d", "out": str(tmp_path)})
        path = run_probe_moments(cfg)
        payload = json.loads(path.read_text())
        assert payload["results"]["slope_e1_order3"] >= 2.5
        assert payload["results"]["slope_e1_order2"] <= 2.5
        assert payload["config"]["toy"] == "quartic1d"

    def test_moments_quadratic_slopes_undefined(self, tmp_path):
        cfg = resolve("probe-moments", {"toy": "quadratic1d", "out": str(tmp_path)})
        payload = json.loads(run_probe_moments(cfg).read_text())
        # Round-off-level errors make the log-log fit meaningless; the report
        # encodes that as null.
        assert payload["results"]["slope_e1_order3"] is None
        assert payload["results"]["slope_e1_order2"] is None

    def test_spectrum_json(self, tmp_path):
        cfg = resolve("spectrum", {"out": str(tmp_path), "model_layers": "2,4,2",
                                   "data_n": "32", "test_n": "16", "k": "3",
                                   "spectrum_q": "60", "m_trace": "8"})
        payload = json.loads(run_spectrum(cfg).read_text())
        spec0 = payload["results"]["spectra"][0]
        assert len(spec0["eigenvalues"]) == 3
        assert spec0["hvp_calls"] > 0

    def test_spectrum_repeat_runs_byte_identical(self, tmp_path):
        cfg = resolve("spectrum", {"out": str(tmp_path), "model_layers": "2,4,2",
                                   "data_n": "32", "test_n": "16", "steps": "5",
                                   "batch_size": "8", "k": "3",
                                   "spectrum_q": "30", "m_trace": "8",
                                   "seeds": "0,1"})
        first = run_spectrum(cfg)
        second = run_spectrum(cfg, out_name="again.json")
        assert first.read_bytes() == second.read_bytes()

    def test_trained_points_compute_no_probe_rows(self, tmp_path, monkeypatch):
        cfg = resolve("spectrum", {"out": str(tmp_path), "model_layers": "2,4,2",
                                   "data_n": "32", "test_n": "16",
                                   "batch_size": "8", "steps": "12",
                                   "seeds": "0,3"})
        spec, train, test, points = runner._trained_points(dict(cfg, steps=0))
        for row, seed in zip(points(), (0, 3)):
            assert row.tobytes() == init_params(spec, seed).values.tobytes()
        rows = []
        probed = runner._trainer(dict(cfg, eval_every=4, probe_q=3,
                                      fair_compute=False),
                                 spec, train, test, (0, 3))(rows)
        assert len(rows) == 8

        def no_probes(*args, **kwargs):
            raise AssertionError("_trained_points computed a probe row")

        monkeypatch.setattr(runner, "_probe_row", no_probes)
        xs = runner._trained_points(cfg)[3]()
        assert xs.shape == (2, spec.dim)
        assert xs.tobytes() == probed.tobytes()

    def test_probe_row_takes_test_loss_and_accuracy_from_one_pass(self):
        # Both test columns come from one forward pass on the test set; they
        # equal the separate loss and accuracy passes bit for bit.
        from samlab.models import accuracy, mlp_oracle
        from samlab.oracle import ParamVector

        for head in ("ce", "mse"):
            cfg = train_cfg("unused", loss_head=head, seeds="0,4")
            spec, train, test = runner._datasets(cfg)
            xs = np.stack([init_params(spec, s).values + 0.3 * s
                           for s in (0, 4)])
            rows = runner._probe_row(spec, xs, 0, (("sam", 0), ("sam", 4)),
                                     train, test, (0, 0), 3, 0.0)
            oracle = mlp_oracle(spec, test.inputs, test.labels)
            for row, x in zip(rows, xs):
                assert row.test_loss == oracle.loss(x)
                want = accuracy(spec, ParamVector(x),
                                test.inputs, test.labels)
                assert row.test_accuracy == want

    def test_power_curve_json(self, tmp_path):
        from samlab.runner import run_probe_power

        cfg = resolve("probe-power", {"out": str(tmp_path),
                                      "model_layers": "2,4,2", "data_n": "32",
                                      "test_n": "16", "steps": "20",
                                      "q_grid": "1,4,16,64", "n_starts": "4",
                                      "q_ref": "300"})
        payload = json.loads(run_probe_power(cfg).read_text())
        curve = payload["results"]["power_curves"][0]["curve"]
        assert [c["q"] for c in curve] == [1, 4, 16, 64]
        # More iterations align the estimate better with the reference.
        assert curve[-1]["mean_alignment"] > curve[0]["mean_alignment"]
        assert curve[-1]["mean_alignment"] > 0.99

    def test_rho_warning_echoed(self, tmp_path):
        cfg = sde_cfg(tmp_path, steps=0, eta=0.01, rho=0.5, processes="sde2")
        run_simulate_sde(cfg)
        config, _, _ = read_csv(tmp_path / "sde.csv")
        assert config["rho_warning"] == "true"

    def test_rho_warning_false_at_or_below_eta_cube_root(self, tmp_path):
        cfg = sde_cfg(tmp_path, steps=0, eta=0.01, rho=0.2, processes="sde2")
        run_simulate_sde(cfg)
        config, _, _ = read_csv(tmp_path / "sde.csv")
        assert config["rho_warning"] == "false"


class TestCli:
    def test_train_exit_zero(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path), "--seed", "0",
                     "--set", "steps=5", "--set", "eval_every=5",
                     "--set", "model_layers=2,4,2", "--set", "data_n=16",
                     "--set", "test_n=16", "--set", "batch_size=8",
                     "--set", "probe_q=3"])
        assert code == 0
        assert (tmp_path / "train.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        assert main(["train", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
        assert main(["bound", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("sets", [["k=0"], ["model_layers=2,2,2", "k=20"]])
    def test_spectrum_k_outside_the_dimension_exit_two(self, tmp_path, capsys,
                                                       sets):
        # A 2,2,2 model has 12 parameters, so it has no 20 eigenvalues.
        args = [item for kv in sets for item in ("--set", kv)]
        assert main(["spectrum", "--out", str(tmp_path), *args]) == 2
        assert "k must be in [1, " in capsys.readouterr().err
        assert not (tmp_path / "spectrum.json").exists()

    @pytest.mark.parametrize("case", [
        "train probe_q=0", "train eval_every=0", "train batch_size=0",
        "train steps=-1", "train data_n=0", "train data_classes=0",
        "train seeds=0,-1",
        "simulate-sde processes=sde-aligned-rho aligned_q=0",
        "simulate-sde rho=-0.1", "simulate-sde grad_floor=0",
        "simulate-sde rho=-0.1 processes=sde2",
        "simulate-sde grad_floor=0 processes=sde2",
        "spectrum spectrum_q=0", "probe-power q_ref=0",
        "probe-power q_grid=1,0", "probe-power n_starts=0",
        "simulate-sde substeps=0", "simulate-sde diffusion=bogus",
        "simulate-sde processes=", "probe-power q_grid=",
        # One Hutchinson probe has no standard error.
        "spectrum m_trace=1",
        # Three classes do not fit the simplex of a 2-wide input.
        "train data_classes=3",
        # Labels 0, 1, 2 for a model with two outputs.
        *(f"{subcommand} model_layers=3,4,2 data_dim=3 data_classes=3"
          for subcommand in ("train", "simulate-sde", "spectrum",
                             "probe-power")),
        # shuffle-each-epoch has no full batch of 17 among 16 rows.
        *(f"{subcommand} batch_size=17"
          for subcommand in ("train", "spectrum", "probe-power")),
    ])
    def test_count_out_of_range_exit_two(self, tmp_path, capsys, case):
        subcommand, *sets = case.split()
        small = ["model_layers=2,4,2", "data_n=16", "test_n=16",
                 "batch_size=8", "steps=2"]
        args = [item for kv in small + sets for item in ("--set", kv)]
        assert main([subcommand, "--out", str(tmp_path), *args]) == 2
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("case", [
        "train sampler=with-replacement", "train sampler=full-enumeration",
        "spectrum steps=0 k=2 m_trace=0"])
    def test_batch_above_data_size_runs(self, tmp_path, case):
        # Only shuffle-each-epoch drops a partial batch, and only a training
        # step draws one.
        subcommand, *sets = case.split()
        small = ["model_layers=2,4,2", "data_n=16", "test_n=16",
                 "batch_size=17", "steps=2"]
        args = [item for kv in small + sets for item in ("--set", kv)]
        assert main([subcommand, "--out", str(tmp_path), *args]) == 0

    def test_test_set_width_mismatch_exit_two(self, tmp_path, capsys):
        # Training images of 1 x 2 pixels fit a 2,4,2 model; test images of
        # 2 x 2 pixels do not.
        from test_models_data import write_idx_pair

        sets = ["model_layers=2,4,2", "steps=2", "batch_size=2"]
        for split, shape in (("", (4, 1, 2)), ("test_", (4, 2, 2))):
            folder = tmp_path / f"{split}data"
            folder.mkdir()
            images, labels = write_idx_pair(folder, np.zeros(shape), [0, 1] * 2)
            sets += [f"idx_{split}images={images}", f"idx_{split}labels={labels}"]
        out = tmp_path / "out"
        args = [item for kv in ["data=idx", *sets] for item in ("--set", kv)]
        assert main(["train", "--out", str(out), *args]) == 2
        assert "input width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rho_grid", ["-0.1,0.1", "0,0.1"])
    def test_probe_moments_rho_grid_out_of_range_exit_two(self, tmp_path,
                                                          capsys, rho_grid):
        # The log-log slope fit needs every rho positive.
        assert main(["probe-moments", "--out", str(tmp_path),
                     "--set", f"rho_grid={rho_grid}"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("case", [
        "train model_layers=3,4,2",
        "simulate-sde eta=nan steps=2 data_n=16 test_n=16",
        "probe-moments eta=-1",
        "probe-moments rho_grid=0.1", "probe-moments rho_grid=0.1,0.1",
        "probe-moments rho_grid=", "probe-moments with_second=false",
        "train method=foo", "train p=0", "train q=0", "train momentum=1.5",
        "train schedule=bogus", "train lr=0", "train alpha=-1",
        "train sampler=bogus", "spectrum sampler=bogus",
        "probe-power sampler=bogus", "train lr=nan steps=2",
        "spectrum lr=nan steps=2", "probe-power lr=nan steps=2",
        "train alpha=nan method=eigensam steps=2",
        "train weight_decay=nan steps=2", "train weight_decay=-1 steps=2",
        "train data_margin=nan steps=2", "train data_margin=-1 steps=2",
        f"bound {BOUND} f_s=nan", f"bound {BOUND} lambda1=inf",
        f"bound {BOUND} sigma=nan", f"bound {BOUND} x_norm=nan",
        f"bound {BOUND} d=0", f"bound {BOUND} n=0",
        f"bound {BOUND} sigma=-1", f"bound {BOUND} sigma=0",
        f"bound {BOUND} loss_bound=0", f"bound {BOUND} loss_bound=-1",
        f"bound {BOUND} third_bound=-1", f"bound {BOUND} delta=0",
        f"bound {BOUND} delta=1", f"bound {BOUND} delta=1.5",
        "align-range omega=nan", "align-range omega=0",
        "align-range omega=1", "align-range omega=1.5",
        "spectrum lr=inf", "probe-moments rho_grid=0.02,inf",
        "probe-moments x0=nan", "train lr=inf steps=2",
        "simulate-sde eta=inf steps=2 data_n=16 test_n=16",
        "simulate-sde processes=sde3,sde3 steps=2 data_n=16 test_n=16",
    ])
    def test_config_error_leaves_no_artifact(self, tmp_path, capsys, case):
        # A model that does not fit the data, a step size that is not
        # positive, a rho grid with fewer than two distinct values (no
        # slope to fit), a negative or NaN weight decay or data margin, an
        # optimizer or sampler value that the training run (or the
        # training prefix of spectrum and probe-power) rejects, a
        # non-finite float value of any subcommand, a repeated process, a
        # bound count d or n below 1, bound inputs outside the domain of
        # BoundInputs.validate and an omega outside (0, 1) are config
        # errors before any artifact is written.
        subcommand, *sets = case.split()
        args = [item for kv in sets for item in ("--set", kv)]
        assert main([subcommand, "--out", str(tmp_path), *args]) == 2
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("processes", [
        "discrete-sam,sde3", "sde2", "discrete-sam"])
    def test_exact_diffusion_at_d746(self, tmp_path, processes):
        # 12,32,10 has d=746: exact diffusion factors Sigma at any d, so every
        # process runs to a complete CSV.
        sets = ["model_layers=12,32,10", "data_dim=12", "data_classes=10",
                "data_n=16", "test_n=16", "batch_size=8", "steps=1",
                "eval_every=1", "probe_q=2", "diffusion=exact",
                f"processes={processes}"]
        args = [item for kv in sets for item in ("--set", kv)]
        assert main(["simulate-sde", "--out", str(tmp_path), *args]) == 0
        _, rows, error = read_csv(tmp_path / "sde.csv")
        assert error is None
        assert sorted((r.process, r.step) for r in rows) == sorted(
            (p, step) for p in processes.split(",") for step in (0, 1))

    def test_numeric_error_exit_three(self, tmp_path):
        code = main(["train", "--out", str(tmp_path), "--set", "lr=1e155",
                     "--set", "steps=50", "--set", "eval_every=1",
                     "--set", "loss_head=mse", "--set", "model_layers=2,4,2",
                     "--set", "data_n=16", "--set", "test_n=16",
                     "--set", "batch_size=8", "--set", "probe_q=3"])
        assert code == 3

    @pytest.mark.parametrize("case,name,results,error", [
        ("spectrum lr=1e6 steps=20 " + SMALL, "spectrum.json",
         {"spectra": []}, "NonFiniteLoss"),
        ("probe-power lr=1e6 steps=20 " + SMALL, "power.json",
         {"power_curves": []}, "NonFiniteLoss"),
        ("probe-moments toy=quartic1d x0=1e100", "moments.json", {},
         "NonFiniteLoss"),
        ("probe-moments toy=quartic1d eta=1e200", "moments.json", {},
         "NonFiniteState"),
    ], ids=["spectrum", "probe-power", "probe-moments", "probe-moments-eta"])
    def test_numeric_error_leaves_a_json_report(self, tmp_path, capsys, case,
                                                name, results, error):
        # A training prefix that diverges, a toy point whose loss overflows
        # or a step size whose square overflows: exit 3, and the report
        # holds the results so far and the error.
        subcommand, *sets = case.split()
        args = [item for kv in sets for item in ("--set", kv)]
        assert main([subcommand, "--out", str(tmp_path), *args]) == 3
        assert error in capsys.readouterr().err
        payload = json.loads((tmp_path / name).read_text())
        assert payload["results"] == results
        assert payload["error"].startswith(error + ": ")
        assert payload["config"]["out"] == str(tmp_path)

    def test_json_report_keeps_the_seeds_before_an_error(self, tmp_path,
                                                         monkeypatch):
        sets = SMALL.split() + ["k=2", "spectrum_q=20", "m_trace=4"]
        args = [item for kv in sets for item in ("--set", kv)]
        assert main(["spectrum", "--out", str(tmp_path / "ok"),
                     "--seed", "0,1", *args]) == 0
        whole = json.loads((tmp_path / "ok" / "spectrum.json").read_text())
        assert "error" not in whole
        real = runner.spectrum_deflated
        calls = []

        def fail_on_second_seed(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise ZeroIterate("forced on the second seed")
            return real(*a, **kw)

        monkeypatch.setattr(runner, "spectrum_deflated", fail_on_second_seed)
        assert main(["spectrum", "--out", str(tmp_path / "bad"),
                     "--seed", "0,1", *args]) == 3
        payload = json.loads((tmp_path / "bad" / "spectrum.json").read_text())
        assert payload["results"]["spectra"] == whole["results"]["spectra"][:1]
        assert payload["error"] == "ZeroIterate: forced on the second seed"

    def test_bound_and_align_range(self, tmp_path):
        sets = ["--set", "f_s=0.1", "--set", "lambda1=10", "--set", "x_norm=10",
                "--set", "d=100", "--set", "n=10000", "--set", "sigma=0.01",
                "--set", "loss_bound=1", "--set", "third_bound=1",
                "--set", "delta=0.05"]
        assert main(["bound", "--out", str(tmp_path), *sets]) == 0
        payload = json.loads((tmp_path / "bound.json").read_text())
        assert payload["results"]["bound"] == pytest.approx(0.4720622960020037)
        # C = 0 is inside the domain: the cubic term vanishes.
        assert main(["bound", "--out", str(tmp_path / "c0"), *sets,
                     "--set", "third_bound=0"]) == 0
        assert main(["align-range", "--out", str(tmp_path),
                     "--set", "omega=0.8"]) == 0
        rng = json.loads((tmp_path / "align_range.json").read_text())
        assert rng["results"]["upper"] == pytest.approx(3.4285714, abs=1e-6)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("steps=5\neval_every=5\nmodel_layers=2,4,2\n"
                            "data_n=16\ntest_n=16\nbatch_size=8\nprobe_q=3\n"
                            "out=SHOULD_BE_OVERRIDDEN\n")
        code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 0
        config, _, _ = read_csv(tmp_path / "train.csv")
        assert config["out"] == str(tmp_path)
        assert config["steps"] == "5"
