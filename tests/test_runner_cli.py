"""Experiment runner artifacts and the CLI surface."""

import json

import numpy as np
import pytest

from samlab.cli import main
from samlab.config import SCHEMAS, parse_config_file, render, resolve
from samlab import runner
from samlab.errors import ConfigError, NonFiniteLoss, ZeroIterate
from samlab.metrics import COLUMNS, canonical_bytes, read_csv
from samlab.runner import (run_probe_moments, run_simulate_sde, run_spectrum,
                           run_train)


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
        from samlab.runner import _trained_point

        cfg = train_cfg(tmp_path, steps=500, eval_every=500, data_margin=8.0,
                        lr=0.2, data_n=64, test_n=64)
        spec, train, _test, x = _trained_point(cfg, seed=0)
        pv = ParamVector(x, spec.layout)
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
        # An aligned process takes drift and diffusion from one evaluation of
        # the per-batch terms per substep, with the values of two.
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
            model = sigma_exact(*args, **kwargs)
            sigmas.append(model.sigma)
            return model

        def kept_step(x, sde_config, drift_vec, noise):
            states.append((x, drift_vec))
            return em_step(x, sde_config, drift_vec, noise)

        monkeypatch.setattr(sde, "_per_batch_terms", counted_terms)
        monkeypatch.setattr(sde, "sigma_exact", kept_sigma)
        monkeypatch.setattr(sde, "euler_maruyama_step", kept_step)
        run_simulate_sde(cfg)
        monkeypatch.undo()
        substeps = 2 * 2 * 2  # processes x steps x substeps
        assert len(states) == len(sigmas) == substeps
        assert len(calls) == substeps

        spec, train, _ = runner._datasets(cfg)
        family = mlp_family(spec, train, cfg["batch_size"])
        tau = cfg["grad_floor"]
        variants = [sde.VARIANT_ALIGNED_RHO2 if i >= 4 else sde.VARIANT_ALIGNED_RHO
                    for i in range(substeps)]
        for variant, (x, drift_vec), sigma in zip(variants, states, sigmas):
            dd = sde.drift_aligned(family, x, variant, cfg["rho"], q=10,
                                   seed=0, tau=tau)
            np.testing.assert_array_equal(drift_vec, dd.combined())
            want = sde.sigma_exact(family, x, cfg["rho"], order=3, tau=tau)
            np.testing.assert_array_equal(sigma, want.sigma)

    def test_byte_identical_reproduction(self, tmp_path):
        pa = run_simulate_sde(sde_cfg(tmp_path / "a", diffusion="sampled"))
        pb = run_simulate_sde(sde_cfg(tmp_path / "b", diffusion="sampled"))
        ca = canonical_bytes(pa).replace(str(tmp_path / "a").encode(), b"OUT")
        cb = canonical_bytes(pb).replace(str(tmp_path / "b").encode(), b"OUT")
        assert ca == cb


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

    def test_trained_point_computes_no_probe_rows(self, tmp_path, monkeypatch):
        cfg = resolve("spectrum", {"out": str(tmp_path), "model_layers": "2,4,2",
                                   "data_n": "32", "test_n": "16",
                                   "batch_size": "8", "steps": "12"})
        spec, train, test, _ = runner._trained_point(dict(cfg, steps=0), seed=0)
        rows = []
        probed = runner._train(dict(cfg, eval_every=4, probe_q=3,
                                    fair_compute=False),
                               spec, train, test, 0, rows)
        assert len(rows) == 4

        def no_probes(*args, **kwargs):
            raise AssertionError("_trained_point computed a probe row")

        monkeypatch.setattr(runner, "_probe_row", no_probes)
        _spec, _train, _test, x = runner._trained_point(cfg, seed=0)
        assert x.tobytes() == probed.tobytes()

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

    def test_numeric_error_exit_three(self, tmp_path):
        code = main(["train", "--out", str(tmp_path), "--set", "lr=1e155",
                     "--set", "steps=50", "--set", "eval_every=1",
                     "--set", "loss_head=mse", "--set", "model_layers=2,4,2",
                     "--set", "data_n=16", "--set", "test_n=16",
                     "--set", "batch_size=8", "--set", "probe_q=3"])
        assert code == 3

    def test_bound_and_align_range(self, tmp_path):
        sets = ["--set", "f_s=0.1", "--set", "lambda1=10", "--set", "x_norm=10",
                "--set", "d=100", "--set", "n=10000", "--set", "sigma=0.01",
                "--set", "loss_bound=1", "--set", "third_bound=1",
                "--set", "delta=0.05"]
        assert main(["bound", "--out", str(tmp_path), *sets]) == 0
        payload = json.loads((tmp_path / "bound.json").read_text())
        assert payload["results"]["bound"] == pytest.approx(0.4720622960020037)
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
