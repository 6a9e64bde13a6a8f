"""Config validation, exit codes, output schemas, and reproducibility."""

import json
import os

import pytest

from mi_sco_lab.cli import main
from mi_sco_lab.harness import ConfigError, ExperimentConfig, load_config, run


def write_config(tmp_path, name="tradeoff", extra="", d=1, m=4, trials=2000,
                 seed=7, out=None, fixed_p="0.1"):
    out = out or (tmp_path / "out")
    text = f"""[experiment]
name = {name}

[instance]
d = {d}
p_mode = fixed
p_values = {fixed_p}

[run]
m = {m}
trials = {trials}
master_seed = {seed}
output_dir = {out}
{extra}
"""
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path, out


class TestConfigParsing:
    def test_minimal_valid(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.name == "tradeoff"
        assert cfg.d == 1 and cfg.m == 4
        assert cfg.epsilon is None  # measured

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_key_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, extra="workers = 4")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, extra="\n[plotting]\nstyle = dark")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_experiment_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, name="train-big-model")
        with pytest.raises(ConfigError, match="unknown experiment"):
            load_config(path)

    def test_epsilon_range_enforced(self, tmp_path):
        path, _ = write_config(tmp_path, extra="epsilon = 0.1")
        with pytest.raises(ConfigError, match="1/54"):
            load_config(path)

    def test_epsilon_in_range_accepted(self, tmp_path):
        path, _ = write_config(tmp_path, extra="epsilon = 0.01")
        assert load_config(path).epsilon == pytest.approx(0.01)

    def test_p_values_length_checked(self, tmp_path):
        path, _ = write_config(tmp_path, d=2, fixed_p="0.1")
        with pytest.raises(ConfigError, match="d entries"):
            load_config(path)

    def test_bias_range_checked(self, tmp_path):
        path, _ = write_config(tmp_path, fixed_p="0.4")
        with pytest.raises(ConfigError, match="1/3"):
            load_config(path)

    def test_learner_block(self, tmp_path):
        path, _ = write_config(
            tmp_path, extra="\n[learner]\nkind = subsample\nk = 2\nbase = mean")
        cfg = load_config(path)
        assert cfg.learner().k == 2

    def test_learner_seed_key(self, tmp_path):
        path, _ = write_config(
            tmp_path, extra="\n[learner]\nkind = randomized_response\n"
                            "rho = 0.5\nbase = mean\nseed = 31")
        cfg = load_config(path)
        assert cfg.learner_seed == 31

    def test_learner_seed_changes_randomized_stream(self, tmp_path):
        from mi_sco_lab.bounds import measured_excess_risk
        from mi_sco_lab.learners import MeanLearner, RandomizedResponse
        rr = RandomizedResponse(base=MeanLearner(), rho=0.8)
        a = measured_excess_risk(rr, 1, 3, trials=500, seed=1, learner_seed=10)
        b = measured_excess_risk(rr, 1, 3, trials=500, seed=1, learner_seed=11)
        c = measured_excess_risk(rr, 1, 3, trials=500, seed=1, learner_seed=10)
        assert a == c and a != b

    def test_invalid_learner_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, extra="\n[learner]\nkind = perceptron")
        with pytest.raises(ConfigError):
            load_config(path)


class TestFailClosed:
    """Configs that used to pass load_config and then die in a traceback."""

    def assert_rejected(self, capsys, path, out, match, **overrides):
        if not overrides:
            with pytest.raises(ConfigError, match=match):
                load_config(path)
        assert run(path, **overrides) == 1
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 and printed[0].startswith("config error:")
        assert match in printed[0]
        assert not out.exists()

    def test_theorem1_rejects_randomized_learner(self, tmp_path, capsys):
        path, out = write_config(
            tmp_path, name="theorem1",
            extra="\n[learner]\nkind = randomized_response\nrho = 0.5\nbase = mean")
        self.assert_rejected(capsys, path, out, "deterministic learner")

    def test_subsample_k_above_m(self, tmp_path, capsys):
        path, out = write_config(
            tmp_path, name="theorem1", m=4,
            extra="\n[learner]\nkind = subsample\nk = 9\nbase = mean")
        self.assert_rejected(capsys, path, out, "k=9 exceeds m=4")

    def test_negative_master_seed(self, tmp_path, capsys):
        path, out = write_config(tmp_path, seed=-5)
        self.assert_rejected(capsys, path, out, "master_seed must be >= 0")

    def test_negative_learner_seed(self, tmp_path, capsys):
        path, out = write_config(
            tmp_path, extra="\n[learner]\nkind = quantized_mean\nseed = -1")
        self.assert_rejected(capsys, path, out, "seed must be >= 0")

    def test_negative_seed_override(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        self.assert_rejected(capsys, path, out, "--seed must be >= 0", seed=-5)

    def test_non_finite_p_values(self, tmp_path, capsys):
        path, out = write_config(tmp_path, fixed_p="nan")
        self.assert_rejected(capsys, path, out, "p_values must be finite")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_delta(self, tmp_path, capsys, value):
        path, out = write_config(
            tmp_path, name="theorem1",
            extra=f"\n[learner]\nkind = quantized_mean\ndelta = {value}")
        self.assert_rejected(capsys, path, out, "delta must be finite")

    def test_non_finite_lam(self, tmp_path, capsys):
        path, out = write_config(
            tmp_path, name="theorem1",
            extra="\n[learner]\nkind = regularized_erm\nlam = nan")
        self.assert_rejected(capsys, path, out, "lam must be finite")


class TestRun:
    def test_exit_zero_and_outputs(self, tmp_path):
        path, out = write_config(tmp_path)
        assert run(path) == 0
        assert (out / "results.csv").is_file()
        assert (out / "tradeoff.csv").is_file()
        assert (out / "mi_vs_delta.xy").is_file()
        assert (out / "manifest.json").is_file()

    def test_missing_config_exit_one(self, tmp_path):
        assert run(tmp_path / "absent.ini") == 1

    def test_bad_epsilon_exit_one(self, tmp_path):
        path, _ = write_config(tmp_path, extra="epsilon = 0.5")
        assert run(path) == 1

    def test_mismatched_experiment_exit_one(self, tmp_path):
        path, _ = write_config(tmp_path, name="tradeoff")
        assert run(path, experiment="cmi") == 1

    def test_budget_exceeded_exit_one(self, tmp_path):
        path, _ = write_config(tmp_path, d=1, m=24,
                               fixed_p="0.1")
        assert run(path) == 1

    def test_verify_mode_flags_failures(self, tmp_path, monkeypatch):
        from mi_sco_lab import harness

        def broken(cfg, outdir):
            from mi_sco_lab.bounds import make_report
            return [make_report("always_false", 0.0, 1.0)]

        monkeypatch.setitem(harness.EXPERIMENTS, "tradeoff", broken)
        path, _ = write_config(tmp_path)
        assert run(path, verify=True) == 2
        assert run(path, verify=False) == 0

    def test_seed_and_out_overrides(self, tmp_path):
        path, _ = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert run(path, seed=99, out=str(other)) == 0
        manifest = json.loads((other / "manifest.json").read_text())
        assert manifest["master_seed"] == 99

    def test_cli_entry(self, tmp_path):
        path, out = write_config(tmp_path)
        code = main(["tradeoff", "--config", str(path), "--verify"])
        assert code == 0


class TestSchemas:
    def test_results_header(self, tmp_path):
        path, out = write_config(tmp_path)
        run(path)
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "name,d,m,epsilon,lhs,rhs,holds,slack,trials,ci_halfwidth,seed"

    def test_tradeoff_header(self, tmp_path):
        path, out = write_config(tmp_path)
        run(path)
        header = (out / "tradeoff.csv").read_text().splitlines()[0]
        assert header == "d,m,delta,rho,mi_nats,excess_risk,xu_bound,pipeline_lb"

    def test_xy_files_two_columns(self, tmp_path):
        path, out = write_config(tmp_path)
        run(path)
        for line in (out / "mi_vs_rho.xy").read_text().splitlines():
            assert len(line.split()) == 2

    def test_manifest_covers_all_files(self, tmp_path):
        path, out = write_config(tmp_path)
        run(path)
        manifest = json.loads((out / "manifest.json").read_text())
        names = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(manifest["files"]) == names

    def test_manifest_skips_stale_files(self, tmp_path):
        path, out = write_config(tmp_path, name="fingerprint", trials=1000)
        out.mkdir()
        (out / "old_results.csv").write_text("stale\n")
        assert run(path) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "old_results.csv" not in manifest["files"]
        assert set(manifest["files"]) == {"results.csv", "fingerprint_vs_m.xy"}
        assert (out / "old_results.csv").read_text() == "stale\n"


class TestDeterminism:
    def _run_with_threads(self, tmp_path, tag, threads, seed=7):
        path, _ = write_config(tmp_path, trials=2000, seed=seed,
                               out=tmp_path / tag)
        old = os.environ.get("MI_SCO_THREADS")
        os.environ["MI_SCO_THREADS"] = str(threads)
        try:
            assert run(path) == 0
        finally:
            if old is None:
                os.environ.pop("MI_SCO_THREADS", None)
            else:
                os.environ["MI_SCO_THREADS"] = old
        out = tmp_path / tag
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.suffix in (".csv", ".xy")}

    def test_rerun_identical(self, tmp_path):
        a = self._run_with_threads(tmp_path, "a", 1)
        b = self._run_with_threads(tmp_path, "b", 1)
        assert a == b

    def test_worker_count_invariant(self, tmp_path):
        a = self._run_with_threads(tmp_path, "serial", 1)
        b = self._run_with_threads(tmp_path, "parallel", 4)
        assert a == b

    def test_seed_changes_results(self, tmp_path):
        # different seed, different instance draw: uniform mode
        cfg = """[experiment]
name = theorem1

[instance]
d = 1
p_mode = uniform

[run]
m = 3
trials = 2000
master_seed = {seed}
output_dir = {out}
"""
        outs = []
        for seed in (1, 2):
            path = tmp_path / f"cfg{seed}.ini"
            out = tmp_path / f"o{seed}"
            path.write_text(cfg.format(seed=seed, out=out))
            assert run(path) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] != outs[1]
