"""Config validation, exit codes, output schemas, and reproducibility."""

import dataclasses
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from mi_sco_lab import bounds, mc, sco
from mi_sco_lab.cli import main
from mi_sco_lab.harness import (
    EXPERIMENTS,
    MC_KEPT_BYTES,
    ConfigError,
    ExperimentConfig,
    _exp_xu_check,
    _OutputDir,
    _xu_learner_menu,
    load_config,
    numpy_cpu_features,
    run,
)
from mi_sco_lab.learners import (FULL_ENUM_BUDGET, NET_BLOCK_CELLS, MeanLearner,
                                 QuantizedMeanLearner, exact_channel, product_grid)
from mi_sco_lab.sco import P_MAX, HardInstance
from oracles import xu_gap_report_fresh

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="tradeoff", extra="", d=1, m=4, trials=2000,
                 seed=7, out=None, fixed_p="0.1", p_mode="fixed", force=()):
    """A config for ``name`` that holds only the keys the experiment reads
    (p_values only in fixed mode), plus the keys named in ``force``;
    ``extra`` lines go at the end, in [run]."""
    out = out or (tmp_path / "out")
    sections = {"instance": {"d": d, "p_mode": p_mode, "p_values": fixed_p},
                "run": {"m": m, "trials": trials, "master_seed": seed, "output_dir": out}}
    reads = (EXPERIMENTS[name][1] if name in EXPERIMENTS
             else set(sections["instance"]) | set(sections["run"]))
    keep = (reads - ({"p_values"} if p_mode == "uniform" else set())) | set(force)
    text = f"[experiment]\nname = {name}\n"
    for section, values in sections.items():
        lines = [f"{key} = {value}" for key, value in values.items() if key in keep]
        if lines:
            text += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    path = tmp_path / "config.ini"
    path.write_text(text + extra + "\n")
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
        path, _ = write_config(tmp_path, name="theorem1", extra="epsilon = 0.1")
        with pytest.raises(ConfigError, match="1/54"):
            load_config(path)

    def test_epsilon_in_range_accepted(self, tmp_path):
        path, _ = write_config(tmp_path, name="theorem1", extra="epsilon = 0.01")
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
            tmp_path, name="theorem1",
            extra="\n[learner]\nkind = subsample\nk = 2\nbase = mean")
        cfg = load_config(path)
        assert cfg.learner.k == 2

    def test_invalid_learner_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, name="theorem1",
                               extra="\n[learner]\nkind = perceptron")
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
        # randomized response is no config kind
        path, out = write_config(
            tmp_path, name="theorem1",
            extra="\n[learner]\nkind = randomized_response\nbase = mean")
        self.assert_rejected(capsys, path, out,
                             "unknown learner kind: 'randomized_response'")

    def test_subsample_k_above_m(self, tmp_path, capsys):
        # k = 0 too: reduce_subsample holds the one 1 <= k <= m rule
        for k in (9, 0):
            path, out = write_config(
                tmp_path, name="theorem1", m=4,
                extra=f"\n[learner]\nkind = subsample\nk = {k}\nbase = mean")
            self.assert_rejected(capsys, path, out, f"subsample size k={k} out of range for m=4")

    def test_negative_master_seed(self, tmp_path, capsys):
        path, out = write_config(tmp_path, seed=-5)
        self.assert_rejected(capsys, path, out, "master_seed must be >= 0")

    def test_negative_learner_seed(self, tmp_path, capsys):
        # [learner] has no seed key: any value is an unknown key
        path, out = write_config(
            tmp_path, name="theorem1",
            extra="\n[learner]\nkind = quantized_mean\nseed = -1")
        self.assert_rejected(capsys, path, out, "unknown key 'seed'")

    @pytest.mark.parametrize("trials", [0, 1])
    def test_theorem1_needs_two_trials(self, tmp_path, capsys, trials):
        path, out = write_config(tmp_path, name="theorem1", trials=trials)
        self.assert_rejected(capsys, path, out, "trials")

    def test_theorem1_chunk_draw_above_budget(self, tmp_path):
        # parsed only: a run would draw 8 * CHUNK * m * d bytes of uniforms
        # per Monte Carlo chunk, 1 GiB at d * m = 8192
        path, _ = write_config(tmp_path, name="theorem1", d=8193, m=1, p_mode="uniform")
        with pytest.raises(ConfigError, match="m=1, d=8193 draws 1073872896 uniform bytes"):
            load_config(path)
        # exactly at the budget is accepted
        path, _ = write_config(tmp_path, name="theorem1", d=4096, m=2, p_mode="uniform")
        cfg = load_config(path)
        assert 8 * mc.CHUNK * cfg.m * cfg.d == MC_KEPT_BYTES

    def test_verify_lemmas_chunk_draw_above_budget(self, tmp_path):
        # parsed only: second_moment_report draws 8 * SECOND_MOMENT_BLOCK * m * d
        # bytes of uniforms per block, 1 GiB at d * m = 32768
        for d, m, drawn in ((32, 1025, 1074790400), (1024, 1024, 34359738368)):
            path, _ = write_config(tmp_path, name="verify-lemmas", d=d, m=m, p_mode="uniform")
            with pytest.raises(ConfigError, match=f"m={m}, d={d} draws {drawn} uniform bytes"):
                load_config(path)
        # exactly at the budget is accepted
        path, _ = write_config(tmp_path, name="verify-lemmas", d=32, m=1024, p_mode="uniform")
        cfg = load_config(path)
        assert 8 * bounds.SECOND_MOMENT_BLOCK * cfg.m * cfg.d == MC_KEPT_BYTES

    @pytest.mark.parametrize("learner", ["kind = epsilon_net_erm",
                                         "kind = subsample\nbase = epsilon_net_erm\nk = {m}"])
    def test_theorem1_epsilon_net_above_budget(self, tmp_path, learner):
        # parsed only: the net's grid has ceil(sqrt(m)) + 1 points per axis,
        # d floats each: 16^4 * 4 = NET_BLOCK_CELLS at m = 225, 17^4 * 4 at 226
        for d, m, floats in ((4, 226, 334084), (16, 16, 5 ** 16 * 16)):
            path, _ = write_config(tmp_path, name="theorem1", d=d, m=m, p_mode="uniform",
                                   extra="\n[learner]\n" + learner.format(m=m))
            with pytest.raises(ConfigError, match=f"m={m}, d={d} builds an epsilon net of "
                                                  f"{floats} floats"):
                load_config(path)
        # exactly at the budget is accepted; a subsample fits the net on k points
        path, _ = write_config(tmp_path, name="theorem1", d=4, m=225, p_mode="uniform",
                               extra="\n[learner]\n" + learner.format(m=225))
        assert load_config(path).d == 4
        assert (math.ceil(math.sqrt(225)) + 1) ** 4 * 4 == NET_BLOCK_CELLS
        path, _ = write_config(tmp_path, name="theorem1", d=4, m=300, p_mode="uniform",
                               extra="\n[learner]\nkind = subsample\nbase = epsilon_net_erm\nk = 225")
        assert load_config(path).m == 300

    @pytest.mark.parametrize("kind, d, m, cells", [
        ("regularized_erm", 4, 8, 32), ("sgd", 4, 8, 32), ("quantized_mean", 2, 25, 25)])
    def test_theorem1_exact_mi_above_budget_draws_nothing(self, tmp_path, capsys, monkeypatch,
                                                          kind, d, m, cells):
        # the exact MI's bias-free part is built before the first Monte Carlo
        # draw; the factorized route counts its 2^m column patterns. Count
        # learners draw through sample_counts, every other through sample_plus
        def no_draw(*args, **kwargs):
            raise AssertionError("a Monte Carlo draw before the budget check")

        for name in ("sample_plus", "sample_counts"):
            monkeypatch.setattr(sco, name, no_draw)
            monkeypatch.setattr(bounds, name, no_draw)
        path, _ = write_config(tmp_path, name="theorem1", d=d, m=m, p_mode="uniform",
                               trials=100000, extra=f"\n[learner]\nkind = {kind}")
        assert run(path) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"budget exceeded: 2^{cells} sign patterns exceed budget {FULL_ENUM_BUDGET}"]

    def test_theorem1_one_trial_chunk_runs(self, tmp_path, capsys):
        # 16385 trials leave a last Monte Carlo chunk of one trial
        path, out = write_config(tmp_path, name="theorem1", trials=16385)
        assert run(path) == 0
        assert capsys.readouterr().out == ""
        assert (out / "results.csv").is_file()

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

    def test_negative_lam(self, tmp_path, capsys):
        # RegularizedErm holds the one lam >= 0 rule
        path, out = write_config(
            tmp_path, name="theorem1",
            extra="\n[learner]\nkind = regularized_erm\nlam = -0.5")
        self.assert_rejected(capsys, path, out, "invalid learner block: lam must be >= 0")

    @pytest.mark.parametrize("name, force, extra, match", [
        ("cmi", (), "\n[learner]\nkind = quantized_mean",
         "experiment 'cmi' does not read 'kind'"),
        ("cmi", (), "\n[learner]", "experiment 'cmi' reads no key of"),
        ("xu-check", ("trials",), "", "experiment 'xu-check' does not read 'trials'"),
        ("theorem1", ("p_mode",), "", "experiment 'theorem1' does not read 'p_mode'"),
        ("theorem1", (), "\n[learner]\nkind = sgd\nlam = 1.0",
         "unexpected keyword argument 'lam'"),
        ("theorem1", (), "\n[learner]\nkind = mean\ndelta = auto",
         "unexpected keyword argument 'delta'"),
        ("theorem1", (), "\n[learner]\nkind = quantized_mean\nrho = 0.5",
         "unknown key 'rho'"),
        ("tradeoff", ("p_values",), "", "p_values needs p_mode = fixed"),
        ("fingerprint", (), "quadrature_nodes = 64", "unknown key 'quadrature_nodes'"),
    ])
    def test_unread_key_rejected(self, tmp_path, capsys, name, force, extra, match):
        path, out = write_config(tmp_path, name=name, force=force, extra=extra,
                                 p_mode="uniform" if "p_values" in force else "fixed")
        self.assert_rejected(capsys, path, out, match)

    @pytest.mark.parametrize("d, m", [(3, 2), (2, 16)])
    def test_net_erm_case_out_of_range(self, tmp_path, capsys, d, m):
        # net-erm's cases need d <= m and d*m <= 18
        path, out = write_config(tmp_path, name="net-erm", d=d, m=m)
        self.assert_rejected(capsys, path, out, f"got d={d}, m={m}")

    @pytest.mark.parametrize("name, d", [("fingerprint", 1), ("theorem1", 4)])
    def test_trials_above_kept_bytes(self, tmp_path, capsys, name, d):
        # load_config raises before any Monte Carlo array is allocated
        path, out = write_config(tmp_path, name=name, d=d, trials=10 ** 30)
        self.assert_rejected(capsys, path, out, "Monte Carlo bytes")

    @pytest.mark.parametrize("name", ["cmi", "xu-check"])
    def test_seed_override_unread(self, tmp_path, capsys, name):
        path, out = write_config(tmp_path, name=name)
        self.assert_rejected(capsys, path, out, f"experiment {name!r} does not read --seed",
                             seed=3)

    def test_config_not_utf8(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        path.write_bytes(path.read_bytes() + "# caf\u00e9\n".encode("latin-1"))
        self.assert_rejected(capsys, path, out, "malformed config: 'utf-8' codec can't decode")

    def test_parse_error_in_one_line(self, tmp_path, capsys):
        # configparser's message lists each bad line on a line of its own
        path, out = write_config(tmp_path, extra="no value here")
        self.assert_rejected(capsys, path, out,
                             "malformed config: Source contains parsing errors: ")

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("override", [False, True], ids=["output_dir", "--out"])
    def test_output_dir_at_or_under_a_file(self, tmp_path, capsys, below, override):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        path, _ = write_config(tmp_path, out=tmp_path / "unused" if override else out)
        args = ["tradeoff", "--config", str(path)] + (["--out", str(out)] if override else [])
        assert main(args) == 1
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        assert printed[0].startswith(f"config error: cannot create output_dir {str(out)!r}: ")
        assert blocker.read_text() == "kept\n" and not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("name", ["results.csv", "tradeoff.csv", "manifest.json"])
    def test_directory_at_a_written_name(self, tmp_path, capsys, name):
        # output_dir exists, but a name the run writes is a directory: the
        # experiment body writes tradeoff.csv, run writes the other two
        path, out = write_config(tmp_path)
        (out / name).mkdir(parents=True)
        assert main(["tradeoff", "--config", str(path)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        assert printed[0].startswith(
            f"config error: cannot write {str(out / name)!r} in output_dir: ")
        assert (out / name).is_dir() and not any((out / name).iterdir())


# accepted configs, 300 trials each: every experiment at three (d, m), and
# theorem1 with every learner kind, every subsample base and both epsilon modes
SWEEP_LEARNERS = ("kind = mean", "kind = quantized_mean\ndelta = 0.25",
                  "kind = epsilon_net_erm", "kind = sgd\ndelta = auto",
                  "kind = regularized_erm\nlam = 0", "kind = regularized_erm\nlam = 1.5\ndelta = 0.1",
                  *(f"kind = subsample\nk = 1\nbase = {base}" for base in
                    ("mean", "quantized_mean", "epsilon_net_erm", "sgd", "regularized_erm")))
SWEEP = [(name, d, m, extra) for name in sorted(EXPERIMENTS)
         for extra in ([f"\n[learner]\n{lrn}" for lrn in SWEEP_LEARNERS]
                       if name == "theorem1" else [""])
         for d, m in ((1, 1), (2, 3), (3, 4))]
SWEEP += [("theorem1", 2, 3, f"epsilon = {eps}{extra}")
          for eps in ("0.01", "measured") for extra in ("", "\n\n[learner]\nkind = sgd")]


@pytest.mark.parametrize("name, d, m, extra", SWEEP,
                         ids=lambda v: str(v).replace("\n[learner]\n", "").replace(" = ", "=")
                         .replace("\n", ","))
def test_accepted_config_runs_or_exits_in_one_line(tmp_path, capsys, name, d, m, extra):
    """Every config load_config accepts runs under --verify to exit 0, or to
    exit 1 or 2 with one printed line, and raises nothing. theorem1 exits 2
    at m = 1, where mi_dimension_scan reads holds=False, and at epsilon =
    0.01, which the measured risk exceeds."""
    path, _ = write_config(tmp_path, name=name, d=d, m=m, trials=300, p_mode="uniform",
                           extra=extra)
    load_config(path)
    code = run(path, verify=True)
    printed = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2)
    assert len(printed) == (code != 0)
    if code == 2:
        assert printed[0].startswith("verification failed: ")


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
        path, _ = write_config(tmp_path, name="theorem1", extra="epsilon = 0.5")
        assert run(path) == 1

    def test_mismatched_experiment_exit_one(self, tmp_path):
        path, _ = write_config(tmp_path, name="tradeoff")
        assert run(path, experiment="cmi") == 1

    def test_budget_exceeded_exit_one(self, tmp_path):
        path, _ = write_config(tmp_path, d=1, m=24,
                               fixed_p="0.1")
        assert run(path) == 1

    def test_tradeoff_large_d_draws_no_bias(self, tmp_path, capsys, monkeypatch):
        # the bias at d = 10^11 would take 745 GiB: d*m is checked first
        def no_draw(self):
            raise AssertionError("the bias was drawn")

        monkeypatch.setattr(ExperimentConfig, "instance", no_draw)
        path, _ = write_config(tmp_path, d=10 ** 11, m=1, p_mode="uniform")
        assert run(path) == 1
        assert capsys.readouterr().out.splitlines() == [
            "budget exceeded: tradeoff sweep needs 2^(d*m) <= 2^20"]

    def test_tradeoff_large_m_builds_no_power(self, tmp_path, capsys):
        # 2^(d*m) at m = 10^18 is an integer of 10^18 bits: d*m is compared as is
        path, _ = write_config(tmp_path, d=1, m=10 ** 18)
        assert run(path) == 1
        assert capsys.readouterr().out.splitlines() == [
            "budget exceeded: tradeoff sweep needs 2^(d*m) <= 2^20"]

    @pytest.mark.parametrize("d, m, fixed_p", [(4, 5, "0.1, 0.2, -0.1, 0.0"), (2, 10, "0.1, 0.2")],
                             ids=["d4-m5", "d2-m10"])
    def test_tradeoff_dense_law_exit_one(self, tmp_path, capsys, d, m, fixed_p):
        # 2^20 samples fit tradeoff's budget, but randomized response's dense
        # law would be 2^20 x 1296 float64s (10.1 GiB) at (4, 5); at (2, 10)
        # its 2^20 x 121 law (0.95 GiB) fits 1 GiB, but not with the two
        # temporaries of its size that its MI and gap build
        path, _ = write_config(tmp_path, d=d, m=m, fixed_p=fixed_p)
        assert run(path) == 1
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 and printed[0].startswith("budget exceeded: dense")

    def test_verify_mode_flags_failures(self, tmp_path, monkeypatch):
        from mi_sco_lab import harness

        def broken(cfg, outdir):
            from mi_sco_lab.bounds import make_report
            return [make_report("always_false", 0.0, 1.0)]

        monkeypatch.setitem(harness.EXPERIMENTS, "tradeoff",
                            (broken, harness.EXPERIMENTS["tradeoff"][1]))
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

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        # outside the checksummed files: the worker count, Python, numpy and
        # numpy's SIMD targets
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        path, out = write_config(tmp_path)
        assert run(path) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 1
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        # numpy's baseline first, then the dispatched targets found
        features = manifest["numpy_cpu_features"]
        assert features == numpy_cpu_features() and features and set(map(type, features)) == {str}
        assert "manifest.json" not in manifest["files"]

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
        # theorem1 draws its certificate biases from master_seed
        cfg = """[experiment]
name = theorem1

[instance]
d = 1

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


# the config field built from several keys
FIELD_KEYS = {"learner": {"kind", "delta", "lam", "k", "base"}}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_keys_read_equal_keys_declared(tmp_path, monkeypatch, name):
    """The config keys an experiment's run reads, recorded by a spy on
    ``ExperimentConfig`` attribute reads (over both p_modes where it reads
    p_mode), are the keys its registry entry declares, in both directions. ``bounds.cmi_exact`` never
    sees the config and takes 2 s of the cmi sweep, so it is stubbed."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"name"}
    read = set()
    getattribute = ExperimentConfig.__getattribute__

    def spy(self, attr):
        if attr in fields:
            read.update(FIELD_KEYS.get(attr, {attr}))
        return getattribute(self, attr)

    monkeypatch.setattr(bounds, "cmi_exact", lambda learner, inst, m: 0.0)
    monkeypatch.setattr(ExperimentConfig, "__getattribute__", spy)
    for p_mode in ("fixed", "uniform") if "p_mode" in EXPERIMENTS[name][1] else ("fixed",):
        path, _ = write_config(tmp_path, name=name, d=1, m=2, trials=100,
                               p_mode=p_mode, out=tmp_path / p_mode)
        assert run(path) == 0
    assert read == EXPERIMENTS[name][1]


def _xu_biases(d):
    """The xu-check's bias grid at dimension d."""
    return product_grid([np.linspace(-P_MAX, P_MAX, 5 if d <= 2 else 3)] * d)


class TestXuCheck:
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reweighted_channel_is_a_fresh_one(self, d, m):
        for learner in _xu_learner_menu(m):
            ch = exact_channel(learner, HardInstance.zero(d), m)
            for p in _xu_biases(d):
                inst = HardInstance(d, p)
                got, want = ch.reweighted(inst), exact_channel(learner, inst, m)
                assert got.sample_probs.tobytes() == want.sample_probs.tobytes()
                assert got.mutual_information() == want.mutual_information()
                assert got.expected_generalization_gap(inst) == \
                    want.expected_generalization_gap(inst)
                assert got.expected_excess_risk(inst) == want.expected_excess_risk(inst)
                assert bounds.xu_gap_report(learner, ch, inst) == \
                    xu_gap_report_fresh(learner, inst, m)

    def test_tightest_report_is_the_first_tie(self, tmp_path):
        cfg = load_config(REPO / "configs" / "xu-check.ini")
        got = _exp_xu_check(cfg, _OutputDir(tmp_path))[2]
        fresh = [xu_gap_report_fresh(learner, HardInstance(d, p), m)
                 for d in range(1, min(3, cfg.d) + 1) for m in (1, 2, 4) if m <= cfg.m
                 for p in _xu_biases(d) for learner in _xu_learner_menu(m)]
        assert got == min(fresh, key=lambda r: r.slack)
        # every bias of regularized ERM at d = 2, m = 1 ties at slack 0, and
        # min keeps the first of them in bias-major, learner-minor order
        assert sum(r.slack == got.slack for r in fresh) > 1
        assert (got.name, got.d, got.m, got.slack) == ("xu[regularized_erm]", 2, 1, 0.0)


def _spy_channels(monkeypatch):
    """Record (learner, d, m) of every exact channel the harness builds."""
    from mi_sco_lab import harness

    calls, real = [], harness.exact_channel
    monkeypatch.setattr(harness, "exact_channel",
                        lambda learner, inst, m: calls.append((learner, inst.d, m))
                        or real(learner, inst, m))
    return calls


class TestChannelsBuiltOnce:
    def test_xu_check_builds_the_mean_plot_channels_once(self, tmp_path, monkeypatch):
        # the reference case (m = 2) is the plot's m = 2 channel, and the
        # bias-grid menu takes the d = 1 mean learner's channels at m = 1, 2
        # and 4 from the plot too
        calls = _spy_channels(monkeypatch)
        _exp_xu_check(load_config(REPO / "configs" / "xu-check.ini"), _OutputDir(tmp_path))
        mean = [m for learner, d, m in calls if learner == MeanLearner() and d == 1]
        assert sorted(mean) == [1, 2, 4, 8]

    def test_tradeoff_rho_zero_row_is_its_delta_row(self, tmp_path, monkeypatch):
        # QuantizedMeanLearner() steps 1/m^2 = grid_step(None, m), as the
        # delta = 1/m^2 row does, so the rho = 0 row builds no channel of its own
        calls = _spy_channels(monkeypatch)
        path, out = write_config(tmp_path, d=2, m=4, fixed_p="0.1, -0.2")
        assert run(path) == 0
        rows = (out / "tradeoff.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) - 1 == 7
        assert QuantizedMeanLearner() not in [learner for learner, _, _ in calls]
        assert rows.index(rows[-5]) == 2  # rho = 0 repeats the delta = 1/16 row
