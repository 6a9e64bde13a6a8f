"""Experiment runner: config parsing, registry, seeding, CSV/plot emission.

Config files are flat key-value text with section headers (INI syntax),
validated against a strict schema (unknown sections or keys are rejected):

    [experiment]
    name = tradeoff            # one of the registry names

    [instance]
    d = 2                      # dimension >= 1
    p_mode = uniform           # uniform | fixed
    p_values = 0.1, -0.2       # required iff p_mode = fixed

    [learner]
    kind = quantized_mean      # mean | quantized_mean | epsilon_net_erm |
                               # sgd | regularized_erm | subsample |
                               # randomized_response
    delta = auto               # quantization step, or auto for 1/m^2
    lam = 0.0                  # regularized_erm weight
    k = 2                      # subsample size, 1 <= k <= m
    rho = 0.5                  # randomized_response flip probability
    base = mean                # base kind for wrapper learners

    [run]
    m = 4                      # sample size >= 1
    epsilon = measured         # measured | float in (0, 1/54)
    trials = 100000            # Monte Carlo budget
    quadrature_nodes = 64
    master_seed = 12345        # >= 0
    output_dir = out

Every run writes results.csv (the BoundReport table), experiment-specific
CSVs, two-column .xy plot data, and manifest.json with the checksum of each
file it wrote. Numbers must be finite.
Exit codes: 0 ok, 1 config/budget error, 2 when --verify sees a failed
report. MI_SCO_THREADS caps the worker count; outputs are byte-identical
at any worker count.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bounds, mc
from .learners import (
    BudgetExceededError,
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    epsilon_net,
    exact_channel,
    make_learner,
)
from .sco import P_MAX, HardInstance, empirical_risk, sample

EPSILON_MAX = 1.0 / 54.0


class ConfigError(ValueError):
    """Config file missing, malformed, or out of documented ranges."""


_SCHEMA = {
    "experiment": {"name"},
    "instance": {"d", "p_mode", "p_values"},
    "learner": {"kind", "delta", "lam", "k", "rho", "base", "seed"},
    "run": {"m", "epsilon", "trials", "quadrature_nodes", "master_seed",
            "output_dir"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    d: int = 2
    p_mode: str = "uniform"
    p_values: tuple = ()
    learner_kind: str = "quantized_mean"
    learner_params: dict = None
    learner_seed: int | None = None  # stream for randomized learners
    m: int = 4
    epsilon: float | None = None  # None: measured
    trials: int = 100000
    quadrature_nodes: int = 64
    master_seed: int = 12345
    output_dir: str = "out"

    def instance(self) -> HardInstance:
        if self.p_mode == "fixed":
            return HardInstance(self.d, np.asarray(self.p_values))
        rng = mc.substream(self.master_seed, 1)
        return HardInstance.uniform_bias(self.d, rng)

    def learner(self):
        return make_learner(self.learner_kind, **(self.learner_params or {}))


def _parse_float(raw: str, key: str) -> float:
    try:
        if math.isfinite(value := float(raw)):
            return value
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from exc
    raise ConfigError(f"{key} must be finite, got {raw!r}")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    if not parser.has_option("experiment", "name"):
        raise ConfigError("missing required key: [experiment] name")
    name = parser["experiment"]["name"].strip()
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment name: {name!r}")

    inst = parser["instance"] if parser.has_section("instance") else {}
    d = _parse_int(inst.get("d", "2"), "d")
    if d < 1:
        raise ConfigError("d must be >= 1")
    p_mode = inst.get("p_mode", "uniform").strip().lower()
    if p_mode not in ("uniform", "fixed"):
        raise ConfigError("p_mode must be uniform or fixed")
    p_values = ()
    if p_mode == "fixed":
        raw = inst.get("p_values", "")
        if not raw.strip():
            raise ConfigError("p_mode=fixed requires p_values")
        p_values = tuple(_parse_float(v.strip(), "p_values") for v in raw.split(","))
        if len(p_values) != d:
            raise ConfigError("p_values must list d entries")
        if any(abs(v) > P_MAX + 1e-12 for v in p_values):
            raise ConfigError("p_values must lie in [-1/3, 1/3]")

    lrn = parser["learner"] if parser.has_section("learner") else {}
    kind = lrn.get("kind", "quantized_mean").strip().lower()
    params = {}
    if "delta" in lrn and lrn["delta"].strip().lower() != "auto":
        params["delta"] = _parse_float(lrn["delta"], "delta")
        if params["delta"] <= 0:
            raise ConfigError("delta must be positive")
    if "lam" in lrn:
        params["lam"] = _parse_float(lrn["lam"], "lam")
        if params["lam"] < 0:
            raise ConfigError("lam must be >= 0")
    if "k" in lrn:
        params["k"] = _parse_int(lrn["k"], "k")
    if "rho" in lrn:
        params["rho"] = _parse_float(lrn["rho"], "rho")
        if not 0.0 <= params["rho"] <= 1.0:
            raise ConfigError("rho must lie in [0, 1]")
    if "base" in lrn:
        params["base"] = lrn["base"].strip().lower()
    learner_seed = _parse_int(lrn["seed"], "seed") if "seed" in lrn else None
    if learner_seed is not None and learner_seed < 0:
        raise ConfigError("[learner] seed must be >= 0")

    run = parser["run"] if parser.has_section("run") else {}
    m = _parse_int(run.get("m", "4"), "m")
    if m < 1:
        raise ConfigError("m must be >= 1")
    eps_raw = run.get("epsilon", "measured").strip().lower()
    if eps_raw == "measured":
        epsilon = None
    else:
        epsilon = _parse_float(eps_raw, "epsilon")
        if not 0.0 < epsilon < EPSILON_MAX:
            raise ConfigError(f"epsilon must lie in (0, 1/54), got {epsilon}")
    trials = _parse_int(run.get("trials", "100000"), "trials")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    nodes = _parse_int(run.get("quadrature_nodes", "64"), "quadrature_nodes")
    if nodes < 2:
        raise ConfigError("quadrature_nodes must be >= 2")
    master_seed = _parse_int(run.get("master_seed", "12345"), "master_seed")
    if master_seed < 0:
        raise ConfigError("master_seed must be >= 0")
    output_dir = run.get("output_dir", "out")

    cfg = ExperimentConfig(name=name, d=d, p_mode=p_mode, p_values=p_values,
                           learner_kind=kind, learner_params=params,
                           learner_seed=learner_seed, m=m,
                           epsilon=epsilon, trials=trials,
                           quadrature_nodes=nodes, master_seed=master_seed,
                           output_dir=output_dir)
    try:
        learner = cfg.learner()
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid learner block: {exc}") from exc
    if getattr(learner, "k", 1) > m:
        raise ConfigError(f"subsample k={learner.k} exceeds m={m}")
    if name == "theorem1" and not learner.deterministic:
        raise ConfigError(f"theorem1 needs a deterministic learner, not {learner.kind}")
    return cfg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_xy(path: Path, xs, ys) -> None:
    with open(path, "w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{float(x):.17g} {float(y):.17g}\n")


def _write_table(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([bounds._fmt(v) for v in row])


class _OutputDir:
    """``outdir / name`` gives the path and records the name, so the
    manifest lists only the files this run wrote, never a stale one."""

    def __init__(self, path: Path):
        self.path, self.names = path, set()

    def __truediv__(self, name: str) -> Path:
        self.names.add(name)
        return self.path / name


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _exp_verify_lemmas(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    seed = cfg.master_seed
    reports = [bounds.pinsker_suite(1000, seed=seed)]
    match, optimal = bounds.coupling_suite(1000, n_random=100, seed=seed)
    reports += [match, optimal]
    reports.append(bounds.bounded_correlation_suite(1000, seed=seed))
    reports.append(bounds.subgaussian_correlation_suite(200, seed=seed))
    reports.append(bounds.fingerprint_expectation(bounds.EST_ZERO, min(cfg.m, 12),
                                                  nodes=cfg.quadrature_nodes))
    reports.append(bounds.gm_regime_report(max(cfg.m, 2)))
    inst = cfg.instance()
    reports.append(bounds.subgaussian_tail_report(inst, cfg.m,
                                                  trials=min(cfg.trials, 10 ** 6),
                                                  seed=seed))
    reports.append(bounds.genbound_chain_report(MeanLearner(), cfg.d, cfg.m,
                                                trials=min(cfg.trials, 20000),
                                                seed=seed))
    reports.append(bounds.second_moment_report(QuantizedMeanLearner(), cfg.d, cfg.m,
                                               outer=min(cfg.trials, 2000),
                                               seed=seed))
    pz = bounds.paley_zygmund_check([0.0, 1.0], [0.5, 0.5], 0.5)
    reports.append(pz.report)
    # the concentration-step arithmetic: (1/4)(1/54)^2 / (m eps) >= 1/(1e6 m eps)
    m_eps = cfg.m * (cfg.epsilon if cfg.epsilon else EPSILON_MAX)
    reports.append(bounds.make_report(
        "concentration_constant",
        bounds.paley_zygmund_rhs(1.0 / 54.0, m_eps, 0.5),
        1.0 / (1e6 * m_eps), m=cfg.m))
    return reports


def _exp_fingerprint(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    reports = []
    m_quad = min(cfg.m, 12)
    for est in bounds.ESTIMATOR_MENU:
        reports.append(bounds.fingerprint_expectation(
            est, m_quad, mode="quadrature", nodes=cfg.quadrature_nodes))
    for est in (bounds.EST_CLIPPED_MEAN, bounds.EST_SIGN):
        reports.append(bounds.fingerprint_expectation(
            est, cfg.m, mode="monte_carlo", trials=cfg.trials,
            seed=cfg.master_seed))
    ms = list(range(1, 13))
    vals = [bounds.fingerprint_quadrature(bounds.EST_CLIPPED_MEAN, m,
                                          cfg.quadrature_nodes) for m in ms]
    _write_xy(outdir / "fingerprint_vs_m.xy", ms, vals)
    return reports


def _xu_learner_menu(m: int):
    menu = [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
            RegularizedErm(lam=1.0), SgdLearner(),
            RandomizedResponse(base=MeanLearner(), rho=0.5)]
    if m >= 2:
        menu.append(SubsampleLearner(k=max(1, m // 2), base=MeanLearner()))
    return menu


def _p_grid(d: int):
    if d == 1:
        axes = [np.linspace(-P_MAX, P_MAX, 5)]
    elif d == 2:
        axes = [np.linspace(-P_MAX, P_MAX, 5)] * 2
    else:
        axes = [np.linspace(-P_MAX, P_MAX, 3)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def _exp_xu_check(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    reports = []
    # the reference case: mean learner, d=1, m=2, p=0
    ch = exact_channel(MeanLearner(), HardInstance.zero(1), 2)
    reports.append(bounds.make_report("xu_reference_mi", ch.mutual_information(),
                                      1.5 * math.log(2.0), tolerance=1e-12, d=1, m=2))
    reports.append(bounds.make_report("xu_reference_gap",
                                      ch.expected_generalization_gap(HardInstance.zero(1)),
                                      1.0, tolerance=1e-12, d=1, m=2))
    worst = math.inf
    worst_report = None
    for d in range(1, min(3, cfg.d) + 1):
        for m in (1, 2, 4):
            if m > cfg.m or d * m > 12:
                continue
            for p in _p_grid(d):
                inst = HardInstance(d, p)
                for learner in _xu_learner_menu(m):
                    rep = bounds.xu_gap_report(learner, inst, m)
                    if rep.slack < worst:
                        worst = rep.slack
                        worst_report = rep
    if worst_report is not None:
        reports.append(worst_report)
    ms, gaps, ub = [], [], []
    for m in (1, 2, 4, 8):
        ch = exact_channel(MeanLearner(), HardInstance.zero(1), m)
        ms.append(m)
        gaps.append(ch.expected_generalization_gap(HardInstance.zero(1)))
        ub.append(bounds.xu_bound(ch.mutual_information(), m))
    _write_xy(outdir / "xu_gap_vs_m.xy", ms, gaps)
    _write_xy(outdir / "xu_bound_vs_m.xy", ms, ub)
    return reports


TRADEOFF_COLUMNS = ("d", "m", "delta", "rho", "mi_nats", "excess_risk",
                    "xu_bound", "pipeline_lb")


def _tradeoff_row(learner, inst, m, delta, rho):
    ch = exact_channel(learner, inst, m)
    mi = ch.mutual_information()
    eps = ch.expected_excess_risk(inst)
    a_star = 1.0 / (108.0 * 1e6 * math.sqrt(m) * eps)
    lb = inst.d / (1e6 * m * eps) * bounds.gm(a_star, m)
    return [inst.d, m, delta, rho, mi, eps, bounds.xu_bound(mi, m), lb]


def _exp_tradeoff(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    inst = cfg.instance()
    m = cfg.m
    if (1 << (inst.d * m)) > (1 << 20):
        raise BudgetExceededError("tradeoff sweep needs 2^(d*m) <= 2^20")
    # reachable means form a lattice of spacing 2/(m*sqrt(d)); quantizers at
    # or below that spacing are injective on it, so every coarser quantizer
    # factors through them and MI is monotone along the sweep
    fine = 2.0 / (m * math.ceil(math.sqrt(inst.d)))
    deltas = [4.0 / m, 2.0 / m, fine, 1.0 / (m * m)] if inst.d == 1 \
        else [2.0 / m, fine, 1.0 / (m * m)]
    deltas = sorted(set(deltas), reverse=True)
    rows = []
    for delta in deltas:
        rows.append(_tradeoff_row(QuantizedMeanLearner(delta=delta), inst, m,
                                  delta, 0.0))
    rhos = [0.0, 0.25, 0.5, 0.75, 1.0]
    for rho in rhos:
        learner = (RandomizedResponse(base=QuantizedMeanLearner(), rho=rho)
                   if rho > 0 else QuantizedMeanLearner())
        rows.append(_tradeoff_row(learner, inst, m, 1.0 / (m * m), rho))
    _write_table(outdir / "tradeoff.csv", TRADEOFF_COLUMNS, rows)
    mi_by_delta = [r[4] for r in rows[: len(deltas)]]
    _write_xy(outdir / "mi_vs_delta.xy", deltas, mi_by_delta)
    mi_by_rho = [r[4] for r in rows[len(deltas):]]
    _write_xy(outdir / "mi_vs_rho.xy", rhos, mi_by_rho)
    reports = []
    # deltas decrease along the sweep, so MI must be nondecreasing row to row
    mono_delta = min(mi_by_delta[i + 1] - mi_by_delta[i] for i in range(len(deltas) - 1))
    reports.append(bounds.make_report("tradeoff_mi_vs_delta", mono_delta, 0.0,
                                      tolerance=1e-12, d=inst.d, m=m))
    mono_rho = min(mi_by_rho[i] - mi_by_rho[i + 1] for i in range(len(rhos) - 1))
    reports.append(bounds.make_report("tradeoff_mi_vs_rho", mono_rho, 0.0,
                                      tolerance=1e-12, d=inst.d, m=m))
    return reports


NET_ERM_COLUMNS = ("d", "m", "entropy_nats", "cap_nats", "net_size",
                   "slack_min", "slack_max", "slack_cap")


def _exp_net_erm(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    learner = EpsilonNetErm()
    rng = mc.substream(cfg.master_seed, 2)
    rows = []
    reports = []
    cases = [(d, m) for d in (1, 2) for m in (1, 4, 9, 16)
             if d * m <= 18 and m >= d] + [(cfg.d, cfg.m)]
    seen = set()
    for d, m in cases:
        if (d, m) in seen or d * m > 18 or m < d:
            continue
        seen.add((d, m))
        inst = HardInstance.uniform_bias(d, rng)
        ch = exact_channel(learner, inst, m)
        ent = ch.output_entropy()
        net_size = epsilon_net(d, m).shape[0]
        cap = d * math.log(math.sqrt(m) + 1.0)
        slacks = []
        for _ in range(100):
            p = rng.uniform(-P_MAX, P_MAX, size=d)
            s_inst = HardInstance(d, p)
            s = sample(s_inst, m, rng)
            w = learner.fit(s)
            slacks.append(empirical_risk(s, w) - empirical_risk(s, s.mean))
        rows.append([d, m, ent, cap, net_size, min(slacks), max(slacks),
                     math.sqrt(d / m)])
        reports.append(bounds.make_report(f"net_entropy_cap[d={d},m={m}]",
                                          math.log(net_size), ent,
                                          tolerance=1e-12, d=d, m=m))
        if math.isqrt(m) ** 2 == m:
            reports.append(bounds.make_report(f"net_entropy_sqrtcap[d={d},m={m}]",
                                              cap, ent, tolerance=1e-12, d=d, m=m))
        reports.append(bounds.make_report(f"net_slack[d={d},m={m}]",
                                          math.sqrt(d / m), max(slacks),
                                          tolerance=1e-9, d=d, m=m))
        reports.append(bounds.make_report(f"net_slack_nonneg[d={d},m={m}]",
                                          min(slacks), 0.0, tolerance=1e-12,
                                          d=d, m=m))
    _write_table(outdir / "net_erm.csv", NET_ERM_COLUMNS, rows)
    return reports


CMI_COLUMNS = ("m", "k", "cmi_exact", "cap_nats", "bound_from_cap",
               "bound_from_exact")


def _exp_cmi(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    reports = []
    # enumerable cap checks across the learner menu
    for learner in (MeanLearner(), QuantizedMeanLearner(),
                    SubsampleLearner(k=1, base=MeanLearner()),
                    RandomizedResponse(base=MeanLearner(), rho=0.5)):
        for d, m in ((1, 2), (1, 3), (2, 2)):
            inst = HardInstance.zero(d)
            val = bounds.cmi_exact(learner, inst, m)
            reports.append(bounds.make_report(
                f"cmi_cap[{learner.kind},d={d},m={m}]", m * math.log(2.0), val,
                tolerance=1e-9, d=d, m=m))
    # subsample sweep at k = sqrt(m)
    rows = []
    xs, ys = [], []
    for m in (4, 16, 64):
        k = math.isqrt(m)
        learner = SubsampleLearner(k=k, base=MeanLearner())
        inst = HardInstance.zero(1)
        val = bounds.cmi_exact(learner, inst, m)
        cap = bounds.selector_entropy_cap(learner, m)
        b_cap = bounds.cmi_generalization_bound(cap, m)
        b_exact = bounds.cmi_generalization_bound(val, m)
        rows.append([m, k, val, cap, b_cap, b_exact])
        reports.append(bounds.make_report(f"cmi_subsample_cap[m={m}]", cap, val,
                                          tolerance=1e-9, m=m))
        xs.append(m)
        ys.append(b_cap)
    logs = np.log(np.asarray(xs))
    logb = np.log(np.asarray(ys))
    slope = float(((logs - logs.mean()) @ (logb - logb.mean()))
                  / ((logs - logs.mean()) @ (logs - logs.mean())))
    reports.append(bounds.make_report("cmi_sweep_slope", 0.1, abs(slope + 0.25),
                                      m=cfg.m))
    _write_table(outdir / "cmi.csv", CMI_COLUMNS, rows)
    _write_xy(outdir / "cmi_bound_vs_m.xy", xs, ys)
    return reports


def _exp_theorem1(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    learner = cfg.learner()
    cert = bounds.theorem1_certificate(
        learner, cfg.d, cfg.m, cfg.epsilon,
        risk_trials=min(cfg.trials, 20000), good_trials=cfg.trials,
        seed=cfg.master_seed, learner_seed=cfg.learner_seed)
    reports = [cert.report]
    scan = bounds.mi_dimension_scan(QuantizedMeanLearner(), cfg.m, 0.0,
                                    range(1, 7))
    reports.append(scan.report)
    _write_xy(outdir / "mi_vs_d.xy", scan.ds, scan.mis)
    return reports


EXPERIMENTS = {
    "verify-lemmas": _exp_verify_lemmas,
    "fingerprint": _exp_fingerprint,
    "xu-check": _exp_xu_check,
    "tradeoff": _exp_tradeoff,
    "net-erm": _exp_net_erm,
    "cmi": _exp_cmi,
    "theorem1": _exp_theorem1,
}


def run(config_path, experiment: str | None = None, seed: int | None = None,
        out: str | None = None, verify: bool = False) -> int:
    """Execute one experiment; returns the process exit code."""
    start = time.monotonic()
    try:
        cfg = load_config(config_path)
        if experiment is not None:
            if experiment not in EXPERIMENTS:
                raise ConfigError(f"unknown experiment name: {experiment!r}")
            if experiment != cfg.name:
                raise ConfigError(
                    f"config names experiment {cfg.name!r}, CLI asked for {experiment!r}")
        if seed is not None:
            if seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg = ExperimentConfig(**{**cfg.__dict__, "master_seed": seed})
        if out is not None:
            cfg = ExperimentConfig(**{**cfg.__dict__, "output_dir": out})
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1

    outdir = _OutputDir(Path(cfg.output_dir))
    outdir.path.mkdir(parents=True, exist_ok=True)
    try:
        reports = EXPERIMENTS[cfg.name](cfg, outdir)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}")
        return 1
    bounds.write_reports_csv(reports, outdir / "results.csv")

    manifest = {
        "artifact_version": __version__,
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "master_seed": cfg.master_seed,
        "wall_clock_seconds": round(time.monotonic() - start, 3),
        "files": {name: _sha256(outdir.path / name) for name in sorted(outdir.names)},
    }
    (outdir.path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    if verify and any(not r.holds for r in reports):
        failed = [r.name for r in reports if not r.holds]
        print(f"verification failed: {', '.join(failed)}")
        return 2
    return 0
