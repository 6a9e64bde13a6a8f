"""Experiment runner: config parsing, registry, seeding, CSV/plot emission.

Config files are flat key-value text with section headers (INI syntax),
validated against a strict schema: a section or key outside it is rejected,
and so is one the named experiment does not read (each ``EXPERIMENTS``
entry lists the keys its experiment reads). The schema:

    [experiment]
    name = theorem1            # one of the registry names

    [instance]
    d = 2                      # dimension >= 1
    p_mode = uniform           # uniform | fixed
    p_values = 0.1, -0.2       # required iff p_mode = fixed

    [learner]                  # theorem1 only
    kind = quantized_mean      # mean | quantized_mean | epsilon_net_erm |
                               # sgd | regularized_erm | subsample
    delta = auto               # quantization step, or auto for 1/m^2
    lam = 0.0                  # regularized_erm weight
    k = 2                      # subsample size, 1 <= k <= m
    base = mean                # base kind for subsample

    [run]
    m = 4                      # sample size >= 1
    epsilon = measured         # measured | float in (0, 1/54)
    trials = 100000            # Monte Carlo budget, at most MC_KEPT_BYTES of kept values
    master_seed = 12345        # >= 0
    output_dir = out

A learner parameter its kind does not take is rejected too, and so is a
net-erm (d, m) outside d <= m, d*m <= NET_ERM_MAX_CELLS.
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
    product_grid,
)
from .sco import P_MAX, HardInstance, sample_plus, signs_of_plus

EPSILON_MAX = 1.0 / 54.0
NET_ERM_MAX_CELLS = 18  # largest d*m of a net-erm case
MC_KEPT_BYTES = 1 << 30  # largest float64 Monte Carlo value array trials may ask for


class ConfigError(ValueError):
    """Config file missing, malformed, or out of documented ranges."""


_SCHEMA = {
    "experiment": {"name"},
    "instance": {"d", "p_mode", "p_values"},
    "learner": {"kind", "delta", "lam", "k", "base"},
    "run": {"m", "epsilon", "trials", "master_seed", "output_dir"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    d: int = 2
    p_mode: str = "uniform"
    p_values: tuple = ()
    learner: object = None  # built from [learner] for the experiments that read it
    m: int = 4
    epsilon: float | None = None  # None: measured
    trials: int = 100000
    master_seed: int = 12345
    output_dir: str = "out"

    def instance(self) -> HardInstance:
        if self.p_mode == "fixed":
            return HardInstance(self.d, np.asarray(self.p_values))
        rng = mc.substream(self.master_seed, 1)
        return HardInstance.uniform_bias(self.d, rng)


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

    if not parser.has_option("experiment", "name"):
        raise ConfigError("missing required key: [experiment] name")
    name = parser["experiment"]["name"].strip()
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment name: {name!r}")
    reads = EXPERIMENTS[name][1]
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if key != "name" and key not in reads:
                raise ConfigError(f"experiment {name!r} does not read {key!r} in [{section}]")
        if section != "experiment" and not reads & _SCHEMA[section]:
            raise ConfigError(f"experiment {name!r} reads no key of [{section}]")

    inst = parser["instance"] if parser.has_section("instance") else {}
    d = _parse_int(inst.get("d", "2"), "d")
    if d < 1:
        raise ConfigError("d must be >= 1")
    p_mode = inst.get("p_mode", "uniform").strip().lower()
    if p_mode not in ("uniform", "fixed"):
        raise ConfigError("p_mode must be uniform or fixed")
    p_values = ()
    if p_mode == "uniform" and "p_values" in inst:
        raise ConfigError("p_values needs p_mode = fixed")
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
    if "delta" in lrn:
        params["delta"] = None
        if lrn["delta"].strip().lower() != "auto":
            params["delta"] = _parse_float(lrn["delta"], "delta")
            if params["delta"] <= 0:
                raise ConfigError("delta must be positive")
    if "lam" in lrn:
        params["lam"] = _parse_float(lrn["lam"], "lam")
        if params["lam"] < 0:
            raise ConfigError("lam must be >= 0")
    if "k" in lrn:
        params["k"] = _parse_int(lrn["k"], "k")
    if "base" in lrn:
        params["base"] = lrn["base"].strip().lower()

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
    # fingerprint keeps trials values per estimator, theorem1 trials * d
    kept = 8 * trials * (d if name == "theorem1" else 1)
    if kept > MC_KEPT_BYTES:
        raise ConfigError(f"trials={trials} keeps {kept} Monte Carlo bytes, above {MC_KEPT_BYTES}")
    if name == "theorem1" and 8 * mc.CHUNK * m * d > MC_KEPT_BYTES:  # (CHUNK, m, d) uniforms
        raise ConfigError(f"m={m}, d={d} draws {8 * mc.CHUNK * m * d} uniform bytes per "
                          f"Monte Carlo chunk, above {MC_KEPT_BYTES}")
    master_seed = _parse_int(run.get("master_seed", "12345"), "master_seed")
    if master_seed < 0:
        raise ConfigError("master_seed must be >= 0")
    output_dir = run.get("output_dir", "out")

    learner = None
    if "kind" in reads:
        try:
            learner = make_learner(kind, **params)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid learner block: {exc}") from exc
        if getattr(learner, "k", 1) > m:
            raise ConfigError(f"subsample k={learner.k} exceeds m={m}")
    if name == "theorem1" and trials < 2:
        raise ConfigError("theorem1 needs trials >= 2 for a standard error")
    if name == "net-erm" and (m < d or d * m > NET_ERM_MAX_CELLS):
        raise ConfigError(f"net-erm needs d <= m and d*m <= {NET_ERM_MAX_CELLS}, "
                          f"got d={d}, m={m}")
    return ExperimentConfig(name=name, d=d, p_mode=p_mode, p_values=p_values,
                            learner=learner, m=m, epsilon=epsilon, trials=trials,
                            master_seed=master_seed, output_dir=output_dir)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_xy(path: Path, xs, ys) -> None:
    with open(path, "w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{float(x):.17g} {float(y):.17g}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_table(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    reports.append(bounds.fingerprint_expectation(bounds.EST_ZERO, min(cfg.m, 12)))
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
    reports.append(bounds.paley_zygmund_check([0.0, 1.0], [0.5, 0.5], 0.5))
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
        reports.append(bounds.fingerprint_expectation(est, m_quad, mode="quadrature"))
    for est in (bounds.EST_CLIPPED_MEAN, bounds.EST_SIGN):
        reports.append(bounds.fingerprint_expectation(
            est, cfg.m, mode="monte_carlo", trials=cfg.trials,
            seed=cfg.master_seed))
    ms = list(range(1, 13))
    vals = [bounds.fingerprint_quadrature(bounds.EST_CLIPPED_MEAN, m) for m in ms]
    _write_xy(outdir / "fingerprint_vs_m.xy", ms, vals)
    return reports


def _xu_learner_menu(m: int):
    menu = [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
            RegularizedErm(lam=1.0), SgdLearner(),
            RandomizedResponse(base=MeanLearner(), rho=0.5)]
    if m >= 2:
        menu.append(SubsampleLearner(k=max(1, m // 2), base=MeanLearner()))
    return menu


def _exp_xu_check(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    reports = []
    # the reference case: mean learner, d=1, m=2, p=0
    ch = exact_channel(MeanLearner(), HardInstance.zero(1), 2)
    reports.append(bounds.make_report("xu_reference_mi", ch.mutual_information(),
                                      1.5 * math.log(2.0), tolerance=1e-12, d=1, m=2))
    reports.append(bounds.make_report("xu_reference_gap",
                                      ch.expected_generalization_gap(HardInstance.zero(1)),
                                      1.0, tolerance=1e-12, d=1, m=2))
    # the tightest case over a bias grid per d <= 3 and m in (1, 2, 4): one
    # channel per (learner, d, m), reweighted per bias; min keeps the first of
    # tied reports in bias-major, learner-minor order
    xu_reports = []
    for d, m in ((d, m) for d in range(1, min(3, cfg.d) + 1) for m in (1, 2, 4) if m <= cfg.m):
        channels = [(learner, exact_channel(learner, HardInstance.zero(d), m))
                    for learner in _xu_learner_menu(m)]
        xu_reports += [bounds.xu_gap_report(learner, ch, HardInstance(d, p))
                       for p in product_grid([np.linspace(-P_MAX, P_MAX, 5 if d <= 2 else 3)] * d)
                       for learner, ch in channels]
    reports.append(min(xu_reports, key=lambda r: r.slack))
    ms, gaps, ub = [], [], []
    for m in (1, 2, 4, 8):
        ch = exact_channel(MeanLearner(), HardInstance.zero(1), m)
        ms.append(m)
        gaps.append(ch.expected_generalization_gap(HardInstance.zero(1)))
        ub.append(bounds.xu_bound(ch.mutual_information(), m))
    _write_xy(outdir / "xu_gap_vs_m.xy", ms, gaps)
    _write_xy(outdir / "xu_bound_vs_m.xy", ms, ub)
    return reports


REPORT_COLUMNS = ("name", "d", "m", "epsilon", "lhs", "rhs", "holds",
                  "slack", "trials", "ci_halfwidth", "seed")
TRADEOFF_COLUMNS = ("d", "m", "delta", "rho", "mi_nats", "excess_risk",
                    "xu_bound", "pipeline_lb")


def _tradeoff_row(learner, inst, m, delta, rho):
    ch = exact_channel(learner, inst, m)
    mi = ch.mutual_information()
    eps = ch.expected_excess_risk(inst)
    lb = inst.d / (1e6 * m * eps) * bounds.pipeline_gm(m, eps)
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
    # load_config holds the configured (d, m) to the same limits
    cases = dict.fromkeys([(d, m) for d in (1, 2) for m in (1, 4, 9, 16)
                           if d <= m and d * m <= NET_ERM_MAX_CELLS] + [(cfg.d, cfg.m)])
    for d, m in cases:
        inst = HardInstance.uniform_bias(d, rng)
        ch = exact_channel(learner, inst, m)
        ent = ch.output_entropy()
        net_size = epsilon_net(d, m).shape[0]
        cap = d * math.log(math.sqrt(m) + 1.0)
        signs = signs_of_plus(np.concatenate([sample_plus(rng.uniform(-P_MAX, P_MAX, size=d),
                                                          m, rng, 1) for _ in range(100)]))
        ws = learner.fit_batch(signs)
        pts = signs.astype(float) / np.sqrt(d)
        slacks = [float(((z - w) ** 2).sum() / m - ((z - z.mean(axis=0)) ** 2).sum() / m)
                  for z, w in zip(pts, ws)]
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
        cap = bounds.selector_entropy_cap(k, m)
        b_cap = bounds.xu_bound(cap, m)
        b_exact = bounds.xu_bound(val, m)
        rows.append([m, k, val, cap, b_cap, b_exact])
        reports.append(bounds.make_report(f"cmi_subsample_cap[m={m}]", cap, val,
                                          tolerance=1e-9, m=m))
        xs.append(m)
        ys.append(b_cap)
    slope = bounds.ls_slope(np.log(np.asarray(xs)), np.log(np.asarray(ys)))
    reports.append(bounds.make_report("cmi_sweep_slope", 0.1, abs(slope + 0.25),
                                      m=cfg.m))
    _write_table(outdir / "cmi.csv", CMI_COLUMNS, rows)
    _write_xy(outdir / "cmi_bound_vs_m.xy", xs, ys)
    return reports


def _exp_theorem1(cfg: ExperimentConfig, outdir: _OutputDir) -> list:
    cert = bounds.theorem1_certificate(
        cfg.learner, cfg.d, cfg.m, cfg.epsilon,
        risk_trials=min(cfg.trials, 20000), good_trials=cfg.trials,
        seed=cfg.master_seed)
    reports = [cert.report]
    scan = bounds.mi_dimension_scan(QuantizedMeanLearner(), cfg.m, 0.0,
                                    range(1, 7))
    reports.append(scan.report)
    _write_xy(outdir / "mi_vs_d.xy", scan.ds, scan.mis)
    return reports


# each experiment with the config keys it reads, the only keys it accepts
EXPERIMENTS = {
    "verify-lemmas": (_exp_verify_lemmas, {"d", "p_mode", "p_values", "m", "epsilon", "trials",
                                           "master_seed", "output_dir"}),
    "fingerprint": (_exp_fingerprint, {"m", "trials", "master_seed", "output_dir"}),
    "xu-check": (_exp_xu_check, {"d", "m", "output_dir"}),
    "tradeoff": (_exp_tradeoff, {"d", "p_mode", "p_values", "m", "master_seed", "output_dir"}),
    "net-erm": (_exp_net_erm, {"d", "m", "master_seed", "output_dir"}),
    "cmi": (_exp_cmi, {"m", "output_dir"}),
    "theorem1": (_exp_theorem1, {"d", "kind", "delta", "lam", "k", "base", "m", "epsilon",
                                 "trials", "master_seed", "output_dir"}),
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
            if "master_seed" not in EXPERIMENTS[cfg.name][1]:
                raise ConfigError(f"experiment {cfg.name!r} does not read --seed")
            if seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg = ExperimentConfig(**{**cfg.__dict__, "master_seed": seed})
        if out is not None:
            cfg = ExperimentConfig(**{**cfg.__dict__, "output_dir": out})
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1

    body, reads = EXPERIMENTS[cfg.name]
    outdir = _OutputDir(Path(cfg.output_dir))
    outdir.path.mkdir(parents=True, exist_ok=True)
    try:
        reports = body(cfg, outdir)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}")
        return 1
    _write_table(outdir / "results.csv", REPORT_COLUMNS,
                 [[getattr(r, col) for col in REPORT_COLUMNS] for r in reports])

    manifest = {
        "artifact_version": __version__,
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "master_seed": cfg.master_seed if "master_seed" in reads else None,
        "wall_clock_seconds": round(time.monotonic() - start, 3),
        "files": {name: _sha256(outdir.path / name) for name in sorted(outdir.names)},
    }
    (outdir.path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    if verify and any(not r.holds for r in reports):
        failed = [r.name for r in reports if not r.holds]
        print(f"verification failed: {', '.join(failed)}")
        return 2
    return 0
