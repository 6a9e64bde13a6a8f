"""Acceptance suite: one test per exit criterion, at the stated tolerances.

The headline asymptotic lower bounds are not reproducible quantitatively at
desk scale, so acceptance combines exact-constant checks of every inequality
with property-based pipeline checks, each under a wall-clock budget.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mi_sco_lab import bounds
from mi_sco_lab.harness import EXPERIMENTS, run
from mi_sco_lab.learners import (
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    epsilon_net,
    exact_channel,
    fit,
)
from mi_sco_lab.sco import HardInstance
from oracles import empirical_risk, sample

LN2 = math.log(2.0)
SEED = 20240801
REPO = Path(__file__).resolve().parents[1]


def timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def test_criterion_1_pinsker(criterion):
    rep, elapsed = timed(lambda: bounds.pinsker_suite(1000, seed=SEED))
    criterion(1, "Pinsker on 1000 random pairs", rep.holds, elapsed, 5.0)


def test_criterion_2_coupling(criterion):
    (match, optimal), elapsed = timed(
        lambda: bounds.coupling_suite(1000, n_random=100, seed=SEED))
    criterion(2, "optimal coupling attains TV; random search never beats it",
              match.holds and optimal.holds, elapsed, 10.0)


def test_criterion_3_bounded_correlation(criterion):
    rep, elapsed = timed(lambda: bounds.bounded_correlation_suite(1000, seed=SEED))
    criterion(3, "exact MI >= beta^4/8 on 1000 random joints",
              rep.holds and rep.tolerance <= 1e-9, elapsed, 10.0)


def test_criterion_4_subgaussian_correlation(criterion):
    rep, elapsed = timed(lambda: bounds.subgaussian_correlation_suite(200, seed=SEED))
    criterion(4, "exact MI >= sub-Gaussian floor on 200 certified joints",
              rep.holds, elapsed, 30.0)


def test_criterion_5_fingerprinting(criterion):
    def body():
        ok = True
        # quadrature across the estimator menu for every m <= 12
        for est in bounds.ESTIMATOR_MENU:
            for m in range(1, 13):
                ok &= bounds.fingerprint_quadrature(est, m) >= 1 / 27 - 1e-6
        # the zero estimator achieves the floor exactly
        for m in (1, 6, 12):
            ok &= abs(bounds.fingerprint_quadrature(bounds.EST_ZERO, m)
                      - 1 / 27) <= 1e-9
        # Monte Carlo beyond the enumeration range
        for m in (25, 100):
            for est in (bounds.EST_ZERO, bounds.EST_CLIPPED_MEAN, bounds.EST_SIGN):
                rep = bounds.fingerprint_expectation(
                    est, m, mode="monte_carlo", trials=10 ** 6, seed=SEED)
                ok &= rep.holds
        return ok

    ok, elapsed = timed(body)
    criterion(5, "fingerprinting floor 1/27 (quadrature m<=12, MC m=25,100)",
              ok, elapsed, 120.0)


def _xu_menu(m):
    menu = [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
            RegularizedErm(lam=1.0), SgdLearner(),
            RandomizedResponse(base=MeanLearner(), rho=0.5)]
    if m >= 2:
        menu.append(SubsampleLearner(k=m // 2, base=MeanLearner()))
    return menu


def _bias_grid(d):
    per_axis = 5 if d <= 2 else 3
    axes = [np.linspace(-1 / 3, 1 / 3, per_axis)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def test_criterion_6_xu_bound(criterion):
    def body():
        ref = exact_channel(MeanLearner(), HardInstance.zero(1), 2)
        ok = abs(ref.mutual_information() - 1.5 * LN2) <= 1e-12
        ok &= abs(ref.expected_generalization_gap(HardInstance.zero(1)) - 1.0) <= 1e-12
        for d in (1, 2, 3):
            for m in (1, 2, 4):
                for p in _bias_grid(d):
                    inst = HardInstance(d, p)
                    for learner in _xu_menu(m):
                        ch = exact_channel(learner, inst, m)
                        gap = ch.expected_generalization_gap(inst)
                        ok &= gap <= bounds.xu_bound(ch.mutual_information(), m)
        return ok

    ok, elapsed = timed(body)
    criterion(6, "exact E[gap] <= 4*sqrt(2I/m) on every enumerable config",
              ok, elapsed, 60.0)


def test_criterion_7_net_erm(criterion):
    def body():
        learner = EpsilonNetErm()
        rng = np.random.default_rng(SEED)
        ok = True
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(d, 17))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=rng)
            w = fit(learner, s.plus[None])[0]
            slack = empirical_risk(s, w) - empirical_risk(s, s.mean)
            ok &= -1e-12 <= slack <= math.sqrt(d / m) + 1e-9
        for d, ms in ((1, (1, 4, 9, 16)), (2, (1, 4, 9))):
            for m in ms:
                cap = d * math.log(math.sqrt(m) + 1.0)
                for trial in range(3):
                    inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
                    ch = exact_channel(learner, inst, m)
                    ok &= ch.output_entropy() <= cap + 1e-12
                    ok &= ch.output_entropy() <= math.log(
                        epsilon_net(d, m).shape[0]) + 1e-12
        return ok

    ok, elapsed = timed(body)
    criterion(7, "net ERM slack in [0, sqrt(d/m)]; H(w_S) <= d ln(sqrt(m)+1)",
              ok, elapsed, 60.0)


def test_criterion_8_pipeline(criterion):
    def body():
        cert = bounds.theorem1_certificate(
            QuantizedMeanLearner(), d=4, m=4, risk_trials=20000,
            good_trials=10 ** 5, pilot_trials=10 ** 4, seed=SEED)
        ok = cert.status == "ok" and cert.report.holds
        scan = bounds.mi_dimension_scan(QuantizedMeanLearner(), 4, 0.0,
                                        range(1, 7))
        ok &= scan.report.holds
        ok &= scan.report.lhs >= scan.report.rhs
        return ok

    ok, elapsed = timed(body)
    criterion(8, "exact MI >= |G|*gm pipeline bound at d=4,m=4; linear d-scan",
              ok, elapsed, 300.0)


def test_criterion_9_cmi(criterion):
    def body():
        ok = True
        menu = [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
                SgdLearner(), SubsampleLearner(k=1, base=MeanLearner()),
                RandomizedResponse(base=MeanLearner(), rho=0.5)]
        for learner in menu:
            for d, m in ((1, 2), (1, 3), (2, 2)):
                val = bounds.cmi_exact(learner, HardInstance.zero(d), m)
                ok &= 0.0 <= val <= m * LN2 + 1e-9
        # subsampling sqrt(m) of m: the selector-cap bound curve has log-log
        # slope -1/4; the exactly computed CMI stays under the cap throughout
        xs, ys = [], []
        for m in (4, 16, 64):
            k = math.isqrt(m)
            learner = SubsampleLearner(k=k, base=MeanLearner())
            val = bounds.cmi_exact(learner, HardInstance.zero(1), m)
            cap = bounds.selector_entropy_cap(k, m)
            ok &= val <= cap + 1e-9
            xs.append(math.log(m))
            ys.append(math.log(bounds.xu_bound(cap, m)))
        x = np.asarray(xs)
        y = np.asarray(ys)
        slope = float(((x - x.mean()) @ (y - y.mean()))
                      / ((x - x.mean()) @ (x - x.mean())))
        ok &= abs(slope + 0.25) <= 0.1
        return ok

    ok, elapsed = timed(body)
    criterion(9, "exact CMI <= m ln2; subsample sweep slope -0.25 +- 0.1",
              ok, elapsed, 180.0)


def test_criterion_10_easy_family(criterion):
    def body():
        rng = np.random.default_rng(SEED)
        ok = True
        for d, m in ((3, 5), (2, 8)):
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            trials = 10 ** 5
            q = (1.0 + inst.p) / 2.0
            u = rng.random((trials, m, d))
            signs = np.where(u < q, 1.0, -1.0)
            zbar = signs.mean(axis=1) / math.sqrt(d)
            vals = ((zbar - inst.w_star) ** 2).sum(axis=1)
            se = vals.std(ddof=1) / math.sqrt(trials)
            expected = (1.0 - (inst.p @ inst.p) / d) / m
            ok &= abs(vals.mean() - expected) <= 3 * se
            # the mean learner interpolates: its empirical suboptimality is 0
            s = sample(inst, m, seed=rng)
            ok &= empirical_risk(s, s.mean) <= min(
                empirical_risk(s, s.mean + 1e-3), empirical_risk(s, s.mean - 1e-3))
        return ok

    ok, elapsed = timed(body)
    criterion(10, "mean learner: Delta_S = 0 with E[Delta_D] = (1-|p|^2/d)/m",
              ok, elapsed, 60.0)


def test_criterion_11_determinism(criterion, tmp_path):
    # the shipped configs at their master_seed 12345: the data-file SHA-256s
    # that perfbench/reference.json pins for benchmark variant 0
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    pinned = {name: entry["files"]
              for name, entry in reference["shipped-configs"]["0"].items()}

    def run_all(tag, threads):
        old = os.environ.get("MI_SCO_THREADS")
        os.environ["MI_SCO_THREADS"] = str(threads)
        digests = {}
        try:
            for name in sorted(EXPERIMENTS):
                out = tmp_path / tag / name
                assert run(REPO / "configs" / f"{name}.ini", out=str(out)) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                digests[name] = manifest["files"]
        finally:
            if old is None:
                os.environ.pop("MI_SCO_THREADS", None)
            else:
                os.environ["MI_SCO_THREADS"] = old
        return digests

    def body():
        serial = run_all("serial", 1)
        rerun = run_all("rerun", 1)
        parallel = run_all("parallel", 4)
        return serial == pinned and serial == rerun == parallel

    ok, elapsed = timed(body)
    criterion(11, "shipped configs reproduce their pinned SHA-256s across "
              "re-runs and worker counts", ok, elapsed, 300.0)


def quantized_mean_ties_and_chain_rule() -> bool:
    """Criterion 12's check. The quantized mean at (d, m) = (4, 3) has its
    plus-count means on exact half steps of its 1/9 grid (-4.5, -1.5, 1.5 and
    4.5 steps), so its levels show that each tie rounds down; and its exact
    channel meets the chain rule with equality, as a factorized learner's
    must."""
    learner, d, m = QuantizedMeanLearner(), 4, 3
    # sample c has its first c points plus in every coordinate
    plus = np.broadcast_to((np.arange(m)[None, :] < np.arange(m + 1)[:, None])[:, :, None],
                           (m + 1, m, d))
    ok = fit(learner, plus)[:, 0].tolist() == [-1 / 2, -2 / 9, 1 / 9, 4 / 9]
    ch = exact_channel(learner, HardInstance(d, np.array([0.1, -0.2, 0.3, 0.0])), m)
    report = bounds.chain_rule_decomposition(ch).report
    return ok and report.holds and report.lhs - report.rhs == 0.0


def test_criterion_12_ties_and_chain_rule(criterion):
    ok, elapsed = timed(quantized_mean_ties_and_chain_rule)
    criterion(12, "quantized mean at d=4,m=3: ties round down; chain rule tight",
              ok, elapsed, 10.0)


@pytest.mark.parametrize("workload", ["big-channel", "mc-certificate"])
def test_benchmark_workload_matches_reference(workload, tmp_path, monkeypatch):
    # perfbench/workloads.py's own setup, finish and check at variant 0, the
    # benchmark's other two workloads beside the shipped configs of criterion 11
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    wl = workloads.WORKLOADS[workload]
    monkeypatch.setenv("MI_SCO_THREADS", str(wl.threads()))
    reference = workloads.load_reference()[workload]["0"]
    problems = {}
    for op, fn in wl.setup(REPO, 0, tmp_path):
        out, _ = wl.finish(op, fn())
        problems[op] = wl.check(op, out, reference[op])
    assert set(problems) == set(reference)
    assert not any(problems.values()), problems
