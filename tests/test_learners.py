"""Learner behavior, codebooks, and exact channel enumeration."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab import bounds, learners
from mi_sco_lab.bounds import chain_rule_decomposition, cmi_exact, measured_excess_risk
from mi_sco_lab.harness import _xu_learner_menu
from mi_sco_lab.infotheory import mutual_information
from mi_sco_lab.learners import (
    FULL_ENUM_BUDGET,
    NET_BLOCK_CELLS,
    BudgetExceededError,
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    code_radix,
    count_probs,
    count_statistic,
    epsilon_net,
    exact_channel,
    exact_mutual_information,
    fit,
    grid_step,
    lattice_codes,
    lattice_counts,
    make_learner,
    output_atoms,
    product_grid,
    reduce_subsample,
    round_half_down,
    sample_codes,
    sign_space_probs,
    unique_rows,
)
from mi_sco_lab.sco import P_MAX, HardInstance, counts_of_plus, sample_plus
import oracles
from oracles import (
    Sample,
    codebook_signs,
    count_mean,
    count_probs_per_coordinate,
    count_statistic_per_sample,
    empirical_risk,
    entropy,
    enumerate_sign_space,
    enumerate_sign_space_shift_mask,
    factorized_mi_broadcast,
    factorized_mi_patterns,
    first_pattern_order,
    fit_counts_per_sample,
    fit_signs,
    full_chain_rule,
    full_channel,
    marginal,
    plus_counts,
    population_risk,
    sample,
    sample_signs,
    sgd_full_copy,
    sgd_patterns,
    sgd_shell_exit,
    sign_space_probs_elementwise,
    signs_of_plus,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "mi_sco_lab"

LN2 = math.log(2.0)


def all_learners(m):
    return [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
            SgdLearner(), RegularizedErm(lam=0.5),
            SubsampleLearner(k=max(1, m // 2), base=MeanLearner())]


class TestQuantize:
    def test_grid_point_fixed(self):
        w = np.array([0.5, -0.5])
        np.testing.assert_allclose(round_half_down(w, 0.5), w)

    def test_round_up(self):
        assert round_half_down(np.array([0.26]), 0.5)[0] == pytest.approx(0.5)

    def test_tie_breaks_down(self):
        assert round_half_down(np.array([0.25]), 0.5)[0] == pytest.approx(0.0)
        assert round_half_down(np.array([-0.25]), 0.5)[0] == pytest.approx(-0.5)

    def test_distance_bound_before_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            delta = float(rng.uniform(0.01, 0.5))
            w = rng.normal(size=d)
            w /= max(1.0, np.linalg.norm(w))
            rounded = round_half_down(w, delta)
            assert np.linalg.norm(rounded - w) <= delta * math.sqrt(d) / 2 + 1e-12

    def test_output_in_ball(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = rng.normal(size=3)
            w /= max(1.0, np.linalg.norm(w))
            rounded = learners._project_rows(round_half_down(w[None, :], 0.3))
            assert np.linalg.norm(rounded) <= 1.0 + 1e-12


class TestMeanLearner:
    def test_repeated_point(self):
        s = Sample.from_signs(np.array([[1, -1], [1, -1]]))
        np.testing.assert_allclose(fit(MeanLearner(), s.plus[None])[0],
                                   s.points[0])

    def test_symmetric_pair_gives_zero(self):
        s = Sample.from_signs(np.array([[1], [-1]]))
        assert fit(MeanLearner(), s.plus[None])[0][0] == 0.0

    def test_exact_excess_risk_matches_closed_form(self):
        # exact enumeration up to d*m = 16 cells
        for d, m in ((1, 4), (2, 3), (3, 2), (4, 4), (2, 8)):
            inst = HardInstance(d, np.linspace(-0.3, 0.3, d))
            ch = exact_channel(MeanLearner(), inst, m)
            expected = (1.0 - (inst.p @ inst.p) / d) / m
            assert ch.expected_excess_risk(inst) == pytest.approx(expected, abs=1e-12)


class TestQuantizedMean:
    @given(d=st.integers(1, 3), m=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_factorized_matches_full_channel(self, d, m, data):
        # oracle: the full 2^(d*m) channel, which the factorized route skips
        p = data.draw(st.lists(st.floats(-1 / 3, 1 / 3), min_size=d, max_size=d))
        learner = data.draw(st.sampled_from([MeanLearner(), QuantizedMeanLearner()]))
        if data.draw(st.booleans()):
            learner = SubsampleLearner(k=data.draw(st.integers(1, m)), base=learner)
        inst = HardInstance(d, np.asarray(p))
        full = exact_channel(learner, inst, m).mutual_information()
        assert abs(exact_mutual_information(learner, inst.d, m)(inst) - full) <= 1e-12

    def test_outputs_in_ball(self):
        rng = np.random.default_rng(2)
        learner = QuantizedMeanLearner()
        for _ in range(200):
            d = int(rng.integers(1, 8))
            m = int(rng.integers(1, 9))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=int(rng.integers(1 << 30)))
            w = fit(learner, s.plus[None])[0]
            assert np.linalg.norm(w) <= 1.0 + 1e-12

    def test_quantization_is_data_processing(self):
        # quantizing the mean never increases channel information
        inst = HardInstance(1, np.array([0.2]))
        for m in (2, 3, 4):
            mi_mean = exact_channel(MeanLearner(), inst, m).mutual_information()
            mi_quant = exact_channel(QuantizedMeanLearner(delta=0.75), inst,
                                     m).mutual_information()
            assert mi_quant <= mi_mean + 1e-12


FACTORIZED = (MeanLearner(), QuantizedMeanLearner(), QuantizedMeanLearner(delta=0.3))


class TestPerCoordinateMi:
    @pytest.mark.parametrize("learner", FACTORIZED, ids=repr)
    def test_matches_broadcast_route(self, learner):
        # the oracle fits the 2^m column patterns broadcast across the d columns
        rng = np.random.default_rng(11)
        for d in range(1, 9):
            for m in range(1, 11):
                inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
                want = max(0.0, factorized_mi_broadcast(learner, inst, m))
                assert exact_mutual_information(learner, inst.d, m)(inst) == want, (d, m)

    def test_matches_broadcast_route_at_shipped_theorem1_point(self):
        # configs/theorem1.ini: quantized mean, d = 4, m = 4, 100000 trials,
        # seed 12345, at the certificate's bias and along its d = 1..6 scan
        learner = QuantizedMeanLearner()
        cert = bounds.theorem1_certificate(learner, 4, 4, None, risk_trials=20000,
                                           good_trials=100000, seed=12345)
        assert cert.mi == factorized_mi_broadcast(learner, HardInstance(4, cert.best_p), 4) > 0
        for d in range(1, 7):
            inst = HardInstance.zero(d)
            assert exact_mutual_information(learner, inst.d, 4)(inst) == \
                factorized_mi_broadcast(learner, inst, 4) > 0

    @given(d=st.integers(1, 12), m=st.integers(1, 16), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_weights_per_count_match_weights_per_pattern(self, d, m, data):
        # each pattern gathers its count's weight, the same pow and product
        # the oracle evaluates per pattern, and bincount adds them in order
        p = data.draw(st.lists(st.floats(-1 / 3, 1 / 3), min_size=d, max_size=d))
        learner = data.draw(st.sampled_from(FACTORIZED))
        if data.draw(st.booleans()):
            learner = SubsampleLearner(k=data.draw(st.integers(1, m)), base=learner)
        inst = HardInstance(d, np.asarray(p))
        got = exact_mutual_information(learner, d, m)(inst)
        assert got.hex() == factorized_mi_patterns(learner, inst, m).hex()

    def test_clamped_at_zero(self):
        # every output rounds to 0 at delta = 1: the MI is 0, and the
        # per-coordinate entropies of a pmf summing to 1 - O(1e-16) add up
        # to about -1.1e-13
        inst = HardInstance(16, np.full(16, 0.1))
        assert factorized_mi_broadcast(QuantizedMeanLearner(delta=1.0), inst, 12) < 0
        assert exact_mutual_information(QuantizedMeanLearner(delta=1.0), inst.d, 12)(inst) == 0.0

    def test_learners_without_a_row_map_read_counts(self):
        # the per-coordinate MI indexes the levels by plus-count
        menu = all_learners(4) + [SubsampleLearner(k=2, base=QuantizedMeanLearner())]
        bases = [l for l in menu if hasattr(l, "levels")]
        assert {l.kind for l in bases if l.finish is None} == {"mean", "quantized_mean"}
        assert all(l.reads_counts for l in bases if l.finish is None)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_peak_memory_in_a_fresh_process(self):
        # the broadcast route peaked at 636 MB here: its plus booleans alone
        # hold 2^16 * 16 * 300 bytes. VmHWM is the peak resident set of the
        # child's own image; ru_maxrss would also count the forked test process
        script = (
            "import numpy as np\n"
            "from mi_sco_lab.learners import QuantizedMeanLearner, exact_mutual_information\n"
            "from mi_sco_lab.sco import HardInstance\n"
            "inst = HardInstance(300, np.linspace(-1 / 3, 1 / 3, 300))\n"
            "assert exact_mutual_information(QuantizedMeanLearner(), inst.d, 16)(inst) > 0\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(int(status.split()[0]))\n")
        path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path})
        assert int(out.stdout) < 100 * 1024  # kB


class TestSubsampleRule:
    @pytest.mark.parametrize("base", [MeanLearner(), QuantizedMeanLearner(), SgdLearner()],
                             ids=lambda l: l.kind)
    def test_mi_is_the_base_at_k(self, base):
        rng = np.random.default_rng(12)
        for d, m in ((1, 6), (2, 4), (3, 3)):
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            for k in range(1, m + 1):
                sub = SubsampleLearner(k=k, base=base)
                mi = exact_mutual_information(sub, inst.d, m)(inst)
                assert mi == exact_mutual_information(base, inst.d, k)(inst)
                oracle = (factorized_mi_broadcast(sub, inst, m) if base.finish is None
                          else exact_channel(sub, inst, m).mutual_information())
                assert abs(mi - oracle) <= 1e-12, (d, m, k)

    def test_cmi_is_the_base_at_k(self):
        for d, m in ((1, 3), (2, 2)):
            inst = HardInstance(d, np.linspace(-0.3, 0.2, d))
            for base in (MeanLearner(), SgdLearner()):
                for k in range(1, m + 1):
                    assert cmi_exact(SubsampleLearner(k=k, base=base), inst, m) == \
                        cmi_exact(base, inst, k)

    def test_nested_subsample_reduces_to_the_innermost_base(self):
        base = QuantizedMeanLearner()
        inner = SubsampleLearner(k=2, base=base)
        assert reduce_subsample(SubsampleLearner(k=3, base=inner), 5) == (base, 2)
        assert reduce_subsample(base, 5) == (base, 5)
        with pytest.raises(ValueError, match="k=3 out of range for m=2"):
            reduce_subsample(SubsampleLearner(k=2, base=SubsampleLearner(k=3, base=base)), 4)

    def test_k_above_m_raises_in_mi_and_cmi(self):
        sub = SubsampleLearner(k=5, base=MeanLearner())
        inst = HardInstance.zero(1)
        with pytest.raises(ValueError, match="k=5 out of range for m=4"):
            exact_mutual_information(sub, inst.d, 4)(inst)
        with pytest.raises(ValueError, match="k=5 out of range for m=4"):
            cmi_exact(sub, inst, 4)


class TestEpsilonNet:
    def test_net_size_square_m(self):
        # ceil(sqrt(m)) + 1 points per axis
        assert epsilon_net(1, 4).shape[0] == 3
        assert epsilon_net(2, 4).shape[0] == 9
        assert epsilon_net(1, 16).shape[0] == 5

    def test_net_inside_ball(self):
        net = epsilon_net(3, 9)
        assert np.all(np.linalg.norm(net, axis=1) <= 1.0 + 1e-12)

    def test_covering_radius(self):
        rng = np.random.default_rng(3)
        for d, m in ((1, 4), (2, 4), (2, 9), (3, 9)):
            net = epsilon_net(d, m)
            for _ in range(200):
                w = rng.normal(size=d)
                w /= max(1.0, np.linalg.norm(w))
                dist = np.sqrt(((net - w) ** 2).sum(axis=1).min())
                assert dist <= math.sqrt(d / m) + 1e-12

    def test_all_plus_sample_returns_one(self):
        s = Sample.from_signs(np.ones((4, 1), dtype=int))
        w = fit(EpsilonNetErm(), s.plus[None])[0]
        assert w[0] == pytest.approx(1.0)

    def test_risk_slack_window(self):
        rng = np.random.default_rng(4)
        learner = EpsilonNetErm()
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(d, 17))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=int(rng.integers(1 << 30)))
            w = fit(learner, s.plus[None])[0]
            slack = empirical_risk(s, w) - empirical_risk(s, s.mean)
            assert -1e-12 <= slack <= math.sqrt(d / m) + 1e-9

    def test_entropy_capped_by_net_size(self):
        learner = EpsilonNetErm()
        for d, m in ((1, 4), (1, 9), (2, 4)):
            inst = HardInstance(d, np.full(d, 0.1))
            ch = exact_channel(learner, inst, m)
            assert ch.output_entropy() <= d * math.log(math.sqrt(m) + 1) + 1e-12


def _nearest_one_shot(net, zbar):
    """Unblocked oracle: one (n, K, d) distance tensor, first minimum wins."""
    diff = zbar[:, None, :] - net[None, :, :]
    return net[np.argmin((diff * diff).sum(axis=2), axis=1)]


class TestEpsilonNetBlocks:
    def test_blocked_matches_one_shot_random(self):
        rng = np.random.default_rng(21)
        for d, m in ((1, 4), (2, 9), (3, 16)):
            n = 3 * (NET_BLOCK_CELLS // epsilon_net(d, m).size) + 7
            zbar = count_mean(rng.integers(0, m + 1, size=(n, d)), m)
            got = EpsilonNetErm().finish(zbar, m)
            np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(d, m), zbar))

    def test_blocked_matches_one_shot_on_ties(self):
        # plus-counts 3, 1, 2 of 4 give means +-0.5 and 0; +-0.5 sit halfway
        # between net points of the axis (-1, 0, 1)
        counts = np.tile([[3], [1], [2]], (NET_BLOCK_CELLS // epsilon_net(1, 4).size, 1))
        zbar = count_mean(counts, 4)
        np.testing.assert_array_equal(zbar[:3, 0], [0.5, -0.5, 0.0])
        got = EpsilonNetErm().finish(zbar, 4)
        np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(1, 4), zbar))
        np.testing.assert_array_equal(got[:3, 0], [0.0, -1.0, 0.0])
        # every reachable mean at d=2, m=4, with its exact lattice ties
        signs = enumerate_sign_space_shift_mask(4, 2)
        zbar = signs.mean(axis=1, dtype=float) / math.sqrt(2)
        got = EpsilonNetErm().finish(count_mean(plus_counts(signs), 4), 4)
        np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(2, 4), zbar))

    def test_peak_memory_bounded(self):
        n, d, m = 1 << 17, 2, 16
        zbar = count_mean(np.random.default_rng(22).integers(0, m + 1, size=(n, d)), m)
        one_temporary = n * epsilon_net(d, m).shape[0] * d * 8
        tracemalloc.start()
        try:
            EpsilonNetErm().finish(zbar, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_temporary / 4


class TestSgd:
    def test_single_step_reaches_data_point(self):
        s = Sample.from_signs(np.array([[1]]))
        w = fit(SgdLearner(), s.plus[None])[0]
        assert w[0] == pytest.approx(1.0)

    def test_constant_data_converges(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 9))
            z = np.sign(rng.normal(size=d)).astype(int)
            z[z == 0] = 1
            s = Sample.from_signs(np.tile(z, (m, 1)))
            w = fit(SgdLearner(), s.plus[None])[0]
            delta = grid_step(None, m)
            assert np.linalg.norm(w - s.points[0]) <= 1.0 / m + delta * math.sqrt(d)

    def test_risk_decreases_with_m(self):
        learner = SgdLearner()
        inst = HardInstance.zero(2)
        risks = []
        for m in (4, 16, 64):
            rng = np.random.default_rng(100 + m)
            total = 0.0
            n = 400
            for _ in range(n):
                s = sample(inst, m, seed=rng)
                w = fit(learner, s.plus[None])[0]
                total += float(w @ w)  # w* = 0
            risks.append(total / n)
        assert risks[0] > risks[1] > risks[2]
        assert risks[-1] <= 4.0 / 64 + grid_step(None, 64) * math.sqrt(2) + 0.05

    def test_order_dependence_is_real(self):
        # sgd reads the sample in order; a permuted sample may give another output
        s1 = Sample.from_signs(np.array([[1], [-1], [1], [1]]))
        s2 = Sample.from_signs(np.array([[1], [1], [1], [-1]]))
        w1 = fit(SgdLearner(), s1.plus[None])[0]
        w2 = fit(SgdLearner(), s2.plus[None])[0]
        assert w1[0] != w2[0]


class TestRegularizedErm:
    def test_lambda_zero_is_mean_up_to_delta(self):
        s = sample(HardInstance.zero(3), 5, seed=6)
        w = fit(RegularizedErm(lam=0.0), s.plus[None])[0]
        assert np.linalg.norm(w - s.mean) <= grid_step(None, 5) * math.sqrt(3)

    def test_heavy_shrinkage_to_zero(self):
        s = sample(HardInstance.zero(2), 4, seed=7)
        w = fit(RegularizedErm(lam=1e9), s.plus[None])[0]
        np.testing.assert_allclose(w, 0.0, atol=1e-8)

    def test_half_for_unit_lambda(self):
        s = Sample.from_signs(np.array([[1], [1]]))
        w = fit(RegularizedErm(lam=1.0), s.plus[None])[0]
        assert w[0] == pytest.approx(0.5)

    def test_exact_minimizer_property(self):
        # the unquantized solution beats random ball points on the objective
        rng = np.random.default_rng(8)
        lam = 0.7
        s = sample(HardInstance.zero(3), 6, seed=9)
        star = s.mean / (1 + lam)
        def objective(w):
            return empirical_risk(s, w) + lam * float(w @ w)
        for _ in range(200):
            w = rng.normal(size=3)
            w /= max(1.0, np.linalg.norm(w))
            assert objective(star) <= objective(w) + 1e-12

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            RegularizedErm(lam=-0.1)


class TestSubsample:
    def test_k_equals_m_matches_base(self):
        s = sample(HardInstance.zero(2), 4, seed=10)
        full = fit(MeanLearner(), s.plus[None])[0]
        sub = fit(SubsampleLearner(k=4, base=MeanLearner()), s.plus[None])[0]
        np.testing.assert_allclose(sub, full)

    def test_k_one_ignores_rest(self):
        rng = np.random.default_rng(11)
        learner = SubsampleLearner(k=1, base=MeanLearner())
        plus = rng.choice([-1, 1], size=(5, 3)) > 0
        base_out = fit(learner, plus[None])[0]
        for _ in range(10):
            perm = np.concatenate([[0], 1 + rng.permutation(4)])
            permuted = plus[perm]
            out = fit(learner, permuted[None])[0]
            np.testing.assert_allclose(out, base_out)

    def test_k_out_of_range(self):
        s = sample(HardInstance.zero(1), 2, seed=12)
        for k in (3, 0):
            with pytest.raises(ValueError, match=f"subsample size k={k} out of range for m=2"):
                fit(SubsampleLearner(k=k, base=MeanLearner()), s.plus[None])


def _randomized_response_rows(learner, plus, rng):
    """Randomized response one row at a time, with its own codebook: the
    oracle for the batched draw of ``fit``."""
    n, m, d = plus.shape
    codebook = codebook_signs(learner.base, d, m)
    rows = []
    for i in range(n):
        w = fit(learner.base, plus[i:i + 1])[0]
        if rng.random() < learner.rho:
            w = codebook[rng.integers(codebook.shape[0])]
        rows.append(w)
    return np.stack(rows)


class TestRandomizedResponse:
    def test_rho_one_is_independent(self):
        inst = HardInstance(1, np.array([0.2]))
        learner = RandomizedResponse(base=MeanLearner(), rho=1.0)
        ch = exact_channel(learner, inst, 2)
        assert ch.mutual_information() == pytest.approx(0.0, abs=1e-12)

    def test_rho_zero_matches_base(self):
        inst = HardInstance(1, np.array([-0.1]))
        base_mi = exact_channel(MeanLearner(), inst, 3).mutual_information()
        rr_mi = exact_channel(RandomizedResponse(base=MeanLearner(), rho=0.0),
                              inst, 3).mutual_information()
        assert rr_mi == pytest.approx(base_mi, abs=1e-12)

    def test_mi_monotone_in_rho(self):
        inst = HardInstance(1, np.array([0.15]))
        mis = [exact_channel(RandomizedResponse(base=MeanLearner(), rho=r),
                             inst, 3).mutual_information()
               for r in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(mis[i] >= mis[i + 1] - 1e-12 for i in range(4))

    def test_dense_law_budget(self, monkeypatch):
        # d=2, m=4: 256 samples x 25 quantized means. The law and the two
        # temporaries of its size, with a one-byte mask, take 25 bytes per
        # cell, the gap's drifts and four more floats 16 d + 32 per sample,
        # and the lattice counts with three temporaries of their size 32 d
        # per lattice point: 256 * (25 * 25 + 64) + 25 * 32 * 2 = 177,984 bytes
        learner = RandomizedResponse(base=QuantizedMeanLearner(), rho=0.5)
        inst = HardInstance.zero(2)
        monkeypatch.setattr(learners, "DENSE_LAW_BYTES", 177984)
        assert exact_channel(learner, inst, 4).cond.shape == (256, 25)
        monkeypatch.setattr(learners, "DENSE_LAW_BYTES", 177983)
        with pytest.raises(BudgetExceededError, match="177984 bytes"):
            exact_channel(learner, inst, 4)

    @pytest.mark.parametrize("base, d, m", [
        (QuantizedMeanLearner(), 2, 4), (EpsilonNetErm(), 3, 4),
        (SubsampleLearner(k=2, base=SgdLearner()), 2, 6), (RegularizedErm(lam=1e9), 1, 12),
        (RegularizedErm(lam=1e9), 12, 1), (QuantizedMeanLearner(), 10, 1), (SgdLearner(), 14, 1)],
        ids=lambda v: getattr(v, "kind", v))
    def test_dense_route_peak_within_the_budget(self, monkeypatch, base, d, m):
        # at the least budget the check accepts, read from its own message,
        # the channel, its MI, gap and risk together stay within it; the MI
        # and the gap each hold two temporaries of the law's size beside it.
        # At m = 1 the lattice has a point per sample, and with one atom its
        # (L, d) arrays, not the law, set the peak
        learner = RandomizedResponse(base=base, rho=0.5)
        inst = HardInstance(d, np.linspace(-0.2, 0.3, d))
        monkeypatch.setattr(learners, "DENSE_LAW_BYTES", 0)
        with pytest.raises(BudgetExceededError, match="law with its temporaries") as err:
            exact_channel(learner, inst, m)
        need = int(str(err.value).split(" needs ")[1].split()[0])
        monkeypatch.setattr(learners, "DENSE_LAW_BYTES", need)
        exact_channel(learner, inst, m).mutual_information()  # imports stay out of the peak
        tracemalloc.start()
        try:
            ch = exact_channel(learner, inst, m)
            ch.mutual_information()
            ch.expected_generalization_gap(inst)
            ch.expected_excess_risk(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 3 * ch.cond.nbytes < peak <= need

    def test_dense_law_is_the_peak(self):
        # d=10, m=1: a 1024 x 1024 law of 8 MiB, and nothing else of its size
        learner = RandomizedResponse(base=MeanLearner(), rho=0.5)
        inst = HardInstance.zero(10)
        exact_channel(learner, inst, 1)  # a first call imports numpy.ma; keep it out of the peak
        tracemalloc.start()
        try:
            ch = exact_channel(learner, inst, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ch.cond.shape == (1024, 1024)
        assert peak <= 1.25 * ch.cond.nbytes

    def test_dense_law_bytes_equal_the_mixed_point_masses(self):
        for base, rho in ((MeanLearner(), 0.5), (QuantizedMeanLearner(delta=0.3), 0.3),
                          (RegularizedErm(lam=1e9), 0.7)):
            # a one-atom codebook too: every output of lam = 1e9 rounds to 0
            inst = HardInstance(2, np.array([0.1, -0.2]))
            base_ch = exact_channel(base, inst, 3)
            n, big_k = base_ch.output_index.shape[0], base_ch.codebook.shape[0]
            base_law = np.zeros((n, big_k))
            base_law[np.arange(n), base_ch.output_index] = 1.0
            learner = RandomizedResponse(base=base, rho=rho)
            ch = exact_channel(learner, inst, 3)
            assert ch.cond.tobytes() == learner.mix(base_law).tobytes()

    def test_fit_needs_rng(self):
        s = sample(HardInstance.zero(1), 2, seed=13)
        with pytest.raises(ValueError):
            fit(RandomizedResponse(base=MeanLearner(), rho=0.5), s.plus[None])

    @staticmethod
    def _spy_builds(monkeypatch):
        """Record every codebook build."""
        builds = []
        real = learners.output_atoms

        def spy(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(learners, "output_atoms", spy)
        return builds

    def test_codebook_built_once(self, monkeypatch):
        base = QuantizedMeanLearner()
        learner = RandomizedResponse(base=base, rho=0.5)
        inst = HardInstance(2, np.array([0.1, -0.3]))
        plus = np.stack([sample(inst, 3, seed=i).plus for i in range(1000)])
        builds = self._spy_builds(monkeypatch)
        got = fit(learner, plus, np.random.default_rng(17))
        assert builds == [(base, 3, 2)]
        fit(learner, plus, np.random.default_rng(17))
        assert builds == [(base, 3, 2)] * 2
        codebook = codebook_signs(base, 2, 3)
        rng = np.random.default_rng(17)
        expected = [codebook[rng.integers(codebook.shape[0])] if rng.random() < 0.5
                    else fit(base, row[None])[0] for row in plus]
        assert np.array_equal(got, np.stack(expected))

    def test_rho_zero_builds_no_codebook(self, monkeypatch):
        base = SgdLearner()
        plus = sample_plus(np.zeros(2), 4, np.random.default_rng(18), 500)
        builds = self._spy_builds(monkeypatch)
        got = fit(RandomizedResponse(base=base, rho=0.0), plus, np.random.default_rng(19))
        assert builds == []
        assert got.tobytes() == fit(base, plus).tobytes()

    @pytest.mark.parametrize("d,m,menu", [
        (1, 4, "xu"), (2, 4, "xu"), (1, 9, "xu"), (3, 5, "mean")])
    def test_batch_matches_row_by_row_oracle(self, d, m, menu):
        bases = ([b for b in _xu_learner_menu(m) if b.deterministic]
                 if menu == "xu" else [MeanLearner()])
        plus = sample_plus(np.linspace(-0.3, 0.2, d), m, np.random.default_rng(20), 300)
        for base in bases:
            for rho in (0.0, 0.3, 1.0):
                learner = RandomizedResponse(base=base, rho=rho)
                got = fit(learner, plus, np.random.default_rng(23))
                expected = _randomized_response_rows(learner, plus,
                                                     np.random.default_rng(23))
                assert got.tobytes() == expected.tobytes(), (base.kind, rho)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            RandomizedResponse(base=MeanLearner(), rho=1.5)


class TestChannel:
    def test_reference_case(self):
        ch = exact_channel(MeanLearner(), HardInstance.zero(1), 2)
        assert ch.mutual_information() == pytest.approx(1.5 * LN2, abs=1e-12)
        marg = dict(zip([tuple(c) for c in ch.codebook], ch.output_marginal()))
        assert marg[(0.0,)] == pytest.approx(0.5)
        assert marg[(1.0,)] == pytest.approx(0.25)
        assert marg[(-1.0,)] == pytest.approx(0.25)

    def test_constant_learner_zero_information(self):
        inst = HardInstance.zero(1)
        mi = exact_channel(RegularizedErm(lam=1e9), inst, 3).mutual_information()
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        inst = HardInstance(2, np.array([0.3, -0.2]))
        plus = enumerate_sign_space(3, 2)
        probs = sign_space_probs(inst, plus.sum(axis=1), 3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_against_infotheory_oracle(self):
        # channel MI equals mutual_information over the explicit joint table
        inst = HardInstance(1, np.array([0.25]))
        ch = exact_channel(QuantizedMeanLearner(), inst, 3)
        table = np.zeros((ch.codes.shape[0], ch.codebook.shape[0]))
        table[np.arange(ch.codes.shape[0]), ch.output_index] = ch.sample_probs
        oracle = mutual_information(table)
        assert ch.mutual_information() == pytest.approx(oracle, abs=1e-10)

    @given(d=st.integers(1, 2), m=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_joint_table(self, d, m, data):
        p = data.draw(st.lists(st.floats(-1 / 3, 1 / 3), min_size=d, max_size=d))
        learner = data.draw(st.sampled_from(all_learners(m)[:5]))
        wrap = data.draw(st.sampled_from(["none", "subsample", "randomized_response"]))
        if wrap == "subsample":
            learner = SubsampleLearner(k=data.draw(st.integers(1, m)), base=learner)
        elif wrap == "randomized_response":
            learner = RandomizedResponse(base=learner, rho=data.draw(st.floats(0.0, 1.0)))
        inst = HardInstance(d, np.asarray(p))
        ch = exact_channel(learner, inst, m)
        if ch.deterministic:
            law = np.zeros((ch.codes.shape[0], ch.codebook.shape[0]))
            law[np.arange(ch.codes.shape[0]), ch.output_index] = 1.0
        else:
            law = ch.cond
        joint = ch.sample_probs[:, None] * law
        assert joint.min() >= 0.0 and abs(joint.sum() - 1.0) <= 1e-12
        assert abs(ch.mutual_information() - mutual_information(joint)) <= 1e-12
        assert abs(ch.output_entropy() - entropy(marginal(joint, 1))) <= 1e-12

    @given(n=st.integers(1, 6), big_k=st.integers(1, 8), rho=st.floats(0.0, 1.0),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mix_equals_literal_construction(self, n, big_k, rho, data):
        idx = np.asarray(data.draw(st.lists(st.integers(0, big_k - 1),
                                            min_size=n, max_size=n)))
        literal = np.full((n, big_k), rho / big_k)
        literal[np.arange(n), idx] += 1.0 - rho
        base_law = np.zeros((n, big_k))
        base_law[np.arange(n), idx] = 1.0
        mixed = RandomizedResponse(base=MeanLearner(), rho=rho).mix(base_law)
        np.testing.assert_array_equal(mixed, literal)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_sign_space(8, 4)
        with pytest.raises(BudgetExceededError, match="2\\^32 sign patterns"):
            learners.output_atoms(SgdLearner(), 8, 4)

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 13) for m in range(1, 12 // d + 1)])
    def test_enumeration_matches_shift_and_mask(self, d, m):
        got = enumerate_sign_space(m, d)
        assert got.dtype == np.bool_ and got.shape == (1 << (m * d), m, d)
        assert got.tobytes() == (enumerate_sign_space_shift_mask(m, d) > 0).tobytes()

    def test_enumeration_allocates_little_beyond_its_output(self):
        tracemalloc.start()
        try:
            out = enumerate_sign_space(5, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes, (peak, out.nbytes)

    @pytest.mark.parametrize("d,m", [(1, 9), (2, 5), (3, 4), (4, 3)])
    def test_sgd_matches_full_copy(self, d, m):
        plus = enumerate_sign_space(m, d)
        for learner in (SgdLearner(), SgdLearner(delta=0.3)):
            got = fit(learner, plus)
            assert got.tobytes() == sgd_full_copy(learner, signs_of_plus(plus)).tobytes()

    def test_exact_mi_dispatches_to_factorized(self):
        inst = HardInstance(7, np.zeros(7))
        # 2^(7*4) is beyond full enumeration; the factorized path answers
        mi = exact_mutual_information(QuantizedMeanLearner(), inst.d, 4)(inst)
        # at p = 0 the 16 column patterns are equally likely, so each
        # coordinate contributes the entropy of its output value counts
        patterns = np.repeat(enumerate_sign_space(4, 1), 7, axis=2)
        _, counts = np.unique(fit(QuantizedMeanLearner(), patterns)[:, 0],
                              return_counts=True)
        probs = counts / 16
        assert mi == pytest.approx(-7 * float(probs @ np.log(probs)), abs=1e-12)

    def test_gap_matches_literal_risk_difference(self):
        # oracle: evaluate L_D - L_S term by term from the risk definitions
        inst = HardInstance(2, np.array([0.25, -0.1]))
        for learner in (MeanLearner(), EpsilonNetErm(), SgdLearner()):
            ch = exact_channel(learner, inst, 3)
            signs = enumerate_sign_space_shift_mask(3, inst.d)
            literal = 0.0
            for i in range(signs.shape[0]):
                s = Sample.from_signs(signs[i])
                w = ch.codebook[ch.output_index[i]]
                literal += ch.sample_probs[i] * (population_risk(inst, w)
                                                 - empirical_risk(s, w))
            assert ch.expected_generalization_gap(inst) == pytest.approx(
                literal, abs=1e-12)


class TestCodebookClosure:
    @pytest.mark.parametrize("learner", all_learners(4), ids=lambda l: l.kind)
    def test_outputs_live_in_codebook(self, learner):
        inst = HardInstance(2, np.array([0.1, -0.3]))
        m = 4
        codebook = {tuple(row) for row in learners.output_atoms(learner, m, inst.d)[0]}
        rng = np.random.default_rng(14)
        for _ in range(300):
            s = sample(inst, m, seed=rng)
            w = fit(learner, s.plus[None])[0]
            assert np.linalg.norm(w) <= 1.0 + 1e-12
            assert tuple(w) in codebook

    @pytest.mark.parametrize("learner", all_learners(4), ids=lambda l: l.kind)
    def test_bulk_closure_hundred_thousand(self, learner):
        inst = HardInstance(2, np.array([0.1, -0.3]))
        m = 4
        codebook = {tuple(row) for row in learners.output_atoms(learner, m, inst.d)[0]}
        w = fit(learner, sample_plus(inst.p, m, np.random.default_rng(15), 10 ** 5))
        assert np.all(np.linalg.norm(w, axis=1) <= 1.0 + 1e-12)
        assert all(tuple(row) in codebook for row in w)

    def test_bulk_closure_randomized(self):
        inst = HardInstance(1, np.array([0.2]))
        m = 3
        learner = RandomizedResponse(base=MeanLearner(), rho=0.5)
        codebook = {tuple(row) for row in learners.output_atoms(learner.base, m, inst.d)[0]}
        rng = np.random.default_rng(16)
        for _ in range(2000):
            s = sample(inst, m, seed=rng)
            w = fit(learner, s.plus[None], rng)[0]
            assert tuple(w) in codebook

    def test_determinism_across_runs(self):
        inst = HardInstance(3, np.array([0.2, 0.0, -0.2]))
        for learner in all_learners(5):
            s = sample(inst, 5, seed=99)
            w1 = fit(learner, s.plus[None])[0]
            w2 = fit(learner, sample(inst, 5, seed=99).plus[None])[0]
            np.testing.assert_array_equal(w1, w2)


def _axis0_channel(learner, d, m):
    """Codebook, output index and conditional law of ``exact_channel`` built
    the old way, with numpy's row sort and a dict lookup: the oracle."""
    signs = enumerate_sign_space_shift_mask(m, d)
    if learner.deterministic:
        codebook, idx = np.unique(fit_signs(learner, signs), axis=0, return_inverse=True)
        return codebook, idx, None
    codebook = np.unique(codebook_signs(learner.base, d, m), axis=0)
    key = {tuple(row): i for i, row in enumerate(codebook)}
    base_idx = [key[tuple(row)] for row in fit_signs(learner.base, signs)]
    base_law = np.zeros((signs.shape[0], codebook.shape[0]))
    base_law[np.arange(signs.shape[0]), base_idx] = 1.0
    return codebook, None, learner.mix(base_law)


_CODEBOOK_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2.5)


@st.composite
def _row_arrays(draw):
    n = draw(st.integers(0, 48))
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cells = st.sampled_from(_CODEBOOK_VALUES)
        dtype = float
    else:
        cells = st.sampled_from((0, 1, -1, 7, -(1 << 62), (1 << 62)))
        dtype = np.int64
    return np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d)),
                    dtype=dtype).reshape(n, d)


class TestUniqueRows:
    @given(rows=_row_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_row_unique(self, rows):
        codebook, inverse = unique_rows(rows)
        ref_codebook, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert inverse.dtype == ref_inverse.dtype
        assert np.array_equal(inverse, ref_inverse.reshape(-1))
        assert codebook.dtype == ref_codebook.dtype
        assert codebook.shape == ref_codebook.shape
        assert np.array_equal(codebook, ref_codebook)
        # each atom's row is its first occurrence, bit for bit
        first = [int(np.flatnonzero(inverse == a)[0]) for a in range(codebook.shape[0])]
        assert codebook.tobytes() == rows[first].tobytes()
        # numpy's representative of an atom mixing 0.0 and -0.0 rows depends
        # on its unstable sort; wherever an atom's rows are all alike
        # bit for bit, the bytes are numpy's
        if codebook[inverse].tobytes() == rows.tobytes():
            assert codebook.tobytes() == ref_codebook.tobytes()

    def test_re_ranks_before_the_code_overflows(self):
        # 10,000 levels in each of 5 columns: the plain fold would need
        # 10000^5 > 2^63 codes
        rng = np.random.default_rng(18)
        rows = rng.integers(-10 ** 9, 10 ** 9, size=(20000, 5))
        rows[1::2] = rows[::2]
        for arr in (rows, rows / 7.0):
            codebook, inverse = unique_rows(arr)
            ref_codebook, ref_inverse = np.unique(arr, axis=0, return_inverse=True)
            assert codebook.tobytes() == ref_codebook.tobytes()
            assert np.array_equal(inverse, ref_inverse)

    def test_first_occurrence_keeps_signed_zero(self):
        rows = np.array([[1.0, -0.0], [0.5, 1.0], [1.0, 0.0]])
        codebook, inverse = unique_rows(rows)
        assert inverse.tolist() == [1, 0, 1]
        assert np.signbit(codebook[1, 1])

    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in range(1, 12 // d + 1)])
    def test_exact_channel_matches_row_sort(self, d, m):
        inst = HardInstance.zero(d)
        for learner in _xu_learner_menu(m):
            ch = exact_channel(learner, inst, m)
            codebook, idx, cond = _axis0_channel(learner, d, m)
            assert ch.codebook.tobytes() == codebook.tobytes(), learner.kind
            if cond is None:
                assert ch.output_index.dtype == np.int64
                assert np.array_equal(ch.output_index, idx), learner.kind
            else:
                assert np.array_equal(ch.cond, cond), learner.kind

    @pytest.mark.parametrize("learner", [MeanLearner(), QuantizedMeanLearner(),
                                         QuantizedMeanLearner(delta=0.3)],
                             ids=["mean", "quantized_mean", "quantized_mean_0.3"])
    def test_factorized_codebook_is_sorted_and_distinct(self, learner):
        for d in (1, 2, 3):
            for m in range(1, 6):
                codebook = learners.output_atoms(learner, m, d)[0]
                assert codebook.tobytes() == np.unique(codebook, axis=0).tobytes()

    @pytest.mark.parametrize("base", [MeanLearner(), QuantizedMeanLearner(),
                                      QuantizedMeanLearner(delta=0.3)],
                             ids=["mean", "quantized_mean", "quantized_mean_0.3"])
    def test_factorized_codebook_is_the_level_grid(self, base):
        # a factorized learner reaches every combination of its
        # per-coordinate levels, so its codebook is their 'ij' grid
        for d in (1, 2, 3):
            for m in range(1, 6):
                columns = np.repeat(enumerate_sign_space(m, 1), d, axis=2)
                for learner in [base] + [SubsampleLearner(k=k, base=base)
                                         for k in range(1, m + 1)]:
                    levels = np.unique(fit(learner, columns)[:, 0])
                    grids = np.meshgrid(*([levels] * d), indexing="ij")
                    grid = np.stack([g.reshape(-1) for g in grids], axis=1)
                    got = learners.output_atoms(learner, m, d)[0]
                    assert got.tobytes() == grid.tobytes(), (learner.kind, d, m)

    def test_no_row_sort_in_the_program(self):
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "unique"
                        and any(kw.arg == "axis" for kw in node.keywords)):
                    found.append(f"{path.name}:{node.lineno}")
        assert not found, f"row sort by np.unique(..., axis=...); use unique_rows: {found}"


REDUCTIONS = ("output_marginal", "mutual_information", "output_entropy")
INSTANCE_REDUCTIONS = ("expected_generalization_gap", "expected_excess_risk")


def _lattice_biases(d):
    """The 3-point bias grid of the lattice checks."""
    return (np.zeros(d), np.full(d, 0.3), np.linspace(-1 / 3, 0.25, d))


def _assert_bitwise_full_route(ch, full, inst):
    """The lattice-indexed channel equals the full route bit for bit:
    probabilities, codebook, index or law, the five reductions and, for a
    deterministic learner, the chain rule."""
    assert ch.sample_probs.tobytes() == full.sample_probs.tobytes()
    assert ch.codebook.tobytes() == full.codebook.tobytes()
    if full.deterministic:
        assert ch.cond is None
        assert ch.output_index.dtype == full.output_index.dtype
        assert ch.output_index.tobytes() == full.output_index.tobytes()
    else:
        assert ch.output_index is None
        assert ch.cond.tobytes() == full.cond.tobytes()
    for name in REDUCTIONS:
        got, want = getattr(ch, name)(), getattr(full, name)()
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    for name in INSTANCE_REDUCTIONS:
        got, want = getattr(ch, name)(inst), getattr(full, name)(inst)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
    if not full.deterministic:
        return
    chain = chain_rule_decomposition(ch)
    report, total, per_coordinate = full_chain_rule(full)
    assert chain.report == report
    assert np.float64(chain.total_mi).tobytes() == np.float64(total).tobytes()
    assert np.array(chain.per_coordinate).tobytes() == np.array(per_coordinate).tobytes()


# every learner with reads_counts True, with and without parameters
COUNT_LEARNERS = [MeanLearner(), QuantizedMeanLearner(), QuantizedMeanLearner(delta=0.3),
                  EpsilonNetErm(), RegularizedErm(), RegularizedErm(lam=0.5, delta=0.2)]


@st.composite
def _plus_and_column_permutation(draw):
    """(n, m, d) plus booleans and the same booleans with the m points of
    every (sample, coordinate) column shuffled independently."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=n * m * d, max_size=n * m * d))
    plus = np.array(cells, dtype=bool).reshape(n, m, d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = np.argsort(rng.random((n, m, d)), axis=1)
    return plus, np.take_along_axis(plus, order, axis=1)


class TestLatticeRoute:
    def test_count_learners_are_the_declared_ones(self):
        menu = all_learners(4) + [RandomizedResponse(base=MeanLearner(), rho=0.5)]
        assert {l.kind for l in menu if l.reads_counts} == {l.kind for l in COUNT_LEARNERS}

    @given(learner=st.sampled_from(COUNT_LEARNERS), pair=_plus_and_column_permutation())
    @settings(max_examples=300, deadline=None)
    def test_count_learner_ignores_point_order(self, learner, pair):
        plus, shuffled = pair
        assert learner.reads_counts
        assert fit(learner, shuffled).tobytes() == fit(learner, plus).tobytes()

    @pytest.mark.parametrize("learner", [SgdLearner(), SubsampleLearner(k=1, base=MeanLearner())],
                             ids=lambda l: l.kind)
    def test_order_learner_reads_point_order(self, learner):
        # one coordinate, the points +1 then -1 and the other way round
        plus = np.array([[[True], [False]], [[False], [True]]])
        assert not learner.reads_counts
        out = fit(learner, plus)
        assert out[0].tobytes() != out[1].tobytes()

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 13) for m in range(1, 6)
                                     if d * m <= 12])
    def test_codes_count_the_plus_signs(self, d, m):
        lattice = lattice_counts(m, d)
        codes = lattice_codes(m, d)
        counts = enumerate_sign_space(m, d).sum(axis=1)
        assert codes.dtype == np.int64 and lattice.shape == ((m + 1) ** d, d)
        assert codes.tobytes() == (counts @ (m + 1) ** np.arange(d - 1, -1, -1)).tobytes()
        # the lattice point of code c holds the counts of every pattern with code c
        assert lattice[codes].tobytes() == counts.tobytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sample_codes_are_weighted_plus_sums(self, data):
        d = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 12 // d))
        weight = st.one_of(st.just(0), st.integers(0, 1 << 20))
        scale = np.array(data.draw(st.lists(weight, min_size=m, max_size=m)), dtype=np.int64)
        radix = np.array(data.draw(st.lists(weight, min_size=d, max_size=d)), dtype=np.int64)
        plus = enumerate_sign_space(m, d)
        want = (plus * np.outer(scale, radix)).sum(axis=(1, 2), dtype=np.int64)
        got = sample_codes(scale, radix)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("learner", COUNT_LEARNERS + [SgdLearner(),
                                                         SubsampleLearner(2, MeanLearner())],
                             ids=lambda l: l.kind)
    def test_builds_each_code_array_once(self, monkeypatch, learner):
        # the lattice codes are built once, and beside them a second code
        # array only for a learner whose sample code is not the lattice code;
        # output_atoms builds no code array
        calls = []
        real = learners.sample_codes

        def spy(scale, radix):
            calls.append((scale.tolist(), radix.tolist()))
            return real(scale, radix)

        monkeypatch.setattr(learners, "sample_codes", spy)
        _, _, scale, radix = learners.output_atoms(learner, 5, 4)
        if learner.reads_counts:
            assert scale.tolist() == [1] * 5
            assert radix.tobytes() == code_radix(6, 4).tobytes()
        elif isinstance(learner, SgdLearner):
            # flat cell c = i d + t weighs 2^(i + 5 (3 - t)): bit i of the
            # column code of coordinate t, coordinate 0 most significant
            assert np.outer(scale, radix).reshape(-1).tolist() == [
                1 << (i + 5 * (3 - t)) for i in range(5) for t in range(4)]
        else:
            # the base's lattice code at k = 2; the other points weigh 0
            assert scale.tolist() == [1, 1, 0, 0, 0]
            assert radix.tobytes() == code_radix(3, 4).tobytes()
        assert calls == []
        exact_channel(learner, HardInstance.zero(2), 3)
        lattice = ([1, 1, 1], [4, 1])
        if learner.reads_counts:
            assert calls == [lattice]
        elif isinstance(learner, SgdLearner):
            assert calls == [lattice, ([1, 2, 4], [8, 1])]
        else:
            assert calls == [lattice, ([1, 1, 0], [3, 1])]

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 13) for m in range(1, 13)
                                     if d * m <= 12])
    def test_matches_full_route(self, d, m):
        # the full route's fits do not depend on the bias, so each learner is
        # fit once and its pattern probabilities recomputed per bias
        for learner in _xu_learner_menu(m) + [QuantizedMeanLearner(delta=0.3)]:
            full = full_channel(learner, HardInstance.zero(d), m)
            for p in _lattice_biases(d):
                inst = HardInstance(d, p)
                oracle = replace(full, sample_probs=sign_space_probs(inst, plus_counts(full.signs), m))
                _assert_bitwise_full_route(exact_channel(learner, inst, m), oracle, inst)

    def test_matches_full_route_at_2_20_patterns(self):
        inst = HardInstance(4, np.linspace(-1 / 3, 0.25, 4))
        learner = QuantizedMeanLearner()
        _assert_bitwise_full_route(exact_channel(learner, inst, 5),
                                   full_channel(learner, inst, 5), inst)

    @pytest.mark.parametrize("learner", COUNT_LEARNERS, ids=repr)
    def test_lattice_in_first_pattern_order(self, learner):
        # beyond the pattern budget: the oracle sorts by the pattern indices
        for d, m in ((4, 8), (3, 20), (2, 31), (1, 62)):
            codebook, atom = learners.output_atoms(learner, m, d)[:2]
            order = first_pattern_order(m, d)
            want, inverse = unique_rows(
                fit_counts_per_sample(learner, lattice_counts(m, d)[order], m))
            assert codebook.tobytes() == want.tobytes(), (d, m)
            assert atom.tobytes() == inverse[np.argsort(order)].tobytes(), (d, m)

    def test_budget_bounds_the_lattice_of_a_count_learner(self):
        # 2^32 sign patterns but 9^4 lattice points: randomized response
        # builds its base's codebook at the first flip
        mean, se = measured_excess_risk(RandomizedResponse(QuantizedMeanLearner(), 0.5),
                                        4, 8, 100, 1)
        assert 0.0 < mean and 0.0 < se
        assert learners.output_atoms(QuantizedMeanLearner(), 8, 4)[0].shape == (9 ** 4, 4)
        with pytest.raises(BudgetExceededError, match="4097\\^2 lattice points"):
            learners.output_atoms(MeanLearner(), 4096, 2)
        for learner in (QuantizedMeanLearner(), SgdLearner(),
                        RandomizedResponse(QuantizedMeanLearner(), 0.5)):
            with pytest.raises(BudgetExceededError, match="2\\^32 sign patterns"):
                exact_channel(learner, HardInstance.zero(4), 8)

    @pytest.mark.parametrize("learner", COUNT_LEARNERS + [SgdLearner()], ids=lambda l: l.kind)
    def test_reachable_outputs_match_full_route(self, learner):
        for d, m in ((1, 6), (2, 4), (3, 3), (4, 2)):
            assert learners.output_atoms(learner, m, d)[0].tobytes() == \
                full_channel(learner, HardInstance.zero(d), m).codebook.tobytes()


def pattern_atoms(learner, m, d):
    """(codebook, atom per sign pattern, in pattern order) of
    ``output_atoms``: each pattern reads its atom by its sample code."""
    codebook, atom, scale, radix = learners.output_atoms(learner, m, d)
    return codebook, atom[sample_codes(scale, radix)]


# every (d, m) with d m <= 14
SMALL_SHAPES = [(d, m) for d in range(1, 15) for m in range(1, 14 // d + 1)]
SHELL_SHAPES = [(d, m) for d in range(1, 21) for m in range(1, 20 // d + 1)]


class TestPrefixRoutes:
    """The exact routes that do no per-pattern work against the sign route:
    SGD by column-tuple codes and by prefix recursion, subsamples by zero
    point weights, and the count learners' gap per lattice point, all bit
    for bit. A route's per-pattern atoms are its atoms read by each
    pattern's sample code (``pattern_atoms``)."""

    @pytest.mark.parametrize("d,m", SHELL_SHAPES)
    def test_sgd_atoms_match_sign_route(self, d, m):
        """The per-pattern atoms of ``output_atoms`` (column-tuple codes)
        against ``unique_rows`` over one oracle per shape: the sign route up
        to d m = 14; beyond it, where the sign tensor and its int64
        temporaries grow past 100 MiB, the prefix oracle ``sgd_patterns``,
        itself checked against the sign route at (6, 3)."""
        signs = enumerate_sign_space_shift_mask(m, d) if d * m <= 14 else None
        for delta in (None, 0.05, 0.3):
            learner = SgdLearner(delta=delta)
            want, want_atom = unique_rows(sgd_patterns(learner, m, d) if signs is None
                                          else fit_signs(learner, signs))
            got, atom = pattern_atoms(learner, m, d)
            assert got.tobytes() == want.tobytes(), (delta, d, m)
            assert atom.dtype == want_atom.dtype, (delta, d, m)
            assert atom.tobytes() == want_atom.tobytes(), (delta, d, m)

    @pytest.mark.parametrize("d,m", [(1, 16), (2, 9), (3, 6), (4, 4), (8, 2), (13, 1)])
    def test_sgd_monte_carlo_fit_matches_sign_route(self, d, m):
        rng = np.random.default_rng([d, m])
        for delta in (None, 0.05, 0.3):
            plus = sample_plus(rng.uniform(-1 / 3, 1 / 3, d), m, rng, 500)
            got = fit(SgdLearner(delta=delta), plus)
            assert got.tobytes() == fit_signs(SgdLearner(delta=delta),
                                              signs_of_plus(plus)).tobytes(), (delta, d, m)

    @pytest.mark.parametrize("kind", sorted(learners.LEARNER_KINDS))
    def test_subsample_atoms_match_sign_route(self, kind):
        bases = [make_learner(kind, **({"k": 1} if kind == "subsample" else {}))]
        if kind == "sgd":
            bases += [SgdLearner(delta=0.05), SgdLearner(delta=0.3)]
        for d, m in ((d, m) for d, m in SMALL_SHAPES if d * m <= 12):
            signs = enumerate_sign_space_shift_mask(m, d)
            for k in range(1, m + 1):
                for base in bases:
                    learner = SubsampleLearner(k=k, base=base)
                    want, want_atom = unique_rows(fit_signs(learner, signs))
                    got, atom = pattern_atoms(learner, m, d)
                    assert got.tobytes() == want.tobytes(), (d, m, k, base)
                    assert atom.tobytes() == want_atom.tobytes(), (d, m, k, base)

    @pytest.mark.parametrize("learner", COUNT_LEARNERS, ids=repr)
    def test_count_gap_and_risk_match_full_channel(self, learner):
        # the epsilon net grows as (ceil(sqrt(m)) + 1)^d: both routes take
        # seconds per point beyond d = 6
        rng = np.random.default_rng(23)
        for d, m in SMALL_SHAPES:
            if isinstance(learner, EpsilonNetErm) and d > 6:
                continue
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            ch, want = exact_channel(learner, inst, m), full_channel(learner, inst, m)
            assert ch.code_atom is not None
            assert ch.expected_generalization_gap(inst) == \
                want.expected_generalization_gap(inst), (d, m)
            assert ch.expected_excess_risk(inst) == want.expected_excess_risk(inst), (d, m)

    @pytest.mark.parametrize("d,m", [(4, 5), (2, 8)])
    def test_sgd_column_route_projects_once(self, monkeypatch, d, m):
        """SGD's exact channel projects only the K^d first-pattern rows, K
        the distinct column levels, once: its column pass projects nothing,
        where a pass per pattern would project (m + 1) 2^(d m) rows."""
        rows, real = [], learners._project_rows

        def spy(w):
            rows.append(w.shape[0])
            return real(w)

        levels = np.unique(SgdLearner().levels(m, d)).shape[0]
        monkeypatch.setattr(learners, "_project_rows", spy)
        exact_channel(SgdLearner(), HardInstance.zero(d), m)
        assert rows == [levels ** d]

    def test_count_gap_memory_per_lattice_point(self):
        # the per-pattern route built three (2^20, 4) float arrays (104 MiB)
        inst = HardInstance(4, np.array([0.1, -0.2, 0.3, 0.0]))
        ch = exact_channel(QuantizedMeanLearner(), inst, 5)
        tracemalloc.start()
        try:
            ch.expected_generalization_gap(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_tiled_subsample_checks_budget_first(self, monkeypatch):
        # a subsample's atoms are its base's at k, so no 2^(d m) array is
        # built before exact_channel's code build checks the budget: the one
        # column pass is its base's at k
        calls, real = [], SgdLearner.levels

        def spy(self, m, d):
            calls.append((m, d))
            return real(self, m, d)

        monkeypatch.setattr(SgdLearner, "levels", spy)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="2\\^25 sign patterns"):
                exact_channel(SubsampleLearner(1, SgdLearner()), HardInstance.zero(5), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [(1, 5)] and peak < 1 << 16, peak

    @pytest.mark.parametrize("base", [SgdLearner(), QuantizedMeanLearner()], ids=lambda l: l.kind)
    def test_randomized_response_over_subsample_beyond_the_budget(self, base):
        # 2^32 sign patterns, but randomized response draws from the codebook
        # of the base at k = 2, 2^8 patterns
        learner = RandomizedResponse(SubsampleLearner(2, base), 0.5)
        mean, se = measured_excess_risk(learner, 4, 8, 100, 1)
        assert 0.0 < mean and 0.0 < se
        codebook = learners.output_atoms(learner.base, 8, 4)[0]
        assert codebook.tobytes() == learners.output_atoms(base, 2, 4)[0].tobytes()
        rng = np.random.default_rng(5)
        out = fit(learner, sample_plus(np.zeros(4), 8, rng, 200), rng)
        assert {row.tobytes() for row in out} <= {row.tobytes() for row in codebook}

    @pytest.mark.parametrize("base", [SgdLearner(), QuantizedMeanLearner()], ids=lambda l: l.kind)
    def test_subsample_atoms_beyond_the_budget_allocate_only_the_base(self, base):
        # at (d, m) = (4, 8) a per-pattern array would hold 2^32 entries
        learners.output_atoms(base, 2, 4)  # numpy's first-call allocations
        peaks = []
        for learner, m in ((base, 2), (SubsampleLearner(2, base), 8)):
            tracemalloc.start()
            try:
                learners.output_atoms(learner, m, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (1 << 12), peaks

    def test_tiled_subsample_k_above_m_raises(self):
        for base in (SgdLearner(), QuantizedMeanLearner()):
            for learner in (SubsampleLearner(k=5, base=base),
                            RandomizedResponse(SubsampleLearner(k=5, base=base), 0.5)):
                with pytest.raises(ValueError, match="k=5 out of range for m=4"):
                    exact_channel(learner, HardInstance.zero(2), 4)


class TestColumnRoute:
    """SGD's column route against the projected pass where the shell test
    (``sgd_shell_exit``) fails; the column route's memory; and the blocked
    gap of a pattern channel against its one-shot sum. Its atoms are checked
    bit for bit in ``TestPrefixRoutes``."""

    def test_shell_test_is_conservative(self, monkeypatch):
        """The prefix oracle projects no row inside the pass before the
        step where the shell test (``sgd_shell_exit``) fails, and some row
        at that step: it fails nowhere but at step 3 of (6, 3)."""
        over, real = [], oracles._project_rows

        def spy(w):
            over.append(bool((np.linalg.norm(w, axis=1) > 1.0).any()))
            return real(w)

        monkeypatch.setattr(oracles, "_project_rows", spy)
        declined = []
        for d, m in [(d, m) for d, m in SHELL_SHAPES if d * m <= 16] + [(6, 3)]:
            over.clear()
            sgd_patterns(SgdLearner(), m, d)
            assert len(over) == m + 1
            exit_step = sgd_shell_exit(m, d)
            first = next((t for t in range(1, m + 1) if over[t - 1]), None)
            assert first == exit_step, (d, m)
            if exit_step is not None:
                declined.append((d, m, exit_step))
        assert declined == [(6, 3, 3)]

    def test_declines_within_the_budget_only_at_6_3_and_6_4(self):
        """The shell test over every (d, m) whose 2^(d m) patterns fit the
        budget fails only at (6, 3) and (6, 4), both first at step 3: the two
        points checked against the projected pass below."""
        cells = FULL_ENUM_BUDGET.bit_length() - 1
        exits = {(d, m): sgd_shell_exit(m, d)
                 for d in range(1, cells + 1) for m in range(1, cells // d + 1)}
        assert {shape: t for shape, t in exits.items() if t is not None} == \
            {(6, 3): 3, (6, 4): 3}

    def test_prefix_oracle_outside_the_shell_matches_sign_route(self):
        """At (6, 3), where the projected pass projects rows at step 3, the
        prefix oracle gives every pattern's row of the sign route bit for
        bit; ``test_sgd_atoms_match_sign_route[6-3]`` holds the column route
        to the oracle."""
        d, m = 6, 3
        signs = enumerate_sign_space_shift_mask(m, d)
        for delta in (None, 0.05, 0.3):
            learner = SgdLearner(delta=delta)
            assert sgd_patterns(learner, m, d).tobytes() == \
                fit_signs(learner, signs).tobytes(), delta

    def test_column_route_at_6_4_matches_projected_pass(self, monkeypatch):
        """At (6, 4) the projected pass projects rows inside the pass only at
        step 3, and there only the 64 three-point prefixes that are constant
        in each coordinate: the first three steps are the prefix oracle's at
        m = 3, and at step 4 no row can leave the ball. On the 4,096 patterns
        that extend those prefixes, ``fit`` gives the final projection of
        each pattern's d column levels, the column route's row, bit for bit;
        every other pattern meets no projection before the final one."""
        d, m = 6, 4
        assert sgd_shell_exit(m, d) == 3
        projected, iterates, real = [], [], oracles._project_rows

        def spy(w):
            projected.append(np.flatnonzero(np.linalg.norm(w, axis=1) > 1.0))
            iterates.append(real(w))
            return iterates[-1]

        monkeypatch.setattr(oracles, "_project_rows", spy)
        sgd_patterns(SgdLearner(), 3, d)
        corner = np.arange(1 << d)  # plus in coordinate t iff bit t is set
        constant = corner * (1 + (1 << d) + (1 << 2 * d))  # the same corner at points 0..2
        assert [rows.tolist() for rows in projected[:3]] == [[], [], constant.tolist()]
        # a step-4 row is (3/4) w + z/4 with w a step-3 row; by monotone
        # rounding its norm is largest where each z_t takes the sign of w_t
        w = iterates[2]
        extended = (1.0 - 1.0 / 4) * w + np.where(w > 0, 1.0, -1.0) / math.sqrt(d) / 4
        assert (np.linalg.norm(extended, axis=1) <= 1.0).all()
        bits = (corner[:, None] >> np.arange(d)) & 1 > 0
        plus = np.empty((1 << 2 * d, m, d), dtype=bool)
        plus[:, :3] = np.repeat(bits, 1 << d, axis=0)[:, None, :]
        plus[:, 3] = np.tile(bits, (1 << d, 1))
        column_code = (plus * (1 << np.arange(m))[:, None]).sum(axis=1)  # (n, d)
        for delta in (None, 0.05, 0.3):
            learner = SgdLearner(delta=delta)
            want = learners._project_rows(learner.levels(m, d)[column_code])
            assert fit(learner, plus).tobytes() == want.tobytes(), delta

    def test_column_pass_peak_memory(self):
        # the last step holds 2.5 times the output; the rounding then holds
        # the running sum, divided in place, and one fresh quotient. Keeping
        # the last iterates and dividing out of place read 4.0 times the
        # output, the rounding's own temporaries out of place 5.0
        tracemalloc.start()
        try:
            out = SgdLearner().levels(20, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * out.nbytes, peak / out.nbytes

    def test_channel_peak_memory_is_its_arrays(self):
        # each sample code turns into its atom in place and the 2^(d m)
        # per-code atoms are dropped before the samples are weighed; a second
        # code-sized array read 1.00 more label per pattern here
        inst = HardInstance(4, np.array([0.1, -0.2, 0.3, 0.0]))
        exact_channel(SgdLearner(), inst, 2)  # warm up
        tracemalloc.start()
        try:
            ch = exact_channel(SgdLearner(), inst, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(array.nbytes for array in vars(ch).values() if isinstance(array, np.ndarray))
        assert peak <= kept + 0.25 * 8 * ch.codes.shape[0], (peak - kept) / (8 << 20)

    def test_atoms_peak_memory(self):
        # the fallback route peaks at 160 MiB here: (2^20, 4) float outputs
        # and their dedup
        tracemalloc.start()
        try:
            learners.output_atoms(SgdLearner(), 5, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak

    @pytest.mark.parametrize("d,m,block", [(2, 3, None), (4, 5, None), (3, 4, 1000)])
    def test_blocked_gap_matches_one_shot(self, monkeypatch, d, m, block):
        if block is not None:
            monkeypatch.setattr(learners, "GAP_BLOCK_ROWS", block)
        inst = HardInstance(d, np.random.default_rng([d, m]).uniform(-1 / 3, 1 / 3, d))
        n = 1 << (d * m)
        assert (n < learners.GAP_BLOCK_ROWS) == (d * m == 6)
        assert n % learners.GAP_BLOCK_ROWS != 0 or n // learners.GAP_BLOCK_ROWS >= 64
        for learner in (SgdLearner(), SgdLearner(delta=0.3), SubsampleLearner(2, SgdLearner())):
            ch = exact_channel(learner, inst, m)
            drift = (count_mean(ch.counts, m) - inst.w_star)[ch.codes]
            w = ch.codebook[ch.output_index]
            want = float(ch.sample_probs @ (2.0 * (w * drift).sum(axis=1)))
            assert ch.expected_generalization_gap(inst) == want, learner.kind


class TestMakeLearner:
    def test_registry_round_trip(self):
        assert make_learner("mean").kind == "mean"
        assert make_learner("quantized_mean", delta=0.25).delta == 0.25
        assert make_learner("regularized_erm", lam=2.0).lam == 2.0
        sub = make_learner("subsample", k=2, base="mean")
        assert sub.k == 2 and sub.base.kind == "mean"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_learner("gradient_boosting")

    @pytest.mark.parametrize("kind, params", [
        ("sgd", {"lam": 1.0}),
        ("mean", {"delta": 0.1}),
        ("epsilon_net_erm", {"delta": None}),
        ("quantized_mean", {"base": "mean"}),
        ("regularized_erm", {"k": 2}),
    ])
    def test_parameter_the_kind_does_not_take(self, kind, params):
        with pytest.raises(TypeError):
            make_learner(kind, **params)


# one learner of every LEARNER_KINDS entry, and randomized response over a
# count learner and over a subsample, each built for a sample size m
FIT_LEARNERS = {
    "mean": lambda m: MeanLearner(),
    "quantized_mean": lambda m: QuantizedMeanLearner(delta=0.3),
    "epsilon_net_erm": lambda m: EpsilonNetErm(),
    "sgd": lambda m: SgdLearner(),
    "regularized_erm": lambda m: RegularizedErm(lam=0.5),
    "subsample": lambda m: SubsampleLearner(k=max(1, m // 2), base=SgdLearner()),
    "randomized_response[quantized_mean]":
        lambda m: RandomizedResponse(base=QuantizedMeanLearner(), rho=0.5),
    "randomized_response[subsample]":
        lambda m: RandomizedResponse(base=SubsampleLearner(k=max(1, m // 2),
                                                           base=MeanLearner()), rho=0.3),
}


class TestFitProtocol:
    def test_menu_covers_every_kind(self):
        assert set(learners.LEARNER_KINDS) <= set(FIT_LEARNERS)
        assert {type(make(1)) for make in FIT_LEARNERS.values()} == (
            set(learners.LEARNER_KINDS.values()) | {RandomizedResponse})

    @pytest.mark.parametrize("name", sorted(FIT_LEARNERS))
    def test_fit_matches_sign_route(self, name):
        # outputs and the generator's final state, bit for bit: every
        # enumeration at d m <= 12, then seeded draws, each from one seed
        cases = [(d, m, None) for d in range(1, 13) for m in range(1, 12 // d + 1)]
        draws = np.random.default_rng(31)
        cases += [(int(d), int(m), int(draws.integers(1, 300)))
                  for d, m in draws.integers(1, [4, 5], size=(20, 2))]
        for seed, (d, m, n) in enumerate(cases):
            learner = FIT_LEARNERS[name](m)
            rng, rng_signs = np.random.default_rng(seed), np.random.default_rng(seed)
            if n is None:
                plus = enumerate_sign_space(m, d)
                signs = signs_of_plus(plus)
            else:
                p = np.random.default_rng([seed, d]).uniform(-1 / 3, 1 / 3, size=d)
                plus, signs = sample_plus(p, m, rng, n), sample_signs(p, m, rng_signs, n)
            got = fit(learner, plus, rng)
            assert got.tobytes() == fit_signs(learner, signs, rng_signs).tobytes(), (d, m, n)
            assert rng.random() == rng_signs.random(), (d, m, n)


FACTORIZED_DRAWN = st.one_of(st.just(MeanLearner()),
                             st.builds(QuantizedMeanLearner, st.none() | st.floats(1e-3, 1.0)))
LATTICE_CAP = 1 << 14  # lattice points per drawn output_atoms case


@st.composite
def _count_learners(draw, d, m):
    """The quantized mean and RERM, and the mean or the net ERM, at (d, m):
    lam in [0, 3], and delta None, any step, or a step that puts a
    reachable mean, or its shrunk value, on a rounding tie (2|zbar|,
    2|zbar|/(1 + lam), 2/m, 4/m)."""
    zbar = abs(2 * draw(st.integers(0, m)) - m) / m / math.sqrt(d)
    lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))
    ties = [2 / m, 4 / m] + ([2 * zbar, 2 * zbar / (1 + lam)] if zbar else [])
    delta = draw(st.none() | st.sampled_from(ties) | st.floats(1e-3, 1.0))
    return [QuantizedMeanLearner(delta), RegularizedErm(lam, delta),
            draw(st.sampled_from([MeanLearner(), EpsilonNetErm()]))]


class TestOneCountRoute:
    """A count learner's outputs, gathered from its levels by
    ``count_statistic`` and its atoms from their tuples, against a fit on
    every sample's own counts (``fit_counts_per_sample``), and the (m+1, d)
    probability table against the forms it replaced, all bytewise
    (``tobytes()``, so -0.0 and 0.0 differ)."""

    @given(d=st.integers(1, 4), m=st.integers(1, 10), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_count_learner_matches_the_per_sample_oracle(self, d, m, data):
        counts = lattice_counts(m, d)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        plus = rng.random((50, m, d)) < rng.random(d)
        for learner in data.draw(_count_learners(d, m)):
            want = fit_counts_per_sample(learner, counts, m)
            assert count_statistic(learner, counts, m).tobytes() == want.tobytes()
            # the atoms of every lattice code, against the distinct lattice outputs
            codebook, atom = output_atoms(learner, m, d)[:2]
            want_codebook, want_atom = unique_rows(want)
            assert codebook.tobytes() == want_codebook.tobytes()
            assert atom.tobytes() == want_atom.tobytes()
            assert fit(learner, plus).tobytes() == \
                fit_counts_per_sample(learner, counts_of_plus(plus), m).tobytes()

    @given(learner=FACTORIZED_DRAWN, d=st.integers(1, 6), m=st.integers(1, 40),
           n=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_fit_matches_per_sample_fit(self, learner, d, m, n, seed):
        rng = np.random.default_rng(seed)
        plus = rng.random((n, m, d)) < rng.random(d)
        want = count_statistic_per_sample(learner, counts_of_plus(plus), m)
        assert fit(learner, plus).tobytes() == want.tobytes()

    @given(learner=FACTORIZED_DRAWN, d=st.integers(1, 6), m=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_atoms_match_per_sample_fit(self, learner, d, m):
        m = max(1, min(m, round(LATTICE_CAP ** (1.0 / d)) - 1))
        codebook, atom = output_atoms(learner, m, d)[:2]
        want_codebook, want_atom = unique_rows(
            count_statistic_per_sample(learner, lattice_counts(m, d), m))
        assert codebook.tobytes() == want_codebook.tobytes()
        assert atom.tobytes() == want_atom.tobytes()

    @given(d=st.integers(1, 6), m=st.integers(1, 40), n=st.integers(0, 60),
           biases=st.lists(st.sampled_from([0.0, P_MAX, -P_MAX]) | st.floats(-P_MAX, P_MAX),
                           min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_probabilities_match_elementwise_forms(self, d, m, n, biases, seed):
        inst = HardInstance(d, np.array(biases[:d]))
        counts = np.random.default_rng(seed).integers(0, m + 1, size=(n, d))
        assert (sign_space_probs(inst, counts, m).tobytes()
                == sign_space_probs_elementwise(inst, counts, m).tobytes())
        assert count_probs(inst, m).tobytes() == count_probs_per_coordinate(inst, m).tobytes()
