"""Learner behavior, codebooks, and exact channel enumeration."""

import ast
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab import learners
from mi_sco_lab.bounds import chain_rule_decomposition
from mi_sco_lab.harness import _xu_learner_menu
from mi_sco_lab.infotheory import JointPmf, mutual_information
from mi_sco_lab.learners import (
    NET_BLOCK_CELLS,
    BudgetExceededError,
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    count_mean,
    enumerate_sign_space,
    epsilon_net,
    exact_channel,
    exact_mutual_information,
    grid_step,
    lattice_codes,
    lattice_counts,
    lattice_radix,
    make_learner,
    reachable_outputs,
    round_half_down,
    sign_space_probs,
    unique_rows,
)
from mi_sco_lab.sco import HardInstance
from oracles import (
    Sample,
    empirical_risk,
    entropy,
    enumerate_sign_space_shift_mask,
    full_chain_rule,
    full_channel,
    marginal,
    plus_counts,
    population_risk,
    sample,
    sample_signs,
    sgd_full_copy,
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
        np.testing.assert_allclose(MeanLearner().fit_batch(s.signs[None])[0],
                                   s.points[0])

    def test_symmetric_pair_gives_zero(self):
        s = Sample.from_signs(np.array([[1], [-1]]))
        assert MeanLearner().fit_batch(s.signs[None])[0][0] == 0.0

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
        assert abs(exact_mutual_information(learner, inst, m) - full) <= 1e-12

    def test_outputs_in_ball(self):
        rng = np.random.default_rng(2)
        learner = QuantizedMeanLearner()
        for _ in range(200):
            d = int(rng.integers(1, 8))
            m = int(rng.integers(1, 9))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=int(rng.integers(1 << 30)))
            w = learner.fit_batch(s.signs[None])[0]
            assert np.linalg.norm(w) <= 1.0 + 1e-12

    def test_quantization_is_data_processing(self):
        # quantizing the mean never increases channel information
        inst = HardInstance(1, np.array([0.2]))
        for m in (2, 3, 4):
            mi_mean = exact_channel(MeanLearner(), inst, m).mutual_information()
            mi_quant = exact_channel(QuantizedMeanLearner(delta=0.75), inst,
                                     m).mutual_information()
            assert mi_quant <= mi_mean + 1e-12


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
        w = EpsilonNetErm().fit_batch(s.signs[None])[0]
        assert w[0] == pytest.approx(1.0)

    def test_risk_slack_window(self):
        rng = np.random.default_rng(4)
        learner = EpsilonNetErm()
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(d, 17))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=int(rng.integers(1 << 30)))
            w = learner.fit_batch(s.signs[None])[0]
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
            counts = rng.integers(0, m + 1, size=(n, d))
            got = EpsilonNetErm().fit_counts(counts, m)
            np.testing.assert_array_equal(
                got, _nearest_one_shot(epsilon_net(d, m), count_mean(counts, m)))

    def test_blocked_matches_one_shot_on_ties(self):
        # plus-counts 3, 1, 2 of 4 give means +-0.5 and 0; +-0.5 sit halfway
        # between net points of the axis (-1, 0, 1)
        counts = np.tile([[3], [1], [2]], (NET_BLOCK_CELLS // epsilon_net(1, 4).size, 1))
        zbar = count_mean(counts, 4)
        np.testing.assert_array_equal(zbar[:3, 0], [0.5, -0.5, 0.0])
        got = EpsilonNetErm().fit_counts(counts, 4)
        np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(1, 4), zbar))
        np.testing.assert_array_equal(got[:3, 0], [0.0, -1.0, 0.0])
        # every reachable mean at d=2, m=4, with its exact lattice ties
        signs = enumerate_sign_space(4, 2)
        zbar = signs.mean(axis=1, dtype=float) / math.sqrt(2)
        got = EpsilonNetErm().fit_counts((signs > 0).sum(axis=1), 4)
        np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(2, 4), zbar))

    def test_peak_memory_bounded(self):
        n, d, m = 1 << 17, 2, 16
        counts = np.random.default_rng(22).integers(0, m + 1, size=(n, d))
        one_temporary = n * epsilon_net(d, m).shape[0] * d * 8
        tracemalloc.start()
        try:
            EpsilonNetErm().fit_counts(counts, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_temporary / 4


class TestSgd:
    def test_single_step_reaches_data_point(self):
        s = Sample.from_signs(np.array([[1]]))
        w = SgdLearner().fit_batch(s.signs[None])[0]
        assert w[0] == pytest.approx(1.0)

    def test_constant_data_converges(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 9))
            z = np.sign(rng.normal(size=d)).astype(int)
            z[z == 0] = 1
            s = Sample.from_signs(np.tile(z, (m, 1)))
            w = SgdLearner().fit_batch(s.signs[None])[0]
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
                w = learner.fit_batch(s.signs[None])[0]
                total += float(w @ w)  # w* = 0
            risks.append(total / n)
        assert risks[0] > risks[1] > risks[2]
        assert risks[-1] <= 4.0 / 64 + grid_step(None, 64) * math.sqrt(2) + 0.05

    def test_order_dependence_is_real(self):
        # sgd reads the sample in order; a permuted sample may give another output
        s1 = Sample.from_signs(np.array([[1], [-1], [1], [1]]))
        s2 = Sample.from_signs(np.array([[1], [1], [1], [-1]]))
        w1 = SgdLearner().fit_batch(s1.signs[None])[0]
        w2 = SgdLearner().fit_batch(s2.signs[None])[0]
        assert w1[0] != w2[0]


class TestRegularizedErm:
    def test_lambda_zero_is_mean_up_to_delta(self):
        s = sample(HardInstance.zero(3), 5, seed=6)
        w = RegularizedErm(lam=0.0).fit_batch(s.signs[None])[0]
        assert np.linalg.norm(w - s.mean) <= grid_step(None, 5) * math.sqrt(3)

    def test_heavy_shrinkage_to_zero(self):
        s = sample(HardInstance.zero(2), 4, seed=7)
        w = RegularizedErm(lam=1e9).fit_batch(s.signs[None])[0]
        np.testing.assert_allclose(w, 0.0, atol=1e-8)

    def test_half_for_unit_lambda(self):
        s = Sample.from_signs(np.array([[1], [1]]))
        w = RegularizedErm(lam=1.0).fit_batch(s.signs[None])[0]
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
        full = MeanLearner().fit_batch(s.signs[None])[0]
        sub = SubsampleLearner(k=4, base=MeanLearner()).fit_batch(s.signs[None])[0]
        np.testing.assert_allclose(sub, full)

    def test_k_one_ignores_rest(self):
        rng = np.random.default_rng(11)
        learner = SubsampleLearner(k=1, base=MeanLearner())
        signs = rng.choice([-1, 1], size=(5, 3))
        base_out = learner.fit_batch(signs[None])[0]
        for _ in range(10):
            perm = np.concatenate([[0], 1 + rng.permutation(4)])
            permuted = signs[perm]
            out = learner.fit_batch(permuted[None])[0]
            np.testing.assert_allclose(out, base_out)

    def test_k_out_of_range(self):
        s = sample(HardInstance.zero(1), 2, seed=12)
        with pytest.raises(ValueError):
            SubsampleLearner(k=3, base=MeanLearner()).fit_batch(s.signs[None])


def _randomized_response_rows(learner, signs, rng):
    """Randomized response one row at a time, with its own codebook: the
    oracle for the batched draw of ``RandomizedResponse.fit_batch``."""
    n, m, d = signs.shape
    codebook = reachable_outputs(learner.base, d, m)
    rows = []
    for i in range(n):
        w = learner.base.fit_batch(signs[i:i + 1])[0]
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
        # d=2, m=4: 256 samples x 25 quantized means, 51200 bytes of law
        learner = RandomizedResponse(base=QuantizedMeanLearner(), rho=0.5)
        inst = HardInstance.zero(2)
        monkeypatch.setattr(learners, "DENSE_LAW_BYTES", 51200)
        assert exact_channel(learner, inst, 4).cond.shape == (256, 25)
        monkeypatch.setattr(learners, "DENSE_LAW_BYTES", 51199)
        with pytest.raises(BudgetExceededError, match="51200 bytes"):
            exact_channel(learner, inst, 4)

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
            RandomizedResponse(base=MeanLearner(), rho=0.5).fit_batch(s.signs[None])

    @staticmethod
    def _spy_builds(monkeypatch):
        """Record every codebook build."""
        builds = []
        real = learners.reachable_outputs

        def spy(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(learners, "reachable_outputs", spy)
        return builds

    def test_codebook_built_once(self, monkeypatch):
        base = QuantizedMeanLearner()
        learner = RandomizedResponse(base=base, rho=0.5)
        inst = HardInstance(2, np.array([0.1, -0.3]))
        signs = np.stack([sample(inst, 3, seed=i).signs for i in range(1000)])
        builds = self._spy_builds(monkeypatch)
        got = learner.fit_batch(signs, np.random.default_rng(17))
        assert builds == [(base, 2, 3)]
        learner.fit_batch(signs, np.random.default_rng(17))
        assert builds == [(base, 2, 3)] * 2
        codebook = reachable_outputs(base, 2, 3)
        rng = np.random.default_rng(17)
        expected = [codebook[rng.integers(codebook.shape[0])] if rng.random() < 0.5
                    else base.fit_batch(row[None])[0] for row in signs]
        assert np.array_equal(got, np.stack(expected))

    def test_rho_zero_builds_no_codebook(self, monkeypatch):
        base = SgdLearner()
        signs = sample_signs(np.zeros(2), 4, np.random.default_rng(18), 500)
        builds = self._spy_builds(monkeypatch)
        got = RandomizedResponse(base=base, rho=0.0).fit_batch(
            signs, np.random.default_rng(19))
        assert builds == []
        assert got.tobytes() == base.fit_batch(signs).tobytes()

    @pytest.mark.parametrize("d,m,menu", [
        (1, 4, "xu"), (2, 4, "xu"), (1, 9, "xu"), (3, 5, "mean")])
    def test_batch_matches_row_by_row_oracle(self, d, m, menu):
        bases = ([b for b in _xu_learner_menu(m) if b.deterministic]
                 if menu == "xu" else [MeanLearner()])
        signs = sample_signs(np.linspace(-0.3, 0.2, d), m, np.random.default_rng(20), 300)
        for base in bases:
            for rho in (0.0, 0.3, 1.0):
                learner = RandomizedResponse(base=base, rho=rho)
                got = learner.fit_batch(signs, np.random.default_rng(23))
                expected = _randomized_response_rows(learner, signs,
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
        signs = enumerate_sign_space(3, 2)
        probs = sign_space_probs(inst, plus_counts(signs), 3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_against_infotheory_oracle(self):
        # channel MI equals mutual_information over the explicit joint table
        inst = HardInstance(1, np.array([0.25]))
        ch = exact_channel(QuantizedMeanLearner(), inst, 3)
        table = np.zeros((ch.codes.shape[0], ch.codebook.shape[0]))
        table[np.arange(ch.codes.shape[0]), ch.output_index] = ch.sample_probs
        oracle = mutual_information(JointPmf(table))
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
        joint = JointPmf(ch.sample_probs[:, None] * law)
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

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 13) for m in range(1, 12 // d + 1)])
    def test_enumeration_matches_shift_and_mask(self, d, m):
        got = enumerate_sign_space(m, d)
        assert got.dtype == np.int8 and got.shape == (1 << (m * d), m, d)
        assert got.tobytes() == enumerate_sign_space_shift_mask(m, d).tobytes()

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
        signs = enumerate_sign_space(m, d)
        for learner in (SgdLearner(), SgdLearner(delta=0.3)):
            got = learner.fit_batch(signs)
            assert got.tobytes() == sgd_full_copy(learner, signs).tobytes()

    def test_exact_mi_dispatches_to_factorized(self):
        inst = HardInstance(7, np.zeros(7))
        # 2^(7*4) is beyond full enumeration; the factorized path answers
        mi = exact_mutual_information(QuantizedMeanLearner(), inst, 4)
        # at p = 0 the 16 column patterns are equally likely, so each
        # coordinate contributes the entropy of its output value counts
        patterns = np.repeat(enumerate_sign_space(4, 1), 7, axis=2)
        _, counts = np.unique(QuantizedMeanLearner().fit_batch(patterns)[:, 0],
                              return_counts=True)
        probs = counts / 16
        assert mi == pytest.approx(-7 * float(probs @ np.log(probs)), abs=1e-12)

    def test_gap_matches_literal_risk_difference(self):
        # oracle: evaluate L_D - L_S term by term from the risk definitions
        inst = HardInstance(2, np.array([0.25, -0.1]))
        for learner in (MeanLearner(), EpsilonNetErm(), SgdLearner()):
            ch = exact_channel(learner, inst, 3)
            signs = enumerate_sign_space(3, inst.d)
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
        codebook = {tuple(row) for row in reachable_outputs(learner, inst.d, m)}
        rng = np.random.default_rng(14)
        for _ in range(300):
            s = sample(inst, m, seed=rng)
            w = learner.fit_batch(s.signs[None])[0]
            assert np.linalg.norm(w) <= 1.0 + 1e-12
            assert tuple(w) in codebook

    @pytest.mark.parametrize("learner", all_learners(4), ids=lambda l: l.kind)
    def test_bulk_closure_hundred_thousand(self, learner):
        inst = HardInstance(2, np.array([0.1, -0.3]))
        m = 4
        codebook = {tuple(row) for row in reachable_outputs(learner, inst.d, m)}
        signs = sample_signs(inst.p, m, np.random.default_rng(15), 10 ** 5)
        w = learner.fit_batch(signs)
        assert np.all(np.linalg.norm(w, axis=1) <= 1.0 + 1e-12)
        assert all(tuple(row) in codebook for row in w)

    def test_bulk_closure_randomized(self):
        inst = HardInstance(1, np.array([0.2]))
        m = 3
        learner = RandomizedResponse(base=MeanLearner(), rho=0.5)
        codebook = {tuple(row) for row in reachable_outputs(learner.base, inst.d, m)}
        rng = np.random.default_rng(16)
        for _ in range(2000):
            s = sample(inst, m, seed=rng)
            w = learner.fit_batch(s.signs[None], rng)[0]
            assert tuple(w) in codebook

    def test_determinism_across_runs(self):
        inst = HardInstance(3, np.array([0.2, 0.0, -0.2]))
        for learner in all_learners(5):
            s = sample(inst, 5, seed=99)
            w1 = learner.fit_batch(s.signs[None])[0]
            w2 = learner.fit_batch(sample(inst, 5, seed=99).signs[None])[0]
            np.testing.assert_array_equal(w1, w2)


def _axis0_channel(learner, d, m):
    """Codebook, output index and conditional law of ``exact_channel`` built
    the old way, with numpy's row sort and a dict lookup: the oracle."""
    signs = enumerate_sign_space(m, d)
    if learner.deterministic:
        codebook, idx = np.unique(learner.fit_batch(signs), axis=0, return_inverse=True)
        return codebook, idx, None
    codebook = np.unique(reachable_outputs(learner.base, d, m), axis=0)
    key = {tuple(row): i for i, row in enumerate(codebook)}
    base_idx = [key[tuple(row)] for row in learner.base.fit_batch(signs)]
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
                codebook = reachable_outputs(learner, d, m)
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
                    levels = np.unique(learner.fit_batch(columns)[:, 0])
                    grids = np.meshgrid(*([levels] * d), indexing="ij")
                    grid = np.stack([g.reshape(-1) for g in grids], axis=1)
                    got = reachable_outputs(learner, d, m)
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
def _signs_and_column_permutation(draw):
    """An (n, m, d) sign tensor and the same tensor with the m points of every
    (sample, coordinate) column shuffled independently."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from((-1, 1)), min_size=n * m * d, max_size=n * m * d))
    signs = np.array(cells, dtype=np.int8).reshape(n, m, d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = np.argsort(rng.random((n, m, d)), axis=1)
    return signs, np.take_along_axis(signs, order, axis=1)


class TestLatticeRoute:
    def test_count_learners_are_the_declared_ones(self):
        menu = all_learners(4) + [RandomizedResponse(base=MeanLearner(), rho=0.5)]
        assert {l.kind for l in menu if l.reads_counts} == {l.kind for l in COUNT_LEARNERS}

    @given(learner=st.sampled_from(COUNT_LEARNERS), pair=_signs_and_column_permutation())
    @settings(max_examples=300, deadline=None)
    def test_count_learner_ignores_point_order(self, learner, pair):
        signs, shuffled = pair
        assert learner.reads_counts
        assert learner.fit_batch(shuffled).tobytes() == learner.fit_batch(signs).tobytes()

    @pytest.mark.parametrize("learner", [SgdLearner(), SubsampleLearner(k=1, base=MeanLearner())],
                             ids=lambda l: l.kind)
    def test_order_learner_reads_point_order(self, learner):
        # one coordinate, the points +1 then -1 and the other way round
        signs = np.array([[[1], [-1]], [[-1], [1]]], dtype=np.int8)
        assert not learner.reads_counts
        out = learner.fit_batch(signs)
        assert out[0].tobytes() != out[1].tobytes()

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 13) for m in range(1, 6)
                                     if d * m <= 12])
    def test_codes_count_the_plus_signs(self, d, m):
        lattice = lattice_counts(m, d)
        codes = lattice_codes(m, d)
        counts = (enumerate_sign_space(m, d) > 0).sum(axis=1)
        assert codes.dtype == np.int64 and lattice.shape == ((m + 1) ** d, d)
        assert codes.tobytes() == (counts @ (m + 1) ** np.arange(d - 1, -1, -1)).tobytes()
        # the lattice point of code c holds the counts of every pattern with code c
        assert lattice[codes].tobytes() == counts.tobytes()

    @pytest.mark.parametrize("learner", COUNT_LEARNERS + [SgdLearner()], ids=lambda l: l.kind)
    def test_builds_each_code_array_once(self, monkeypatch, learner):
        # a count learner's sample codes are the lattice codes; any other
        # learner's are the pattern indices themselves, so no array is built
        # beside the lattice codes
        calls = []
        real = learners.lattice_codes

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(learners, "lattice_codes", spy)
        _, _, scale, radix = learners.output_atoms(learner, 5, 4)
        if learner.reads_counts:
            assert scale.tolist() == [1] * 5
            assert radix.tobytes() == lattice_radix(5, 4).tobytes()
        else:
            # flat cell c = i d + t weighs 2^c, its bit of the pattern index
            assert np.outer(scale, radix).reshape(-1).tolist() == [1 << c for c in range(20)]
        exact_channel(learner, HardInstance.zero(2), 3)
        assert calls == [(3, 2)]

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

    @pytest.mark.parametrize("learner", COUNT_LEARNERS + [SgdLearner()], ids=lambda l: l.kind)
    def test_reachable_outputs_match_full_route(self, learner):
        for d, m in ((1, 6), (2, 4), (3, 3), (4, 2)):
            assert reachable_outputs(learner, d, m).tobytes() == \
                full_channel(learner, HardInstance.zero(d), m).codebook.tobytes()


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
