"""Learner behavior, codebooks, and exact channel enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab.infotheory import JointPmf, entropy, mutual_information
from mi_sco_lab.learners import (
    NET_BLOCK_ROWS,
    BudgetExceededError,
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    default_delta,
    enumerate_sign_space,
    epsilon_net,
    exact_channel,
    exact_mutual_information,
    make_learner,
    quantize,
    reachable_outputs,
    sign_space_probs,
)
from mi_sco_lab.sco import HardInstance, Sample, empirical_risk, sample

LN2 = math.log(2.0)


def all_learners(m):
    return [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
            SgdLearner(), RegularizedErm(lam=0.5),
            SubsampleLearner(k=max(1, m // 2), base=MeanLearner())]


class TestQuantize:
    def test_grid_point_fixed(self):
        w = np.array([0.5, -0.5])
        np.testing.assert_allclose(quantize(w, 0.5), w)

    def test_round_up(self):
        assert quantize(np.array([0.26]), 0.5)[0] == pytest.approx(0.5)

    def test_tie_breaks_down(self):
        assert quantize(np.array([0.25]), 0.5)[0] == pytest.approx(0.0)
        assert quantize(np.array([-0.25]), 0.5)[0] == pytest.approx(-0.5)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(1), 0.0)

    def test_distance_bound_before_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            delta = float(rng.uniform(0.01, 0.5))
            w = rng.normal(size=d)
            w /= max(1.0, np.linalg.norm(w))
            rounded = np.ceil(w / delta - 0.5) * delta
            assert np.linalg.norm(rounded - w) <= delta * math.sqrt(d) / 2 + 1e-12

    def test_output_in_ball(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = rng.normal(size=3)
            w /= max(1.0, np.linalg.norm(w))
            assert np.linalg.norm(quantize(w, 0.3)) <= 1.0 + 1e-12


class TestMeanLearner:
    def test_repeated_point(self):
        s = Sample.from_signs(np.array([[1, -1], [1, -1]]))
        np.testing.assert_allclose(MeanLearner().fit(s),
                                   s.points[0])

    def test_symmetric_pair_gives_zero(self):
        s = Sample.from_signs(np.array([[1], [-1]]))
        assert MeanLearner().fit(s)[0] == 0.0

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
            w = learner.fit(s)
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
        w = EpsilonNetErm().fit(s)
        assert w[0] == pytest.approx(1.0)

    def test_risk_slack_window(self):
        rng = np.random.default_rng(4)
        learner = EpsilonNetErm()
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(d, 17))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=int(rng.integers(1 << 30)))
            w = learner.fit(s)
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
        n = 3 * NET_BLOCK_ROWS + 7
        for d, m in ((1, 4), (2, 9), (3, 16)):
            zbar = rng.uniform(-1.0, 1.0, size=(n, d)) / math.sqrt(d)
            got = EpsilonNetErm().fit_from_mean(zbar, m)
            np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(d, m), zbar))

    def test_blocked_matches_one_shot_on_ties(self):
        # +-0.5 sit halfway between net points of the axis (-1, 0, 1)
        zbar = np.tile([[0.5], [-0.5], [0.0]], (NET_BLOCK_ROWS, 1))
        got = EpsilonNetErm().fit_from_mean(zbar, 4)
        np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(1, 4), zbar))
        np.testing.assert_array_equal(got[:3, 0], [0.0, -1.0, 0.0])
        # every reachable mean at d=2, m=4, with its exact lattice ties
        signs = enumerate_sign_space(4, 2)
        zbar = signs.mean(axis=1, dtype=float) / math.sqrt(2)
        got = EpsilonNetErm().fit_from_mean(zbar, 4)
        np.testing.assert_array_equal(got, _nearest_one_shot(epsilon_net(2, 4), zbar))

    def test_peak_memory_bounded(self):
        n, d, m = 1 << 17, 2, 16
        zbar = np.random.default_rng(22).uniform(-0.7, 0.7, size=(n, d))
        one_temporary = n * epsilon_net(d, m).shape[0] * d * 8
        tracemalloc.start()
        try:
            EpsilonNetErm().fit_from_mean(zbar, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_temporary / 4


class TestSgd:
    def test_single_step_reaches_data_point(self):
        s = Sample.from_signs(np.array([[1]]))
        w = SgdLearner().fit(s)
        assert w[0] == pytest.approx(1.0)

    def test_constant_data_converges(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 9))
            z = np.sign(rng.normal(size=d)).astype(int)
            z[z == 0] = 1
            s = Sample.from_signs(np.tile(z, (m, 1)))
            w = SgdLearner().fit(s)
            delta = default_delta(m)
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
                w = learner.fit(s)
                total += float(w @ w)  # w* = 0
            risks.append(total / n)
        assert risks[0] > risks[1] > risks[2]
        assert risks[-1] <= 4.0 / 64 + default_delta(64) * math.sqrt(2) + 0.05

    def test_order_dependence_is_real(self):
        # sgd reads the sample in order; a permuted sample may give another output
        s1 = Sample.from_signs(np.array([[1], [-1], [1], [1]]))
        s2 = Sample.from_signs(np.array([[1], [1], [1], [-1]]))
        w1 = SgdLearner().fit(s1)
        w2 = SgdLearner().fit(s2)
        assert w1[0] != w2[0]


class TestRegularizedErm:
    def test_lambda_zero_is_mean_up_to_delta(self):
        s = sample(HardInstance.zero(3), 5, seed=6)
        w = RegularizedErm(lam=0.0).fit(s)
        assert np.linalg.norm(w - s.mean) <= default_delta(5) * math.sqrt(3)

    def test_heavy_shrinkage_to_zero(self):
        s = sample(HardInstance.zero(2), 4, seed=7)
        w = RegularizedErm(lam=1e9).fit(s)
        np.testing.assert_allclose(w, 0.0, atol=1e-8)

    def test_half_for_unit_lambda(self):
        s = Sample.from_signs(np.array([[1], [1]]))
        w = RegularizedErm(lam=1.0).fit(s)
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
        full = MeanLearner().fit(s)
        sub = SubsampleLearner(k=4, base=MeanLearner()).fit(s)
        np.testing.assert_allclose(sub, full)

    def test_k_one_ignores_rest(self):
        rng = np.random.default_rng(11)
        learner = SubsampleLearner(k=1, base=MeanLearner())
        signs = rng.choice([-1, 1], size=(5, 3))
        base_out = learner.fit(Sample.from_signs(signs))
        for _ in range(10):
            perm = np.concatenate([[0], 1 + rng.permutation(4)])
            permuted = signs[perm]
            out = learner.fit(Sample.from_signs(permuted))
            np.testing.assert_allclose(out, base_out)

    def test_k_out_of_range(self):
        s = sample(HardInstance.zero(1), 2, seed=12)
        with pytest.raises(ValueError):
            SubsampleLearner(k=3, base=MeanLearner()).fit(s)


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

    def test_fit_needs_rng(self):
        s = sample(HardInstance.zero(1), 2, seed=13)
        with pytest.raises(ValueError):
            RandomizedResponse(base=MeanLearner(), rho=0.5).fit(s)

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
        probs = sign_space_probs(inst, signs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_against_infotheory_oracle(self):
        # channel MI equals mutual_information over the explicit joint table
        inst = HardInstance(1, np.array([0.25]))
        ch = exact_channel(QuantizedMeanLearner(), inst, 3)
        table = np.zeros((ch.n_samples, ch.codebook.shape[0]))
        table[np.arange(ch.n_samples), ch.output_index] = ch.sample_probs
        oracle = mutual_information(JointPmf.from_table(table))
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
            law = np.zeros((ch.n_samples, ch.codebook.shape[0]))
            law[np.arange(ch.n_samples), ch.output_index] = 1.0
        else:
            law = ch.cond
        joint = JointPmf.from_table(ch.sample_probs[:, None] * law)
        assert abs(ch.mutual_information() - mutual_information(joint)) <= 1e-12
        assert abs(ch.output_entropy() - entropy(joint.marginal(1))) <= 1e-12

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

    def test_exact_mi_dispatches_to_factorized(self):
        inst = HardInstance(7, np.zeros(7))
        # 2^(7*4) is beyond full enumeration; the factorized path answers
        mi = exact_mutual_information(QuantizedMeanLearner(), inst, 4)
        # at p = 0 the 16 column patterns are equally likely, so each
        # coordinate contributes the entropy of its output value counts
        patterns = enumerate_sign_space(4, 1).reshape(16, 4)
        _, counts = np.unique(QuantizedMeanLearner().coord_outputs(patterns, 7),
                              return_counts=True)
        probs = counts / 16
        assert mi == pytest.approx(-7 * float(probs @ np.log(probs)), abs=1e-12)

    def test_gap_matches_literal_risk_difference(self):
        # oracle: evaluate L_D - L_S term by term from the risk definitions
        from mi_sco_lab.sco import empirical_risk as emp_risk
        from mi_sco_lab.sco import population_risk
        inst = HardInstance(2, np.array([0.25, -0.1]))
        for learner in (MeanLearner(), EpsilonNetErm(), SgdLearner()):
            ch = exact_channel(learner, inst, 3)
            literal = 0.0
            for i in range(ch.n_samples):
                s = Sample.from_signs(ch.signs[i])
                w = ch.codebook[ch.output_index[i]]
                literal += ch.sample_probs[i] * (population_risk(inst, w)
                                                 - emp_risk(s, w))
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
            w = learner.fit(s)
            assert np.linalg.norm(w) <= 1.0 + 1e-12
            assert tuple(w) in codebook

    @pytest.mark.parametrize("learner", all_learners(4), ids=lambda l: l.kind)
    def test_bulk_closure_hundred_thousand(self, learner):
        from mi_sco_lab.sco import sample_signs
        inst = HardInstance(2, np.array([0.1, -0.3]))
        m = 4
        codebook = {tuple(row) for row in reachable_outputs(learner, inst.d, m)}
        signs = sample_signs(inst, m, np.random.default_rng(15), trials=10 ** 5)
        w = learner.fit_batch(signs)
        assert np.all(np.linalg.norm(w, axis=1) <= 1.0 + 1e-12)
        assert all(tuple(row) in codebook for row in w)

    def test_bulk_closure_randomized(self):
        inst = HardInstance(1, np.array([0.2]))
        m = 3
        learner = RandomizedResponse(base=MeanLearner(), rho=0.5)
        codebook = {tuple(row) for row in reachable_outputs(learner, inst.d, m)}
        rng = np.random.default_rng(16)
        for _ in range(2000):
            s = sample(inst, m, seed=rng)
            w = learner.fit(s, rng)
            assert tuple(w) in codebook

    def test_determinism_across_runs(self):
        inst = HardInstance(3, np.array([0.2, 0.0, -0.2]))
        for learner in all_learners(5):
            s = sample(inst, 5, seed=99)
            w1 = learner.fit(s)
            w2 = learner.fit(sample(inst, 5, seed=99))
            np.testing.assert_array_equal(w1, w2)


class TestMakeLearner:
    def test_registry_round_trip(self):
        assert make_learner("mean").kind == "mean"
        assert make_learner("quantized_mean", delta=0.25).delta == 0.25
        assert make_learner("regularized_erm", lam=2.0).lam == 2.0
        sub = make_learner("subsample", k=2, base="mean")
        assert sub.k == 2 and sub.base.kind == "mean"
        rr = make_learner("randomized_response", rho=0.3, base="quantized_mean")
        assert rr.rho == 0.3 and rr.base.kind == "quantized_mean"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_learner("gradient_boosting")
