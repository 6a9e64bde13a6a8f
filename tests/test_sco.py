"""Closed forms and sampling statistics for the hard instance family."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab import sco
from mi_sco_lab.sco import HardInstance, counts_of_plus, sample_counts, sample_plus
from oracles import (
    Sample,
    empirical_risk,
    empirical_suboptimality,
    loss,
    mean_excess_risk_exact,
    plus_counts,
    population_risk,
    sample,
    sample_signs,
    signs_of_plus,
    suboptimality,
)


def _biased_rngs(d, trials, per_trial, seed):
    """A bias, one (d,) for every trial or one (trials, d) per trial, and two
    generators in the same state."""
    shape = (trials, d) if per_trial else (d,)
    p = np.random.default_rng(seed).uniform(-1 / 3, 1 / 3, size=shape)
    return p, np.random.default_rng(seed), np.random.default_rng(seed)


class TestHardInstance:
    def test_rejects_large_bias(self):
        with pytest.raises(ValueError):
            HardInstance(2, np.array([0.5, 0.0]))

    def test_rejects_nan_bias(self):
        with pytest.raises(ValueError, match="1/3"):
            HardInstance(1, [math.nan])

    def test_optimum_inside_ball(self):
        inst = HardInstance(3, np.full(3, 1 / 3))
        assert np.linalg.norm(inst.w_star) == pytest.approx(1 / 3, abs=1e-12)


class TestSampleCounts:
    @given(m=st.integers(1, 16), d=st.integers(1, 8), trials=st.integers(1, 300),
           per_trial=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_counts_of_the_same_signs(self, m, d, trials, per_trial, seed):
        p, rng_signs, rng_plus = _biased_rngs(d, trials, per_trial, seed)
        expected = plus_counts(sample_signs(p, m, rng_signs, trials))
        counts = counts_of_plus(sample_plus(p, m, rng_plus, trials))
        assert counts.shape == (trials, d) and counts.dtype == np.uint8  # m <= 255
        np.testing.assert_array_equal(counts, expected)

    @given(m=st.integers(1, 16), d=st.integers(1, 8), trials=st.integers(1, 300),
           per_trial=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_plus_draws_are_the_oracle_signs(self, m, d, trials, per_trial, seed):
        p, rng_signs, rng_plus = _biased_rngs(d, trials, per_trial, seed)
        expected = sample_signs(p, m, rng_signs, trials)
        plus = sample_plus(p, m, rng_plus, trials)
        assert plus.dtype == np.bool_ and expected.dtype == np.int8
        assert signs_of_plus(plus).tobytes() == expected.tobytes()
        # both leave the generator in the same state
        assert rng_plus.random() == rng_signs.random()

    # sample_counts against counts_of_plus(sample_plus(...)), bit for bit,
    # with both generators left in the same state
    @staticmethod
    def assert_counts_of_plus(p, m, trials, seed):
        rng, rng_plus = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = sample_counts(p, m, rng, trials)
        assert counts.shape == (trials, np.shape(p)[-1])
        assert counts.dtype == (np.uint8 if m <= 255 else np.int64)
        assert counts.tobytes() == counts_of_plus(sample_plus(p, m, rng_plus, trials)).tobytes()
        assert rng.random() == rng_plus.random()

    @given(m=st.integers(1, 12), d=st.integers(1, 6), trials=st.integers(0, 40),
           block=st.integers(1, 100), per_trial=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_sample_counts_at_every_block_size(self, m, d, trials, block, per_trial, seed):
        # a block below m d draws one trial at a time
        p = _biased_rngs(d, trials, per_trial, seed)[0]
        with mock.patch.object(sco, "DRAW_BLOCK_FLOATS", block):
            self.assert_counts_of_plus(p, m, trials, seed)

    @pytest.mark.parametrize("per_trial", [False, True])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("m, d", [(8, 8), (3, 5), (300, 2)])
    def test_sample_counts_around_one_block(self, m, d, offset, per_trial):
        # block - 1, block and block + 1 trials, block the trials per draw
        trials = sco.DRAW_BLOCK_FLOATS // (m * d) + offset
        p = _biased_rngs(d, trials, per_trial, 7)[0]
        self.assert_counts_of_plus(p, m, trials, 8)

    @pytest.mark.parametrize("m, dtype", [(255, np.uint8), (256, np.int64)])
    def test_count_dtype_holds_every_count(self, m, dtype):
        # an all-plus sample counts m in every coordinate
        counts = counts_of_plus(np.ones((2, m, 3), dtype=bool))
        assert counts.dtype == dtype and (counts == m).all()

    @pytest.mark.parametrize("per_trial", [False, True])
    def test_sample_counts_of_one_trial_above_a_block(self, per_trial):
        # m d = DRAW_BLOCK_FLOATS + 2: one trial per draw
        d, trials = 3, 2
        m = (sco.DRAW_BLOCK_FLOATS + 2) // d
        p = _biased_rngs(d, trials, per_trial, 9)[0]
        self.assert_counts_of_plus(p, m, trials, 10)


class TestSampling:
    def test_points_on_unit_sphere(self):
        inst = HardInstance.uniform_bias(5, np.random.default_rng(0))
        s = sample(inst, 20, seed=1)
        np.testing.assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        inst = HardInstance.uniform_bias(3, np.random.default_rng(0))
        s1 = sample(inst, 10, seed=42)
        s2 = sample(inst, 10, seed=42)
        np.testing.assert_array_equal(s1.points, s2.points)

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_sample_signs_is_always_three_dimensional(self, trials):
        plus = sample_plus(np.array([0.1, -0.2, 0.3]), 4, np.random.default_rng(3), trials)
        assert plus.shape == (trials, 4, 3) and plus.dtype == np.bool_

    def test_sample_signs_per_trial_bias(self):
        # one (trials, d) bias per trial draws what a shared (d,) bias draws
        # when every row is that bias
        p = np.array([0.1, -0.2, 0.3])
        shared = sample_plus(p, 4, np.random.default_rng(4), 6)
        per_trial = sample_plus(np.tile(p, (6, 1)), 4, np.random.default_rng(4), 6)
        assert shared.tobytes() == per_trial.tobytes()

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            sample(HardInstance.zero(1), 0, seed=0)

    def test_bias_one_third_frequency(self):
        # p = 1/3: the plus frequency over many draws is 2/3 within 3 sigma
        inst = HardInstance(1, np.array([1 / 3]))
        s = sample(inst, 10 ** 6, seed=7)
        freq = float((s.points[:, 0] > 0).mean())
        sigma = math.sqrt((2 / 3) * (1 / 3) / 10 ** 6)
        assert abs(freq - 2 / 3) <= 3 * sigma

    def test_zero_bias_mean(self):
        inst = HardInstance.zero(1)
        s = sample(inst, 10 ** 6, seed=8)
        scaled = s.points[:, 0]  # sqrt(d) = 1
        assert abs(scaled.mean()) <= 3.0 / math.sqrt(10 ** 6)


class TestLoss:
    def test_zero_at_data_point(self):
        z = np.array([1.0, 0.0]) / math.sqrt(2) * math.sqrt(2)  # any vector
        assert loss(z, z) == 0.0

    def test_unit_at_origin(self):
        z = np.full(4, 0.5)  # norm 1
        assert loss(np.zeros(4), z) == pytest.approx(1.0, abs=1e-12)

    def test_maximum_value_four(self):
        assert loss(np.array([1.0]), np.array([-1.0])) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss(np.zeros(2), np.zeros(3))

    def test_lipschitz_on_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            w1 = rng.normal(size=d)
            w1 /= max(1.0, np.linalg.norm(w1))
            w2 = rng.normal(size=d)
            w2 /= max(1.0, np.linalg.norm(w2))
            z = np.sign(rng.normal(size=d)) / math.sqrt(d)
            assert abs(loss(w1, z) - loss(w2, z)) <= 4.0 * np.linalg.norm(w1 - w2) + 1e-12

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            w1 = rng.normal(size=d)
            w2 = rng.normal(size=d)
            z = np.sign(rng.normal(size=d)) / math.sqrt(d)
            mid = loss((w1 + w2) / 2, z)
            assert mid <= 0.5 * loss(w1, z) + 0.5 * loss(w2, z) + 1e-12


class TestRisks:
    def test_suboptimality_zero_at_optimum(self):
        inst = HardInstance(2, np.array([0.2, -0.1]))
        assert suboptimality(inst, inst.w_star) == pytest.approx(0.0, abs=1e-15)

    def test_population_risk_at_origin_zero_bias(self):
        inst = HardInstance.zero(3)
        assert population_risk(inst, np.zeros(3)) == pytest.approx(1.0, abs=1e-15)
        assert suboptimality(inst, np.zeros(3)) == pytest.approx(0.0, abs=1e-15)

    def test_population_risk_monte_carlo(self):
        # closed form vs a 10^6-draw average of the raw loss
        inst = HardInstance(2, np.array([0.25, -0.3]))
        w = np.array([0.4, 0.2])
        s = sample(inst, 10 ** 6, seed=11)
        diffs = s.points - w
        values = (diffs * diffs).sum(axis=1)
        se = values.std(ddof=1) / math.sqrt(values.shape[0])
        assert abs(values.mean() - population_risk(inst, w)) <= 3 * se

    def test_excess_risk_decomposition(self):
        # Delta_D(w) = ||w - w*||^2 exactly, for random w in the ball
        rng = np.random.default_rng(12)
        inst = HardInstance(4, rng.uniform(-1 / 3, 1 / 3, 4))
        for _ in range(100):
            w = rng.normal(size=4)
            w /= max(1.0, np.linalg.norm(w))
            direct = population_risk(inst, w) - population_risk(inst, inst.w_star)
            assert direct == pytest.approx(suboptimality(inst, w), abs=1e-12)


class TestEmpirical:
    def test_zero_at_sample_mean(self):
        s = sample(HardInstance.zero(2), 5, seed=13)
        assert empirical_suboptimality(s, s.mean) == pytest.approx(0.0, abs=1e-15)

    def test_balanced_pair(self):
        s = Sample.from_signs(np.array([[1], [-1]]))
        assert empirical_suboptimality(s, np.zeros(1)) == pytest.approx(0.0)

    def test_unbalanced_pair(self):
        s = Sample.from_signs(np.array([[1], [1]]))
        assert empirical_suboptimality(s, np.zeros(1)) == pytest.approx(1.0)

    def test_matches_risk_difference(self):
        rng = np.random.default_rng(14)
        inst = HardInstance(3, rng.uniform(-1 / 3, 1 / 3, 3))
        s = sample(inst, 7, seed=15)
        for _ in range(50):
            w = rng.normal(size=3)
            w /= max(1.0, np.linalg.norm(w))
            direct = empirical_risk(s, w) - empirical_risk(s, s.mean)
            assert direct == pytest.approx(empirical_suboptimality(s, w), abs=1e-12)

    def test_mean_in_ball(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            inst = HardInstance(d, rng.uniform(-1 / 3, 1 / 3, d))
            s = sample(inst, m, seed=int(rng.integers(1 << 30)))
            assert np.linalg.norm(s.mean) <= 1.0 + 1e-12


class TestMeanExcessRisk:
    def test_mean_of_sample_mean_is_optimum_exact(self):
        # exact enumeration: E[zbar] = w* and E||zbar - w*||^2 = (1-|p|^2/d)/m
        from mi_sco_lab.learners import sign_space_probs
        from oracles import enumerate_sign_space
        for d, m in ((1, 5), (2, 4), (3, 3)):
            inst = HardInstance(d, np.linspace(-0.25, 0.3, d))
            signs = signs_of_plus(enumerate_sign_space(m, d))
            probs = sign_space_probs(inst, plus_counts(signs), m)
            zbar = signs.mean(axis=1, dtype=float) / math.sqrt(d)
            np.testing.assert_allclose(probs @ zbar, inst.w_star, atol=1e-12)
            second = probs @ ((zbar - inst.w_star) ** 2).sum(axis=1)
            assert second == pytest.approx(mean_excess_risk_exact(inst, m),
                                           abs=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        inst = HardInstance(3, np.array([0.1, -0.2, 0.3]))
        m, trials = 6, 200000
        rng = np.random.default_rng(17)
        q = (1.0 + inst.p) / 2.0
        u = rng.random((trials, m, 3))
        signs = np.where(u < q, 1.0, -1.0)
        zbar = signs.mean(axis=1) / math.sqrt(3)
        vals = ((zbar - inst.w_star) ** 2).sum(axis=1)
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - mean_excess_risk_exact(inst, m)) <= 3 * se
