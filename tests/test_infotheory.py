"""Exact-value and property tests for the finite information-theory core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab.infotheory import (
    FinitePmf,
    JointPmf,
    PmfValidationError,
    coupling_disagreement,
    entropy_of,
    kl_divergence,
    mutual_information,
    optimal_coupling,
    pinsker_slack,
    total_variation,
)
from oracles import entropy, marginal

LN2 = math.log(2.0)

# hand-evaluated two-term sum for KL(Bernoulli(1/2) || Bernoulli(1/4))
KL_HALF_QUARTER = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)


def bern(q):
    """Pmf over outcomes (0, 1) with P(1) = q."""
    return FinitePmf(np.array([1.0 - q, q]))


def point_mass(outcome, k):
    """Pmf over outcomes 0..k-1 with all its mass on ``outcome``."""
    return FinitePmf(np.eye(k)[outcome])


@st.composite
def pmf_pairs(draw, max_size=10):
    k = draw(st.integers(2, max_size))
    raw1 = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    raw2 = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    a = np.asarray(raw1) / np.sum(raw1)
    b = np.asarray(raw2) / np.sum(raw2)
    return FinitePmf(a / a.sum()), FinitePmf(b / b.sum())


class TestFinitePmf:
    def test_rejects_negative(self):
        with pytest.raises(PmfValidationError):
            FinitePmf(np.array([1.5, -0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(PmfValidationError):
            FinitePmf(np.array([0.6, 0.6]))


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy_of(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_two(self):
        assert entropy_of(np.full(2, 0.5)) == pytest.approx(LN2, abs=1e-12)

    def test_uniform_four(self):
        assert entropy_of(np.full(4, 0.25)) == pytest.approx(2 * LN2, abs=1e-12)

    @given(pmf_pairs())
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_log_support(self, pair):
        p, _ = pair
        h = entropy_of(p.probs)
        assert -1e-12 <= h <= math.log(p.probs.shape[0]) + 1e-12


class TestKlAndTv:
    def test_kl_self_zero(self):
        p = bern(0.3)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_kl_half_vs_quarter(self):
        assert kl_divergence(bern(0.5), bern(0.25)) == pytest.approx(
            KL_HALF_QUARTER, abs=1e-12)

    def test_kl_support_violation_is_inf(self):
        assert kl_divergence(bern(0.5), bern(0.0)) == math.inf

    def test_tv_half_vs_quarter(self):
        assert total_variation(bern(0.5), bern(0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_tv_disjoint_point_masses(self):
        a = point_mass(0, 2)
        b = point_mass(1, 2)
        assert total_variation(a, b) == pytest.approx(1.0)

    def test_alphabet_mismatch_rejected(self):
        # pmfs of different lengths have no shared alphabet, in either order
        two, three = FinitePmf([0.5, 0.5]), FinitePmf([0.25, 0.25, 0.5])
        for fn in (kl_divergence, total_variation, optimal_coupling):
            for pair in ((two, three), (three, two)):
                with pytest.raises(PmfValidationError, match="shared alphabet"):
                    fn(*pair)

    @given(pmf_pairs())
    @settings(max_examples=50, deadline=None)
    def test_kl_nonnegative(self, pair):
        assert kl_divergence(*pair) >= -1e-12

    def test_tv_equals_sup_over_events(self):
        # the best event collects exactly the outcomes where p1 > p2
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            a = rng.dirichlet(np.ones(k))
            b = rng.dirichlet(np.ones(k))
            p1 = FinitePmf(a)
            p2 = FinitePmf(b)
            best_event = float(np.clip(a - b, 0, None).sum())
            assert total_variation(p1, p2) == pytest.approx(best_event, abs=1e-12)


class TestMutualInformation:
    def test_independent_is_zero(self):
        j = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_identity_bit(self):
        j = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(j) == pytest.approx(LN2, abs=1e-12)

    def test_symmetric_in_axes(self):
        rng = np.random.default_rng(0)
        t = rng.dirichlet(np.ones(12)).reshape(3, 4)
        j = JointPmf(t)
        assert mutual_information(j) == pytest.approx(
            mutual_information(JointPmf(t.T)), abs=1e-12)

    def test_matches_expectation_of_kl_form(self):
        # independent oracle: I = E_Y[ KL(P_{X|Y} || P_X) ]
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = rng.dirichlet(np.ones(20)).reshape(4, 5)
            j = JointPmf(t)
            px = t.sum(axis=1)
            oracle = 0.0
            for y in range(5):
                py = t[:, y].sum()
                cond = FinitePmf(t[:, y] / py)
                oracle += py * kl_divergence(cond, FinitePmf(px))
            assert mutual_information(j) == pytest.approx(oracle, abs=1e-10)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = rng.dirichlet(np.ones(12)).reshape(3, 4)
            j = JointPmf(t)
            mi = mutual_information(j)
            assert mi <= entropy(marginal(j, 0)) + 1e-10
            assert mi <= entropy(marginal(j, 1)) + 1e-10


class TestCoupling:
    def test_identical_distributions_agree(self):
        p = bern(0.3)
        j = optimal_coupling(p, p)
        assert coupling_disagreement(j) == pytest.approx(0.0, abs=1e-15)

    def test_half_vs_quarter(self):
        j = optimal_coupling(bern(0.5), bern(0.25))
        assert coupling_disagreement(j) == pytest.approx(0.25, abs=1e-12)

    def test_disjoint_point_masses(self):
        a = point_mass(0, 2)
        b = point_mass(1, 2)
        assert coupling_disagreement(optimal_coupling(a, b)) == pytest.approx(1.0)

    @given(pmf_pairs())
    @settings(max_examples=50, deadline=None)
    def test_marginals_and_optimality(self, pair):
        p1, p2 = pair
        j = optimal_coupling(p1, p2)
        np.testing.assert_allclose(j.table.sum(axis=1), p1.probs, atol=1e-12)
        np.testing.assert_allclose(j.table.sum(axis=0), p2.probs, atol=1e-12)
        assert coupling_disagreement(j) == pytest.approx(
            total_variation(p1, p2), abs=1e-12)


class TestPinsker:
    def test_identical_is_zero(self):
        assert pinsker_slack(bern(0.4), bern(0.4)) == pytest.approx(0.0, abs=1e-12)

    def test_half_vs_quarter_value(self):
        expected = math.sqrt(KL_HALF_QUARTER / 2.0) - 0.25
        assert pinsker_slack(bern(0.5), bern(0.25)) == pytest.approx(expected, abs=1e-12)
        assert expected > 0

    def test_infinite_divergence_gives_inf(self):
        assert pinsker_slack(bern(0.5), bern(0.0)) == math.inf

    def test_thousand_random_pairs_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            k = int(rng.integers(2, 17))
            p1 = FinitePmf(rng.dirichlet(np.ones(k)))
            p2 = FinitePmf(rng.dirichlet(np.ones(k)))
            assert pinsker_slack(p1, p2) >= -1e-12


class TestDataProcessing:
    def test_deterministic_map_cannot_gain_information(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = rng.dirichlet(np.ones(24)).reshape(6, 4)
            j = JointPmf(t)
            # merge the rows of x with equal g(x) = x % 3
            merged = np.zeros((3, 4))
            np.add.at(merged, np.arange(6) % 3, t)
            coarse = JointPmf(merged)
            assert mutual_information(coarse) <= mutual_information(j) + 1e-12
