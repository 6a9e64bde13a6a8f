"""Exact-value and property tests for the finite information-theory core."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mi_sco_lab.bounds import (
    _random_correlated_joint,
    _random_pmf_pair,
    _subgaussian_construction,
)
from mi_sco_lab.infotheory import (
    coupling_disagreement,
    entropy_of,
    kl_divergence,
    mi_of_table,
    mutual_information,
    optimal_coupling,
    pinsker_slack,
    total_variation,
)
from oracles import entropy, marginal, mi_of_table_dense

LN2 = math.log(2.0)

# hand-evaluated two-term sum for KL(Bernoulli(1/2) || Bernoulli(1/4))
KL_HALF_QUARTER = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)


def bern(q):
    """Pmf over outcomes (0, 1) with P(1) = q."""
    return np.array([1.0 - q, q])


def point_mass(outcome, k):
    """Pmf over outcomes 0..k-1 with all its mass on ``outcome``."""
    return np.eye(k)[outcome]


@st.composite
def pmf_pairs(draw, max_size=10):
    k = draw(st.integers(2, max_size))
    raw1 = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    raw2 = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return np.asarray(raw1) / np.sum(raw1), np.asarray(raw2) / np.sum(raw2)


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
        h = entropy_of(p)
        assert -1e-12 <= h <= math.log(p.shape[0]) + 1e-12

    def test_bytes_of_the_plain_product(self):
        # the log and the product taken in place: q log q in one expression,
        # the sum in the same order
        rng = np.random.default_rng(44)
        for _ in range(500):
            p = rng.random(int(rng.integers(1, 400))) ** rng.uniform(0.1, 5.0)
            p[1:][rng.random(p.shape[0] - 1) < 0.2] = 0.0
            p /= p.sum()
            q = p[p > 0.0]
            assert np.float64(entropy_of(p)).tobytes() == np.float64(-(q * np.log(q)).sum()).tobytes()

    def test_peak_memory_counted_in_atoms(self):
        # the positive values and one array of their size: 2 units of 8 K
        # bytes plus the one-byte mask, where the plain product held 3
        k = 1 << 18
        p = np.random.default_rng(45).random(k)
        p /= p.sum()
        entropy_of(p)  # warm up
        tracemalloc.start()
        try:
            entropy_of(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * k, peak / (8 * k)


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
            best_event = float(np.clip(a - b, 0, None).sum())
            assert total_variation(a, b) == pytest.approx(best_event, abs=1e-12)


@st.composite
def sparse_tables(draw, max_side=12):
    """A normalized joint table of 1..max_side rows and columns whose cells
    are each zero or a positive weight, so whole rows and columns may be
    empty and a row may hold one nonzero."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cell = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    table = np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)))
    total = table.sum()
    return (table / total if total > 0.0 else table).reshape(rows, cols)


def float_bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestMutualInformation:
    @given(sparse_tables())
    @example(np.array([[0.2, 0.0, 0.3], [0.0, 0.0, 0.0], [0.1, 0.0, 0.4]]))  # empty row, column
    @example(np.array([[0.0, 0.5, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.25]]))  # one per row
    @example(np.array([[0.1, 0.0, 0.6, 0.3]]))  # 1 x k
    @example(np.array([[0.3], [0.0], [0.7]]))  # k x 1
    @settings(max_examples=400, deadline=None)
    def test_support_products_match_the_dense_outer(self, table):
        # the product of the marginals at the support cells against a dense
        # table of all of them, read at the support mask: the same products,
        # in the same row-major order, summed alike
        assert float_bytes(mi_of_table(table)) == float_bytes(mi_of_table_dense(table))

    def test_independent_is_zero(self):
        j = np.outer([0.3, 0.7], [0.6, 0.4])
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_identity_bit(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(j) == pytest.approx(LN2, abs=1e-12)

    def test_symmetric_in_axes(self):
        rng = np.random.default_rng(0)
        t = rng.dirichlet(np.ones(12)).reshape(3, 4)
        assert mutual_information(t) == pytest.approx(mutual_information(t.T), abs=1e-12)

    def test_matches_expectation_of_kl_form(self):
        # independent oracle: I = E_Y[ KL(P_{X|Y} || P_X) ]
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = rng.dirichlet(np.ones(20)).reshape(4, 5)
            px = t.sum(axis=1)
            oracle = 0.0
            for y in range(5):
                py = t[:, y].sum()
                oracle += py * kl_divergence(t[:, y] / py, px)
            assert mutual_information(t) == pytest.approx(oracle, abs=1e-10)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = rng.dirichlet(np.ones(12)).reshape(3, 4)
            mi = mutual_information(t)
            assert mi <= entropy(marginal(t, 0)) + 1e-10
            assert mi <= entropy(marginal(t, 1)) + 1e-10


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
        np.testing.assert_allclose(j.sum(axis=1), p1, atol=1e-12)
        np.testing.assert_allclose(j.sum(axis=0), p2, atol=1e-12)
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
            p1 = rng.dirichlet(np.ones(k))
            p2 = rng.dirichlet(np.ones(k))
            assert pinsker_slack(p1, p2) >= -1e-12


class TestDataProcessing:
    def test_deterministic_map_cannot_gain_information(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = rng.dirichlet(np.ones(24)).reshape(6, 4)
            # merge the rows of x with equal g(x) = x % 3
            merged = np.zeros((3, 4))
            np.add.at(merged, np.arange(6) % 3, t)
            assert mutual_information(merged) <= mutual_information(t) + 1e-12


def assert_pmf(probs):
    """Finite, nonnegative and summing to 1 within 1e-12: the condition every
    pmf and joint table handed to ``infotheory`` meets by construction."""
    assert np.isfinite(probs).all()
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) <= 1e-12


class TestPmfsAreValidWhereMade:
    """``infotheory`` checks nothing, so the pmfs of the ``verify-lemmas``
    suites are checked here, where the program draws them."""

    DRAWS = 2000

    def test_random_pmf_pair(self):
        rng = np.random.default_rng(29)
        for _ in range(self.DRAWS):
            a, b = _random_pmf_pair(rng)
            assert a.shape == b.shape
            assert_pmf(a)
            assert_pmf(b)

    def test_optimal_coupling_table(self):
        rng = np.random.default_rng(30)
        for _ in range(self.DRAWS):
            a, b = _random_pmf_pair(rng)
            table = optimal_coupling(a, b)
            assert table.shape == (len(a), len(a))
            assert_pmf(table)
            np.testing.assert_allclose(table.sum(axis=1), a, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(table.sum(axis=0), b, rtol=0.0, atol=1e-12)

    def test_random_correlated_joint(self):
        rng = np.random.default_rng(31)
        for _ in range(self.DRAWS):
            table, xv, yv = _random_correlated_joint(rng)
            assert table.shape == (len(xv), len(yv))
            assert_pmf(table)

    def test_subgaussian_construction(self):
        rng = np.random.default_rng(32)
        for _ in range(self.DRAWS):
            table, xv, yv, _ = _subgaussian_construction(rng)
            assert table.shape == (len(xv), len(yv))
            assert_pmf(table)
