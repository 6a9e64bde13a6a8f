"""Bound formulas, verifier suites, attack statistics, CMI, certificate."""

import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_sco_lab import bounds, harness
from mi_sco_lab.bounds import (
    EST_CLIPPED_MEAN,
    EST_SIGN,
    EST_ZERO,
    ESTIMATOR_MENU,
    FINGERPRINT_FLOOR,
    SECOND_MOMENT_INNER,
    _fit_plus,
    _northwest_couplings,
    attack_prefactor,
    chain_rule_decomposition,
    cmi_exact,
    corbounded_mi_lower_bound,
    coupling_suite,
    fingerprint_expectation,
    fingerprint_quadrature,
    genbound_chain_report,
    gm,
    gm_regime_report,
    good_coordinates,
    subgaussian_correlation_suite,
    bounded_correlation_suite,
    make_report,
    measured_excess_risk,
    mi_dimension_scan,
    paley_zygmund_check,
    paley_zygmund_rhs,
    pilot_normalizers,
    pinsker_suite,
    second_moment_report,
    selector_entropy_cap,
    subgaussian_mi_lower_bound,
    subgaussian_tail_report,
    theorem1_certificate,
    xu_bound,
    xu_gap_report,
)
from mi_sco_lab.infotheory import entropy_of, row_entropies
from mi_sco_lab.learners import (
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    enumerate_sign_space,
    exact_channel,
    reachable_outputs,
    sign_space_probs,
)
from mi_sco_lab.sco import HardInstance, sample_plus
from oracles import (
    cmi_exact_signs,
    coupling_suite_pairs,
    fingerprint_quadrature_table,
    fingerprint_statistic,
    genbound_chain_report_signs,
    good_coordinates_signs,
    measured_excess_risk_signs,
    northwest_coupling,
    plus_counts,
    sample_signs,
    second_moment_report_loop,
    second_moment_report_signs,
)

LN2 = math.log(2.0)


class TestXuBound:
    def test_zero_information_zero_gap(self):
        assert xu_bound(0.0, 10) == 0.0

    def test_reference_case(self):
        mi = 1.5 * LN2
        assert xu_bound(mi, 2) == pytest.approx(4.0 * math.sqrt(mi), abs=1e-12)
        ch = exact_channel(MeanLearner(), HardInstance.zero(1), 2)
        gap = ch.expected_generalization_gap(HardInstance.zero(1))
        assert gap == pytest.approx(1.0, abs=1e-12)
        assert gap <= xu_bound(mi, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            xu_bound(-1.0, 2)

    def test_erm_on_bias_grid(self):
        learner = EpsilonNetErm()
        ch = exact_channel(learner, HardInstance.zero(2), 4)
        for p1 in np.linspace(-1 / 3, 1 / 3, 5):
            for p2 in np.linspace(-1 / 3, 1 / 3, 5):
                inst = HardInstance(2, np.array([p1, p2]))
                rep = xu_gap_report(learner, ch, inst)
                assert rep.holds, (p1, p2)


class TestFingerprintStatistic:
    def test_balanced_at_truth_is_zero(self):
        # f = p and the sample sum centered at p vanishes
        assert fingerprint_statistic(0.0, 0.0, [1, -1]) == pytest.approx(0.0)

    def test_m1_plug_in(self):
        assert fingerprint_statistic(1 / 3, 0.0, [1]) == pytest.approx(4 / 27, abs=1e-15)

    def test_zero_estimator_conditional_mean(self):
        # averaging the first term over X at fixed p leaves exactly p^2
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = float(rng.uniform(-1 / 3, 1 / 3))
            m = int(rng.integers(1, 7))
            q = (1 + p) / 2
            total = 0.0
            for k in range(m + 1):
                weight = math.comb(m, k) * q ** k * (1 - q) ** (m - k)
                xs = [1] * k + [-1] * (m - k)
                total += weight * fingerprint_statistic(0.0, p, xs)
            assert total == pytest.approx(p * p, abs=1e-12)

    def test_rejects_out_of_range_estimate(self):
        with pytest.raises(ValueError):
            fingerprint_statistic(0.5, 0.0, [1])


class TestFingerprintQuadrature:
    def test_zero_estimator_is_exactly_the_floor(self):
        for m in (1, 4, 12):
            val = fingerprint_quadrature(EST_ZERO, m)
            assert val == pytest.approx(FINGERPRINT_FLOOR, abs=1e-9)

    @pytest.mark.parametrize("est", ESTIMATOR_MENU, ids=lambda e: e.name)
    def test_menu_clears_floor(self, est):
        for m in (1, 2, 5, 8, 12):
            assert fingerprint_quadrature(est, m) >= FINGERPRINT_FLOOR - 1e-6

    def test_random_tables_clear_floor(self):
        # the inequality is universal over estimators into [-1/3, 1/3]
        rng = np.random.default_rng(1)
        for m in (1, 3, 5, 8):
            for _ in range(10):
                table = rng.uniform(-1 / 3, 1 / 3, size=1 << m)
                val = fingerprint_quadrature_table(table, m)
                assert val >= FINGERPRINT_FLOOR - 1e-6

    def test_table_route_matches_sum_route(self):
        # clipped mean is sum-based, so both evaluation paths agree
        m = 6
        patterns = np.asarray(
            [[(i >> j) & 1 for j in range(m)] for i in range(1 << m)])
        sums = (2 * patterns - 1).sum(axis=1)
        table = np.clip(sums / m, -1 / 3, 1 / 3)
        a = fingerprint_quadrature_table(table, m)
        b = fingerprint_quadrature(EST_CLIPPED_MEAN, m)
        assert a == pytest.approx(b, abs=1e-12)

    def test_monte_carlo_mode(self):
        rep = fingerprint_expectation(EST_CLIPPED_MEAN, 25, mode="monte_carlo",
                                      trials=10 ** 5, seed=3)
        assert rep.holds
        assert rep.ci_halfwidth is not None and rep.ci_halfwidth > 0

    def test_quadrature_rejects_large_m(self):
        from mi_sco_lab.learners import BudgetExceededError
        with pytest.raises(BudgetExceededError):
            fingerprint_expectation(EST_ZERO, 13, mode="quadrature")


class TestCorrelationBounds:
    def test_corbounded_values(self):
        assert corbounded_mi_lower_bound(0.0) == 0.0
        assert corbounded_mi_lower_bound(1.0) == pytest.approx(1 / 8)
        assert corbounded_mi_lower_bound(0.5) == pytest.approx(1 / 128)

    def test_subgaussian_vanishing_beta(self):
        assert subgaussian_mi_lower_bound(1e-300, 1.0) == 0.0 or \
            subgaussian_mi_lower_bound(1e-300, 1.0) < 1e-200

    def test_subgaussian_reference_value(self):
        expected = (1.0 / (192.0 * math.sqrt(2.0) * 20.0 * LN2)) ** 2
        assert subgaussian_mi_lower_bound(1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.06e-8, rel=1e-2)

    def test_subgaussian_vacuous_region(self):
        # log argument below e collapses the bound to zero
        assert subgaussian_mi_lower_bound(1000.0, 1.0) == 0.0

    def test_monotone_in_beta_and_c(self):
        betas = np.linspace(0.01, 1.0, 50)
        vals = [subgaussian_mi_lower_bound(b, 1.0) for b in betas]
        assert all(vals[i] <= vals[i + 1] + 1e-18 for i in range(len(vals) - 1))
        cs = np.linspace(1.0, 10.0, 50)
        vals_c = [subgaussian_mi_lower_bound(0.5, c) for c in cs]
        assert all(vals_c[i] >= vals_c[i + 1] - 1e-18 for i in range(len(vals_c) - 1))


class TestGm:
    def test_zero_at_zero(self):
        assert gm(0.0, 4) == 0.0

    def test_scale_invariance_of_instantiation(self):
        # gm(a, m) equals the sub-Gaussian bound at correlation a*s,
        # proxy 2*sqrt(m)*s, for every scale s
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = float(rng.uniform(0.0, 10.0))
            m = int(rng.integers(1, 64))
            s = float(rng.uniform(0.01, 100.0))
            assert gm(a, m) == pytest.approx(
                subgaussian_mi_lower_bound(a * s, 2.0 * math.sqrt(m) * s), rel=1e-9)

    def test_closed_form(self):
        a, m = 1e-3, 4
        arg = 2.0 ** 20 * 4 * m / (a * a)
        expected = (a * a / (192 * math.sqrt(2) * 4 * m * math.log(arg))) ** 2
        assert gm(a, m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_claimed_regime_scan(self, m):
        assert gm_regime_report(m).holds

    def test_nonvacuous_region_strictly_monotone(self):
        for m in (1, 2, 4):
            # gm is positive for a^2 < 2^20 * 4m / e
            vacuity_boundary = math.sqrt(2.0 ** 20 * 4.0 * m / math.e)
            grid = np.linspace(0.0, vacuity_boundary * 0.999, 500)
            vals = [gm(a, m) for a in grid]
            assert all(vals[i] <= vals[i + 1] + 1e-18 for i in range(len(vals) - 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gm(-1.0, 4)


class TestPaleyZygmund:
    def test_constant_variable(self):
        rep = paley_zygmund_check([2.0], [1.0], 0.5)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(0.25)

    def test_uniform_zero_one(self):
        rep = paley_zygmund_check([0.0, 1.0], [0.5, 0.5], 0.5)
        assert rep.lhs == pytest.approx(0.5)
        assert rep.rhs == pytest.approx(0.125)
        assert rep.holds

    def test_negative_values_flagged(self):
        # the inequality itself holds here (lhs 0.5 >= rhs 0); only the
        # negative mass fails the report
        rep = paley_zygmund_check([-1.0, 1.0], [0.5, 0.5], 0.5)
        assert rep.lhs >= rep.rhs
        assert not rep.holds

    def test_concentration_step_constants(self):
        # theta = 1/2 with mean 1/54 and second moment m*eps reproduces the
        # 1/(10^6 m eps) region bound
        for m, eps in ((4, 0.01), (16, 0.018), (100, 1 / 60)):
            rhs = paley_zygmund_rhs(1 / 54, m * eps, 0.5)
            assert rhs == pytest.approx(1.0 / (4 * 54 ** 2 * m * eps), rel=1e-12)
            assert rhs >= 1.0 / (1e6 * m * eps)

    def test_random_nonnegative_pmfs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            values = rng.uniform(0, 5, size=k)
            probs = rng.dirichlet(np.ones(k))
            theta = float(rng.uniform(0.05, 0.95))
            assert paley_zygmund_check(values, probs, theta).holds


class TestAttackStatistics:
    def test_prefactor_at_zero_bias(self):
        assert attack_prefactor(0.0) == pytest.approx(1 / 9)

    def test_prefactor_vanishes_at_endpoints(self):
        assert attack_prefactor(1 / 3) == pytest.approx(0.0, abs=1e-15)

    def test_y_second_moment_normalized(self):
        # with the pilot normalizer, E[y^2] is 1 within 3 sigma
        inst = HardInstance(2, np.array([0.1, 0.05]))
        learner = QuantizedMeanLearner()
        m = 4
        norms = pilot_normalizers(inst, learner, m, trials=20000, seed=6)
        rng = np.random.default_rng(7)
        signs = sample_signs(inst.p, m, rng, 20000)
        w = learner.fit_batch(signs)
        y = (math.sqrt(2) * w[:, 0] - inst.p[0]) / norms[0]
        se = (y ** 2).std(ddof=1) / math.sqrt(len(y))
        assert abs((y ** 2).mean() - 1.0) <= 3 * se

    def test_mean_learner_positive_correlation(self):
        inst = HardInstance(1, np.array([0.1]))
        gs = good_coordinates(inst, MeanLearner(), 4, trials=20000, seed=8,
                              pilot_trials=2000)
        # exact value (1 - 9 p^2)/9 for the mean learner
        assert gs.estimates[0] == pytest.approx((1 - 9 * 0.01) / 9, abs=0.01)
        assert gs.estimates[0] > 0


@dataclass(frozen=True)
class FirstCoordinateSignLearner:
    """Test helper: reacts to coordinate 0, ignores every other coordinate."""

    kind = "first_coordinate_sign"
    deterministic = True
    factorized = False
    reads_counts = False

    def fit_batch(self, signs):
        n, m, d = signs.shape
        out = np.zeros((n, d))
        out[:, 0] = np.sign(signs[:, :, 0].sum(axis=1)) / (3.0 * math.sqrt(d))
        return out


class TestGoodCoordinates:
    def test_independent_output_has_empty_good_set(self):
        # a learner ignoring the sample cannot correlate with it
        inst = HardInstance(2, np.array([0.1, -0.1]))
        gs = good_coordinates(inst, RegularizedErm(lam=1e9), 3, trials=20000,
                              seed=9, pilot_trials=2000)
        assert gs.members == ()

    def test_single_coordinate_learner(self):
        inst = HardInstance(2, np.array([0.05, 0.1]))
        gs = good_coordinates(inst, FirstCoordinateSignLearner(), 4,
                              trials=40000, seed=10, pilot_trials=2000)
        assert 1 not in gs.members
        assert abs(gs.estimates[1]) <= 3 * gs.std_errors[1]

    def test_mean_learner_all_good_at_small_bias(self):
        inst = HardInstance(4, np.array([0.05, -0.05, 0.1, 0.0]))
        gs = good_coordinates(inst, QuantizedMeanLearner(), 4, trials=50000,
                              seed=11, pilot_trials=5000)
        assert gs.members == (0, 1, 2, 3)

    def test_degenerate_coordinate_excluded(self):
        inst = HardInstance(2, np.array([0.1, 0.0]))
        gs = good_coordinates(inst, FirstCoordinateSignLearner(), 3,
                              trials=5000, seed=12, pilot_trials=2000)
        # coordinate 1's output is frozen at 0 = w*(1)=p(1)/sqrt(d) only if p=0;
        # here phat(1) = 0 while p(1) = 0, so the pilot normalizer degenerates
        assert 1 in gs.excluded


class TestChainRule:
    def test_factorized_equality(self):
        inst = HardInstance(2, np.array([0.2, -0.15]))
        ch = exact_channel(QuantizedMeanLearner(), inst, 3)
        res = chain_rule_decomposition(ch)
        assert res.report.holds
        assert res.total_mi == pytest.approx(sum(res.per_coordinate), abs=1e-10)

    def test_constant_learner_both_zero(self):
        inst = HardInstance.zero(2)
        ch = exact_channel(RegularizedErm(lam=1e9), inst, 2)
        res = chain_rule_decomposition(ch)
        assert res.total_mi == pytest.approx(0.0, abs=1e-12)
        assert sum(res.per_coordinate) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("learner", [EpsilonNetErm(), SgdLearner(),
                                         RegularizedErm(lam=0.5)],
                             ids=lambda l: l.kind)
    def test_inequality_across_learners(self, learner):
        inst = HardInstance(2, np.array([0.1, 0.25]))
        ch = exact_channel(learner, inst, 2)
        assert chain_rule_decomposition(ch).report.holds

    def test_rejects_randomized_channel(self):
        learner = RandomizedResponse(base=MeanLearner(), rho=0.5)
        ch = exact_channel(learner, HardInstance.zero(2), 2)
        with pytest.raises(ValueError, match="deterministic"):
            chain_rule_decomposition(ch)


def _cmi_exact_axis0(learner, inst, m):
    """cmi_exact as written with numpy's row sort, a dict codebook lookup and
    an ``np.add.at`` count scatter: the oracle for the integer-code route."""
    if isinstance(learner, SubsampleLearner):
        return _cmi_exact_axis0(learner.base, inst, learner.k)
    n_z = 1 << (2 * m * inst.d)
    n_u = 1 << m
    randomized = not learner.deterministic
    base = learner.base if randomized else learner
    selectors = ((np.arange(n_u, dtype=np.int64)[:, None]
                  >> np.arange(m, dtype=np.int64)[None, :]) & 1)
    row_pick = np.arange(m)[None, :] + m * selectors
    if randomized:
        codebook = reachable_outputs(base, inst.d, m)
        key = {tuple(row): i for i, row in enumerate(codebook)}
        big_k = codebook.shape[0]
        h_row = entropy_of(learner.mix(np.eye(1, big_k)[0]))
    total = 0.0
    z_chunk = max(1, bounds.CMI_CHUNK_CELLS // (n_u * m * inst.d))
    all_z = enumerate_sign_space(2 * m, inst.d)
    z_probs = sign_space_probs(inst, plus_counts(all_z), 2 * m)
    for start in range(0, n_z, z_chunk):
        block = all_z[start:start + z_chunk]
        c = block.shape[0]
        outputs = base.fit_batch(block[:, row_pick, :].reshape(c * n_u, m, inst.d))
        if randomized:
            ids = np.array([key[tuple(row)] for row in outputs]).reshape(c, n_u)
            counts = np.zeros((c, big_k))
        else:
            _, inverse = np.unique(outputs, axis=0, return_inverse=True)
            ids = inverse.reshape(c, n_u)
            counts = np.zeros((c, int(ids.max()) + 1))
        np.add.at(counts, (np.repeat(np.arange(c), n_u), ids.reshape(-1)), 1.0)
        if randomized:
            contrib = row_entropies(learner.mix(counts / n_u)) - h_row
        else:
            contrib = row_entropies(counts / n_u)
        total += float(z_probs[start:start + z_chunk] @ contrib)
    return max(0.0, total)


class TestCmi:
    @pytest.mark.parametrize("learner", [
        MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(), SgdLearner(),
        SubsampleLearner(k=1, base=MeanLearner()),
        RandomizedResponse(base=MeanLearner(), rho=0.5)], ids=lambda l: l.kind)
    def test_matches_row_sort_oracle(self, learner):
        for d, m in ((1, 2), (1, 3), (2, 2)):
            for inst in (HardInstance.zero(d), HardInstance(d, np.full(d, 0.3))):
                assert cmi_exact(learner, inst, m) == _cmi_exact_axis0(learner, inst, m)

    def test_reference_value(self):
        val = cmi_exact(MeanLearner(), HardInstance.zero(1), 2)
        assert val == pytest.approx(0.875 * LN2, abs=1e-12)

    def test_constant_learner_zero(self):
        assert cmi_exact(RegularizedErm(lam=1e9), HardInstance.zero(1), 2) == \
            pytest.approx(0.0, abs=1e-12)

    def test_randomized_response_shrinks_cmi(self):
        inst = HardInstance.zero(1)
        base = cmi_exact(MeanLearner(), inst, 2)
        noisy = cmi_exact(RandomizedResponse(base=MeanLearner(), rho=0.5), inst, 2)
        fully = cmi_exact(RandomizedResponse(base=MeanLearner(), rho=1.0), inst, 2)
        assert fully == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < noisy < base

    def test_subsample_selector_cap(self):
        inst = HardInstance.zero(1)
        for m, k in ((4, 2), (6, 3)):
            learner = SubsampleLearner(k=k, base=MeanLearner())
            val = cmi_exact(learner, inst, m)
            assert val <= selector_entropy_cap(k, m) + 1e-9

    def test_cap_across_menu(self):
        for learner in (MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
                        SgdLearner()):
            for d, m in ((1, 2), (1, 3), (2, 2)):
                val = cmi_exact(learner, HardInstance.zero(d), m)
                assert 0.0 <= val <= m * LN2 + 1e-9

    def test_bias_independence_of_support(self):
        # nonzero bias reweights the supersample; cap still holds
        val = cmi_exact(MeanLearner(), HardInstance(1, np.array([0.3])), 3)
        assert 0.0 <= val <= 3 * LN2 + 1e-9

    def test_generalization_bound_reference(self):
        # xu_bound with the CMI in place of the MI is the supersample bound
        assert xu_bound(0.0, 4) == 0.0
        inst = HardInstance.zero(1)
        cmi = cmi_exact(MeanLearner(), inst, 2)
        gap = exact_channel(MeanLearner(), inst, 2).expected_generalization_gap(inst)
        assert gap <= xu_bound(cmi, 2)


CMI_MENU = (MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(), SgdLearner(),
            SubsampleLearner(k=1, base=MeanLearner()),
            RandomizedResponse(base=MeanLearner(), rho=0.5),
            RegularizedErm(lam=0.5), QuantizedMeanLearner(delta=0.3),
            RandomizedResponse(SgdLearner(), 0.5), SubsampleLearner(k=1, base=SgdLearner()))
# every (d, m) whose supersample has 2^(2dm+m) <= 2^20 cells, but (8, 1) and
# (9, 1): there the oracle builds a dense (z x atoms) count matrix, 1 s per
# learner at (8, 1) and 4 GB at (9, 1)
CMI_GRID = [(d, m) for d in range(1, 8) for m in range(1, 7) if 2 * d * m + m <= 20]


class TestCountRoute:
    @given(learner=st.sampled_from(CMI_MENU), n=st.integers(1, 40), m=st.integers(1, 4),
           d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_fit_plus_matches_sign_route(self, learner, n, m, d, seed):
        # outputs, sign sums and the generator's final state, from one seed;
        # d m <= 12, since a flip of randomized response over SGD enumerates
        # its 2^(d m) patterns
        p = np.random.default_rng(seed).uniform(-1 / 3, 1 / 3, size=d)
        rng, rng_signs = np.random.default_rng(seed), np.random.default_rng(seed)
        w, sums = _fit_plus(learner, sample_plus(p, m, rng, n), rng)
        signs = sample_signs(p, m, rng_signs, n)
        want = (learner.fit_batch(signs) if learner.deterministic
                else learner.fit_batch(signs, rng_signs))
        assert w.tobytes() == want.tobytes()
        assert sums.tobytes() == signs.sum(axis=1, dtype=float).tobytes()
        assert rng.random() == rng_signs.random()

    @pytest.mark.parametrize("d,m", CMI_GRID)
    def test_cmi_matches_sign_route(self, d, m):
        inst = HardInstance(d, np.linspace(-1 / 3, 0.25, d))
        for learner in CMI_MENU:
            assert cmi_exact(learner, inst, m) == cmi_exact_signs(learner, inst, m), learner.kind

    def test_cmi_matches_sign_route_at_shipped_point(self):
        # the m = 64 point of the shipped cmi sweep: k = 8 pairs of 2^16 cells
        inst = HardInstance.zero(1)
        assert cmi_exact(MeanLearner(), inst, 8) == cmi_exact_signs(MeanLearner(), inst, 8)

    def test_cmi_count_matrix_in_row_blocks(self):
        # d = 8, m = 1: one chunk of 2^16 supersamples over 256 atoms, whose
        # whole count matrix alone would take 128 MB
        learner, inst = MeanLearner(), HardInstance.zero(8)
        cmi_exact(learner, HardInstance.zero(1), 1)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            cmi_exact(learner, inst, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("learner", [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
                                         RegularizedErm(lam=0.5), SgdLearner()],
                             ids=lambda l: l.kind)
    def test_monte_carlo_matches_sign_route(self, monkeypatch, threads, learner):
        monkeypatch.setenv("MI_SCO_THREADS", threads)
        inst = HardInstance(3, np.array([0.1, -0.25, 0.0]))
        # three Monte Carlo chunks of good_coordinates, two of the pilot
        args = (inst, learner, 4, 2 * bounds.mc.CHUNK + 5, 3, bounds.mc.CHUNK + 3)
        got, want = good_coordinates(*args), good_coordinates_signs(*args)
        assert (got.members, got.excluded) == (want.members, want.excluded)
        for field in ("estimates", "std_errors", "normalizers"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        # three chunks of 4096 trials each
        assert measured_excess_risk(learner, 3, 4, 2 * 4096 + 7, 4) == \
            measured_excess_risk_signs(learner, 3, 4, 2 * 4096 + 7, 4)
        assert genbound_chain_report(learner, 3, 4, 2 * 4096 + 7, 5) == \
            genbound_chain_report_signs(learner, 3, 4, 2 * 4096 + 7, 5)
        assert second_moment_report(learner, 3, 4, 50, 6) == \
            second_moment_report_signs(learner, 3, 4, 50, 6)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_randomized_risk_matches_sign_route(self, monkeypatch, threads):
        monkeypatch.setenv("MI_SCO_THREADS", threads)
        learner = RandomizedResponse(base=QuantizedMeanLearner(), rho=0.5)
        assert measured_excess_risk(learner, 2, 4, 2 * 4096 + 7, 7) == \
            measured_excess_risk_signs(learner, 2, 4, 2 * 4096 + 7, 7)


class TestCertificate:
    def test_quantized_mean_desk_scale(self):
        cert = theorem1_certificate(QuantizedMeanLearner(), d=2, m=4,
                                    risk_trials=4000, good_trials=20000,
                                    pilot_trials=2000, seed=13)
        assert cert.status == "ok"
        assert cert.report.holds
        assert cert.mi >= cert.lb
        assert cert.asymptotic_lb > 0

    def test_non_learner_rejected(self):
        rr = RandomizedResponse(base=MeanLearner(), rho=1.0)
        cert = theorem1_certificate(rr, d=1, m=2, epsilon=0.001,
                                    risk_trials=2000, seed=14)
        assert cert.status == "hypothesis-unmet"
        assert not cert.report.holds

    def test_dimension_scan_linearity(self):
        scan = mi_dimension_scan(QuantizedMeanLearner(), 4, 0.1, range(1, 7))
        assert scan.report.holds
        assert scan.report.lhs == pytest.approx(scan.report.rhs / 0.9, rel=1e-9)


class TestVerifierSuites:
    def test_pinsker(self):
        rep = pinsker_suite(200, seed=15)
        assert rep.holds

    def test_coupling(self):
        match, optimal = coupling_suite(200, n_random=30, seed=16)
        assert match.holds and optimal.holds

    def test_bounded_correlation_suite(self):
        rep = bounded_correlation_suite(300, seed=17)
        assert rep.holds

    def test_subgaussian_correlation_suite(self):
        rep = subgaussian_correlation_suite(100, seed=18)
        assert rep.holds

    def test_subgaussian_tails(self):
        inst = HardInstance(1, np.array([0.2]))
        assert subgaussian_tail_report(inst, 5, trials=10 ** 5, seed=19).holds

    def test_second_moment(self):
        rep = second_moment_report(QuantizedMeanLearner(), 2, 4, outer=500, seed=20)
        assert rep.holds

    def test_genbound_chain(self):
        assert genbound_chain_report(MeanLearner(), 3, 4, trials=4000, seed=21).holds


class TestLockstepCoupling:
    """The lockstep greedy coupling does each row's scalar arithmetic."""

    @staticmethod
    def _check(a, b, perm_r, perm_c):
        got = _northwest_couplings(a, b, perm_r, perm_c)
        want = np.array([northwest_coupling(a, b, r, c) for r, c in zip(perm_r, perm_c)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 16])
    def test_random_pmfs(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            a, b = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            perms = rng.permuted(np.tile(np.arange(k), (60, 1)), axis=1)
            self._check(a, b, perms[0::2], perms[1::2])

    @pytest.mark.parametrize("k", [2, 16])
    def test_exact_ties(self, k):
        # equal masses: every step empties both cells, so both indices advance
        rng = np.random.default_rng(k + 1)
        a = np.full(k, 1.0 / k)
        perms = rng.permuted(np.tile(np.arange(k), (40, 1)), axis=1)
        self._check(a, a.copy(), perms[0::2], perms[1::2])
        self._check(a, a.copy(), np.tile(np.arange(k), (3, 1)), np.tile(np.arange(k), (3, 1)))

    @pytest.mark.parametrize("low, residue", [(0.5, 4e-16), (0.5, 2e-15), (1e-15, 1e-15)])
    def test_residues_at_the_threshold(self, low, residue):
        # a leftover of at most 1e-15 is skipped, a larger one is transported;
        # 2e-15 - 1e-15 leaves exactly 1e-15
        a = np.array([low + residue, 0.25, 0.75 - low - residue])
        b = np.array([low, 0.25, 0.75 - low])
        assert 0.0 < a[0] - b[0] <= 2e-15
        perms = np.array(list(itertools.permutations(range(3))))
        rows = np.array([(r, c) for r in range(len(perms)) for c in range(len(perms))])
        self._check(a, b, perms[rows[:, 0]], perms[rows[:, 1]])
        self._check(b, a, perms[rows[:, 0]], perms[rows[:, 1]])

    @pytest.mark.parametrize("n_pairs, n_random", [(30, 10), (5, 8), (20, 0), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_suite_matches_per_pair_loop(self, n_pairs, n_random, seed):
        assert coupling_suite(n_pairs, n_random, seed) == \
            coupling_suite_pairs(n_pairs, n_random, seed)


class TestBlockedSecondMoment:
    BLOCK = bounds.SECOND_MOMENT_BLOCK // (2 * SECOND_MOMENT_INNER)  # outer iterations per fit

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("learner", [MeanLearner(), QuantizedMeanLearner(), EpsilonNetErm(),
                                         RegularizedErm(lam=0.5), SgdLearner()],
                             ids=lambda l: l.kind)
    def test_matches_per_iteration_loop(self, monkeypatch, threads, learner):
        monkeypatch.setenv("MI_SCO_THREADS", threads)
        for outer in (1, self.BLOCK // 3, 2 * self.BLOCK + 5):
            assert second_moment_report(learner, 3, 4, outer, 8) == \
                second_moment_report_loop(learner, 3, 4, outer, 8), outer

    def test_rejects_randomized_learner(self):
        with pytest.raises(ValueError, match="deterministic"):
            second_moment_report(RandomizedResponse(MeanLearner(), 0.5), 2, 2, 3, 0)


class TestReports:
    def test_make_report_direction(self):
        assert make_report("x", 1.0, 0.5).holds
        assert not make_report("x", 0.4, 0.5).holds
        assert make_report("x", 0.4999999, 0.5, tolerance=1e-6).holds

    def test_csv_golden_header(self, tmp_path):
        rep = make_report("demo", 1.0, 0.0, d=2, m=4, trials=10, seed=3)
        path = tmp_path / "reports.csv"
        harness._write_table(path, harness.REPORT_COLUMNS,
                             [[getattr(rep, col) for col in harness.REPORT_COLUMNS]])
        lines = path.read_text().splitlines()
        assert lines[0] == "name,d,m,epsilon,lhs,rhs,holds,slack,trials,ci_halfwidth,seed"
        assert lines[1] == "demo,2,4,,1,0,true,1,10,,3"
