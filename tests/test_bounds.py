"""Bound formulas, verifier suites, attack statistics, CMI, certificate."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from mi_sco_lab import bounds
from mi_sco_lab.bounds import (
    EST_CLIPPED_MEAN,
    EST_SIGN,
    EST_ZERO,
    ESTIMATOR_MENU,
    FINGERPRINT_FLOOR,
    AttackStats,
    attack_prefactor,
    attack_statistics,
    chain_rule_decomposition,
    cmi_exact,
    cmi_generalization_bound,
    corbounded_mi_lower_bound,
    coupling_suite,
    fingerprint_expectation,
    fingerprint_quadrature,
    fingerprint_quadrature_table,
    fingerprint_statistic,
    genbound_chain_report,
    gm,
    gm_regime_report,
    gm_vacuity_boundary,
    good_coordinates,
    subgaussian_correlation_suite,
    bounded_correlation_suite,
    make_report,
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
    write_reports_csv,
    xu_bound,
    xu_gap_report,
)
from mi_sco_lab.learners import (
    EpsilonNetErm,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    RegularizedErm,
    SgdLearner,
    SubsampleLearner,
    exact_channel,
)
from mi_sco_lab.sco import HardInstance, sample, sample_signs

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
        for p1 in np.linspace(-1 / 3, 1 / 3, 5):
            for p2 in np.linspace(-1 / 3, 1 / 3, 5):
                inst = HardInstance(2, np.array([p1, p2]))
                rep = xu_gap_report(learner, inst, 4)
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
            grid = np.linspace(0.0, gm_vacuity_boundary(m) * 0.999, 500)
            vals = [gm(a, m) for a in grid]
            assert all(vals[i] <= vals[i + 1] + 1e-18 for i in range(len(vals) - 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gm(-1.0, 4)


class TestPaleyZygmund:
    def test_constant_variable(self):
        chk = paley_zygmund_check([2.0], [1.0], 0.5)
        assert chk.hypothesis_ok and chk.report.holds
        assert chk.report.lhs == pytest.approx(1.0)
        assert chk.report.rhs == pytest.approx(0.25)

    def test_uniform_zero_one(self):
        chk = paley_zygmund_check([0.0, 1.0], [0.5, 0.5], 0.5)
        assert chk.report.lhs == pytest.approx(0.5)
        assert chk.report.rhs == pytest.approx(0.125)
        assert chk.report.holds

    def test_negative_values_flagged(self):
        chk = paley_zygmund_check([-1.0, 1.0], [0.5, 0.5], 0.5)
        assert not chk.hypothesis_ok
        assert not chk.report.holds

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
            chk = paley_zygmund_check(values, probs, theta)
            assert chk.hypothesis_ok and chk.report.holds


class TestAttackStatistics:
    def test_output_at_optimum_gives_zero_y(self):
        inst = HardInstance(2, np.array([0.2, -0.1]))
        s = sample(inst, 3, seed=4)
        stats = attack_statistics(inst, s, inst.w_star, 0, normalizer=0.5)
        assert stats.y_p == pytest.approx(0.0, abs=1e-12)

    def test_prefactor_at_zero_bias(self):
        assert attack_prefactor(0.0) == pytest.approx(1 / 9)

    def test_prefactor_vanishes_at_endpoints(self):
        assert attack_prefactor(1 / 3) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_zero_normalizer(self):
        inst = HardInstance.zero(1)
        s = sample(inst, 2, seed=5)
        with pytest.raises(ValueError):
            attack_statistics(inst, s, np.zeros(1), 0, normalizer=0.0)

    def test_y_second_moment_normalized(self):
        # with the pilot normalizer, E[y^2] is 1 within 3 sigma
        inst = HardInstance(2, np.array([0.1, 0.05]))
        learner = QuantizedMeanLearner()
        m = 4
        norms = pilot_normalizers(inst, learner, m, trials=20000, seed=6)
        rng = np.random.default_rng(7)
        signs = sample_signs(inst, m, rng, trials=20000)
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

    def fit_batch(self, signs):
        n, m, d = signs.shape
        out = np.zeros((n, d))
        out[:, 0] = np.sign(signs[:, :, 0].sum(axis=1)) / (3.0 * math.sqrt(d))
        return out

    def fit(self, s, rng=None):
        return self.fit_batch(s.signs[None])[0]


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


class TestCmi:
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
            assert val <= selector_entropy_cap(learner, m) + 1e-9

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
        assert cmi_generalization_bound(0.0, 4) == 0.0
        inst = HardInstance.zero(1)
        cmi = cmi_exact(MeanLearner(), inst, 2)
        gap = exact_channel(MeanLearner(), inst, 2).expected_generalization_gap(inst)
        assert gap <= cmi_generalization_bound(cmi, 2)


class TestCertificate:
    def test_quantized_mean_desk_scale(self):
        cert = theorem1_certificate(QuantizedMeanLearner(), d=2, m=4, n_p=2,
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
        assert scan.slope == pytest.approx(scan.per_coordinate_mi, rel=1e-9)


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
        rep = second_moment_report(QuantizedMeanLearner(), 2, 4, outer=500,
                                   inner=32, seed=20)
        assert rep.holds

    def test_genbound_chain(self):
        assert genbound_chain_report(MeanLearner(), 3, 4, trials=4000, seed=21).holds


class TestReports:
    def test_make_report_direction(self):
        assert make_report("x", 1.0, 0.5).holds
        assert not make_report("x", 0.4, 0.5).holds
        assert make_report("x", 0.4999999, 0.5, tolerance=1e-6).holds

    def test_csv_golden_header(self, tmp_path):
        rep = make_report("demo", 1.0, 0.0, d=2, m=4, trials=10, seed=3)
        path = tmp_path / "reports.csv"
        write_reports_csv([rep], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,d,m,epsilon,lhs,rhs,holds,slack,trials,ci_halfwidth,seed"
        assert lines[1] == "demo,2,4,,1,0,true,1,10,,3"
