"""Mutation suite: each named mutant rewrites a program function, and its
paired check, which passes on the program, must fail under it.

A mutant is a source rewrite of one function or method: its text, as
``inspect.getsource`` gives it, with each ``old`` replaced by ``new``,
compiled against its module's globals and monkeypatched over the original
wherever the package binds it. Every ``old`` must occur exactly once, so a
refactor that moves a mutated line fails here instead of leaving a mutant
that changes nothing. Each check is cheap and reads the program only through
its public functions.
"""

import __future__
import inspect
import math
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import mi_sco_lab
from mi_sco_lab import bounds, infotheory, learners, mc
from mi_sco_lab.harness import run
from mi_sco_lab.learners import (
    Channel,
    MeanLearner,
    QuantizedMeanLearner,
    RandomizedResponse,
    SgdLearner,
    exact_channel,
    fit,
    grid_step,
)
from mi_sco_lab.sco import HardInstance, sample_plus
from oracles import (
    count_mean,
    fingerprint_monte_carlo_values,
    fit_signs,
    good_coordinates_signs,
    mi_of_table_dense,
    signs_of_plus,
)
from test_acceptance import quantized_mean_ties_and_chain_rule
from test_mc import _streamed


@dataclass(frozen=True)
class Mutant:
    owner: object  # the module or class that holds the function
    name: str
    edits: tuple  # (old, new) source replacements
    check: Callable[[], None]  # passes on the program; fails under the mutant


def mutated(mutant: Mutant):
    """The mutant's function: the original's source with its edits applied,
    compiled against the original's module globals."""
    func = inspect.getattr_static(mutant.owner, mutant.name)
    source = textwrap.dedent(inspect.getsource(func))
    for old, new in mutant.edits:
        assert source.count(old) == 1, (mutant.name, old)
        source = source.replace(old, new)
    namespace = {}
    code = compile(source, inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, vars(inspect.getmodule(func)), namespace)
    return namespace[mutant.name]


def apply(monkeypatch, mutant: Mutant) -> None:
    """Patch the mutant over the original at its owner and, for a module
    function, at every package module that imported it by name."""
    original = inspect.getattr_static(mutant.owner, mutant.name)
    func = mutated(mutant)
    owners = [mutant.owner]
    if inspect.ismodule(mutant.owner):
        owners += [module for name, module in sorted(sys.modules.items())
                   if name.startswith(mi_sco_lab.__name__ + ".") and module is not mutant.owner
                   and vars(module).get(mutant.name) is original]
    for owner in owners:
        monkeypatch.setattr(owner, mutant.name, func)


def _rho_one_carries_nothing():
    inst = HardInstance(1, np.array([0.2]))
    ch = exact_channel(RandomizedResponse(MeanLearner(), 1.0), inst, 2)
    assert ch.mutual_information() == pytest.approx(0.0, abs=1e-12)


def _mean_gap_closed_form():
    # the mean learner's gap is 2 E||zbar - w*||^2 = 2 (1 - p^2) / m at d = 1
    inst, m = HardInstance(1, np.array([0.2])), 3
    gap = exact_channel(MeanLearner(), inst, m).expected_generalization_gap(inst)
    assert gap == pytest.approx(2.0 * (1.0 - 0.2 ** 2) / m, rel=1e-12)


def _xu_bound_holds_at_one_point():
    # at d = m = 1 the mean's gap, 2, exceeds sqrt(2 ln 2) but not 4 sqrt(2 ln 2)
    inst = HardInstance.zero(1)
    ch = exact_channel(MeanLearner(), inst, 1)
    assert ch.expected_generalization_gap(inst) <= bounds.xu_bound(ch.mutual_information(), 1)


def _sample_mean_is_w_star():
    inst, m = HardInstance(2, np.array([0.3, -0.1])), 3
    ch = exact_channel(MeanLearner(), inst, m)
    np.testing.assert_allclose(ch.sample_probs @ count_mean(ch.counts, m)[ch.codes],
                               inst.w_star, rtol=0.0, atol=1e-12)


def _ties_round_down():
    assert learners.round_half_down(np.array([0.25, -0.25, 0.75]), 0.5).tolist() == \
        [0.0, -0.5, 0.5]


def _chain_rule_tight_for_factorized():
    # a factorized learner's output coordinates read independent counts
    inst = HardInstance(2, np.array([0.3, -0.2]))
    result = bounds.chain_rule_decomposition(exact_channel(QuantizedMeanLearner(), inst, 3))
    assert math.fsum(result.per_coordinate) == pytest.approx(result.total_mi, rel=1e-9)


def _mi_kernel_matches_the_dense_outer():
    # a table with an empty row and unequal column sums
    table = np.array([[0.1, 0.15, 0.2, 0.05], [0.0, 0.0, 0.0, 0.0], [0.3, 0.1, 0.05, 0.05]])
    assert np.float64(infotheory.mi_of_table(table)).tobytes() == \
        np.float64(mi_of_table_dense(table)).tobytes()


def _mean_cmi_closed_form():
    # at d = m = 1 the selected point is unknown given Z iff the pair differs
    q = 0.6
    got = bounds.cmi_exact(MeanLearner(), HardInstance(1, np.array([2 * q - 1])), 1)
    assert got == pytest.approx(2 * q * (1 - q) * math.log(2.0), rel=1e-12)


def _sgd_ties_keep_the_in_loop_projection():
    # exact half-grid ties beyond the budget: the all-plus sample at
    # (d, m) = (100, 15) averages 22.5 steps of 1/225 in every coordinate,
    # and at (1600, 1) with step 0.05 every point +-1/40 is half a step; the
    # in-loop projection pulls each just below its tie, as the sign route does
    for learner, plus, want in (
            (SgdLearner(), np.ones((1, 15, 100), dtype=bool), 22 * grid_step(None, 15)),
            (SgdLearner(delta=0.05),
             sample_plus(np.zeros(1600), 1, np.random.default_rng(0), 8), 0.0)):
        out = fit(learner, plus)
        assert (out == want).all()
        assert out.tobytes() == fit_signs(learner, signs_of_plus(plus)).tobytes()


def _level_table_matches_the_sign_route():
    # the mean learner's outputs, read from its level table, against a fit on
    # every sampled sign tensor; at odd m a flipped count never reads its own
    # level
    plus = sample_plus(np.array([0.2, -0.1]), 3, np.random.default_rng(1), 100)
    assert fit(MeanLearner(), plus).tobytes() == \
        fit_signs(MeanLearner(), signs_of_plus(plus)).tobytes()


def _good_set_matches_the_sign_route():
    # the mean learner's good-coordinate search over two blocks and one row
    # of the counts-plus-table reduction, against a fit on every sampled sign
    # tensor; a flipped count reads the attack at the opposite sign sum,
    # which the nonzero biases see, and a dropped carry loses a block's sum
    args = (HardInstance(2, np.array([0.2, -0.1])), MeanLearner(), 3,
            2 * mc.GATHER_ROWS + 1, 1, 100)
    got, want = bounds.good_coordinates(*args), good_coordinates_signs(*args)
    assert got.estimates.tobytes() == want.estimates.tobytes()
    assert got.std_errors.tobytes() == want.std_errors.tobytes()


def _coupling_disagreement_is_tv():
    # the residual of the optimal coupling, divided by TV, puts exactly TV off
    # the diagonal; undivided it puts TV^2 there
    match, _ = bounds.coupling_suite(100, n_random=1, seed=12345)
    assert match.holds


def _streamed_sum_matches_numpy():
    # 1000 values split after 496, not 500: numpy's leaves hold other values
    rng = np.random.default_rng(3)
    values = rng.standard_normal(1000) * 10.0 ** rng.uniform(-8, 8, size=1000)
    assert _streamed(values, [100] * 10).tobytes() == np.add.reduce(values).tobytes()


def _streamed_fingerprint_matches_the_value_array():
    # two chunks: the second pass rebuilds each chunk's values from its own
    # bias draws
    trials = mc.CHUNK + 1
    rep = bounds.fingerprint_expectation(bounds.EST_CLIPPED_MEAN, 100, mode="monte_carlo",
                                         trials=trials, seed=7)
    mean, se = fingerprint_monte_carlo_values(bounds.EST_CLIPPED_MEAN, 100, trials, 7)
    assert (rep.lhs, rep.ci_halfwidth) == (mean, 3.0 * se)


MUTANTS = {
    "rho ignored": Mutant(
        RandomizedResponse, "mix",
        (("(1.0 - self.rho) * base_law + self.rho / base_law.shape[-1]", "1.0 * base_law"),),
        _rho_one_carries_nothing),
    "gap without its factor 2": Mutant(
        Channel, "expected_generalization_gap",
        (("term = 2.0 * (self.codebook", "term = (self.codebook"),
         ("term[rows] = 2.0 * (w", "term[rows] = (w"),
         ("gap = 2.0 * drift", "gap = drift")),
        _mean_gap_closed_form),
    "xu_bound without LOSS_RANGE": Mutant(
        bounds, "xu_bound",
        (("return LOSS_RANGE * math.sqrt", "return math.sqrt"),),
        _xu_bound_holds_at_one_point),
    "bias sign flipped in count_probs": Mutant(
        learners, "count_probs",
        (("q = (1.0 + inst.p)", "q = (1.0 - inst.p)"),),
        _sample_mean_is_w_star),
    "ties rounded up": Mutant(
        learners, "round_half_down",
        (("q -= 0.5", "q += 0.5"), ("np.ceil(q, out=q)", "np.floor(q, out=q)")),
        _ties_round_down),
    "chain-rule coordinate counted twice": Mutant(
        bounds, "chain_rule_decomposition",
        (("for t in range(d):", "for t in [0, *range(d)]:"),),
        _chain_rule_tight_for_factorized),
    "plus-counts read at the next coordinate": Mutant(
        Channel, "plus_counts",
        (("self.counts[:, t]", "self.counts[:, (t + 1) % self.counts.shape[1]]"),),
        _chain_rule_tight_for_factorized),
    "MI support cell paired with the next column's marginal": Mutant(
        infotheory, "mi_of_table",
        (("table.sum(axis=0)[cols]", "np.roll(table.sum(axis=0), 1)[cols]"),),
        _mi_kernel_matches_the_dense_outer),
    "CMI selector bit ignored": Mutant(
        bounds, "_selection_counts",
        (("(points[:, m:] - points[:, :m]) * scale", "0 * points[:, :m] * scale"),),
        _mean_cmi_closed_form),
    "SGD pass without its in-loop projection": Mutant(
        SgdLearner, "fit_batch",
        (("m, d, _project_rows))", "m, d, lambda w: w))"),),
        _sgd_ties_keep_the_in_loop_projection),
    "level table read at the flipped count": Mutant(
        learners, "count_statistic",
        (("np.take_along_axis(table, counts, axis=0)",
          "np.take_along_axis(table, m - counts, axis=0)"),),
        _level_table_matches_the_sign_route),
    "flipped count in the reduction's gather": Mutant(
        mc, "_column_sums",
        (("np.multiply(counts[start:start + k], d,",
          "np.multiply(table.shape[0] - 1 - counts[start:start + k], d,"),),
        _good_set_matches_the_sign_route),
    "coupling residual not divided by TV": Mutant(
        infotheory, "optimal_coupling",
        (("table += np.outer(pos, neg) / tv", "table += np.outer(pos, neg)"),),
        _coupling_disagreement_is_tv),
    "leaf split not rounded down to a multiple of 8": Mutant(
        mc, "_pairwise_split",
        (("return k // 2 - k // 2 % 8", "return k // 2"),),
        _streamed_sum_matches_numpy),
    "pass 2 redraws chunk c+1's bias": Mutant(
        mc, "streamed_mean_and_se",
        (("dev = redraw(substream(master_seed, *path, c),",
          "dev = redraw(substream(master_seed, *path, c + 1),"),),
        _streamed_fingerprint_matches_the_value_array),
    "block accumulator not carried": Mutant(
        mc, "_column_sums",
        (("block[0] = sums", "block[0] = 0.0"),),
        _good_set_matches_the_sign_route),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_check_passes_on_the_program(name):
    MUTANTS[name].check()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_check_fails_under_the_mutant(monkeypatch, name):
    apply(monkeypatch, MUTANTS[name])
    with pytest.raises(AssertionError):
        MUTANTS[name].check()


@pytest.mark.parametrize("name", ["ties rounded up", "chain-rule coordinate counted twice",
                                  "plus-counts read at the next coordinate",
                                  "MI support cell paired with the next column's marginal"])
def test_acceptance_criterion_12_fails_under_the_mutant(monkeypatch, name):
    # none of these mutants fails a shipped --verify report; the MI mutant
    # moves verify-lemmas' pinned bytes, the other three no shipped byte
    assert quantized_mean_ties_and_chain_rule()
    apply(monkeypatch, MUTANTS[name])
    assert not quantized_mean_ties_and_chain_rule()


def test_shipped_verify_lemmas_fails_under_the_mutant(monkeypatch, tmp_path, capsys):
    # the wrapper types no longer catch an undivided residual; the shipped
    # coupling_matches_tv report does
    config = Path(__file__).resolve().parents[1] / "configs" / "verify-lemmas.ini"
    apply(monkeypatch, MUTANTS["coupling residual not divided by TV"])
    assert run(config, out=str(tmp_path), verify=True) == 2
    assert capsys.readouterr().out == "verification failed: coupling_matches_tv\n"
