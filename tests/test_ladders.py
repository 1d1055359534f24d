import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from threshold_gms import ladders
from threshold_gms.criteria import classify, expected_extinction_count, laplace_extinction_count
from threshold_gms.distributions import Exponential, ModelParams, Pareto, TabulatedQuantile, Weibull
from threshold_gms.ladders import (
    EFFECTIVELY_INFINITE,
    STOP_REASONS,
    FitnessLadder,
    LadderError,
    LadderStep,
    ThresholdLadder,
    birth_mass,
    count_extinctions_above_records,
    extinction_mass,
    masses_effectively_infinite,
    populate_limit_config,
    sample_extinction_count,
    sample_first_gaps,
    sample_fitness_ladder,
    sample_ladder_block,
    sample_ladder_blocks,
    sample_limit_config,
    sample_threshold_ladder,
)
from threshold_gms.montecarlo import (
    TASK_EXTINCTION_COUNT,
    TASK_LIMIT_CONFIG,
    ReplicationPlan,
    gof_chi_square,
    gof_ks,
    ladder_diagnostics,
    run,
)
from threshold_gms.process import generate_stream
from threshold_gms.streams import replication_rng
from threshold_gms.validation import FINITE_EXAMPLE, TRANSIENT_EXAMPLE, _pairwise_region_count



def max_steps(n):
    """Cut every ladder walked inside the block at n steps."""
    return mock.patch.object(ladders, "MAX_STEPS", n)


def test_effectively_infinite_sentinel_is_math_inf():
    assert EFFECTIVELY_INFINITE == math.inf


def test_ladder_validation():
    steps = (LadderStep(2.0, 1.0, 0.5), LadderStep(1.0, 1.0, 0.5))
    with pytest.raises(LadderError):
        FitnessLadder(steps=steps, truncated_at=2, tail_bound=None, stop_reason="max_steps")
    with pytest.raises(LadderError):
        FitnessLadder(steps=(LadderStep(1.0, 1.0, 0.5),), truncated_at=2, tail_bound=None, stop_reason="max_steps")
    with pytest.raises(LadderError):
        FitnessLadder(steps=(LadderStep(1.0, 1.0, math.nan),), truncated_at=1, tail_bound=None, stop_reason="max_steps")
    with pytest.raises(LadderError):
        ThresholdLadder(
            steps=(LadderStep(1.0, 1.0, 0.5),),
            truncated_at=1,
            tail_bound=None,
            stop_reason="max_steps",
            first_gap=0.0,
        )


def test_first_record_follows_the_mark_law():
    with max_steps(1):
        block = sample_ladder_block(TRANSIENT_EXAMPLE, replication_rng(20), 4000, keep_steps=True)
    assert np.all(block.depth == 1)
    firsts = np.array([values[0] for values, _, _ in block.steps])
    res = stats.kstest(firsts, lambda x: 1.0 - np.exp(-x))
    assert res.pvalue > 0.001


def test_record_increments_are_memoryless():
    """Exponential marks: record jumps are fresh exponentials."""
    increments = []
    for i in range(800):
        rng = replication_rng(21, i, 0)
        ladder = sample_fitness_ladder(TRANSIENT_EXAMPLE, rng)
        values = [s.value for s in ladder.steps]
        increments.extend(np.diff(values))
    res = stats.kstest(np.array(increments), lambda x: 1.0 - np.exp(-x))
    assert res.pvalue > 0.001


def test_record_count_intensity():
    """Mean number of records at or below x equals the cumulative hazard."""
    x = 2.0
    n = 4000
    block = sample_ladder_block(TRANSIENT_EXAMPLE, replication_rng(22), n, keep_steps=True)
    counts = np.array([(values <= x).sum() for values, _, _ in block.steps], dtype=float)
    target = TRANSIENT_EXAMPLE.fitness_dist.hazard_transform(x)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - target) < 3.0 * se


def test_gaps_scale_with_survival_at_the_record():
    """Gap at a record near level v has conditional mean 1/(rate * survival(v))."""
    lo, hi = 1.0, 1.2
    block = sample_ladder_block(TRANSIENT_EXAMPLE, replication_rng(23), 4000, keep_steps=True)
    gaps = np.array([
        gap * TRANSIENT_EXAMPLE.fitness_dist.survival(value)
        for values, step_gaps, _ in block.steps
        for value, gap in zip(values.tolist(), step_gaps.tolist())
        if lo <= value <= hi
    ])
    res = stats.kstest(gaps, lambda x: 1.0 - np.exp(-x))
    assert res.pvalue > 0.001


def test_single_step_mass_worked_example():
    params = ModelParams(1.0, 3.0, Exponential(1.0), Exponential(2.0))
    with max_steps(1):
        ladder = sample_fitness_ladder(params, replication_rng(34, 0, 0))
    (step,) = ladder.steps
    mass = extinction_mass(ladder)
    expected = 3.0 * step.gap * math.exp(-2.0 * step.value)
    assert mass.per_step[0] == pytest.approx(expected, rel=1e-12)
    assert mass.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "fitness,threshold",
    [
        (Exponential(1.0), Exponential(1.5)),
        (Weibull(2.0, 1.0), Weibull(2.0, 0.8)),
        (Pareto(1.0, 1.0), Pareto(1.0, 1.5)),
        (
            TabulatedQuantile(((1.0, 0.0), (0.5, 0.7), (0.1, 2.0))),
            TabulatedQuantile(((1.0, 0.0), (0.4, 0.7), (0.05, 2.0))),
        ),
    ],
)
def test_hazard_space_steps_match_the_survival_form(fitness, threshold):
    """Each step's gap and mass agree with the survival-space formulas of the same ladder."""
    params = ModelParams(1.3, 0.7, fitness, threshold)
    for i in range(50):
        ladder = sample_fitness_ladder(params, replication_rng(35, i, 0))
        assert ladder.stop_reason == "tail_bound"
        for step in ladder.steps:
            s_fit = fitness.survival(step.value)
            if s_fit < 1e-250:
                break
            s_thr = threshold.survival(step.value)
            assert step.mass == pytest.approx(0.7 * step.gap * s_thr, rel=1e-9, abs=1e-300)


def test_mass_law_is_exponential(count_run):
    masses = count_run.aux["mass"]
    res = stats.kstest(masses, stats.expon.cdf)
    assert res.pvalue > 0.01


def test_count_mean_and_law(count_run):
    counts = count_run.samples
    assert count_run.summary.sentinel_count == 0
    se = count_run.summary.se
    assert abs(count_run.summary.mean - 1.0) < 3.0 * se
    report = gof_chi_square(
        counts,
        lambda k: stats.nbinom.pmf(k, 1.0, 0.5),
        lambda k: stats.nbinom.cdf(k, 1.0, 0.5),
    )
    assert report.p_value > 0.01


def test_paired_laplace_identity(count_run):
    """exp(-t * count) and exp(-(1 - e^-t) * mass) share their mean, pair by pair."""
    counts = count_run.samples
    masses = count_run.aux["mass"]
    for t in (0.5, 1.0, 2.0):
        shrink = -math.expm1(-t)
        diff = np.exp(-t * counts) - np.exp(-shrink * masses)
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 3.0 * se


def test_window_count_matches_pairwise_scan():
    for i in range(300):
        rng = replication_rng(26, i, 0)
        horizon = 1.0 + 25.0 * rng.random()
        stream = generate_stream(TRANSIENT_EXAMPLE, horizon, rng)
        assert count_extinctions_above_records(stream) == _pairwise_region_count(stream)


def test_threshold_ladder_structure():
    rng = replication_rng(27)
    gaps = sample_first_gaps(FINITE_EXAMPLE, rng, 3000)
    block = sample_ladder_block(FINITE_EXAMPLE.swapped(), rng, 3000, keep_steps=True)
    for values, _, _ in block.steps:
        assert values.tolist() == sorted(values.tolist())
    rate = FINITE_EXAMPLE.lambda_extinct
    res = stats.kstest(gaps, lambda x: 1.0 - np.exp(-rate * x))
    assert res.pvalue > 0.001


def test_threshold_records_follow_threshold_law():
    rng = replication_rng(28)
    sample_first_gaps(FINITE_EXAMPLE, rng, 4000)
    with max_steps(1):
        block = sample_ladder_block(FINITE_EXAMPLE.swapped(), rng, 4000, keep_steps=True)
    firsts = np.array([values[0] for values, _, _ in block.steps])
    rate = FINITE_EXAMPLE.threshold_dist.rate
    res = stats.kstest(firsts, lambda x: 1.0 - np.exp(-rate * x))
    assert res.pvalue > 0.001


def test_birth_mass_band_zero():
    with max_steps(1):
        ladder = sample_threshold_ladder(FINITE_EXAMPLE, replication_rng(36, 0, 0))
    (step,) = ladder.steps
    mass = birth_mass(ladder, FINITE_EXAMPLE)
    lam = FINITE_EXAMPLE.lambda_birth
    expected0 = lam * ladder.first_gap
    expected1 = lam * step.gap * FINITE_EXAMPLE.fitness_dist.survival(step.value)
    assert mass.per_step[0] == pytest.approx(expected0)
    assert mass.per_step[1] == pytest.approx(expected1, rel=1e-12)
    assert mass.value == pytest.approx(expected0 + expected1)


def test_populate_limit_config_handcrafted():
    band1 = 3.0 * FINITE_EXAMPLE.fitness_dist.survival(1.0)
    ladder = ThresholdLadder(
        steps=(LadderStep(value=1.0, gap=3.0, mass=band1),),
        truncated_at=1,
        tail_bound=None,
        stop_reason="max_steps",
        first_gap=2.0,
    )
    totals = []
    for i in range(3000):
        rng = replication_rng(29, i, 0)
        sample = populate_limit_config(ladder, FINITE_EXAMPLE, rng)
        assert sample.total == sample.n0 + sample.n_above == len(sample.species)
        totals.append(sample.total)
    totals = np.array(totals, dtype=float)
    mean_expected = 2.0 + band1
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    assert abs(totals.mean() - mean_expected) < 3.0 * se


def test_sample_limit_config_matches_decomposed_path():
    """The one-shot sampler and the ladder/populate pipeline share draws."""
    for i in range(50):
        rng_a = replication_rng(30, i, 0)
        sample_a = sample_limit_config(FINITE_EXAMPLE, rng_a)
        rng_b = replication_rng(30, i, 0)
        ladder = sample_threshold_ladder(FINITE_EXAMPLE, rng_b)
        assert not masses_effectively_infinite(ladder.stop_reason)
        sample_b = populate_limit_config(ladder, FINITE_EXAMPLE, rng_b)
        assert sample_a == sample_b


def test_limit_law_totals(limit_run):
    assert limit_run.summary.sentinel_count == 0
    report = gof_chi_square(
        limit_run.samples,
        lambda k: stats.nbinom.pmf(k, 2.0, 0.5),
        lambda k: stats.nbinom.cdf(k, 2.0, 0.5),
    )
    assert report.p_value > 0.01


def test_band_zero_count_is_geometric(limit_run):
    n0 = limit_run.aux["n0"]
    report = gof_chi_square(
        n0,
        lambda k: stats.nbinom.pmf(k, 1.0, 0.5),
        lambda k: stats.nbinom.cdf(k, 1.0, 0.5),
    )
    assert report.p_value > 0.01


def test_band_zero_mass_is_exponential(limit_run):
    sigma = limit_run.aux["band0_mass"]
    res = stats.kstest(sigma, stats.expon.cdf)
    assert res.pvalue > 0.01


def test_species_draws_lie_above_their_bands():
    rng = replication_rng(31, 0, 0)
    sample = sample_limit_config(FINITE_EXAMPLE, rng)
    assert sample.total == len(sample.species)
    assert all(v >= 0.0 for v in sample.species)
    assert sample.species == tuple(sorted(sample.species))


def test_divergent_regime_yields_sentinel():
    hits = 0
    for i in range(40):
        rng = replication_rng(32, i, 0)
        out = sample_limit_config(TRANSIENT_EXAMPLE, rng)
        if out == EFFECTIVELY_INFINITE:
            hits += 1
    assert hits == 40


def test_masses_effectively_infinite_rules():
    # only a ladder whose mass died out is finite
    assert not masses_effectively_infinite("tail_bound")
    assert masses_effectively_infinite("max_steps")
    assert masses_effectively_infinite("overflow")
    assert masses_effectively_infinite("divergent")
    # a ladder near the boundary dies out too slowly: it is cut at max_steps and reported infinite
    near = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.05))
    rng = replication_rng(37, 0, 0)
    with max_steps(90):
        ladder = sample_fitness_ladder(near, rng)
    assert ladder.stop_reason == "max_steps"
    assert sample_extinction_count(ladder, rng) == EFFECTIVELY_INFINITE


def test_band0_mass_past_the_float_range_gives_a_sentinel_configuration():
    """A look-back gap at extinction rate 1e-310 is inf: the band-0 mass is past the float range, as in run."""
    params = ModelParams(1.0, 1e-310, Exponential(2.0), Exponential(1.0))
    assert sample_limit_config(params, replication_rng(1)) == EFFECTIVELY_INFINITE


DIVERGENT_PAIRS = {  # each pair's marks are not finite; a walked ladder could meet its secant bound falsely
    "exp/Pareto": ModelParams(1.0, 1.0, Exponential(1.0), Pareto(1.0, 30.0)),
    "Weibull/Weibull": ModelParams(1.0, 1.0, Weibull(1.0, 1.0), Weibull(0.9, 0.2)),
    "exp/Weibull": ModelParams(1.0, 1.0, Exponential(1.0), Weibull(0.5, 0.01)),
}


def test_the_criteria_and_the_walk_share_one_pair_of_kinks(monkeypatch):
    """The one-row fronts and the ladder walk of one ModelParams take each law's kink levels once, through params.marks."""
    calls = []
    kink_levels = Weibull.kink_levels

    def counting(dist):
        calls.append(dist)
        return kink_levels(dist)

    monkeypatch.setattr(Weibull, "kink_levels", counting)
    params = ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.5))
    expected_extinction_count(params)
    laplace_extinction_count(params, 1.0)
    sample_ladder_block(params, replication_rng(5), 4)
    assert sorted(map(id, calls)) == sorted([id(params.fitness_dist), id(params.threshold_dist)])


@pytest.mark.parametrize("case", DIVERGENT_PAIRS)
def test_every_sampler_reports_a_divergent_pair_as_divergent(case):
    """No public sampler returns a finite mass or configuration for a pair whose mass diverges."""
    params = DIVERGENT_PAIRS[case]
    assert not params.marks.finite
    block = sample_ladder_block(params, replication_rng(5), 2000)
    assert set(block.stop_reason) == {"divergent"} and not block.depth.any()
    for i in range(20):
        for ladder in (
            sample_fitness_ladder(params, replication_rng(5, i, 0)),
            sample_threshold_ladder(params.swapped(), replication_rng(5, i, 0)),
        ):
            assert (ladder.stop_reason, ladder.truncated_at) == ("divergent", 0)
        assert sample_limit_config(params.swapped(), replication_rng(5, i, 0)) == EFFECTIVELY_INFINITE


def test_huge_ladder_mass_still_gives_a_count():
    """A one-ladder count whose mass is past numpy's Poisson limit (about 1e19) takes the normal draw."""
    huge = ModelParams(1.0, 1e25, Exponential(1.0), Exponential(2.0))
    ladder = sample_fitness_ladder(huge, replication_rng(1))
    assert ladder.stop_reason == "tail_bound"
    assert max(s.mass for s in ladder.steps) > 1e19
    mass = extinction_mass(ladder).value
    count = sample_extinction_count(ladder, replication_rng(2))
    assert isinstance(count, int) and abs(count - mass) <= 1e-6 * mass


def test_huge_band_mass_is_refused_by_name():
    """A limit configuration with a band mass past 1e18 would need that many single draws."""
    huge = ModelParams(1e25, 1.0, Exponential(2.0), Exponential(1.0))
    with pytest.raises(LadderError, match=r"band 0 has birth mass [\d.]+e\+24"):
        sample_limit_config(huge, replication_rng(1))


def test_configuration_past_the_species_budget_is_refused_at_once():
    """A band-0 mass near 4.6e14 is under POISSON_NORMAL_FROM, so only the species budget stops its draws."""
    probe = ModelParams(5.1e-197, 1.1e-211, Weibull(0.124, 1.4e17), Pareto(2.96e66, 0.61))
    with pytest.raises(LadderError, match=r"has \d+ species, past the species budget of 16777216"):
        sample_limit_config(probe, replication_rng(0))


def test_species_budget_admits_exactly_its_count():
    """A configuration of exactly MAX_SPECIES species is drawn as before; one more is refused by its count."""
    sample = sample_limit_config(FINITE_EXAMPLE, replication_rng(33))
    assert sample.total > 0
    with mock.patch.object(ladders, "MAX_SPECIES", sample.total):
        assert sample_limit_config(FINITE_EXAMPLE, replication_rng(33)) == sample
    with mock.patch.object(ladders, "MAX_SPECIES", sample.total - 1):
        with pytest.raises(LadderError, match=rf"has {sample.total} species"):
            sample_limit_config(FINITE_EXAMPLE, replication_rng(33))


def test_pareto_levels_overflow_into_a_sentinel():
    """Pareto levels e^(h/index) overflow near h = 709 * index, before a slowly dying mass meets its bound."""
    near = ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Pareto(1.0, 1.02))
    ladder = sample_fitness_ladder(near, replication_rng(38, 0, 0))
    assert ladder.stop_reason == "overflow"
    assert 600 < len(ladder.steps) < 820
    assert all(math.isfinite(s.value) for s in ladder.steps)


@settings(max_examples=150, deadline=None)
@given(lam=st.floats(0.1, 5.0), idx=st.integers(0, 10_000))
def test_extinction_mass_matches_direct_sum(lam, idx):
    params = ModelParams(1.0, lam, Exponential(1.0), Exponential(2.0))
    ladder = sample_fitness_ladder(params, replication_rng(39, idx, 0))
    mass = extinction_mass(ladder)
    direct = [lam * s.gap * math.exp(-2.0 * s.value) for s in ladder.steps]
    assert list(mass.per_step) == pytest.approx(direct, rel=1e-12)
    assert mass.value == pytest.approx(math.fsum(direct), rel=1e-12)


class FixedDraws:
    """Generator stand-in for a one-row block: serves fixed hazard increments, then gap factors, each chunk."""

    def __init__(self, increments, gap_factors):
        self.queues = [list(increments), list(gap_factors)]
        self.calls = 0

    def standard_exponential(self, *, out):
        rows, c = out.shape
        queue = self.queues[self.calls % 2]  # increments on a chunk's first call, gap factors on its second
        assert rows == 1 and c <= len(queue)
        out[0], queue[:] = queue[:c], queue[c:]
        self.calls += 1


def reference_ladder(params, increments, gap_factors):
    """The stop rules one step at a time, in their order: (step masses, stop reason).

    With d = h - C(h) and C(h) = H_opp(H_fit^-1(h)), the tail bound at step
    k is ratio * e^(d_k) * E_k / (d_{k-1} - d_k), taken only where the step
    starts at or past the last kink of C and d falls.  Reads the rule's
    constants at call time, so a patched MAX_STEPS applies here too.
    """
    mark, opp = params.fitness_dist, params.threshold_dist
    ratio = params.lambda_extinct / params.lambda_birth
    h_kink = max(params.marks.breaks, default=0.0)
    masses, h, d = [], 0.0, -opp.hazard_transform(mark.inverse_hazard(0.0))
    for e, g in zip(increments, gap_factors):
        h_prev, d_prev, h = h, d, h + e
        level = mark.inverse_hazard(h)
        if math.isinf(level):
            return masses, "overflow"
        d = h - opp.hazard_transform(level)
        try:  # ratio * g * e^d, inf only where the product itself overflows
            masses.append(math.exp(math.log(ratio * g) + d))
        except OverflowError:
            masses.append(math.inf)
        if math.isinf(masses[-1]):
            return masses, "overflow"
        if h_prev >= h_kink and d < d_prev:
            bound = 0.0 if d == -math.inf else ratio * math.exp(d) * e / (d_prev - d)
            if bound < ladders.TAIL_TOLERANCE:
                return masses, "tail_bound"
        if len(masses) >= ladders.MAX_STEPS:
            return masses, "max_steps"


# exp(1) fitness against a threshold law with kinks at fitness hazards 1,
# 48 and 53, nearly flat from 1 to 48: most of its mass lies past h = 48.
PROBE = ModelParams(
    1.0,
    1.0,
    Exponential(1.0),
    TabulatedQuantile(((1.0, 0.0), (1e-22, 1.0), (1e-22 * (1.0 - 1e-9), 48.0), (1e-22 * math.exp(-10.0), 53.0))),
)

PARITY_CASES = {  # name: (params, MAX_STEPS, stop reason)
    "tail_bound": (ModelParams(1.3, 0.7, Exponential(1.0), Exponential(2.0)), ladders.MAX_STEPS, "tail_bound"),
    "tail_bound, equal-shape Weibull": (
        ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.8)), ladders.MAX_STEPS, "tail_bound"
    ),
    "tail_bound, Weibull(1.5)/Weibull(2.4)": (
        ModelParams(1.0, 1.0, Weibull(1.5, 1.0), Weibull(2.4, 1.0)), ladders.MAX_STEPS, "tail_bound"
    ),
    "tail_bound, Pareto/exp": (ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Exponential(1.0)), ladders.MAX_STEPS, "tail_bound"),
    "tail_bound, tabulated past its last kink": (PROBE, ladders.MAX_STEPS, "tail_bound"),
    "max_steps": (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.05)), 150, "max_steps"),
    "overflow at the record": (
        ModelParams(1.0, 1.0, Pareto(1.0, 0.05), Pareto(1.0, 0.06)), ladders.MAX_STEPS, "overflow"
    ),
    "overflow of the mass": (
        ModelParams(1e-300, 1e300, Exponential(1.0), Exponential(2.0)), ladders.MAX_STEPS, "overflow"
    ),
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_block_of_one_matches_the_step_loop(case):
    """Fed fixed draws, a one-row block stops where the step loop stops, with the same masses."""
    params, steps, stop = PARITY_CASES[case]
    for seed in range(10):
        draws = np.random.default_rng(seed).standard_exponential((2, 4000))
        with max_steps(steps):
            want, reason = reference_ladder(params, *draws)
            block = sample_ladder_block(params, FixedDraws(*draws), 1, keep_steps=True)
        assert reason == stop
        assert block.stop_reason[0] == reason
        assert block.depth[0] == len(want)
        np.testing.assert_allclose(block.steps[0][2], want, rtol=1e-12, atol=0.0)
        with np.errstate(over="ignore"):
            assert block.mass[0] == pytest.approx(np.sum(want), rel=1e-12)
        if params is PROBE:  # no step before the last kink, fitness hazard 53, meets the bound
            assert len(want) > 40


@pytest.mark.parametrize(
    "params,increments,gap_factor,depth,reason",
    [
        # Step 20 overflows its record (h = 39 > 709.8 * 0.05), meets the
        # tail bound (e^-39 < 1e-9 for C(h) = 2h) and is the MAX_STEPS-th.
        (ModelParams(1.0, 1.0, Pareto(1.0, 0.05), Pareto(1.0, 0.1)), [1.0] * 19 + [20.0], 1.0, 19, "overflow"),
        # Step 20 meets the tail bound (e^-21 < 1e-9 at h = 21) and is the MAX_STEPS-th.
        (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0)), [1.05] * 20, 1e-30, 20, "tail_bound"),
    ],
)
def test_stop_tests_firing_at_one_step_keep_their_order(params, increments, gap_factor, depth, reason):
    draws = (increments + [1.0] * 100, [gap_factor] * 120)
    with max_steps(20):
        assert reference_ladder(params, *draws)[1] == reason
        block = sample_ladder_block(params, FixedDraws(*draws), 1)
    assert (block.depth[0], block.stop_reason[0]) == (depth, reason)
    with max_steps(19):  # one step earlier, no test but the cut fires
        assert sample_ladder_block(params, FixedDraws(*draws), 1).stop_reason[0] == "max_steps"


class WidthLog:
    """A generator that records the chunk width of each ladder draw it serves."""

    def __init__(self, rng):
        self.rng, self.widths = rng, []

    def standard_exponential(self, *, out):
        self.widths.append(out.shape[1])
        return self.rng.standard_exponential(out=out)

    def exponential(self, *args):
        return self.rng.exponential(*args)


def walk_side(params, rngs, rows, threshold, keep_steps=False):
    """(look-back gaps, block): threshold ladders are each generator's gaps, then the walk of params.swapped()."""
    if not threshold:
        return None, sample_ladder_blocks(params, rngs, rows, keep_steps)
    gaps = np.concatenate([sample_first_gaps(params, rng, rows) for rng in rngs])
    return gaps, sample_ladder_blocks(params.swapped(), rngs, rows, keep_steps)


GROUP_CASES = {
    "tail_bound": (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0)), False, None),
    "tail_bound, threshold side": (ModelParams(1.0, 1.0, Exponential(2.0), Exponential(1.0)), True, None),
    "tail_bound, Weibull": (ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 1.05 ** -0.5)), False, None),
    "tail_bound, Pareto": (ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Pareto(1.0, 1.05)), False, None),
    "overflow": (ModelParams(1.0, 1.0, Pareto(1.0, 0.01), Pareto(1.0, 0.0105)), False, None),
    "max_steps": (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.05)), False, 90),
}


@pytest.mark.parametrize("case", GROUP_CASES)
def test_blocks_walked_together_match_each_block_walked_alone(case):
    """Every block of a group walk is its one-block walk, bit for bit, steps included."""
    params, threshold, steps = GROUP_CASES[case]
    rows, blocks = 96, 5
    with max_steps(steps or ladders.MAX_STEPS):
        logs = [WidthLog(replication_rng(31, b, 1)) for b in range(blocks)]
        gaps, together = walk_side(params, logs, rows, threshold, keep_steps=True)
        lean_gaps, lean = walk_side(params, [replication_rng(31, b, 1) for b in range(blocks)], rows, threshold)
        alone_gaps, alone = zip(*(
            walk_side(params, [replication_rng(31, b, 1)], rows, threshold, keep_steps=True) for b in range(blocks)
        ))
    assert case.split(",")[0] in set(together.stop_reason)
    assert together.finite.tolist() == [reason == "tail_bound" for reason in together.stop_reason.tolist()]
    for field in ("depth", "stop_reason", "mass", "tail"):
        want = np.concatenate([getattr(block, field) for block in alone]).tobytes()
        assert getattr(together, field).tobytes() == want and getattr(lean, field).tobytes() == want
    if threshold:
        want = np.concatenate(alone_gaps).tobytes()
        assert gaps.tobytes() == want and lean_gaps.tobytes() == want
    assert lean.steps is None
    for b, block in enumerate(alone):
        for row in range(rows):
            for mine, theirs in zip(together.steps[b * rows + row], block.steps[row]):
                assert mine.tobytes() == theirs.tobytes()
    # In round k every block that draws takes c_k = min(FIRST_CHUNK * 2^k, CHUNK_CELLS // rows, steps left),
    # in two draws of that width: the hazard increments, then the gap factors.
    assert all(log.widths[::2] == log.widths[1::2] for log in logs)
    widths = [log.widths[::2] for log in logs]
    schedule, walked, cap = [], 0, ladders.CHUNK_CELLS // rows
    for k in range(max(map(len, widths))):
        schedule.append(min(ladders.FIRST_CHUNK * 2**k, cap, (steps or ladders.MAX_STEPS) - walked))
        walked += schedule[-1]
    assert all(w == schedule[: len(w)] for w in widths)
    if steps:  # ladders cut at MAX_STEPS end on the steps left
        assert walked == steps
    if case == "tail_bound, Weibull":  # deep ladders reach the width cap
        assert cap in schedule


def test_two_draws_into_views_are_the_stream_of_one_stacked_draw():
    """The walk's draw contract: increments, then gap factors, each written into an (n, c) view, are one (2, n, c) draw."""
    for n, c in ((1, 32), (128, 64), (96, 85)):
        want = replication_rng(4242, 3, 1)
        stacked = want.standard_exponential((2, n, c))
        rng = replication_rng(4242, 3, 1)
        hs, g = np.empty((n + 3, c)), np.empty((n + 3, c))
        rng.standard_exponential(out=hs[2 : n + 2])
        rng.standard_exponential(out=g[2 : n + 2])
        assert hs[2 : n + 2].tobytes() == stacked[0].tobytes() and g[2 : n + 2].tobytes() == stacked[1].tobytes()
        assert rng.standard_exponential(7).tobytes() == want.standard_exponential(7).tobytes()


def run_bytes(result):
    return [result.samples.tobytes()] + [np.asarray(result.aux[k]).tobytes() for k in sorted(result.aux)]


def test_walks_on_two_threads_match_serial_walks():
    """Each thread walks in its own kept workspace: concurrent walks give the serial bytes, kept steps included."""
    plans = [
        ReplicationPlan(task=TASK_EXTINCTION_COUNT, params=TRANSIENT_EXAMPLE, replications=2000, base_seed=8),
        ReplicationPlan(task=TASK_LIMIT_CONFIG, params=TRANSIENT_EXAMPLE.swapped(), replications=2000, base_seed=9),
    ]
    deep = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.05))  # about 500 steps: many chunks per row
    rows = 48

    def walk(b):
        return sample_ladder_blocks(deep, [replication_rng(61, b, 1), replication_rng(61, b + 1, 1)], rows, keep_steps=True)

    def work(i):
        return [run_bytes(run(plans[i])) for _ in range(3)], walk(2 * i)

    serial = [run_bytes(run(plan)) for plan in plans]
    with ThreadPoolExecutor(2) as pool:
        together = list(pool.map(work, range(2)))
    for i, (runs, block) in enumerate(together):
        assert all(got == serial[i] for got in runs)
        alone = [sample_ladder_block(deep, replication_rng(61, b, 1), rows, keep_steps=True) for b in (2 * i, 2 * i + 1)]
        assert block.depth.tobytes() == np.concatenate([a.depth for a in alone]).tobytes()
        # FIRST_CHUNK * (1 + 2) steps fill two chunks: deeper rows kept steps from at least three.
        assert (block.depth > 3 * ladders.FIRST_CHUNK).sum() > rows
        for r in range(2 * rows):
            for mine, theirs in zip(block.steps[r], alone[r // rows].steps[r % rows]):
                assert mine.tobytes() == theirs.tobytes()


def test_a_chunk_past_the_kept_workspace_gets_arrays_of_its_own():
    """More blocks than LADDER_GROUP walk chunks past the workspace's cap: still each block's own walk, cap kept."""
    deep = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.05))
    blocks = ladders.LADDER_GROUP + 2  # the 64-step chunks of 10 blocks of 128 rows hold 81 920 cells
    together = sample_ladder_blocks(deep, [replication_rng(5, b, 1) for b in range(blocks)], 128)
    alone = [sample_ladder_block(deep, replication_rng(5, b, 1), 128) for b in range(blocks)]
    for field in ("depth", "stop_code", "mass", "tail"):
        assert getattr(together, field).tobytes() == np.concatenate([getattr(a, field) for a in alone]).tobytes()
    assert ladders._workspace.arrays.shape[1] <= ladders.LADDER_GROUP * ladders.CHUNK_CELLS


def test_a_warm_count_run_takes_no_fresh_pages():
    """The walk keeps its chunk arrays between runs, so a second 4000-replication run faults in almost no page."""
    script = "\n".join([
        "import resource",
        "from threshold_gms.distributions import Exponential, ModelParams",
        "from threshold_gms.montecarlo import ReplicationPlan, run",
        "params = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0))",
        "plan = ReplicationPlan(task='extinction_count', params=params, replications=4000, base_seed=4242)",
        "run(plan)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "run(plan)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert int(done.stdout) < 128


TABULATED_FIT = TabulatedQuantile(tuple((math.exp(-x), x) for x in (0.0, 0.5, 1.0, 2.0)))
TABULATED_THR = TabulatedQuantile(tuple((math.exp(-1.05 * x), x) for x in (0.0, 0.5, 1.0, 2.0)))


@pytest.mark.parametrize(
    "fitness,threshold,seed",
    [
        (Exponential(1.0), Exponential(1.05), 41),
        (Weibull(2.0, 1.0), Weibull(2.0, 1.05 ** -0.5), 42),
        (Pareto(1.0, 1.0), Pareto(1.0, 1.05), 43),
        # Exact at the nodes and in the log-linear tail; the interior
        # interpolation moves the mean mass by about 0.01, far below 0.1 (one se).
        (TABULATED_FIT, TABULATED_THR, 44),
    ],
)
def test_block_ladders_follow_the_near_boundary_law(fitness, threshold, seed):
    """H_thr = 1.05 H_fit in every family: counts NegBin(20, 1/2), masses Gamma(20, 1).

    At one seed all four families walk the same hazard-space ladders, so
    each family gets its own seed and the four samples are independent.
    """
    params = ModelParams(1.0, 1.0, fitness, threshold)
    result = run(ReplicationPlan(task=TASK_EXTINCTION_COUNT, params=params, replications=2048, base_seed=seed))
    assert result.summary.sentinel_count == 0
    counts = gof_chi_square(
        result.samples, lambda k: stats.nbinom.pmf(k, 20, 0.5), lambda k: stats.nbinom.cdf(k, 20, 0.5)
    )
    masses = gof_ks(result.aux["mass"], stats.gamma(20.0).cdf)
    assert counts.p_value > 0.001 and masses.p_value > 0.001


def test_kinked_tabulated_ladder_mean_matches_the_quadrature():
    """e_m of the kinked pair is 2.78785 (scipy quad split at the kinks: 0.71828 + 0.07017 + 1.99893 + 0.00047)."""
    result = run(ReplicationPlan(task=TASK_EXTINCTION_COUNT, params=PROBE, replications=20_000, base_seed=7))
    assert ladder_diagnostics(result)["stop_reasons"] == {"tail_bound": 20_000}
    summary = result.summary
    assert abs(summary.mean - 2.78785) < 3.0 * summary.se


def test_tabulated_fitness_against_a_pareto_threshold_walks_no_ladder(monkeypatch):
    """An exponential tail against a Pareto tail: C is concave, the mass diverges, every row is a sentinel.

    Walked, such a ladder could meet the secant bound falsely; the exact
    tail exponent screens the plan before any walk.
    """

    def no_walk(*args, **kwargs):
        raise AssertionError("a divergent plan walked a ladder")

    monkeypatch.setattr(ladders, "_walk_blocks", no_walk)
    params = ModelParams(1.0, 1.0, TABULATED_FIT, Pareto(1.0, 3.0))
    result = run(ReplicationPlan(task=TASK_EXTINCTION_COUNT, params=params, replications=50, base_seed=5))
    assert np.all(np.isinf(result.samples)) and np.all(np.isinf(result.aux["mass"]))
    assert ladder_diagnostics(result)["stop_reasons"] == {"divergent": 50}


FINITE_PAIRS = {
    "equal-shape Weibull": ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.8)),
    "Weibull(1.5)/Weibull(2.4)": ModelParams(1.0, 1.0, Weibull(1.5, 1.0), Weibull(2.4, 1.0)),
    "Pareto/Pareto": ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Pareto(1.0, 1.5)),
    "Pareto/exp": ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Exponential(1.0)),
    "Pareto/Weibull": ModelParams(1.0, 1.0, Pareto(2.0, 1.0), Weibull(0.5, 1.0)),
}


@pytest.mark.parametrize("case", FINITE_PAIRS)
def test_non_exponential_ladders_stop_by_the_tail_bound(case):
    """Every row of a finite parametric pair is certified, and the count mean is classify's e_m.

    All pairs share one seed, so they walk the same hazard-space draws
    and their deviations from e_m are correlated.
    """
    params = FINITE_PAIRS[case]
    result = run(ReplicationPlan(task=TASK_EXTINCTION_COUNT, params=params, replications=20_000, base_seed=23))
    diagnostics = ladder_diagnostics(result)
    assert diagnostics["stop_reasons"] == {"tail_bound": 20_000}
    assert 0.0 < diagnostics["tail_bound_max"] <= ladders.TAIL_TOLERANCE
    summary = result.summary
    assert abs(summary.mean - classify(params).integrals.e_m) < 3.0 * summary.se


extreme_marks = st.one_of(
    st.builds(Exponential, st.sampled_from([1e-300, 1e-12, 1.0, 1e12, 1e300])),
    st.builds(Pareto, st.floats(0.5, 2.0), st.floats(1e-6, 0.05)),
    st.builds(Weibull, st.floats(10.0, 200.0), st.floats(0.1, 10.0)),
    st.builds(
        lambda a, b: TabulatedQuantile(((1.0, 0.0), (0.5, a), (1e-200, a + b))),
        st.floats(0.1, 3.0),
        st.floats(1e-6, 1e-2),
    ),
)
extreme_rates = st.sampled_from([1e-300, 1e-9, 1.0, 1e9, 1e300])


@settings(max_examples=60, deadline=5000)
@given(
    fitness=extreme_marks,
    threshold=extreme_marks,
    lam_b=extreme_rates,
    lam_e=extreme_rates,
    backward=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_block_sampler_at_extreme_parameters(fitness, threshold, lam_b, lam_e, backward, seed):
    """No hang, no NaN let through, no finite row of a divergent pair, byte-identical reruns."""
    params = ModelParams(lam_b, lam_e, fitness, threshold)
    if backward:
        params = params.swapped()
    with max_steps(2000):
        a, b = (sample_ladder_block(params, replication_rng(seed, 0, 0), 8) for _ in range(2))
    assert not np.isnan(a.mass).any() and np.all(a.mass >= 0.0)
    assert np.all((a.depth >= 0) & (a.depth <= 2000))
    assert set(a.stop_reason) <= set(STOP_REASONS)
    assert np.all(a.mass[a.finite] < math.inf)
    if not params.marks.finite:
        assert not a.finite.any()
    for field in ("depth", "stop_reason", "mass", "tail"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
