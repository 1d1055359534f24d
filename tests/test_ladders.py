import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from threshold_gms import ladders
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
    sample_fitness_ladder,
    sample_ladder_block,
    sample_limit_config,
    sample_threshold_ladder,
)
from threshold_gms.montecarlo import TASK_EXTINCTION_COUNT, ReplicationPlan, gof_chi_square, gof_ks, run
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
        assert ladder.stop_reason in ("tail_bound", "quiet")
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
        stream = generate_stream(TRANSIENT_EXAMPLE, 0.0, horizon, rng)
        assert count_extinctions_above_records(stream) == _pairwise_region_count(stream)


def test_threshold_ladder_structure():
    block = sample_ladder_block(FINITE_EXAMPLE, replication_rng(27), 3000, threshold=True, keep_steps=True)
    for values, _, _ in block.steps:
        assert values.tolist() == sorted(values.tolist())
    rate = FINITE_EXAMPLE.lambda_extinct
    res = stats.kstest(block.first_gap, lambda x: 1.0 - np.exp(-rate * x))
    assert res.pvalue > 0.001


def test_threshold_records_follow_threshold_law():
    with max_steps(1):
        block = sample_ladder_block(FINITE_EXAMPLE, replication_rng(28), 4000, threshold=True, keep_steps=True)
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
    assert not masses_effectively_infinite("quiet")
    assert masses_effectively_infinite("max_steps")
    assert masses_effectively_infinite("overflow")
    # a boundary ladder never dies out: it is cut at max_steps and reported infinite
    boundary = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.0))
    rng = replication_rng(37, 0, 0)
    with max_steps(2000):
        ladder = sample_fitness_ladder(boundary, rng)
    assert ladder.stop_reason == "max_steps"
    assert sample_extinction_count(ladder, rng) == EFFECTIVELY_INFINITE


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


def test_pareto_levels_overflow_into_a_sentinel():
    """Pareto levels e^(h/index) overflow near h = 709 * index, before a slowly dying mass is quiet."""
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
    """Generator stand-in for a one-row block: serves fixed hazard increments and gap factors."""

    def __init__(self, increments, gap_factors):
        self.e, self.g = list(increments), list(gap_factors)

    def standard_exponential(self, size):
        _, rows, c = size
        assert rows == 1 and c <= len(self.e)
        e, self.e = self.e[:c], self.e[c:]
        g, self.g = self.g[:c], self.g[c:]
        return np.array([[e], [g]])


def reference_ladder(params, increments, gap_factors):
    """The stop rules one step at a time, in their order: (step masses, stop reason).

    Reads the rule's constants at call time, so a patched MAX_STEPS applies here too.
    """
    tolerance, window = ladders.TAIL_TOLERANCE, ladders.QUIET_WINDOW
    mark, opp = params.fitness_dist, params.threshold_dist
    ratio = params.lambda_extinct / params.lambda_birth
    exponential = isinstance(mark, Exponential) and isinstance(opp, Exponential) and opp.rate > mark.rate
    masses, h, quiet = [], 0.0, 0
    for e, g in zip(increments, gap_factors):
        h += e
        level = mark.inverse_hazard(h)
        if math.isinf(level):
            return masses, "overflow"
        try:  # ratio * g * e^(h - H_opp), inf only where the product itself overflows
            masses.append(math.exp(math.log(ratio * g) + h - opp.hazard_transform(level)))
        except OverflowError:
            masses.append(math.inf)
        if math.isinf(masses[-1]):
            return masses, "overflow"
        if exponential and ratio * mark.rate / (opp.rate - mark.rate) * math.exp(
            -(opp.rate - mark.rate) * level
        ) < tolerance:
            return masses, "tail_bound"
        quiet = quiet + 1 if masses[-1] < tolerance / window else 0
        if quiet >= window:
            return masses, "quiet"
        if len(masses) >= ladders.MAX_STEPS:
            return masses, "max_steps"


PARITY_CASES = {
    "tail_bound": (ModelParams(1.3, 0.7, Exponential(1.0), Exponential(2.0)), ladders.MAX_STEPS),
    "quiet": (ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.8)), ladders.MAX_STEPS),
    "max_steps": (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(1.05)), 150),
    "overflow at the record": (ModelParams(1.0, 1.0, Pareto(1.0, 0.05), Pareto(1.0, 0.06)), ladders.MAX_STEPS),
    "overflow of the mass": (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(0.5)), ladders.MAX_STEPS),
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_block_of_one_matches_the_step_loop(case):
    """Fed fixed draws, a one-row block stops where the step loop stops, with the same masses."""
    params, steps = PARITY_CASES[case]
    for seed in range(10):
        draws = np.random.default_rng(seed).standard_exponential((2, 4000))
        with max_steps(steps):
            want, reason = reference_ladder(params, *draws)
            block = sample_ladder_block(params, FixedDraws(*draws), 1, keep_steps=True)
        assert reason == case.split()[0]
        assert block.stop_reason[0] == reason
        assert block.depth[0] == len(want)
        np.testing.assert_allclose(block.steps[0][2], want, rtol=1e-12, atol=0.0)
        with np.errstate(over="ignore"):
            assert block.mass[0] == pytest.approx(np.sum(want), rel=1e-12)


@pytest.mark.parametrize(
    "params,increments,gap_factor,depth,reason",
    [
        # Step 20 both overflows its record (h = 39 > 709.8 * 0.05) and ends a quiet run of 20.
        (ModelParams(1.0, 1.0, Pareto(1.0, 0.05), Pareto(1.0, 5.0)), [1.0] * 19 + [20.0], 1.0, 19, "overflow"),
        # Step 20 both passes the tail level (h = 21 > 20.7) and ends a quiet run of tiny masses.
        (ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0)), [1.05] * 20, 1e-30, 20, "tail_bound"),
    ],
)
def test_stop_tests_firing_at_one_step_keep_their_order(params, increments, gap_factor, depth, reason):
    draws = (increments + [1.0] * 100, [gap_factor] * 120)
    assert reference_ladder(params, *draws)[1] == reason
    block = sample_ladder_block(params, FixedDraws(*draws), 1)
    assert (block.depth[0], block.stop_reason[0]) == (depth, reason)


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
    """No hang, no NaN let through, byte-identical reruns."""
    params = ModelParams(lam_b, lam_e, fitness, threshold)
    with max_steps(2000):
        a, b = (sample_ladder_block(params, replication_rng(seed, 0, 0), 8, threshold=backward) for _ in range(2))
    assert not np.isnan(a.mass).any() and np.all(a.mass >= 0.0)
    assert np.all((a.depth >= 0) & (a.depth <= 2000))
    assert set(a.stop_reason) <= set(STOP_REASONS)
    assert np.all(a.mass[a.finite] < math.inf)
    for field in ("depth", "stop_reason", "mass", "tail", "first_gap"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None and y is None) or x.tobytes() == y.tobytes()
