import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import threshold_gms.montecarlo as montecarlo
from threshold_gms import ladders
from threshold_gms.distributions import Exponential, ModelParams, TabulatedQuantile, Weibull
from threshold_gms.ladders import _poisson, sample_first_gaps, sample_ladder_block
from threshold_gms.montecarlo import (
    BLOCK,
    LADDER_GROUP,
    TASK_EMPTY_SCAN,
    TASK_EXTINCTION_COUNT,
    TASK_FORWARD_COUNT,
    TASK_LIMIT_CONFIG,
    MonteCarloError,
    ReplicationPlan,
    compare_forward_vs_limit,
    gof_chi_square,
    gof_ks,
    gof_two_sample_counts,
    run,
    summarize,
)
from threshold_gms.process import ProcessError
from threshold_gms.streams import check_seed, replication_rng
from threshold_gms.validation import FINITE_EXAMPLE, TRANSIENT_EXAMPLE


def count_plan(replications, seed=99, **kwargs):
    return ReplicationPlan(
        task=TASK_EXTINCTION_COUNT,
        params=TRANSIENT_EXAMPLE,
        replications=replications,
        base_seed=seed,
        **kwargs,
    )


def test_summarize_separates_sentinels():
    s = summarize(np.array([1.0, 2.0, 3.0, math.inf]))
    assert s.n == 4
    assert s.sentinel_count == 1
    assert s.sentinel_fraction == pytest.approx(0.25)
    assert s.mean == pytest.approx(2.0)
    assert s.variance == pytest.approx(1.0)
    assert s.se == pytest.approx(1.0 / math.sqrt(3.0))


def test_summarize_single_sample_has_no_spread():
    s = summarize(np.array([5.0]))
    assert s.mean == 5.0
    assert math.isnan(s.variance)
    assert math.isnan(s.se)


def test_summarize_all_sentinels():
    s = summarize(np.array([math.inf, math.inf]))
    assert s.mean == math.inf
    assert s.sentinel_fraction == 1.0
    assert s.to_json()["mean"] == "inf"


def test_plans_record_the_stop_rule_they_ran_under():
    assert count_plan(10).to_json()["stop"] == {"max_steps": 10_000, "tail_tolerance": 1e-9}
    with mock.patch.object(ladders, "MAX_STEPS", 300):
        assert count_plan(10).to_json()["stop"]["max_steps"] == 300


def test_plan_validation():
    with pytest.raises(MonteCarloError):
        ReplicationPlan(task="bogus", params=TRANSIENT_EXAMPLE, replications=1, base_seed=0)
    with pytest.raises(MonteCarloError):
        count_plan(0)
    with pytest.raises(MonteCarloError):
        count_plan(5, seed=-1)
    # Bools and floats are not integers; a NaN window is the plan's own error, not DistributionError.
    with pytest.raises(MonteCarloError, match="^replications must be an integer, got True$"):
        ReplicationPlan(TASK_EXTINCTION_COUNT, TRANSIENT_EXAMPLE, True, True)
    with pytest.raises(MonteCarloError, match="^base_seed must be an integer, got 2.0$"):
        ReplicationPlan(TASK_EXTINCTION_COUNT, TRANSIENT_EXAMPLE, 5, 2.0)
    with pytest.raises(MonteCarloError, match="^t must not be NaN$"):
        ReplicationPlan(TASK_FORWARD_COUNT, TRANSIENT_EXAMPLE, 5, 1, t=math.nan)
    with pytest.raises(MonteCarloError, match="^horizon must be a real number"):
        ReplicationPlan(TASK_EMPTY_SCAN, TRANSIENT_EXAMPLE, 5, 1, horizon="5")
    assert count_plan(np.int64(5)).replications == 5
    # A window is stored as the float it was checked as, so every spelling writes one plan.
    want = json.dumps(ReplicationPlan(TASK_FORWARD_COUNT, TRANSIENT_EXAMPLE, 5, 1, t=50.0).to_json())
    for t in (np.float32(50.0), 50):
        plan = ReplicationPlan(TASK_FORWARD_COUNT, TRANSIENT_EXAMPLE, 5, 1, t=t)
        assert type(plan.t) is float and json.dumps(plan.to_json()) == want
    plan = ReplicationPlan(TASK_EMPTY_SCAN, TRANSIENT_EXAMPLE, 5, 1, horizon=np.float32(5.0))
    assert type(plan.horizon) is float and json.loads(json.dumps(plan.to_json()))["horizon"] == 5.0
    with pytest.raises(MonteCarloError):
        ReplicationPlan(
            task=TASK_FORWARD_COUNT, params=TRANSIENT_EXAMPLE, replications=1, base_seed=0
        )
    with pytest.raises(MonteCarloError):
        ReplicationPlan(
            task=TASK_EMPTY_SCAN,
            params=TRANSIENT_EXAMPLE,
            replications=1,
            base_seed=0,
            horizon=math.inf,
        )


def test_run_is_deterministic():
    a = run(count_plan(300))
    b = run(count_plan(300))
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.aux["mass"], b.aux["mass"])


def test_empty_scan_stays_inside_window():
    quiet = ModelParams(0.02, 5.0, Exponential(1.0), Exponential(1.0))
    res = run(
        ReplicationPlan(
            task=TASK_EMPTY_SCAN, params=quiet, replications=60, base_seed=3, horizon=5.0
        )
    )
    finite = res.samples[np.isfinite(res.samples)]
    assert finite.size == 60
    assert np.all((finite >= 0.0) & (finite <= 5.0))
    # births are rare and extinctions frequent, so the window ends empty
    assert finite.mean() > 4.0


def test_run_summary_matches_summarize():
    res = run(count_plan(64))
    direct = summarize(res.samples)
    assert res.summary == direct


def test_sentinel_fraction_in_divergent_regimes():
    limit = run(
        ReplicationPlan(
            task=TASK_LIMIT_CONFIG,
            params=TRANSIENT_EXAMPLE,
            replications=40,
            base_seed=11,
        )
    )
    assert limit.summary.sentinel_fraction == 1.0
    counts = run(
        ReplicationPlan(
            task=TASK_EXTINCTION_COUNT,
            params=FINITE_EXAMPLE,
            replications=40,
            base_seed=11,
        )
    )
    assert counts.summary.sentinel_fraction == 1.0


def test_gof_chi_square_guards():
    good = np.zeros(1000, dtype=float)
    pmf = lambda k: stats.nbinom.pmf(k, 1, 0.5)
    cdf = lambda k: stats.nbinom.cdf(k, 1, 0.5)
    with pytest.raises(MonteCarloError):
        gof_chi_square(good[:10], pmf, cdf)
    bad = good.copy()
    bad[0] = math.inf
    with pytest.raises(MonteCarloError):
        gof_chi_square(bad, pmf, cdf)
    bad[0] = 1.5
    with pytest.raises(MonteCarloError):
        gof_chi_square(bad, pmf, cdf)
    bad[0] = -1.0
    with pytest.raises(MonteCarloError):
        gof_chi_square(bad, pmf, cdf)


def test_gof_chi_square_is_calibrated():
    rng = np.random.default_rng(7)
    p_values = []
    for _ in range(200):
        samples = rng.negative_binomial(1, 0.5, size=2000)
        report = gof_chi_square(
            samples,
            lambda k: stats.nbinom.pmf(k, 1, 0.5),
            lambda k: stats.nbinom.cdf(k, 1, 0.5),
        )
        p_values.append(report.p_value)
    p_values = np.array(p_values)
    assert (p_values < 0.01).sum() <= 9
    assert 0.35 < p_values.mean() < 0.65


def test_gof_chi_square_rejects_the_wrong_law():
    rng = np.random.default_rng(8)
    samples = rng.negative_binomial(1, 0.5, size=10_000)
    report = gof_chi_square(
        samples,
        lambda k: stats.nbinom.pmf(k, 2, 0.5),
        lambda k: stats.nbinom.cdf(k, 2, 0.5),
    )
    assert report.p_value < 1e-6


def test_gof_ks_detects_scale_error():
    rng = np.random.default_rng(9)
    samples = rng.exponential(1.0, size=10_000)
    right = gof_ks(samples, stats.expon.cdf)
    wrong = gof_ks(samples, lambda x: stats.expon.cdf(x, scale=1.3))
    assert right.p_value > 0.01
    assert wrong.p_value < 1e-4


def test_gof_ks_guards():
    rng = np.random.default_rng(11)
    good = rng.exponential(1.0, size=1000)
    assert good.size == 1000 and 0.0 <= gof_ks(good, stats.expon.cdf).p_value <= 1.0
    with pytest.raises(MonteCarloError):
        gof_ks(good[:999], stats.expon.cdf)
    for sentinel in (math.inf, math.nan):
        bad = good.copy()
        bad[0] = sentinel
        with pytest.raises(MonteCarloError):
            gof_ks(bad, stats.expon.cdf)
    with pytest.raises(MonteCarloError):
        gof_ks(good, lambda x: 2.0 * stats.expon.cdf(x))


def _assert_near_exact_ks(p_value, n, d):
    """gof_ks's p-value against the exact law of D_n: within 1.5%, and never above it where p <= 0.02."""
    exact = float(stats.kstwo.sf(d, n))
    error = p_value / exact - 1.0
    assert abs(error) <= 0.015, (n, d, p_value, exact)
    if exact <= 0.02:
        assert error <= 0.0, (n, d, p_value, exact)
    return exact


def test_gof_ks_p_value_is_near_the_exact_law():
    """Stephens' asymptotic p-value against scipy.stats.kstwo on a fixed (n, D) grid, exact p from 0.001 to 0.5."""
    zs = (0.83, 1.0, 1.22, 1.36, 1.52, 1.63, 1.73, 1.94)
    # kstwo.sf costs about 0.16 s per point at n = 100 000 and p below about 0.025, so few points there.
    grid = [(n, z) for n in (1000, 4000) for z in zs] + [(100_000, z) for z in (0.83, 1.36, 1.63, 1.94)]
    exact = []
    for n, z in grid:
        # Evenly spaced points against a uniform cdf shifted by s have D = 0.5 / n + s.
        shift = z / math.sqrt(n) - 0.5 / n
        report = gof_ks((np.arange(n) + 0.5) / n, lambda x: np.clip(x - shift, 0.0, 1.0))
        assert report.statistic == pytest.approx(z / math.sqrt(n), rel=1e-12)
        exact.append(_assert_near_exact_ks(report.p_value, n, report.statistic))
    assert min(exact) < 0.0011 and max(exact) > 0.48


def _reference_chi_square(samples, law):
    """gof_chi_square's statistic and p-value, pooled the same way, from scipy.stats."""
    n = samples.size
    k_max = int(samples.max())
    observed = np.bincount(samples, minlength=k_max + 1).astype(float).tolist()
    expected = (n * stats.nbinom.pmf(np.arange(k_max + 1), law.r, 1.0 - law.p)).tolist()
    expected[-1] += n * float(1.0 - stats.nbinom.cdf(k_max, law.r, 1.0 - law.p))
    obs_arr, exp_arr = np.asarray(montecarlo._pool_bins(zip(observed, expected), lambda col: col[1])).T
    exp_arr *= obs_arr.sum() / exp_arr.sum()
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    return statistic, float(stats.chi2.sf(statistic, obs_arr.size - 1))


def _reference_two_sample(a, b):
    """gof_two_sample_counts' statistic and p-value, pooled the same way, from scipy.stats."""
    k_max = int(max(a.max(), b.max()))
    ca = np.bincount(a, minlength=k_max + 1).astype(float)
    cb = np.bincount(b, minlength=k_max + 1).astype(float)
    share = min(a.size, b.size) / (a.size + b.size)
    table = np.asarray(montecarlo._pool_bins(zip(ca, cb), lambda col: (col[0] + col[1]) * share)).T
    statistic, p_value, _, _ = stats.chi2_contingency(table, correction=False)
    return float(statistic), float(p_value)


@pytest.mark.parametrize("n", [1000, 4000, 100_000])
def test_gof_tests_match_scipy_stats_bit_for_bit(n):
    """The suite's laws, and laws a few percent off them: every statistic and chi-square p-value to the bit.

    The KS p-value is Stephens' asymptotic law, so it is held to its bound against the exact one.
    """
    from threshold_gms.criteria import GammaLaw, NegBinomLaw

    rng = np.random.default_rng(n)
    for scale in (1.0, 1.03):
        masses = rng.gamma(1.0, scale, size=n)
        law = GammaLaw(1.0, 1.0)
        report = gof_ks(masses, law.cdf)
        reference = stats.kstest(masses, stats.gamma(1.0).cdf)
        assert report.statistic == float(reference.statistic)
        _assert_near_exact_ks(report.p_value, n, report.statistic)
    for r in (1.0, 2.0, 2.2):
        counts = rng.negative_binomial(r, 0.5, size=n)
        law = NegBinomLaw(r=2.0, p=0.5)
        report = gof_chi_square(counts, law.pmf, law.cdf)
        assert (report.statistic, report.p_value) == _reference_chi_square(counts, law)
        other = rng.negative_binomial(2.0, 0.5, size=max(1000, n // 2))
        report = gof_two_sample_counts(counts, other)
        assert (report.statistic, report.p_value) == _reference_two_sample(counts, other)


def test_gof_two_sample_counts_behaviour():
    rng = np.random.default_rng(10)
    a = rng.negative_binomial(1, 0.5, size=5000)
    b = rng.negative_binomial(1, 0.5, size=5000)
    c = rng.negative_binomial(2, 0.5, size=5000)
    same = gof_two_sample_counts(a, b)
    different = gof_two_sample_counts(a, c)
    assert same.p_value > 0.01
    assert different.p_value < 1e-6
    with pytest.raises(MonteCarloError):
        gof_two_sample_counts(a[:10], b)
    bad = a.astype(float)
    bad[0] = math.inf
    with pytest.raises(MonteCarloError):
        gof_two_sample_counts(bad, b)
    bad[0] = -1.0
    with pytest.raises(MonteCarloError):
        gof_two_sample_counts(b, bad)
    # Fractional counts are refused, not truncated to the counts below them.
    shifted = rng.poisson(2.0, size=2000) + 0.5
    with pytest.raises(MonteCarloError, match="integer-valued"):
        gof_two_sample_counts(rng.poisson(2.0, size=2000), shifted)
    with pytest.raises(MonteCarloError, match="integer-valued"):
        gof_chi_square(shifted, stats.poisson(2.0).pmf, stats.poisson(2.0).cdf)


@pytest.mark.parametrize("huge, message", [(1e19, "below 2\\^63"), (-1e19, "non-negative"), (2.0**63, "below 2\\^63")])
def test_chi_square_guard_refuses_counts_past_int64(huge, message):
    """Checked on the floats, so the int64 cast never sees them (a RuntimeWarning is an error here)."""
    samples = np.zeros(1000)
    samples[500] = huge
    with pytest.raises(MonteCarloError, match=message):
        gof_chi_square(samples, stats.poisson(2.0).pmf, stats.poisson(2.0).cdf)
    with pytest.raises(MonteCarloError, match=message):
        gof_two_sample_counts(np.zeros(1000), samples)
    with pytest.raises(MonteCarloError, match=message):
        gof_two_sample_counts(samples, np.zeros(1000))


def test_forward_population_matches_limit_law():
    report = compare_forward_vs_limit(FINITE_EXAMPLE, replications=2000, base_seed=2024, t=1000.0)
    assert report.p_value > 0.001


def test_forward_population_flags_short_horizon():
    report = compare_forward_vs_limit(FINITE_EXAMPLE, replications=2000, base_seed=2024, t=0.5)
    assert report.p_value < 1e-6


def test_forward_vs_limit_rejects_divergent_regime():
    with pytest.raises(MonteCarloError):
        compare_forward_vs_limit(TRANSIENT_EXAMPLE, replications=1000, base_seed=5, t=1000.0)


def test_chi_square_pools_a_sparse_table():
    """Tail first (bin 5 into 4), then the sparse interior bin 1 into its right neighbor."""
    probs = np.array([0.3, 0.002, 0.3, 0.2, 0.195, 0.003])
    samples = np.repeat(np.arange(6), [290, 5, 310, 205, 188, 2])
    report = gof_chi_square(
        samples,
        lambda k: probs[np.asarray(k)],
        lambda k: float(probs[: int(k) + 1].sum()),
    )
    observed = np.array([290.0, 315.0, 205.0, 190.0])
    expected = np.array([300.0, 302.0, 200.0, 198.0])
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert report.statistic == pytest.approx(statistic, rel=1e-9)
    assert report.p_value == pytest.approx(stats.chi2.sf(statistic, 3), rel=1e-9)


def test_two_sample_counts_pool_a_sparse_table():
    """Same pooling on the smaller row's share of each column: bin 4 into 3, bin 1 into 2."""
    a = np.repeat(np.arange(5), [400, 3, 300, 293, 4])
    b = np.repeat(np.arange(5), [500, 2, 400, 294, 4])
    report = gof_two_sample_counts(a, b)
    statistic, p_value, dof, _ = stats.chi2_contingency(
        [[400, 303, 297], [500, 402, 298]], correction=False
    )
    assert dof == 2
    assert report.statistic == pytest.approx(statistic, rel=1e-9)
    assert report.p_value == pytest.approx(p_value, rel=1e-9)


def test_divergent_regime_walks_no_ladder(monkeypatch):
    """An exactly divergent plan gives sentinels at once; the limit task still draws band-0 masses."""
    def no_walk(*args, **kwargs):
        raise AssertionError("a divergent plan walked a ladder")

    limit_plan = ReplicationPlan(
        task=TASK_LIMIT_CONFIG, params=TRANSIENT_EXAMPLE, replications=30, base_seed=12
    )
    walked = sample_first_gaps(TRANSIENT_EXAMPLE, replication_rng(12, 0, 2), BLOCK)
    walked = walked[:30] * TRANSIENT_EXAMPLE.lambda_birth
    monkeypatch.setattr(ladders, "_walk_blocks", no_walk)
    counts = run(
        ReplicationPlan(
            task=TASK_EXTINCTION_COUNT, params=FINITE_EXAMPLE, replications=30, base_seed=12
        )
    )
    assert np.all(np.isinf(counts.samples)) and np.all(np.isinf(counts.aux["mass"]))
    assert set(counts.aux["stop_reason"]) == {"divergent"}
    limit = run(limit_plan)
    assert np.all(np.isinf(limit.samples))
    assert limit.aux["band0_mass"].tolist() == walked.tolist()


@pytest.mark.parametrize("fitness", [Exponential(1000.0), Exponential(2.0)])
def test_band0_mass_past_the_float_range_is_a_sentinel(fitness):
    """lambda_birth * gap overflowing to inf gives a sentinel row: no warning, no NaN sample, no inf Poisson mean."""
    params = ModelParams(1e300, 1e-300, fitness, Exponential(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(ReplicationPlan(task=TASK_LIMIT_CONFIG, params=params, replications=256, base_seed=7))
    assert np.isinf(result.aux["band0_mass"]).all()
    assert np.isinf(result.samples).all()
    assert np.isnan(result.aux["n0"]).all() and np.isnan(result.aux["n_above"]).all()


def ladder_run_block_by_block(plan):
    """run() of a ladder plan rebuilt one block at a time from sample_ladder_block and _poisson."""
    limit = plan.task == TASK_LIMIT_CONFIG
    parts = []
    for b in range(-(-plan.replications // BLOCK)):
        rng = replication_rng(plan.base_seed, b, montecarlo._TASK_SALTS[plan.task])
        if limit:
            gaps = sample_first_gaps(plan.params, rng, BLOCK)
        block = sample_ladder_block(plan.params.swapped() if limit else plan.params, rng, BLOCK)
        finite = block.finite
        mass = np.where(finite, block.mass, 0.0)
        part = {"stop_reason": block.stop_reason, "depth": block.depth, "tail": block.tail}
        if limit:
            band0 = plan.params.lambda_birth * gaps
            n0, n_above = _poisson(rng, band0), _poisson(rng, mass)
            part.update(
                samples=np.where(finite, n0 + n_above, math.inf),
                n0=np.where(finite, n0, math.nan),
                n_above=np.where(finite, n_above, math.nan),
                band0_mass=band0,
            )
        else:
            part.update(
                samples=np.where(finite, _poisson(rng, mass), math.inf),
                mass=np.where(finite, block.mass, math.inf),
            )
        parts.append(part)
    return {k: np.concatenate([part[k] for part in parts])[: plan.replications] for k in parts[0]}


@pytest.mark.parametrize(
    "task,params",
    [
        (TASK_EXTINCTION_COUNT, TRANSIENT_EXAMPLE),
        (TASK_LIMIT_CONFIG, FINITE_EXAMPLE),
        (TASK_EXTINCTION_COUNT, ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 1.05 ** -0.5))),
    ],
)
def test_ladder_groups_match_blocks_walked_one_by_one(task, params):
    """Three groups, the last one short, and n not a multiple of BLOCK: every column bit for bit."""
    n = (2 * LADDER_GROUP + 3) * BLOCK - 37
    result = run(ReplicationPlan(task=task, params=params, replications=n, base_seed=77))
    want = ladder_run_block_by_block(ReplicationPlan(task=task, params=params, replications=n, base_seed=77))
    assert result.samples.tobytes() == want.pop("samples").astype(float).tobytes()
    assert list(result.aux) == list(want)
    for key, column in want.items():
        assert result.aux[key].dtype == column.dtype and result.aux[key].tobytes() == column.tobytes(), key


def test_boundary_ladders_without_an_exact_exponent_end_as_sentinels():
    """A tabulated pair at the boundary walks its ladders to max_steps: every replication is a sentinel."""
    grid = TabulatedQuantile(((1.0, 0.0), (math.exp(-1.0), 1.0), (math.exp(-2.0), 2.0)))
    params = ModelParams(1.0, 1.0, grid, grid)
    with mock.patch.object(ladders, "MAX_STEPS", 300):
        result = run(ReplicationPlan(task=TASK_EXTINCTION_COUNT, params=params, replications=20, base_seed=13))
    assert result.summary.sentinel_fraction == 1.0


@pytest.mark.parametrize(
    "task,params",
    [
        (TASK_EXTINCTION_COUNT, TRANSIENT_EXAMPLE),
        (TASK_LIMIT_CONFIG, FINITE_EXAMPLE),
        (TASK_FORWARD_COUNT, FINITE_EXAMPLE),
        (TASK_EMPTY_SCAN, TRANSIENT_EXAMPLE),
    ],
)
def test_replications_do_not_depend_on_the_plan_size(task, params):
    """Blocks always sample all their rows: 300 replications are the first 300 of 1000."""
    window = {TASK_FORWARD_COUNT: {"t": 30.0}, TASK_EMPTY_SCAN: {"horizon": 30.0}}.get(task, {})
    short, long = (
        run(ReplicationPlan(task=task, params=params, replications=n, base_seed=14, **window))
        for n in (300, 1000)
    )
    assert short.samples.tobytes() == long.samples[:300].tobytes()
    assert set(short.aux) == set(long.aux)
    for key in short.aux:
        assert short.aux[key].tobytes() == long.aux[key][:300].tobytes()


def test_ladder_runs_carry_stop_reasons_and_depths():
    result = run(count_plan(200))
    reasons, depth = result.aux["stop_reason"], result.aux["depth"]
    assert reasons.shape == depth.shape == (200,)
    assert set(reasons) == {"tail_bound"}
    assert depth.min() >= 1


@pytest.mark.parametrize("task,window", [(TASK_FORWARD_COUNT, "t"), (TASK_EMPTY_SCAN, "horizon")])
def test_forward_blocks_refuse_bad_marks_and_windows(task, window, monkeypatch):
    """A mark past the float range, and a window past the event budget, raise through run."""

    def plan(params, at):
        return ReplicationPlan(task=task, params=params, replications=10, base_seed=1, **{window: at})

    with pytest.raises(ProcessError, match="finite"):
        run(plan(ModelParams(1.0, 1.0, Weibull(0.001, 1.0), Exponential(1.0)), 50.0))
    rngs = []

    def recording_rng(*args, **kwargs):
        rngs.append(replication_rng(*args, **kwargs))
        return rngs[-1]

    monkeypatch.setattr(montecarlo, "replication_rng", recording_rng)
    with pytest.raises(ProcessError, match="event budget"):
        run(plan(TRANSIENT_EXAMPLE, 1e10))
    # Refused before the first block drew anything.
    assert [g.random() for g in rngs] == [replication_rng(1, 0, montecarlo._TASK_SALTS[task]).random()]


@pytest.mark.parametrize("task,window,expect", [(TASK_FORWARD_COUNT, "t", 0.0), (TASK_EMPTY_SCAN, "horizon", 1e-12)])
def test_forward_blocks_of_windows_without_events(task, window, expect):
    """Windows so short that no block row holds an event: nothing is alive, and every window ends empty."""
    plan = ReplicationPlan(task=task, params=TRANSIENT_EXAMPLE, replications=200, base_seed=1, **{window: 1e-12})
    assert run(plan).samples.tolist() == [expect] * 200


def test_seeds_from_2_63_up_key_distinct_streams():
    """Every seed in [0, 2**128) keys its own stream; the key words never pass through float64."""
    seeds = (2**63 + 1, 2**63 + 3, 2**64 - 5, 2**64 - 3, 2**128 - 3)
    draws = {tuple(replication_rng(seed, 0, 1).random(4)) for seed in seeds}
    assert len(draws) == len(seeds)
    # Below 2**63 the key is the one a list of Python ints gives.
    philox = np.random.Philox(key=[123456789, 1], counter=[0, 0, 0, 5])
    assert replication_rng(123456789, 5, 1).random() == np.random.Generator(philox).random()
    for seed in (-3, 2**128):
        with pytest.raises(ValueError, match="2\\*\\*128"):
            replication_rng(seed)
    for seed in (2.7, True, "5"):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            check_seed(seed)


def test_index_and_salt_outside_64_bits_are_refused():
    """An index or salt is one Philox word: refused outside [0, 2**64), never wrapped onto another stream."""
    top = 2**64 - 1
    draws = {tuple(replication_rng(3, index, salt).random(2)) for index, salt in ((0, 0), (top, 0), (0, top))}
    assert len(draws) == 3
    for index, salt in ((2**64, 0), (-1, 0), (0, 2**64), (0, -1)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            replication_rng(3, index, salt)
    for index, salt, name in ((1.9, 0, "replication index"), (True, 0, "replication index"), (0, np.True_, "salt")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            replication_rng(3, index, salt)
    assert replication_rng(3, np.uint64(1)).random() == replication_rng(3, 1).random()
