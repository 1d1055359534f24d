import json
import math

import numpy as np
import pytest
from scipy import stats

import threshold_gms.montecarlo as montecarlo
from threshold_gms.distributions import Exponential, ModelParams, TabulatedQuantile, Weibull
from threshold_gms.ladders import StopRule, sample_ladder_block
from threshold_gms.montecarlo import (
    BLOCK,
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
    plan_from_json,
    run,
    summarize,
)
from threshold_gms.process import ProcessError
from threshold_gms.streams import replication_rng
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


def test_plan_json_round_trip():
    plan = ReplicationPlan(
        task=TASK_FORWARD_COUNT,
        params=TRANSIENT_EXAMPLE,
        replications=10,
        base_seed=7,
        t=2.5,
    )
    payload = json.loads(json.dumps(plan.to_json()))
    assert plan_from_json(payload) == plan


def test_plan_validation():
    with pytest.raises(MonteCarloError):
        ReplicationPlan(task="bogus", params=TRANSIENT_EXAMPLE, replications=1, base_seed=0)
    with pytest.raises(MonteCarloError):
        count_plan(0)
    with pytest.raises(MonteCarloError):
        count_plan(5, seed=-1)
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
        gof_chi_square(good[:10], pmf, cdf, "short")
    bad = good.copy()
    bad[0] = math.inf
    with pytest.raises(MonteCarloError):
        gof_chi_square(bad, pmf, cdf, "sentinel")
    bad[0] = 1.5
    with pytest.raises(MonteCarloError):
        gof_chi_square(bad, pmf, cdf, "fractional")
    bad[0] = -1.0
    with pytest.raises(MonteCarloError):
        gof_chi_square(bad, pmf, cdf, "negative")


def test_gof_chi_square_is_calibrated():
    rng = np.random.default_rng(7)
    p_values = []
    for _ in range(200):
        samples = rng.negative_binomial(1, 0.5, size=2000)
        report = gof_chi_square(
            samples,
            lambda k: stats.nbinom.pmf(k, 1, 0.5),
            lambda k: stats.nbinom.cdf(k, 1, 0.5),
            reference="self-consistency",
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
        reference="wrong r",
    )
    assert report.p_value < 1e-6


def test_gof_ks_detects_scale_error():
    rng = np.random.default_rng(9)
    samples = rng.exponential(1.0, size=10_000)
    right = gof_ks(samples, stats.expon.cdf, "unit exponential")
    wrong = gof_ks(samples, lambda x: stats.expon.cdf(x, scale=1.3), "scale 1.3")
    assert right.p_value > 0.01
    assert wrong.p_value < 1e-4


def test_gof_two_sample_counts_behaviour():
    rng = np.random.default_rng(10)
    a = rng.negative_binomial(1, 0.5, size=5000)
    b = rng.negative_binomial(1, 0.5, size=5000)
    c = rng.negative_binomial(2, 0.5, size=5000)
    same = gof_two_sample_counts(a, b, "same law")
    different = gof_two_sample_counts(a, c, "different laws")
    assert same.p_value > 0.01
    assert different.p_value < 1e-6
    with pytest.raises(MonteCarloError):
        gof_two_sample_counts(a[:10], b, "short")
    bad = a.astype(float)
    bad[0] = math.inf
    with pytest.raises(MonteCarloError):
        gof_two_sample_counts(bad, b, "sentinel")


def test_forward_population_matches_limit_law():
    report = compare_forward_vs_limit(FINITE_EXAMPLE, replications=2000, base_seed=2024)
    assert report.p_value > 0.001


def test_forward_population_flags_short_horizon():
    report = compare_forward_vs_limit(FINITE_EXAMPLE, replications=2000, base_seed=2024, t=0.5)
    assert report.p_value < 1e-6


def test_forward_vs_limit_rejects_divergent_regime():
    with pytest.raises(MonteCarloError):
        compare_forward_vs_limit(TRANSIENT_EXAMPLE, replications=1000, base_seed=5)


def test_chi_square_pools_a_sparse_table():
    """Tail first (bin 5 into 4), then the sparse interior bin 1 into its right neighbor."""
    probs = np.array([0.3, 0.002, 0.3, 0.2, 0.195, 0.003])
    samples = np.repeat(np.arange(6), [290, 5, 310, 205, 188, 2])
    report = gof_chi_square(
        samples,
        lambda k: probs[np.asarray(k)],
        lambda k: float(probs[: int(k) + 1].sum()),
        reference="sparse table",
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
    report = gof_two_sample_counts(a, b, reference="sparse table")
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
    walked = sample_ladder_block(
        TRANSIENT_EXAMPLE, StopRule(max_steps=1), replication_rng(12, 0, 2), BLOCK, threshold=True
    ).first_gap[:30] * TRANSIENT_EXAMPLE.lambda_birth
    monkeypatch.setattr(montecarlo, "sample_ladder_block", no_walk)
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


def test_boundary_ladders_without_an_exact_exponent_end_as_sentinels():
    """A tabulated pair at the boundary walks its ladders to max_steps: every replication is a sentinel."""
    grid = TabulatedQuantile(((1.0, 0.0), (math.exp(-1.0), 1.0), (math.exp(-2.0), 2.0)))
    params = ModelParams(1.0, 1.0, grid, grid)
    result = run(
        ReplicationPlan(
            task=TASK_EXTINCTION_COUNT,
            params=params,
            replications=20,
            base_seed=13,
            stop=StopRule(max_steps=300),
        )
    )
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
    """A mark past the float range, and a window past the float resolution, raise through run."""

    def plan(params, at):
        return ReplicationPlan(task=task, params=params, replications=10, base_seed=1, **{window: at})

    with pytest.raises(ProcessError, match="finite"):
        run(plan(ModelParams(1.0, 1.0, Weibull(0.001, 1.0), Exponential(1.0)), 50.0))
    rngs = []

    def recording_rng(*args, **kwargs):
        rngs.append(replication_rng(*args, **kwargs))
        return rngs[-1]

    monkeypatch.setattr(montecarlo, "replication_rng", recording_rng)
    with pytest.raises(ProcessError, match="resolution"):
        run(plan(TRANSIENT_EXAMPLE, 1e10))
    # Refused before the first block drew anything.
    assert [g.random() for g in rngs] == [replication_rng(1, 0, montecarlo._TASK_SALTS[task]).random()]


@pytest.mark.parametrize("task,window,expect", [(TASK_FORWARD_COUNT, "t", 0.0), (TASK_EMPTY_SCAN, "horizon", 1e-12)])
def test_forward_blocks_of_windows_without_events(task, window, expect):
    """Windows so short that no block row holds an event: nothing is alive, and every window ends empty."""
    plan = ReplicationPlan(task=task, params=TRANSIENT_EXAMPLE, replications=200, base_seed=1, **{window: 1e-12})
    assert run(plan).samples.tolist() == [expect] * 200
