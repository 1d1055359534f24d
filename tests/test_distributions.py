import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.integrate import quad

from threshold_gms.distributions import (
    DistributionError,
    Exponential,
    MarkPair,
    ModelParams,
    Pareto,
    TabulatedQuantile,
    Weibull,
    distribution_from_json,
    model_params_from_json,
)
from threshold_gms.streams import replication_rng


def test_exponential_pointwise():
    d = Exponential(2.0)
    assert d.support_lower == 0.0
    assert d.survival(0.0) == 1.0
    assert d.survival(1.0) == pytest.approx(math.exp(-2.0))
    assert d.inverse_survival(math.exp(-2.0)) == pytest.approx(1.0)
    assert d.hazard_transform(3.0) == pytest.approx(6.0)
    assert d.hazard_density(5.0) == 2.0


def test_weibull_pointwise():
    d = Weibull(2.0, 0.5)
    # survival(x) = exp(-(x/0.5)^2)
    assert d.survival(0.5) == pytest.approx(math.exp(-1.0))
    assert d.inverse_survival(math.exp(-4.0)) == pytest.approx(1.0)
    assert d.hazard_transform(1.0) == pytest.approx(4.0)
    assert d.hazard_density(1.0) == pytest.approx(8.0)


def test_weibull_shape_below_one_hazard_blows_up_at_origin():
    d = Weibull(0.5, 1.0)
    with pytest.raises(DistributionError):
        d.hazard_density(0.0)
    assert d.hazard_density(1e-6) > 100.0


def test_pareto_pointwise():
    d = Pareto(2.0, 3.0)
    assert d.support_lower == 2.0
    assert d.survival(1.0) == 1.0
    assert d.survival(4.0) == pytest.approx(0.125)
    assert d.inverse_survival(0.125) == pytest.approx(4.0)
    assert d.hazard_transform(4.0) == pytest.approx(3.0 * math.log(2.0))
    assert d.hazard_density(4.0) == pytest.approx(0.75)


def test_pareto_requires_positive_minimum():
    with pytest.raises(DistributionError):
        Pareto(0.0, 1.0)
    # float() would take a bool or a numeric string; neither is a parameter.
    for value in (True, np.True_, "2", b"2"):
        with pytest.raises(DistributionError, match="^minimum must be a real number"):
            Pareto(value, 1.0)
        with pytest.raises(DistributionError, match="^rate must be a real number"):
            Exponential(value)


@pytest.mark.parametrize(
    "dist,x",
    [
        (Exponential(0.7), 2.3),
        (Weibull(1.8, 2.0), 1.9),
        (Pareto(1.0, 0.25), 7.0),
        (Pareto(2.0, 3.0), 5.0),
    ],
)
def test_hazard_transform_matches_integrated_density(dist, x):
    """The cumulative hazard must integrate its own density."""
    expected, err = quad(dist.hazard_density, dist.support_lower, x, limit=200)
    assert dist.hazard_transform(x) == pytest.approx(expected, abs=max(1e-10, 10 * err))
    assert dist.hazard_transform(x) == pytest.approx(-math.log(dist.survival(x)), rel=1e-12)


def test_tabulated_matches_exponential_at_nodes_and_midpoint():
    grid = [(1.0, 0.0), (math.exp(-1.0), 1.0), (math.exp(-2.0), 2.0)]
    d = TabulatedQuantile(tuple(grid))
    assert d.survival(0.0) == 1.0
    assert d.survival(1.0) == pytest.approx(math.exp(-1.0))
    assert d.survival(2.0) == pytest.approx(math.exp(-2.0))
    # interior interpolation is linear in (level, survival)
    mid = 1.0 + 0.5 * (math.exp(-1.0) - 1.0)
    assert d.survival(0.5) == pytest.approx(mid)
    assert d.inverse_survival(mid) == pytest.approx(0.5)


def test_tabulated_log_linear_tail():
    grid = [(1.0, 0.0), (math.exp(-1.0), 1.0), (math.exp(-2.0), 2.0)]
    d = TabulatedQuantile(tuple(grid))
    # last-segment log slope is -1, so the tail continues as exp(-x)
    assert d.survival(5.0) == pytest.approx(math.exp(-5.0), rel=1e-9)
    assert d.inverse_survival(math.exp(-7.0)) == pytest.approx(7.0, rel=1e-9)
    assert d.to_json()["tail"] == "log-linear"


def test_tabulated_grid_validation():
    with pytest.raises(DistributionError):
        TabulatedQuantile(((0.9, 0.0), (0.5, 1.0)))
    with pytest.raises(DistributionError):
        TabulatedQuantile(((1.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DistributionError):
        TabulatedQuantile(((1.0, 0.0),))


@pytest.mark.parametrize(
    "grid, slope",
    [
        # The last segment is 5e-324 wide: its slope ln(1/2) / 5e-324 overflows to -inf.
        (((1.0, 0.0), (0.5, 5e-324)), "-inf"),
        # Survival falls by 2^-53 over 1.7e308: the slope underflows to -0.0, a flat tail.
        (((1.0, 0.0), (1.0 - 2.0**-53, 1.7e308)), "-0.0"),
        # Over 1e300 the slope is subnormal, and the tail's scale -1 / slope overflows to inf.
        (((1.0, 0.0), (1.0 - 2.0**-53, 1e300)), "-1.110223e-316"),
    ],
)
def test_tabulated_tail_slope_must_be_finite_and_negative(grid, slope):
    """A last segment whose log-survival slope is not finite and negative, or has no finite reciprocal, is refused by name."""
    message = "^" + re.escape(f"the last grid segment, levels {grid[0][1]} to {grid[1][1]}, gives the log-linear tail slope {slope};")
    with pytest.raises(DistributionError, match=message):
        TabulatedQuantile(grid)
    with pytest.raises(DistributionError, match=message):
        distribution_from_json({"family": "tabulated", "grid": [list(row) for row in grid]})


@pytest.mark.parametrize("family", [["exponential"], {"name": "exponential"}])
def test_a_family_that_is_not_a_string_is_an_unknown_family(family):
    with pytest.raises(DistributionError, match="^" + re.escape(f"unknown family {family!r}; expected one of")):
        distribution_from_json({"family": family, "rate": 1.0})


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("survival,level\n1.0,0.0\n0.5,2.0\n0.25,4.0\n")
    d = TabulatedQuantile.from_csv(path)
    assert d.survival(2.0) == pytest.approx(0.5)
    assert d.inverse_survival(0.25) == pytest.approx(4.0)


def test_survival_rejects_bad_levels():
    d = Exponential(1.0)
    with pytest.raises(DistributionError):
        d.survival(float("nan"))
    with pytest.raises(DistributionError):
        d.inverse_survival(0.0)
    with pytest.raises(DistributionError):
        d.inverse_survival(1.5)


def test_conditional_sampling_memorylessness():
    """For the exponential law, the overshoot above any level is the law itself."""
    rng = replication_rng(42, 0, 0)
    d = Exponential(1.3)
    level = 2.0
    draws = np.array([d.sample_conditional_above(level, rng) - level for _ in range(4000)])
    assert draws.min() > 0.0
    res = stats.kstest(draws, lambda x: 1.0 - np.exp(-1.3 * x))
    assert res.pvalue > 0.001


def test_conditional_sampling_tail_fraction():
    rng = replication_rng(43, 0, 0)
    d = Pareto(1.0, 2.0)
    lower = 3.0
    n = 4000
    draws = np.array([d.sample_conditional_above(lower, rng) for _ in range(n)])
    assert draws.min() > lower
    # P(X > 6 | X > 3) = survival(6)/survival(3) = 1/4
    frac = float((draws > 6.0).mean())
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(frac - 0.25) < 3.5 * se


def test_conditional_sampling_underflow():
    """survival(800) underflows to 0, yet the excess above 800 is still Exp(1)."""
    rng = replication_rng(44, 0, 0)
    d = Exponential(1.0)
    assert d.survival(800.0) == 0.0
    excess = np.array([d.sample_conditional_above(800.0, rng) - 800.0 for _ in range(2000)])
    assert excess.min() > 0.0
    res = stats.kstest(excess, lambda x: 1.0 - np.exp(-x))
    assert res.pvalue > 0.001


def test_sample_matches_law():
    rng = replication_rng(45, 0, 0)
    draws = np.array([Exponential(2.0).sample(rng) for _ in range(5000)])
    res = stats.kstest(draws, lambda x: 1.0 - np.exp(-2.0 * x))
    assert res.pvalue > 0.001


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(0.4),
        Weibull(1.7, 0.9),
        Pareto(1.5, 2.5),
        TabulatedQuantile(((1.0, 0.0), (0.5, 1.0), (0.125, 3.0))),
    ],
)
def test_json_round_trip(dist):
    clone = distribution_from_json(json.dumps(dist.to_json()))
    assert clone == dist


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"family": "exponential"}, "exponential spec requires 'rate'"),
        ({"family": "weibull", "scale": 1.0}, "weibull spec requires 'shape'"),
        ({"family": "weibull", "shape": 2.0}, "weibull spec requires 'scale'"),
        ({"family": "pareto", "index": 1.0}, "pareto spec requires 'minimum'"),
        ({"family": "pareto", "minimum": 1.0}, "pareto spec requires 'index'"),
    ],
)
def test_json_spec_missing_a_key_is_refused_by_name(spec, message):
    with pytest.raises(DistributionError) as err:
        distribution_from_json(spec)
    assert str(err.value) == message


TABULATED_GRID = [[1.0, 0.0], [0.5, 1.0], [0.125, 3.0]]


@pytest.mark.parametrize(
    "spec,message",
    [
        (
            {"family": "tabulated", "grid": TABULATED_GRID, "tail": "nope"},
            "tabulated 'tail' must be 'log-linear', got 'nope'",
        ),
        (
            {"family": "tabulated", "grid": TABULATED_GRID, "tail": None},
            "tabulated 'tail' must be 'log-linear', got None",
        ),
        (
            {"family": "tabulated", "grid": TABULATED_GRID, "csv": "grid.csv"},
            "tabulated spec takes one of 'grid' or 'csv', not both",
        ),
    ],
)
def test_tabulated_spec_the_code_would_misread_is_refused_by_field(spec, message):
    """A tail other than the log-linear one, or a grid next to a CSV, is refused, not silently read another way."""
    with pytest.raises(DistributionError) as err:
        distribution_from_json(spec)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec,message",
    [
        (
            {"family": "exponential", "rate": 1, "shape": 3},
            "exponential spec takes no key 'shape'; its keys are ['family', 'rate']",
        ),
        (
            {"family": "weibull", "shape": 2.0, "scale": 1.0, "rate": 1.0},
            "weibull spec takes no key 'rate'; its keys are ['family', 'shape', 'scale']",
        ),
        (
            {"family": "pareto", "minimum": 1.0, "index": 2.0, "min": 1.0},
            "pareto spec takes no key 'min'; its keys are ['family', 'minimum', 'index']",
        ),
        (
            {"family": "tabulated", "grid": TABULATED_GRID, "extra": 1, "zzz": 2},
            "tabulated spec takes no key 'extra'; its keys are ['family', 'grid', 'csv', 'tail']",
        ),
    ],
)
def test_spec_key_the_family_does_not_read_is_refused_by_name(spec, message):
    """A key no family reads (a typo, or another family's parameter) is refused, not dropped."""
    with pytest.raises(DistributionError) as err:
        distribution_from_json(spec)
    assert str(err.value) == message


def test_params_key_the_object_does_not_read_is_refused_by_name():
    exp1 = {"family": "exponential", "rate": 1.0}
    obj = {"lambda_birth": 1.0, "lambda_extinct": 1.0, "fitness_dist": exp1, "threshold_dist": exp1}
    model_params_from_json(obj)
    with pytest.raises(DistributionError) as err:
        model_params_from_json({**obj, "lambda_typo": 2.0})
    assert str(err.value) == (
        "params object takes no key 'lambda_typo'; "
        "its keys are ['lambda_birth', 'lambda_extinct', 'fitness_dist', 'threshold_dist']"
    )
    with pytest.raises(DistributionError, match="^exponential spec takes no key 'scale'"):
        model_params_from_json({**obj, "threshold_dist": {**exp1, "scale": 1.0}})


def test_tabulated_spec_reads_its_log_linear_tail_and_its_csv(tmp_path):
    """The tail that to_json writes reads back, and a CSV alone gives the law of its rows."""
    dist = TabulatedQuantile(tuple(map(tuple, TABULATED_GRID)))
    assert distribution_from_json({"family": "tabulated", "grid": TABULATED_GRID, "tail": "log-linear"}) == dist
    path = tmp_path / "grid.csv"
    path.write_text("survival,level\n" + "".join(f"{u},{x}\n" for u, x in TABULATED_GRID))
    assert distribution_from_json({"family": "tabulated", "csv": str(path), "tail": "log-linear"}) == dist


def test_model_params_round_trip_and_swap():
    params = ModelParams(2.0, 3.0, Exponential(1.0), Pareto(1.0, 2.0))
    clone = model_params_from_json(json.dumps(params.to_json()))
    assert clone == params
    swapped = params.swapped()
    assert swapped.lambda_birth == 3.0
    assert swapped.fitness_dist == Pareto(1.0, 2.0)
    assert swapped.swapped() == params


@pytest.mark.parametrize(
    "fitness, threshold",
    [
        (Exponential(1.0), Exponential(2.0)),
        (Weibull(2.0, 1.0), Weibull(1.5, 0.5)),
        (Pareto(1.0, 1.0), Pareto(2.0, 3.0)),
        (TabulatedQuantile(((1.0, 0.0), (0.5, 1.0))), TabulatedQuantile(((1.0, 0.0), (0.25, 2.0)))),
    ],
)
def test_swapped_params_carry_the_swapped_mark_pair(fitness, threshold):
    params = ModelParams(2.0, 3.0, fitness, threshold)
    assert params.marks == MarkPair(fitness, threshold)
    assert params.swapped().marks == params.marks.swapped() == MarkPair(threshold, fitness)
    assert hash(params.swapped().marks) == hash(params.marks.swapped())
    assert params.marks is params.marks


def test_a_mark_pair_is_checked_and_keeps_its_facts_in_slots():
    """A pair refuses a law that is not a DistributionSpec by its role; its kinks and tail class are slots."""
    with pytest.raises(DistributionError, match="^the fitness law must be a DistributionSpec, got float$"):
        MarkPair(1.0, Exponential(1.0))
    with pytest.raises(DistributionError, match="^the threshold law must be a DistributionSpec, got str$"):
        MarkPair(Exponential(1.0), "x")
    with pytest.raises(DistributionError, match="^the threshold law must be a DistributionSpec, got float$"):
        ModelParams(1.0, 1.0, Exponential(1.0), 2.0)
    marks = MarkPair(Weibull(2.0, 1.0), Weibull(2.0, 0.5))
    assert not hasattr(marks, "__dict__")
    assert marks.breaks == () and marks.tail == ("power", 4.0)
    assert marks == MarkPair(Weibull(2.0, 1.0), Weibull(2.0, 0.5)) and "tail" not in repr(marks)


def test_model_params_validation():
    with pytest.raises(DistributionError):
        ModelParams(0.0, 1.0, Exponential(1.0), Exponential(1.0))
    with pytest.raises(DistributionError):
        ModelParams(1.0, math.inf, Exponential(1.0), Exponential(1.0))
    with pytest.raises(DistributionError, match="^lambda_birth must be a real number, got True$"):
        ModelParams(True, 1.0, Exponential(1.0), Exponential(1.0))
    exp1 = {"family": "exponential", "rate": 1.0}
    with pytest.raises(DistributionError, match="^lambda_extinct must be a real number, got '1.0'$"):
        model_params_from_json({"lambda_birth": 1.0, "lambda_extinct": "1.0", "fitness_dist": exp1, "threshold_dist": exp1})
    with pytest.raises(DistributionError):
        model_params_from_json({"lambda_birth": 1.0})


exponential_dists = st.builds(Exponential, st.floats(0.05, 20.0))
weibull_dists = st.builds(Weibull, st.floats(0.3, 5.0), st.floats(0.1, 10.0))
pareto_dists = st.builds(Pareto, st.floats(0.1, 10.0), st.floats(0.2, 8.0))
any_dist = st.one_of(exponential_dists, weibull_dists, pareto_dists)


@settings(max_examples=200, deadline=None)
@given(dist=any_dist, u=st.floats(1e-12, 1.0))
def test_inverse_survival_inverts_survival(dist, u):
    x = dist.inverse_survival(u)
    assert x >= dist.support_lower
    assert dist.survival(x) == pytest.approx(u, rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(dist=any_dist, a=st.floats(0.0, 30.0), b=st.floats(0.0, 30.0))
def test_survival_is_nonincreasing(dist, a, b):
    lo, hi = min(a, b), max(a, b)
    assert dist.survival(lo) >= dist.survival(hi)


@settings(max_examples=100, deadline=None)
@given(dist=any_dist, lower=st.floats(0.0, 20.0), idx=st.integers(0, 1000))
def test_conditional_draw_exceeds_level(dist, lower, idx):
    rng = replication_rng(7, idx, 0)
    assert dist.sample_conditional_above(lower, rng) > lower


tabulated_dists = st.builds(
    lambda a, b: TabulatedQuantile(((1.0, 0.0), (0.5, a), (0.05, a + b))),
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
)


@settings(max_examples=200, deadline=None)
@given(dist=st.one_of(any_dist, tabulated_dists), h=st.floats(0.0, 100.0))
def test_inverse_hazard_inverts_hazard_transform(dist, h):
    x = dist.inverse_hazard(h)
    assert x >= dist.support_lower
    assert dist.hazard_transform(x) == pytest.approx(h, rel=1e-9, abs=1e-9)


def test_inverse_hazard_edges():
    assert Pareto(1.0, 1.0).inverse_hazard(800.0) == math.inf
    assert Weibull(0.01, 1.0).inverse_hazard(2000.0) == math.inf
    with pytest.raises(DistributionError):
        Exponential(1.0).inverse_hazard(-1.0)
    with pytest.raises(DistributionError):
        Exponential(1.0).inverse_hazard(math.nan)
    rng = replication_rng(46, 0, 0)
    with pytest.raises(DistributionError, match="overflows"):
        Pareto(1.0, 1.0).sample_conditional_above(1.79e308, rng)
    # past 2**53 one unit of hazard cannot move an Exp(1) level: raise, do not loop
    with pytest.raises(DistributionError, match="representable"):
        Exponential(1.0).sample_conditional_above(1e17, rng)


def test_weibull_survival_underflows_to_zero_far_out():
    assert Weibull(2.0, 1.0).survival(1e200) == 0.0


def test_weibull_hazard_overflows_to_inf_far_out():
    assert Weibull(2.0, 1.0).hazard_transform(1e200) == math.inf


def test_pareto_quantile_overflow_is_a_distribution_error():
    with pytest.raises(DistributionError, match="quantile overflow"):
        Pareto(1.0, 0.2).inverse_survival(1e-300)


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(0.7),
        Weibull(1.8, 2.0),
        Pareto(1.5, 0.25),
        TabulatedQuantile(((1.0, 0.5), (0.5, 1.0), (0.125, 3.0))),
    ],
)
def test_array_forms_match_the_survival_function(dist):
    """One array call per form agrees with -log(survival); levels past the float range give inf."""
    levels = np.array([0.0, dist.support_lower, 0.7, 2.9, 40.0, math.inf])
    want = [-math.log(dist.survival(x)) for x in levels[:-1]] + [math.inf]
    assert dist.hazard_transform_array(levels).tolist() == pytest.approx(want, rel=1e-12)
    hazards = np.array([0.0, 0.3, 2.0, 9.0, 30.0])
    got = [dist.survival(x) for x in dist.inverse_hazard_array(hazards)]
    assert got == pytest.approx(np.exp(-hazards).tolist(), rel=1e-9)
    assert math.copysign(1.0, dist.hazard_transform(0.0)) == 1.0


# Families whose array forms overflow inside the float range, and the Weibull
# shapes whose powers numpy maps to square, sqrt and reciprocal.
overflowing_dists = st.one_of(
    st.builds(Exponential, st.sampled_from([1e-300, 1e300])),
    st.builds(Weibull, st.sampled_from([0.01, 0.5, 1.0, 2.0, 4.0]), st.floats(0.1, 10.0)),
    st.builds(Pareto, st.floats(0.5, 2.0), st.floats(1e-6, 0.05)),
)
array_args = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
    elements=st.one_of(st.just(0.0), st.floats(0.0, 60.0), st.floats(0.0, 1e308), st.just(math.inf)),
)


@settings(max_examples=300, deadline=None)
@given(dist=st.one_of(any_dist, tabulated_dists, overflowing_dists), x=array_args)
def test_array_forms_write_into_out_bit_for_bit(dist, x):
    """Given out, each array form writes there the bytes it returns without it, and returns out."""
    for form in (dist.inverse_hazard_array, dist.hazard_transform_array):
        want = form(x)
        out = np.full_like(x, np.nan)
        assert form(x, out=out) is out
        assert out.tobytes() == want.tobytes()
