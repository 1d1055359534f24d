import decimal
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from threshold_gms import criteria
from threshold_gms.criteria import (
    _LN2,
    _MAX_REFINEMENTS,
    _TAIL_ATOL,
    VERDICT_FINITE,
    VERDICT_INCONCLUSIVE,
    VERDICT_INFINITE,
    CriteriaError,
    GammaLaw,
    NegBinomLaw,
    _criterion_integrals,
    classify,
    classify_many,
    _integrands,
    composed_survival_exponent,
    expected_extinction_count,
    exponential_closed_forms,
    extinction_count_exponent,
    hazard_breaks,
    hazard_weighted_integral,
    hazard_weighted_integral_xspace,
    laplace_extinction_count,
)
from threshold_gms.distributions import (
    DistributionError,
    Exponential,
    ModelParams,
    Pareto,
    TabulatedQuantile,
    Weibull,
)
from threshold_gms.validation import FINITE_EXAMPLE, TRANSIENT_EXAMPLE

ROOT = Path(__file__).resolve().parents[1]


def exp_params(a_fit, a_thr, l_birth=1.0, l_ext=1.0):
    return ModelParams(l_birth, l_ext, Exponential(a_fit), Exponential(a_thr))


def _composition(params, h):
    """C(h) = H_thr(H_fit^-1(h)), read off the mass-density row exp(h - C(h)) that _integrands evaluates."""
    h = np.asarray(h, dtype=float)[None, :]
    return (h - np.log(_integrands([params], [0], np.empty(0), h)[0]))[0]


HAZARDS = np.array([0.0, 0.36, 1.6, 9.2, 27.6])


# exp(1) fitness against a threshold law with kinks at fitness hazards 1,
# 48 and 53, nearly flat from 1 to 48: most of its mass lies past h = 48.
PROBE = ModelParams(
    1.0,
    1.0,
    Exponential(1.0),
    TabulatedQuantile(((1.0, 0.0), (1e-22, 1.0), (1e-22 * (1.0 - 1e-9), 48.0), (1e-22 * math.exp(-10.0), 53.0))),
)


def test_composed_survival_exponential_pair_is_a_power():
    params = exp_params(1.0, 2.0)
    np.testing.assert_allclose(_composition(params, HAZARDS), 2.0 * HAZARDS, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(_composition(params.swapped(), HAZARDS), 0.5 * HAZARDS, rtol=1e-12, atol=1e-12)


def test_composed_survival_weibull_equal_shape():
    params = ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.5))
    np.testing.assert_allclose(_composition(params, HAZARDS), 4.0 * HAZARDS, rtol=1e-9, atol=1e-12)


def test_composed_survival_pareto_pair():
    params = ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Pareto(1.0, 3.0))
    np.testing.assert_allclose(_composition(params, HAZARDS), 3.0 * HAZARDS, rtol=1e-9, atol=1e-12)


def test_expected_extinction_count_worked_value():
    res = expected_extinction_count(TRANSIENT_EXAMPLE)
    assert res.is_finite
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert list(res.evidence) == sorted(res.evidence)


def test_expected_extinction_count_rate_prefactor():
    res = expected_extinction_count(exp_params(1.0, 2.0, l_birth=2.0, l_ext=3.0))
    assert res.value == pytest.approx(1.5, abs=1e-9)


def test_expected_extinction_count_divergent():
    res = expected_extinction_count(FINITE_EXAMPLE)
    assert res.is_infinite
    assert res.value == math.inf
    assert list(res.evidence) == sorted(res.evidence)
    assert res.evidence[-1] > res.evidence[0]


def test_expected_birth_count_mirrors_swap():
    """The birth count above the threshold ladder is the extinction count of the swapped roles."""
    res = expected_extinction_count(FINITE_EXAMPLE.swapped())
    assert res.is_finite
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_count_exponent_at_infinity():
    res = extinction_count_exponent(TRANSIENT_EXAMPLE, math.inf)
    assert res.is_finite
    assert res.value == pytest.approx(math.log(2.0), abs=1e-6)


def test_count_exponent_monotone_in_t():
    values = []
    for t in (0.25, 0.5, 1.0, 2.0, 4.0, math.inf):
        res = extinction_count_exponent(TRANSIENT_EXAMPLE, t)
        assert res.is_finite
        values.append(res.value)
    assert values == sorted(values)


def test_count_exponent_rejects_nonpositive_t():
    with pytest.raises(CriteriaError):
        extinction_count_exponent(TRANSIENT_EXAMPLE, 0.0)
    with pytest.raises(CriteriaError):
        extinction_count_exponent(TRANSIENT_EXAMPLE, -1.0)
    with pytest.raises(CriteriaError, match="^t must not be NaN$"):
        extinction_count_exponent(TRANSIENT_EXAMPLE, math.nan)


def test_laplace_transform_closed_form():
    # NegBinom(1, 1/2) transform: 0.5 / (1 - 0.5 e^-t)
    for t in (0.5, 1.0, 3.0):
        expected = 0.5 / (1.0 - 0.5 * math.exp(-t))
        assert laplace_extinction_count(TRANSIENT_EXAMPLE, t) == pytest.approx(
            expected, abs=1e-6
        )


def test_laplace_transform_small_t_tends_to_one():
    assert laplace_extinction_count(TRANSIENT_EXAMPLE, 1e-6) > 0.999


def test_laplace_transform_vanishes_when_count_diverges():
    assert laplace_extinction_count(FINITE_EXAMPLE, 1.0) == 0.0
    assert laplace_extinction_count(TRANSIENT_EXAMPLE.swapped(), 1.0) == 0.0


def test_laplace_birth_count_closed_form():
    # swapped roles of FINITE_EXAMPLE give the same NegBinom(1, 1/2) count
    expected = 0.5 / (1.0 - 0.5 * math.exp(-1.0))
    assert laplace_extinction_count(FINITE_EXAMPLE.swapped(), 1.0) == pytest.approx(expected, abs=1e-6)


def test_exponent_dominated_by_expected_count():
    for a_fit, a_thr in ((1.0, 1.5), (1.0, 2.0), (0.5, 2.0), (1.5, 2.0)):
        params = exp_params(a_fit, a_thr)
        phi = extinction_count_exponent(params, math.inf)
        e_m = expected_extinction_count(params)
        assert phi.value <= e_m.value + 1e-9


def test_hazard_weighted_integral_of_identity():
    # exp(1)/exp(2): C(h) = 2h, so the mass density is e^-h, whose integral is 1.
    res = hazard_weighted_integral(exp_params(1.0, 2.0))
    assert res.is_finite
    assert res.value == pytest.approx(1.0, rel=1e-15)


def test_hazard_weighted_integral_of_constant_diverges():
    # exp(1)/exp(1): C(h) = h, so the mass density is 1 on [0, inf).
    res = hazard_weighted_integral(exp_params(1.0, 1.0))
    assert res.is_infinite
    assert res.evidence == pytest.approx((_LN2, 2 * _LN2), rel=1e-15)


def test_hazard_weighted_integral_slow_superpolynomial_tail_is_inconclusive():
    """exp(1)/Weibull(1.05): e^(h - h^1.05) is summable, but its secant bound is still near 1 after all panels."""
    res = hazard_weighted_integral(ModelParams(1.0, 1.0, Exponential(1.0), Weibull(1.05, 1.0)))
    assert res.verdict == "inconclusive"
    assert res.value is None
    # n* = 1 (no kink past h = 0), then _MAX_REFINEMENTS panels.
    assert len(res.evidence) == 1 + _MAX_REFINEMENTS


def test_hazard_weighted_integral_evaluates_only_the_panels_it_reads(monkeypatch):
    """The integrand sees the nodes of panels 0 .. n (the last panel read) and no other."""
    seen = []

    def recording(sides, take, log_r, h):
        seen.append(h)
        return _integrands(sides, take, log_r, h)

    monkeypatch.setattr(criteria, "_integrands", recording)
    cases = {
        # A power pair reads through n*, the first panel that starts past its last kink.
        "exp(1)/exp(2), no kink": (exp_params(1.0, 2.0), 2),
        "probe, last kink at 53": (PROBE, 78),
        # A superpolynomial pair reads on until its secant bound is below _TAIL_ATOL.
        "exp(1)/Weibull(2, 1)": (ModelParams(1.0, 1.0, Exponential(1.0), Weibull(2.0, 1.0)), 10),
    }
    for label, (params, panels) in cases.items():
        seen.clear()
        res = hazard_weighted_integral(params)
        assert len(res.evidence) == panels, label
        nodes = np.concatenate([h.ravel() for h in seen])
        assert (panels - 1) * _LN2 < nodes.max() < panels * _LN2, label


@dataclass(frozen=True)
class HoleyThreshold(Exponential):
    """Exponential threshold law whose hazard is NaN on the levels [lo, hi)."""

    lo: float = 0.0
    hi: float = 0.0

    def hazard_transform_array(self, x):
        return np.where((x >= self.lo) & (x < self.hi), np.nan, super().hazard_transform_array(x))


def test_hazard_weighted_integral_rejects_bad_integrand():
    """A non-finite panel among those a row reads raises CriteriaError, in every front."""
    # exp(1) fitness: levels are hazards, so the hole lies in panel 1 = [ln2, 2 ln2].
    params = ModelParams(1.0, 1.0, Exponential(1.0), HoleyThreshold(2.0, 1.0, 1.2))
    message = f"^panel \\[{_LN2}, {2 * _LN2}\\] evaluated to nan$"
    fronts = (hazard_weighted_integral, expected_extinction_count, lambda p: extinction_count_exponent(p, 1.0), classify)
    for front in fronts:
        with pytest.raises(CriteriaError, match=message):
            front(params)


def test_bad_panels_raise_only_where_a_row_reads():
    """A NaN past the panels a row reads is never evaluated; one inside them fails that row only."""
    past = ModelParams(1.0, 1.0, Exponential(1.0), HoleyThreshold(2.0, 20.0, 30.0))
    inside = ModelParams(1.0, 1.0, Exponential(1.0), HoleyThreshold(2.0, 1.0, 1.2))
    shapes = [composed_survival_exponent(past), composed_survival_exponent(inside)]
    got = _criterion_integrals([past, inside], shapes, [[math.nan, 0.0], [math.nan, 0.0]])
    assert got.error[:2] == [None, None]
    assert got.value[0] == pytest.approx(1.0, rel=1e-15)
    assert got.value[1] == pytest.approx(math.log(2.0), rel=1e-15)
    assert str(got.error[2]) == str(got.error[3]) == f"panel [{_LN2}, {2 * _LN2}] evaluated to nan"


def test_xspace_integral_matches_hspace():
    cases = [
        (Exponential(1.0), Exponential(2.0), 1.0),
        (Pareto(1.0, 1.0), Exponential(1.0), math.exp(-1.0)),
    ]
    for fitness, threshold, expected in cases:
        params = ModelParams(1.0, 1.0, fitness, threshold)
        h_side = hazard_weighted_integral(params)

        def ratio(x):
            denom = fitness.survival(x)
            return threshold.survival(x) / denom if denom > 0.0 else 0.0

        x_side = hazard_weighted_integral_xspace(ratio, fitness)
        assert h_side.value == pytest.approx(expected, abs=1e-6)
        assert x_side == pytest.approx(h_side.value, abs=1e-8)
        assert expected_extinction_count(params).value == pytest.approx(h_side.value, rel=1e-12)


# Nodes off the dyadic grid of survival levels (powers of 1/2).
KINKED_TABULATED = TabulatedQuantile(grid=((1.0, 0.0), (0.6, 0.37), (0.3, 1.3), (0.11, 2.9), (0.02, 5.1)))
KINKED_TABULATED_STEEP = TabulatedQuantile(
    grid=((1.0, 0.0), (0.5, 0.23), (0.2, 0.81), (0.05, 1.7), (0.004, 3.3))
)


def _xspace(integrand, fitness, kinks, upper=math.inf):
    """Level-space integral of integrand against the fitness hazard density up to upper, split at the kink levels."""
    edges = [fitness.support_lower, *sorted(k for k in kinks if fitness.support_lower < k < upper), upper]
    def weighted(x):
        return integrand(x) * fitness.hazard_density(x)

    return math.fsum(
        criteria.quad(weighted, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=500)[0] for lo, hi in zip(edges, edges[1:])
    )


@pytest.mark.parametrize(
    "fitness, threshold",
    [
        # The threshold support edge sits at h = ln 3, off the dyadic grid; e_m = 8.
        (Pareto(1.0, 1.0), Pareto(3.0, 1.5)),
        # C(h) = h^p with p not an integer: not smooth at h = 0.
        (Exponential(1.0), Weibull(1.3, 1.0)),
        (Weibull(0.5, 1.0), Weibull(0.9, 1.0)),
        (KINKED_TABULATED, KINKED_TABULATED_STEEP),
        (KINKED_TABULATED, Exponential(1.0)),
    ],
)
def test_hspace_integrals_resolve_kinks_and_the_endpoint(fitness, threshold):
    """Hazard-space panels split at kinks and graded at h = 0 match level-space quadrature.

    e_m and phi_inf are compared whole, and through the partial integral
    over the panels read (past every kink here).
    """
    params = ModelParams(1.0, 1.0, fitness, threshold)
    kinks = np.concatenate([fitness.kink_levels(), threshold.kink_levels()]).tolist()

    def ratio(x):
        s_fit = fitness.survival(x)
        return threshold.survival(x) / s_fit if s_fit > 0.0 else 0.0

    def exponent_integrand(x):
        s_fit, s_thr = fitness.survival(x), threshold.survival(x)
        return s_thr / (s_fit + s_thr) if s_thr > 0.0 else 0.0

    e_m = expected_extinction_count(params)
    phi = extinction_count_exponent(params, math.inf)
    assert e_m.is_finite and phi.is_finite
    for res, integrand in ((e_m, ratio), (phi, exponent_integrand)):
        assert res.value == pytest.approx(_xspace(integrand, fitness, kinks), rel=1e-9)
        upper = fitness.inverse_hazard(len(res.evidence) * _LN2)
        assert res.evidence[-1] == pytest.approx(_xspace(integrand, fitness, kinks, upper), rel=1e-9)
    if isinstance(threshold, Pareto):
        assert e_m.value == pytest.approx(8.0, rel=1e-12)


def test_expected_count_closed_form_exponential_weibull():
    # e_m = integral of exp(h - h^2) over [0, inf) = e^(1/4) (sqrt(pi)/2) (1 + erf(1/2)).
    params = ModelParams(1.0, 1.0, Exponential(1.0), Weibull(2.0, 1.0))
    exact = math.exp(0.25) * math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(0.5))
    assert expected_extinction_count(params).value == pytest.approx(exact, rel=1e-12)


def test_composed_survival_exponent_table():
    assert composed_survival_exponent(exp_params(1.0, 2.0)) == ("power", 2.0)
    assert composed_survival_exponent(exp_params(2.0, 1.0)) == ("power", 0.5)
    pareto = ModelParams(1.0, 1.0, Pareto(1.0, 2.0), Pareto(1.0, 3.0))
    assert composed_survival_exponent(pareto) == ("power", 1.5)
    weib = ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.5))
    assert composed_survival_exponent(weib) == ("power", 4.0)
    # gamma = (1e200)^2 overflows to inf: a power pair all the same, not an OverflowError.
    extreme = ModelParams(1.0, 1.0, Weibull(2.0, 1e100), Weibull(2.0, 1e-100))
    assert composed_survival_exponent(extreme) == ("power", math.inf)
    assert (classify(extreme).recurrence, classify(extreme).limit_count) == ("Transient", "Infinite")
    steeper = ModelParams(1.0, 1.0, Weibull(1.0, 1.0), Weibull(2.0, 1.0))
    assert composed_survival_exponent(steeper) == ("superpolynomial", None)
    flatter = ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(1.0, 1.0))
    assert composed_survival_exponent(flatter) == ("subpolynomial", None)
    mixed = ModelParams(1.0, 1.0, Exponential(1.0), Pareto(1.0, 3.0))
    assert composed_survival_exponent(mixed) == ("subpolynomial", None)
    mixed_rev = ModelParams(1.0, 1.0, Pareto(1.0, 3.0), Exponential(1.0))
    assert composed_survival_exponent(mixed_rev) == ("superpolynomial", None)
    # A tabulated law's log-linear tail is exponential at the rate of its last segment, here ln 2.
    grid = TabulatedQuantile(grid=((1.0, 0.0), (0.5, 1.0)))
    tab = ModelParams(1.0, 1.0, grid, Exponential(1.0))
    assert composed_survival_exponent(tab) == ("power", pytest.approx(1.0 / math.log(2.0), rel=1e-15))
    assert composed_survival_exponent(ModelParams(1.0, 1.0, grid, grid)) == ("power", 1.0)
    assert composed_survival_exponent(ModelParams(1.0, 1.0, grid, Pareto(1.0, 3.0))) == ("subpolynomial", None)
    assert composed_survival_exponent(ModelParams(1.0, 1.0, Pareto(1.0, 3.0), grid)) == ("superpolynomial", None)
    assert composed_survival_exponent(ModelParams(1.0, 1.0, grid, Weibull(2.0, 1.0))) == ("superpolynomial", None)


def test_classify_exponential_examples():
    rep = classify(TRANSIENT_EXAMPLE)
    assert rep.recurrence == "Transient"
    assert rep.limit_count == "Infinite"
    assert rep.method == "AnalyticExponent"
    assert not rep.null_recurrent_like
    assert rep.integrals.e_m == pytest.approx(1.0, abs=1e-9)
    assert rep.integrals.e_n == math.inf

    rep = classify(FINITE_EXAMPLE)
    assert rep.recurrence == "Recurrent"
    assert rep.limit_count == "Finite"
    assert rep.integrals.e_m == math.inf
    assert rep.integrals.e_n == pytest.approx(1.0, abs=1e-9)


def test_classify_boundary_is_null_recurrent_like():
    rep = classify(exp_params(1.0, 1.0, l_birth=5.0, l_ext=7.0))
    assert rep.recurrence == "Recurrent"
    assert rep.limit_count == "Infinite"
    assert rep.null_recurrent_like


def test_classify_other_families():
    rep = classify(ModelParams(1.0, 1.0, Weibull(1.0, 1.0), Weibull(2.0, 1.0)))
    assert rep.recurrence == "Transient"
    assert rep.limit_count == "Infinite"
    rep = classify(ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Pareto(1.0, 3.0)))
    assert rep.recurrence == "Transient"
    assert rep.limit_count == "Infinite"
    rep = classify(ModelParams(1.0, 1.0, Exponential(1.0), Pareto(1.0, 3.0)))
    assert rep.recurrence == "Recurrent"
    assert rep.limit_count == "Finite"


def test_classify_tabulated_uses_numeric_route():
    xs = np.linspace(0.0, 20.7, 400)
    grid = tuple((float(math.exp(-x)), float(x)) for x in xs)
    tab = TabulatedQuantile(grid=grid)
    params = ModelParams(1.0, 1.0, tab, Exponential(2.0))
    rep = classify(params)
    assert rep.method == "NumericCauchy"
    assert rep.recurrence == "Transient"
    assert rep.integrals.e_m == pytest.approx(1.0, abs=5e-3)


def test_classify_report_json_shape():
    payload = classify(TRANSIENT_EXAMPLE).to_json()
    assert payload["recurrence"] == "Transient"
    assert payload["integrals"]["e_n"] == "inf"
    assert set(payload["evidence"]) == {"e_m", "e_n", "phi_inf", "phi_bar_inf"}
    assert all(isinstance(v, list) for v in payload["evidence"].values())


def _mixed_batch():
    tab_a = TabulatedQuantile(grid=((1.0, 0.0), (0.6, 0.37), (0.3, 1.3), (0.11, 2.9), (0.02, 5.1)))
    tab_b = TabulatedQuantile(grid=((1.0, 0.0), (0.5, 0.23), (0.2, 0.81), (0.05, 1.7), (0.004, 3.3)))
    marks = [
        (Weibull(1.5, 1.0), Weibull(2.4, 1.0)),
        (Weibull(0.5, 1.0), Weibull(0.9, 1.0)),
        (Pareto(1.0, 1.0), Pareto(3.0, 1.5)),
        (Pareto(2.0, 1.4), Pareto(1.0, 2.0)),
        (tab_a, tab_b),
        (tab_b, tab_a),
        (tab_a, Exponential(1.0)),
    ]
    points = [
        exp_params(a, b, l_birth, l_ext)
        for a in (0.5, 1.0, 2.0)
        for b in (1.0, 2.0)
        for l_birth, l_ext in ((1.0, 1.0), (1.3, 0.7))
    ]
    points += [ModelParams(l_birth, l_ext, fit, thr) for fit, thr in marks for l_birth, l_ext in ((1.0, 1.0), (0.4, 2.5))]
    # Repeated points share every row.
    return points + points[:3]


def _scalar_row_read(kind: str, gamma: Optional[float], d: np.ndarray, first: int, log_r: Optional[float]) -> tuple:
    """Last panel a row reads, its verdict, and its rest: the integral past that panel, or inf or None.

    d = h - C(h) on the panel edges 0, ln2, ..., the grid's top.  With
    F(y) = e^y for a mass-density row and log1p(e^y / r) for a
    count-exponent row, the integral of the row's integrand past an edge
    b where d falls at least at slope s is at most F(d(b)) / s, with
    equality where d falls at exactly s.  Past the last kink a power
    pair's d falls at exactly gamma - 1 (a divergent row for gamma <= 1),
    a subpolynomial pair's d grows (divergent), and a superpolynomial
    pair's d is concave, so its secant slope over panel n bounds every
    later slope: the row stops at the first panel n >= n* whose bound
    F(d(a_{n+1})) ln2 / (d(a_n) - d(a_{n+1})) is below _TAIL_ATOL, or where
    C has overflowed to inf, and drops the rest.  A row that cannot finish
    within the grid is inconclusive.  The rest of a finite row is added to
    its panels; a divergent row's rest is its value inf, an inconclusive
    row's None.  Callers ignore overflow and invalid floating-point errors.
    """
    last = d.size - 2
    if kind == "subpolynomial" or (kind == "power" and not gamma > 1.0):
        return min(first, last), VERDICT_INFINITE, math.inf
    if first > last:
        return last, VERDICT_INCONCLUSIVE, None
    def f(y):
        return np.exp(y) if log_r is None else np.logaddexp(0.0, y - log_r)

    if kind == "power":
        return first, VERDICT_FINITE, float(f(d[first + 1])) / (gamma - 1.0)
    a, b = d[first:-1], d[first + 1 :]
    done = np.isneginf(b) | (f(b) * _LN2 < _TAIL_ATOL * (a - b))
    if done.any():
        return first + int(done.argmax()), VERDICT_FINITE, 0.0
    return last, VERDICT_INCONCLUSIVE, None


# The mark pairs of _mixed_batch and their swaps, PROBE, an inconclusive
# superpolynomial pair, and two divergent ones (gamma = 1, subpolynomial).
READ_PAIRS = list(
    dict.fromkeys(
        [ModelParams(1.0, 1.0, p.fitness_dist, p.threshold_dist) for p in _mixed_batch()]
        + [ModelParams(1.0, 1.0, p.threshold_dist, p.fitness_dist) for p in _mixed_batch()]
        + [
            PROBE,
            ModelParams(1.0, 1.0, Exponential(1.0), Weibull(1.05, 1.0)),
            exp_params(1.0, 1.0),
            ModelParams(1.0, 1.0, Exponential(1.0), Pareto(1.0, 1.0)),
        ]
    )
)


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from(READ_PAIRS),
    mass=st.booleans(),
    log_r=st.lists(st.floats(min_value=-800.0, max_value=800.0), max_size=6),
)
def test_vector_row_read_matches_the_scalar_read_bit_for_bit(pair, mass, log_r):
    """_row_read of a pair's column of log r gives each row's last panel, verdict and rest of the scalar read."""
    column = [math.nan] * mass + log_r
    assume(column)
    nodes = criteria._panel_nodes(hazard_breaks(pair))
    d = nodes.edges - criteria._composition(pair, nodes.edges)
    shape = composed_survival_exponent(pair)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lasts, verdicts, rests = criteria._row_read(*shape, d, nodes.first, np.array(column))
        want = [_scalar_row_read(*shape, d, nodes.first, None if math.isnan(x) else x) for x in column]
    assert len(lasts) == len(verdicts) == len(rests) == len(column)
    for (last, verdict, rest), got in zip(want, zip(lasts, verdicts, rests)):
        assert got[:2] == (last, verdict)
        assert float(got[2]).hex() == (float("nan") if rest is None else rest).hex()


def test_classify_many_raises_the_first_bad_point_in_order():
    """A batch with bad-panel points among good ones raises the CriteriaError of the first, as classify does."""
    holes = [
        ModelParams(1.0, 1.0, Exponential(1.0), HoleyThreshold(2.0, 1.0, 1.2)),
        ModelParams(1.3, 0.7, Exponential(1.0), HoleyThreshold(2.0, 0.1, 0.2)),
    ]
    messages = []
    for params in holes:
        with pytest.raises(CriteriaError) as single:
            classify(params)
        messages.append(str(single.value))
    assert messages[0] != messages[1]
    good = _mixed_batch()[:5]
    for first, second in ((0, 1), (1, 0)):
        with pytest.raises(CriteriaError) as batch:
            classify_many(good[:2] + [holes[first]] + good[2:] + [holes[second]])
        assert str(batch.value) == messages[first]


def test_classify_many_matches_classify_bit_for_bit():
    points = _mixed_batch()
    # The exponential and Weibull rows share one node array and fill
    # more than one chunk; the Pareto and tabulated pairs each have
    # their own breaks.
    reports = classify_many(points)
    assert len(reports) == len(points)
    assert {r.method for r in reports} == {"AnalyticExponent", "NumericCauchy"}
    for params, report in zip(points, reports):
        single = classify(params)
        assert report == single
        assert report.to_json() == single.to_json()
    assert classify_many([]) == []


def test_classify_columns_match_the_reports_and_check_their_inputs():
    points = _mixed_batch()
    laws = [law for params in points for law in (params.fitness_dist, params.threshold_dist)]
    rates = [(params.lambda_birth, params.lambda_extinct) for params in points]
    columns = criteria.classify_columns(laws, rates, [(2 * i, 2 * i + 1, i) for i in range(len(points))])
    reports = classify_many(points)
    for field in ("recurrence", "limit_count", "method", "null_recurrent_like"):
        assert getattr(columns, field) == [getattr(report, field) for report in reports], field
    for field in ("e_m", "e_n", "phi_inf", "phi_bar_inf"):
        assert getattr(columns, field) == [getattr(report.integrals, field) for report in reports], field
    with pytest.raises(DistributionError, match="DistributionSpec"):
        criteria.classify_columns([1.0, laws[1]], rates[:1], [(0, 1, 0)])
    with pytest.raises(DistributionError, match="^lambda_birth must be positive and finite, got 0.0$"):
        criteria.classify_columns(laws[:2], [(0.0, 1.0)], [(0, 1, 0)])


def test_classify_many_builds_each_node_array_once():
    """A batch with more distinct breaks than _panel_nodes caches builds each node array once, and matches classify."""
    points = [
        ModelParams(1.0, 1.0, TabulatedQuantile(grid=((1.0, 0.0), (0.5, 1.0 + 0.01 * k))), Exponential(2.0))
        for k in range(100)
    ]
    breaks = {hazard_breaks(marks) for params in points for marks in (params, params.swapped())}
    assert len(breaks) > criteria._panel_nodes.cache_info().maxsize
    criteria._panel_nodes.cache_clear()
    reports = classify_many(points)
    assert criteria._panel_nodes.cache_info().misses == len(breaks)
    assert reports == [classify(params) for params in points]


def test_classify_many_rows_match_the_one_row_integral():
    """Each batch row equals the one-row front of its side, bit for bit."""
    points = _mixed_batch()
    for params, report in zip(points, classify_many(points)):
        for side, phi_side, swapped in (("e_m", "phi_inf", params), ("e_n", "phi_bar_inf", params.swapped())):
            assert report.integrals.evidence[side] == expected_extinction_count(swapped).evidence
            assert getattr(report.integrals, side) == expected_extinction_count(swapped).value
            phi = extinction_count_exponent(swapped, math.inf)
            assert report.integrals.evidence[phi_side] == phi.evidence
            assert getattr(report.integrals, phi_side) == phi.value


def test_probe_mass_integral_matches_quad_split_at_its_kinks():
    """e_m of the probe is 2.7878518894; no panel rule may end it before its last kink."""
    threshold = PROBE.threshold_dist
    assert hazard_breaks(PROBE) == (1.0, 48.0, 53.0)
    density = lambda h: math.exp(h - threshold.hazard_transform(h))  # noqa: E731
    edges = [0.0, 1.0, 48.0, 53.0, math.inf]
    pieces = [criteria.quad(density, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=500)[0] for lo, hi in zip(edges, edges[1:])]
    want = math.fsum(pieces)
    assert want == pytest.approx(2.7878518894, rel=1e-10)
    report = classify(PROBE)
    assert report.integrals.e_m == pytest.approx(want, rel=1e-9)
    assert (report.recurrence, report.limit_count, report.method) == ("Transient", "Infinite", "NumericCauchy")
    # Panels 0 .. 77: panel 77 = [53.37, 54.06] is the first to start past h = 53.
    assert len(report.integrals.evidence["e_m"]) == 78


def test_exponential_grid_integrals_match_the_closed_forms():
    """On bench_criteria's GRID every finite integral is within 1e-12 of the negative binomial laws, none None."""
    bench = _bench_criteria()
    for params, report in zip(bench.GRID, classify_many(bench.GRID)):
        for name, want in bench.exact_integrals(params).items():
            got = getattr(report.integrals, name)
            if math.isinf(want):
                assert got == math.inf, (params, name)
            else:
                assert got == pytest.approx(want, rel=1e-12), (params, name)
    accuracy = bench.accuracy()
    assert accuracy["none_on_finite_sides"] == 0
    assert max(accuracy["max_rel_error"].values()) < 1e-12


@pytest.mark.parametrize(
    "fitness, threshold, want",
    [
        # ln2 below the support edge at h = ln 3, then log1p(3) / (1.5 - 1).
        (Pareto(1.0, 1.0), Pareto(3.0, 1.5), 5.0 * math.log(2.0)),
        (KINKED_TABULATED, Exponential(1.0), None),
    ],
)
def test_count_exponent_past_the_last_kink_is_exact(fitness, threshold, want):
    """phi_inf of a power pair matches the level-space integral to 1e-10: its tail past the last kink is closed-form."""
    params = ModelParams(1.0, 1.0, fitness, threshold)
    kinks = np.concatenate([fitness.kink_levels(), threshold.kink_levels()]).tolist()

    def exponent_integrand(x):
        s_fit, s_thr = fitness.survival(x), threshold.survival(x)
        return s_thr / (s_fit + s_thr) if s_thr > 0.0 else 0.0

    phi = extinction_count_exponent(params, math.inf)
    assert phi.value == pytest.approx(_xspace(exponent_integrand, fitness, kinks), rel=1e-10)
    if want is not None:
        assert phi.value == pytest.approx(want, rel=1e-14)


POWER_PAIRS = [
    (Exponential(1.0), Exponential(2.5)),
    (Weibull(2.0, 1.0), Weibull(2.0, 0.7)),
    (Pareto(1.0, 1.0), Pareto(3.0, 1.5)),
    (KINKED_TABULATED, Exponential(1.0)),
    (Exponential(0.7), KINKED_TABULATED_STEEP),
    (KINKED_TABULATED, KINKED_TABULATED_STEEP),
    (Weibull(1.0, 2.0), KINKED_TABULATED),
    (PROBE.threshold_dist, Exponential(1.0)),
]


@pytest.mark.parametrize("fitness, threshold", POWER_PAIRS)
def test_composition_is_linear_past_the_last_kink(fitness, threshold):
    """For a power pair C(h) = gamma h + c past h* = max(hazard_breaks), with gamma from the tail shapes."""
    params = ModelParams(1.0, 1.0, fitness, threshold)
    kind, gamma = composed_survival_exponent(params)
    assert kind == "power"
    h_star = max(hazard_breaks(params), default=0.0)
    h = h_star + np.array([1e-9, 0.5, 3.0, 11.0, 40.0])
    slopes = np.diff(criteria._composition(params, h)) / np.diff(h)
    np.testing.assert_allclose(slopes[1:], gamma, rtol=1e-12)
    # The first step starts 1e-9 past h*: its slope is gamma to the rounding of C over 1e-9.
    np.testing.assert_allclose(slopes[0], gamma, rtol=1e-5)


# Arguments x = log r + C(h) - h of the count-exponent logistic: a grid
# over the whole float range of e^x, and the points where the logistic
# changes form (0, +-1e-300, 1 + e^x rounding to 1 near -36.7, the
# overflow of e^x between 709.78 and 710).
LOGISTIC_X = np.concatenate([np.linspace(-745.0, 745.0, 2981), [0.0, 1e-300, -1e-300, 36.7, -36.7, 709.78, 710.0]])


def test_count_integrand_matches_a_40_digit_logistic():
    """Count rows are 1/(1 + e^x) to 1e-15 relative down to 1e-300, and in [0, 1e-300] below."""
    # At h = 0 an exp(1)/exp(1) pair has C(h) = 0, so the row's x is its log r, exactly.
    params = exp_params(1.0, 1.0)
    with np.errstate(over="ignore"):
        got = _integrands([params], [0] * LOGISTIC_X.size, LOGISTIC_X, np.zeros((1, 1)))[:, 0, 0]
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = [1 / (1 + decimal.Decimal(x).exp()) for x in LOGISTIC_X.tolist()]
        for x, value, want in zip(LOGISTIC_X.tolist(), got.tolist(), exact):
            if want >= decimal.Decimal("1e-300"):
                assert abs(decimal.Decimal(value) - want) <= decimal.Decimal("1e-15") * want, x
            else:
                assert 0.0 <= value <= 1e-300, x


def _logaddexp_integrands(sides, take, log_r, h):
    """Integrand rows of _integrands, with the count rows taken as exp(-logaddexp(0, x))."""
    rows = []
    keys = [None] * (len(take) - log_r.size) + log_r.tolist()
    for pair, x in zip(take, keys):
        params = sides[pair]
        comp = params.threshold_dist.hazard_transform_array(params.fitness_dist.inverse_hazard_array(h))
        rows.append(np.exp(h - comp) if x is None else np.exp(-np.logaddexp(0.0, x + comp - h)))
    return np.stack(rows)


def _bench_criteria():
    spec = importlib.util.spec_from_file_location("bench_criteria", ROOT / "scripts" / "bench_criteria.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_classify_many_matches_the_logaddexp_integrand_on_the_bench_grid(monkeypatch):
    """On bench_criteria's GRID, verdicts and evidence lengths equal the logaddexp form's, values to 1e-13."""
    bench = _bench_criteria()
    got = classify_many(bench.GRID)
    monkeypatch.setattr(criteria, "_integrands", _logaddexp_integrands)
    want = classify_many(bench.GRID)
    for params, report, oracle in zip(bench.GRID, got, want):
        assert (report.recurrence, report.limit_count, report.method) == (
            oracle.recurrence,
            oracle.limit_count,
            oracle.method,
        ), params
        for name, evidence in report.integrals.evidence.items():
            expected = oracle.integrals.evidence[name]
            assert len(evidence) == len(expected), (params, name)
            assert evidence == pytest.approx(expected, rel=1e-13, abs=0.0), (params, name)
            value, expected = getattr(report.integrals, name), getattr(oracle.integrals, name)
            assert (value is None) == (expected is None), (params, name)
            if value is not None:
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0), (params, name)


def test_count_criterion_agrees_with_exponent_criterion():
    alphas = (0.5, 1.0, 1.5, 2.0)
    for a_fit in alphas:
        for a_thr in alphas:
            params = exp_params(a_fit, a_thr, l_birth=1.3, l_ext=0.7)
            e_m = expected_extinction_count(params)
            phi = extinction_count_exponent(params, math.inf)
            assert e_m.verdict == phi.verdict
            phi_bar = extinction_count_exponent(params.swapped(), math.inf)
            e_n = expected_extinction_count(params.swapped())
            assert e_n.verdict == phi_bar.verdict


def test_negbinom_law_consistency():
    law = NegBinomLaw(r=1.0, p=0.5)
    ks = np.arange(0, 60)
    pmf = law.pmf(ks)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.pmf(0) == pytest.approx(0.5)
    assert law.pmf(1) == pytest.approx(0.25)
    assert law.mean() == pytest.approx(float((ks * pmf).sum()), abs=1e-9)
    t = 0.7
    assert law.laplace(t) == pytest.approx(float((np.exp(-t * ks) * pmf).sum()), abs=1e-9)
    assert law.cdf(3) == pytest.approx(float(pmf[:4].sum()))


def test_gamma_law_consistency():
    law = GammaLaw(shape=2.0, rate=3.0)
    assert law.cdf(0.0) == pytest.approx(0.0)
    # Gamma(2, rate 3): P(X <= x) = 1 - e^{-3x} (1 + 3x)
    assert law.cdf(0.5) == pytest.approx(1.0 - math.exp(-1.5) * 2.5)
    exp_law = GammaLaw(shape=1.0, rate=1.0)
    assert exp_law.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))


def test_laws_match_scipy_stats_on_the_suite_parameters():
    """NegBinomLaw and GammaLaw call scipy.special kernels; they equal scipy.stats' laws bit for bit."""
    count_side = exponential_closed_forms(TRANSIENT_EXAMPLE)
    limit_side = exponential_closed_forms(FINITE_EXAMPLE)
    negbins = {
        count_side.extinction_count_law,
        count_side.band0_count_law,
        limit_side.total_count_law,
        limit_side.band0_count_law,
    }
    ks = np.concatenate([np.arange(-3, 200), [-0.5, 0.5, 2.5, 7.25, np.inf]])
    for law in negbins:
        assert np.array_equal(law.pmf(ks), stats.nbinom.pmf(ks, law.r, 1.0 - law.p), equal_nan=True)
        assert np.array_equal(law.cdf(ks), stats.nbinom.cdf(ks, law.r, 1.0 - law.p))
        assert law.cdf(7) == stats.nbinom.cdf(7, law.r, 1.0 - law.p)
    gammas = {count_side.extinction_mass_law, limit_side.band0_mass_law, GammaLaw(2.5, 0.7), GammaLaw(20.0, 1.0)}
    xs = np.concatenate([[-1.0, 0.0, np.inf], np.random.default_rng(3).gamma(2.0, 1.5, size=2000)])
    for law in gammas:
        assert np.array_equal(law.cdf(xs), stats.gamma.cdf(xs, a=law.shape, scale=1.0 / law.rate))


def test_closed_forms_transient_side():
    forms = exponential_closed_forms(TRANSIENT_EXAMPLE)
    assert forms.extinction_count_law == NegBinomLaw(r=1.0, p=0.5)
    assert forms.extinction_count_law.mean() == 1.0
    assert forms.extinction_mass_law == GammaLaw(shape=1.0, rate=1.0)
    assert forms.total_count_law is None
    assert forms.band0_count_law == NegBinomLaw(r=1.0, p=0.5)
    assert forms.band0_mass_law == GammaLaw(shape=1.0, rate=1.0)


def test_closed_forms_finite_limit_side():
    forms = exponential_closed_forms(FINITE_EXAMPLE)
    assert forms.total_count_law == NegBinomLaw(r=2.0, p=0.5)
    assert forms.total_count_law.mean() == pytest.approx(2.0)
    assert forms.extinction_count_law is None
    assert forms.extinction_mass_law is None
    # The birth count above the threshold ladder: the swap's extinction count.
    assert exponential_closed_forms(FINITE_EXAMPLE.swapped()).extinction_count_law == NegBinomLaw(r=1.0, p=0.5)


def test_closed_forms_balanced_rates():
    forms = exponential_closed_forms(exp_params(1.0, 1.0, 5.0, 7.0))
    assert forms.extinction_count_law is None
    assert forms.extinction_mass_law is None
    assert forms.total_count_law is None
    assert forms.band0_count_law == NegBinomLaw(r=1.0, p=5.0 / 12.0)
    assert forms.band0_mass_law == GammaLaw(shape=1.0, rate=7.0 / 5.0)


def test_closed_forms_validation():
    with pytest.raises(CriteriaError):
        exponential_closed_forms(ModelParams(1.0, 1.0, Weibull(1.0, 1.0), Exponential(2.0)))
    with pytest.raises(CriteriaError):
        exponential_closed_forms(ModelParams(1.0, 1.0, Exponential(1.0), Pareto(1.0, 2.0)))
    # The rates are checked where the params are built.
    with pytest.raises(DistributionError):
        exp_params(0.0, 1.0)
    with pytest.raises(DistributionError):
        exp_params(1.0, 1.0, 1.0, math.inf)


def test_closed_forms_match_quadrature_across_rates():
    """Both sides through the role swap: each pair has a finite extinction count, its swap a finite limit."""
    for a_fit, a_thr, l_birth, l_ext in (
        (1.0, 2.0, 1.0, 1.0),
        (0.5, 1.5, 2.0, 0.5),
        (1.0, 4.0 / 3.0, 1.0, 1.0),
        (1.0, 1.5, 0.7, 1.3),
    ):
        params = exp_params(a_fit, a_thr, l_birth, l_ext)
        forms = exponential_closed_forms(params)
        swapped = exponential_closed_forms(params.swapped())
        res = expected_extinction_count(params)
        assert res.is_finite
        assert forms.extinction_count_law.mean() == pytest.approx(res.value, abs=1e-6)
        assert expected_extinction_count(params.swapped()).is_infinite
        assert swapped.extinction_count_law is None and forms.total_count_law is None
        # The swap's limit total is the count above its threshold ladder plus one geometric band 0.
        total = swapped.total_count_law
        assert total.r == pytest.approx(forms.extinction_count_law.r + 1.0, rel=1e-12)
        assert total.p == forms.extinction_count_law.p
