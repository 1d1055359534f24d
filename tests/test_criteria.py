import math

import numpy as np
import pytest

from threshold_gms.criteria import (
    CriteriaError,
    GammaLaw,
    NegBinomLaw,
    birth_count_exponent,
    classify,
    composed_survival,
    composed_survival_exponent,
    expected_birth_count,
    expected_extinction_count,
    exponential_closed_forms,
    extinction_count_exponent,
    hazard_weighted_integral,
    hazard_weighted_integral_xspace,
    laplace_birth_count,
    laplace_extinction_count,
)
from threshold_gms.distributions import (
    Exponential,
    ModelParams,
    Pareto,
    TabulatedQuantile,
    Weibull,
)
from threshold_gms.validation import FINITE_EXAMPLE, TRANSIENT_EXAMPLE


def exp_params(a_fit, a_thr, l_birth=1.0, l_ext=1.0):
    return ModelParams(l_birth, l_ext, Exponential(a_fit), Exponential(a_thr))


def test_composed_survival_exponential_pair_is_a_power():
    params = exp_params(1.0, 2.0)
    for u in (1.0, 0.7, 0.2, 1e-4, 1e-12):
        assert composed_survival(params, u) == pytest.approx(u**2, rel=1e-12)
        assert composed_survival(params.swapped(), u) == pytest.approx(u**0.5, rel=1e-12)


def test_composed_survival_weibull_equal_shape():
    params = ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(2.0, 0.5))
    for u in (0.9, 0.5, 1e-3):
        assert composed_survival(params, u) == pytest.approx(u**4.0, rel=1e-9)


def test_composed_survival_pareto_pair():
    params = ModelParams(1.0, 1.0, Pareto(1.0, 1.0), Pareto(1.0, 3.0))
    for u in (1.0, 0.3, 1e-5):
        assert composed_survival(params, u) == pytest.approx(u**3.0, rel=1e-9)


def test_composed_survival_rejects_bad_argument():
    params = exp_params(1.0, 2.0)
    with pytest.raises(CriteriaError):
        composed_survival(params, 0.0)
    with pytest.raises(CriteriaError):
        composed_survival(params, 1.5)


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
    res = expected_birth_count(FINITE_EXAMPLE)
    assert res.is_finite
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert expected_extinction_count(FINITE_EXAMPLE.swapped()).value == pytest.approx(res.value)


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
    assert laplace_birth_count(TRANSIENT_EXAMPLE, 1.0) == 0.0


def test_laplace_birth_count_closed_form():
    # swapped roles of FINITE_EXAMPLE give the same NegBinom(1, 1/2) count
    expected = 0.5 / (1.0 - 0.5 * math.exp(-1.0))
    assert laplace_birth_count(FINITE_EXAMPLE, 1.0) == pytest.approx(expected, abs=1e-6)


def test_exponent_dominated_by_expected_count():
    for a_fit, a_thr in ((1.0, 1.5), (1.0, 2.0), (0.5, 2.0), (1.5, 2.0)):
        params = exp_params(a_fit, a_thr)
        phi = extinction_count_exponent(params, math.inf)
        e_m = expected_extinction_count(params)
        assert phi.value <= e_m.value + 1e-9


def test_hazard_weighted_integral_of_identity():
    # u = e^-h: the integral of u/u over (0, 1] is that of e^-h over [0, inf).
    res = hazard_weighted_integral(lambda h: np.exp(-h))
    assert res.is_finite
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_hazard_weighted_integral_of_constant_diverges():
    res = hazard_weighted_integral(lambda h: 0.5)
    assert res.is_infinite


def test_hazard_weighted_integral_log_divergence_is_inconclusive():
    # 1/(1 + h) diverges only logarithmically: the panel trend is neither
    # clearly summable nor clearly growing.
    res = hazard_weighted_integral(lambda h: 1.0 / (1.0 + h))
    assert res.verdict == "inconclusive"
    assert res.value is None


def test_hazard_weighted_integral_rejects_bad_integrand():
    with pytest.raises(CriteriaError):
        hazard_weighted_integral(lambda h: -1.0)
    with pytest.raises(CriteriaError):
        hazard_weighted_integral(lambda h: math.nan)


def test_xspace_integral_matches_hspace():
    cases = [
        (Exponential(1.0), Exponential(2.0), 1.0),
        (Pareto(1.0, 1.0), Exponential(1.0), math.exp(-1.0)),
    ]
    for fitness, threshold, expected in cases:
        params = ModelParams(1.0, 1.0, fitness, threshold)

        def mass_density(h):
            return np.exp(h - threshold.hazard_transform_array(fitness.inverse_hazard_array(h)))

        h_side = hazard_weighted_integral(mass_density)

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

    e_m is compared whole.  Both are also compared panel-wise, through
    the partial integral over the first eight panels (h < 8 ln2, past
    every kink here): phi's geometric-tail completion is accurate only to
    the ratio tolerance, which is not what this test measures.
    """
    params = ModelParams(1.0, 1.0, fitness, threshold)

    def ratio(x):
        s_fit = fitness.survival(x)
        return threshold.survival(x) / s_fit if s_fit > 0.0 else 0.0

    def exponent_integrand(x):
        s_fit, s_thr = fitness.survival(x), threshold.survival(x)
        return s_thr / (s_fit + s_thr) if s_thr > 0.0 else 0.0

    e_m = expected_extinction_count(params)
    phi = extinction_count_exponent(params, math.inf)
    assert e_m.is_finite and phi.is_finite
    assert e_m.value == pytest.approx(hazard_weighted_integral_xspace(ratio, fitness), rel=1e-9)
    upper = fitness.inverse_hazard(8 * math.log(2.0))
    for res, integrand in ((e_m, ratio), (phi, exponent_integrand)):
        assert len(res.evidence) >= 8
        x_partial = hazard_weighted_integral_xspace(integrand, fitness, upper)
        assert res.evidence[7] == pytest.approx(x_partial, rel=1e-9)
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
    steeper = ModelParams(1.0, 1.0, Weibull(1.0, 1.0), Weibull(2.0, 1.0))
    assert composed_survival_exponent(steeper) == ("superpolynomial", None)
    flatter = ModelParams(1.0, 1.0, Weibull(2.0, 1.0), Weibull(1.0, 1.0))
    assert composed_survival_exponent(flatter) == ("subpolynomial", None)
    mixed = ModelParams(1.0, 1.0, Exponential(1.0), Pareto(1.0, 3.0))
    assert composed_survival_exponent(mixed) == ("subpolynomial", None)
    mixed_rev = ModelParams(1.0, 1.0, Pareto(1.0, 3.0), Exponential(1.0))
    assert composed_survival_exponent(mixed_rev) == ("superpolynomial", None)
    grid = TabulatedQuantile(grid=((1.0, 0.0), (0.5, 1.0)))
    tab = ModelParams(1.0, 1.0, grid, Exponential(1.0))
    assert composed_survival_exponent(tab) == ("unknown", None)


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


def test_count_criterion_agrees_with_exponent_criterion():
    alphas = (0.5, 1.0, 1.5, 2.0)
    for a_fit in alphas:
        for a_thr in alphas:
            params = exp_params(a_fit, a_thr, l_birth=1.3, l_ext=0.7)
            e_m = expected_extinction_count(params)
            phi = extinction_count_exponent(params, math.inf)
            assert e_m.verdict == phi.verdict
            phi_bar = birth_count_exponent(params, math.inf)
            e_n = expected_birth_count(params)
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
    assert law.mean() == pytest.approx(2.0 / 3.0)
    assert law.cdf(0.0) == pytest.approx(0.0)
    # Laplace transform of Gamma(shape, rate) is (1 + t/rate)^-shape
    assert law.laplace(3.0) == pytest.approx(0.25)
    exp_law = GammaLaw(shape=1.0, rate=1.0)
    assert exp_law.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))


def test_closed_forms_transient_side():
    forms = exponential_closed_forms(1.0, 2.0, 1.0, 1.0)
    assert not forms.extinction_count_diverges
    assert forms.birth_count_diverges
    assert forms.expected_extinctions == pytest.approx(1.0)
    assert forms.expected_births == math.inf
    assert forms.extinction_count_law == NegBinomLaw(r=1.0, p=0.5)
    assert forms.extinction_mass_law == GammaLaw(shape=1.0, rate=1.0)
    assert forms.birth_count_law is None
    assert forms.total_count_law is None
    assert forms.band0_count_law == NegBinomLaw(r=1.0, p=0.5)
    assert forms.band0_mass_law == GammaLaw(shape=1.0, rate=1.0)


def test_closed_forms_finite_limit_side():
    forms = exponential_closed_forms(2.0, 1.0, 1.0, 1.0)
    assert forms.extinction_count_diverges
    assert not forms.birth_count_diverges
    assert forms.expected_births == pytest.approx(1.0)
    assert forms.birth_count_law == NegBinomLaw(r=1.0, p=0.5)
    assert forms.total_count_law == NegBinomLaw(r=2.0, p=0.5)
    assert forms.total_count_law.mean() == pytest.approx(2.0)
    assert forms.extinction_count_law is None
    assert forms.extinction_mass_law is None


def test_closed_forms_balanced_rates():
    forms = exponential_closed_forms(1.0, 1.0, 5.0, 7.0)
    assert forms.extinction_count_diverges and forms.birth_count_diverges
    assert forms.expected_extinctions == math.inf
    assert forms.expected_births == math.inf
    assert forms.extinction_count_law is None
    assert forms.birth_count_law is None
    assert forms.band0_count_law == NegBinomLaw(r=1.0, p=5.0 / 12.0)
    assert forms.band0_mass_law == GammaLaw(shape=1.0, rate=7.0 / 5.0)


def test_closed_forms_validation():
    with pytest.raises(CriteriaError):
        exponential_closed_forms(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(CriteriaError):
        exponential_closed_forms(1.0, 1.0, 1.0, math.inf)


def test_closed_forms_match_quadrature_across_rates():
    for a_fit, a_thr, l_birth, l_ext in (
        (1.0, 2.0, 1.0, 1.0),
        (0.5, 1.5, 2.0, 0.5),
        (1.0, 4.0 / 3.0, 1.0, 1.0),
        (1.0, 1.5, 0.7, 1.3),
    ):
        forms = exponential_closed_forms(a_fit, a_thr, l_birth, l_ext)
        params = exp_params(a_fit, a_thr, l_birth, l_ext)
        res = expected_extinction_count(params)
        assert res.is_finite
        assert res.value == pytest.approx(forms.expected_extinctions, abs=1e-6)
