import math

import numpy as np
import pytest

from threshold_gms.criteria import (
    _COMPLETION_MIN_PANELS,
    _DIVERGENCE_RUN,
    _LN2,
    _MAX_REFINEMENTS,
    _PANEL_ATOL,
    _RATIO_RTOL,
    CriteriaError,
    GammaLaw,
    ImproperIntegral,
    NegBinomLaw,
    _read_panels,
    birth_count_exponent,
    classify,
    classify_many,
    composed_survival,
    composed_survival_exponent,
    expected_birth_count,
    expected_extinction_count,
    exponential_closed_forms,
    extinction_count_exponent,
    hazard_breaks,
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


def _geometric_tail_reference(panels):
    if len(panels) < _COMPLETION_MIN_PANELS:
        return None
    p3, p2, p1, p0 = panels[-4:]
    if not p3 > 0.0 or not p2 > 0.0 or not p1 > 0.0 or not p0 > 0.0:
        return None
    q0 = p0 / p1
    q1 = p1 / p2
    q2 = p2 / p3
    if q0 >= 0.999:
        return None
    if abs(q0 - q1) > _RATIO_RTOL * q0 or abs(q1 - q2) > _RATIO_RTOL * q0:
        return None
    return p0 * q0 / (1.0 - q0)


def _read_panels_reference(pieces):
    """The scalar panel loop: one row, read panel by panel until a rule fires."""
    panels = []
    partial = []
    nondecreasing = 0
    quiet = 0
    prev = None
    for n, piece in enumerate(pieces):
        if not math.isfinite(piece) or piece < -1e-9:
            raise CriteriaError(f"panel [{n * _LN2}, {(n + 1) * _LN2}] evaluated to {piece}")
        piece = max(piece, 0.0)
        panels.append(piece)
        partial.append(math.fsum(panels))
        if prev is not None and piece >= prev * (1.0 - 1e-12):
            nondecreasing += 1
        elif prev is not None:
            nondecreasing = 0
        if nondecreasing >= _DIVERGENCE_RUN and piece > _PANEL_ATOL:
            return ImproperIntegral("infinite", math.inf, tuple(partial))
        tail = _geometric_tail_reference(panels)
        if tail is not None:
            return ImproperIntegral("finite", math.fsum(panels) + tail, tuple(partial))
        quiet = quiet + 1 if piece < _PANEL_ATOL else 0
        if quiet >= 2 and n >= 2:
            return ImproperIntegral("finite", math.fsum(panels), tuple(partial))
        prev = piece
    return ImproperIntegral("inconclusive", None, tuple(partial))


def _panel_rows():
    n = np.arange(_MAX_REFINEMENTS, dtype=float)
    geometric = 0.5**n
    rows = {
        "geometric tail": geometric,
        "divergence": np.full(_MAX_REFINEMENTS, 0.25),
        "growth": 1.0 + n,
        "quiet": np.concatenate([[1.0, 0.3], np.full(_MAX_REFINEMENTS - 2, 1e-12)]),
        "quiet at once": np.zeros(_MAX_REFINEMENTS),
        "slightly negative clamps to quiet": np.concatenate(
            [[1.0, -1e-12], np.full(_MAX_REFINEMENTS - 2, -5e-10)]
        ),
        # Panels 6 and 7 are both quiet and 4..7 decay by exactly 1/2: the tail wins.
        "tail and quiet at one panel": 1.5e-10 * 0.5 ** (n - 5),
        "never stops": 1.0 / (1.0 + n),
        "decay then plateau": np.maximum(0.5**n, 1e-3),
        "nan after stop": np.where(n == 20, np.nan, geometric),
        "negative after stop": np.where(n == 30, -1.0, np.full(_MAX_REFINEMENTS, 0.25)),
        "nan before stop": np.where(n == 3, np.nan, geometric),
        "negative before stop": np.where(n == 5, -1e-3, geometric),
        "inf at panel 0": np.where(n == 0, np.inf, geometric),
        "bad at the stopping panel": np.where(n == 7, -np.inf, geometric),
    }
    rng = np.random.default_rng(2024)
    for i in range(40):
        ratio = rng.uniform(0.2, 1.05)
        noise = np.exp(rng.normal(0.0, rng.choice([0.0, 1e-6, 1e-3, 0.3]), _MAX_REFINEMENTS))
        row = rng.uniform(1e-12, 2.0) * ratio**n * noise
        if i % 5 == 0:
            row[rng.integers(0, _MAX_REFINEMENTS)] = rng.choice([np.nan, -1.0, 0.0, np.inf])
        if i % 7 == 0:
            row[rng.integers(0, _MAX_REFINEMENTS, 3)] = 0.0
        rows[f"random {i}"] = row
    return rows


def test_vectorised_panel_rules_match_the_scalar_loop():
    rows = _panel_rows()
    got = _read_panels(np.stack(list(rows.values())))
    verdicts = set()
    for (label, row), result in zip(rows.items(), got):
        try:
            want = _read_panels_reference(row.tolist())
        except CriteriaError as exc:
            assert isinstance(result, CriteriaError), label
            assert str(result) == str(exc), label
            verdicts.add("error")
            continue
        assert isinstance(result, ImproperIntegral), label
        assert result.verdict == want.verdict, label
        assert result.value == want.value or (result.value is None and want.value is None), label
        assert result.evidence == want.evidence, label
        verdicts.add(result.verdict)
    assert verdicts == {"finite", "infinite", "inconclusive", "error"}
    named = dict(zip(rows, got))
    assert len(named["tail and quiet at one panel"].evidence) == 8
    assert named["tail and quiet at one panel"].value > named["tail and quiet at one panel"].evidence[-1]
    assert named["nan after stop"].is_finite and named["negative after stop"].is_infinite
    assert str(named["nan before stop"]).endswith("evaluated to nan")


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


def test_classify_many_rows_match_the_one_row_integral():
    """Each batch row equals hazard_weighted_integral of its integrand written out."""
    points = _mixed_batch()
    for params, report in zip(points, classify_many(points)):
        for side, swapped in (("e_m", params), ("e_n", params.swapped())):
            fit, thr = swapped.fitness_dist, swapped.threshold_dist

            def comp(h, fit=fit, thr=thr):
                return thr.hazard_transform_array(fit.inverse_hazard_array(h))

            breaks = hazard_breaks(swapped)
            base = hazard_weighted_integral(lambda h: np.exp(h - comp(h)), breaks)
            prefactor = swapped.lambda_extinct / swapped.lambda_birth
            assert report.integrals.evidence[side] == tuple(prefactor * e for e in base.evidence)
            log_r = math.log(swapped.lambda_birth) - math.log(swapped.lambda_extinct)
            phi = hazard_weighted_integral(lambda h: np.exp(-np.logaddexp(0.0, log_r + comp(h) - h)), breaks)
            phi_side = "phi_inf" if side == "e_m" else "phi_bar_inf"
            assert report.integrals.evidence[phi_side] == phi.evidence
            assert getattr(report.integrals, phi_side) == phi.value


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
