import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

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
    _criterion_integrals,
    _panel_nodes,
    _panel_sums,
    _read_panels,
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


def exp_params(a_fit, a_thr, l_birth=1.0, l_ext=1.0):
    return ModelParams(l_birth, l_ext, Exponential(a_fit), Exponential(a_thr))


def _composition(params, h):
    """C(h) = H_thr(H_fit^-1(h)), read off the mass-density row exp(h - C(h)) that _integrands evaluates."""
    h = np.asarray(h, dtype=float)[None, :]
    return (h - np.log(_integrands([(0, None)], [params], h)[0]))[0]


HAZARDS = np.array([0.0, 0.36, 1.6, 9.2, 27.6])


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


def test_hazard_weighted_integral_evaluates_past_panel_ten_only_when_needed():
    """The integrand sees panels 0.._DIVERGENCE_RUN first, and the rest only if no rule stopped there."""
    h, _, panel = _panel_nodes(())
    first = int(np.count_nonzero(panel <= _DIVERGENCE_RUN)) * h.shape[1]
    cases = {
        "tail at panel 7": (lambda h: np.exp(-h), [first]),
        "divergence at panel 10": (lambda h: 0.5, [first]),
        "inconclusive": (lambda h: 1.0 / (1.0 + h), [first, h.size - first]),
    }
    for label, (integrand, want) in cases.items():
        seen = []

        def counting(h, integrand=integrand, seen=seen):
            seen.append(h.size)
            return integrand(h)

        hazard_weighted_integral(counting)
        assert seen == want, label


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


def _on_panels(h, panels):
    """Mask of the hazards h that lie in the given dyadic panels."""
    return np.isin(np.floor(h / _LN2), panels)


def _halved_from(h, *panels):
    """exp(-h), halved from the start of each of the given dyadic panels on."""
    return np.exp(-h) * 0.5 ** sum(h >= n * _LN2 for n in panels)


# Mass densities g(h) of the rows of the two-pass tests, with the panel
# at which the rules stop each.  A halving at panel k breaks the run of
# equal panel ratios that the geometric tail needs at panels k .. k + 2,
# and a step down at panel k resets the run of non-decreasing panels
# that divergence needs, so it fires at k + 10.
TWO_PASS_DENSITIES = {
    "tail at 9": (lambda h: _halved_from(h, 6), 9),
    "tail at 11": (lambda h: _halved_from(h, 5, 8), 11),
    "tail at 12": (lambda h: _halved_from(h, 5, 7, 9), 12),
    "divergence at 10": (lambda h: np.full_like(h, 0.5), 10),
    "divergence at 11": (lambda h: 0.5 + (h < _LN2), 11),
    "divergence at 12": (lambda h: 0.5 + (h < 2 * _LN2), 12),
    "inconclusive": (lambda h: 1.0 / (1.0 + h), 59),
    "nan after the stop in pass 1": (lambda h: np.where(_on_panels(h, [8, 9]), np.nan, np.exp(-h)), 7),
    "nan after the stop in pass 2": (lambda h: np.where(_on_panels(h, [20]), np.nan, np.full_like(h, 0.5)), 10),
    "inf after the stop in pass 2": (lambda h: np.where(_on_panels(h, [11]), np.inf, _halved_from(h, 6)), 9),
    "nan in pass 2 before the stop": (lambda h: np.where(_on_panels(h, [30]), np.nan, 1.0 / (1.0 + h)), 30),
}


@dataclass(frozen=True)
class DensityThreshold(Exponential):
    """Threshold law whose composition with an exp(1) fitness law has mass density TWO_PASS_DENSITIES[label]."""

    label: str = ""

    def hazard_transform_array(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return x - np.log(TWO_PASS_DENSITIES[self.label][0](x))


def _all_panel_reference(params, log_r):
    """One criterion row on all _MAX_REFINEMENTS panels, read by _read_panels."""
    h, w, panel = _panel_nodes(hazard_breaks(params))
    with np.errstate(over="ignore", invalid="ignore"):
        comp = params.threshold_dist.hazard_transform_array(params.fitness_dist.inverse_hazard_array(h))
        if log_r is None:
            values = np.exp(h - comp)
        else:
            values = np.exp(-np.logaddexp(0.0, log_r + comp - h))
        return _read_panels(_panel_sums(values[None], w, panel))[0]


def test_two_pass_reader_matches_all_panels_bit_for_bit():
    """Rows stopped in either pass, and bad panels past or before a stop, read as on all 60 panels."""
    density_rows = [
        (ModelParams(lb, 1.0, Exponential(1.0), DensityThreshold(1.0, label)), log_r)
        for label in TWO_PASS_DENSITIES
        for lb, log_r in ((1.0, None), (2.0, None), (1.0, math.log(0.01)))
    ]
    # Mixed pairs: node arrays with and without breaks, mass-density and
    # count-exponent rows, repeated rows.
    mixed = [
        (params, log_r)
        for params in _mixed_batch()[::3]
        for log_r in (None, 0.0, math.log(1.3 / 0.7))
    ]
    rows = density_rows + mixed + density_rows[:4]
    got = _criterion_integrals(rows)
    assert len(got) == len(rows)
    for (params, log_r), result in zip(rows, got):
        want = _all_panel_reference(params, log_r)
        if isinstance(want, CriteriaError):
            assert isinstance(result, CriteriaError) and str(result) == str(want)
            continue
        assert result == want
        if log_r is None and isinstance(params.threshold_dist, DensityThreshold):
            label = params.threshold_dist.label
            assert len(result.evidence) == TWO_PASS_DENSITIES[label][1] + 1, label
    error = got[[p.threshold_dist for p, _ in rows].index(DensityThreshold(1.0, "nan in pass 2 before the stop"))]
    assert str(error) == f"panel [{30 * _LN2}, {31 * _LN2}] evaluated to nan"


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
