"""Integral criteria separating the process regimes.

Everything reduces to improper integrals over the cumulative hazard h of
the fitness law, the same coordinate the ladder samplers walk.  The
composition

    C(h) = H_thr(H_fit^-1(h))

is the threshold hazard at the fitness level whose hazard is h.  The
mean number of extinction marks above the fitness ladder integrates the
ladder's per-step mass density exp(h - C(h)) over h in [0, inf) (finite
iff the process is transient); after swapping the two roles the same
integral gives the mean number of birth marks above the threshold
ladder (finite iff the long-run configuration is finite).

Whether an integral is finite, and how it behaves past the last kink h*
of its mark pair, depend only on the pair's tail class
(composed_survival_exponent), which also gives the verdicts.  Each row is
evaluated once, on dyadic panels [n ln2, (n+1) ln2] of Gauss-Legendre
nodes through the first panel that starts past h*.  Past that panel a
power pair's C is exactly linear, so the row is finished in closed form;
a superpolynomial pair's C is convex, so the row reads on until the
secant bound on the rest is negligible.  classify_many evaluates every
integral of a batch of points as rows of shared node arrays, in chunks
of bounded size; C(h) and the mass-density integral depend only on the
mark pair, so points that differ only in their rates share them.
classify is the batch of one point, hazard_weighted_integral the one
mass-density row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    DistributionError,
    DistributionSpec,
    Exponential,
    ModelParams,
    Pareto,
    TabulatedQuantile,
    Weibull,
    _as_float,
    _encode_float,
    _pow,
)
from .process import BLOCK_CHUNK_CELLS

VERDICT_FINITE = "finite"
VERDICT_INFINITE = "infinite"
VERDICT_INCONCLUSIVE = "inconclusive"

RECURRENCE_LABEL = {VERDICT_FINITE: "Transient", VERDICT_INFINITE: "Recurrent"}
LIMIT_COUNT_LABEL = {VERDICT_FINITE: "Finite", VERDICT_INFINITE: "Infinite"}


class CriteriaError(ValueError):
    """Invalid arguments or internally inconsistent classification."""


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use to keep it off the import path."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class ImproperIntegral:
    """Outcome of one improper integral on h in [0, inf).

    value is the finite integral, math.inf for a divergent one, or None
    when the verdict is inconclusive.  evidence holds the partial
    integrals over the panels read and is non-decreasing.
    """

    verdict: str
    value: Optional[float]
    evidence: tuple[float, ...]

    @property
    def is_finite(self) -> bool:
        return self.verdict == VERDICT_FINITE

    @property
    def is_infinite(self) -> bool:
        return self.verdict == VERDICT_INFINITE


# Dyadic panels.  Panel n covers hazards [n ln2, (n+1) ln2], survival
# levels [2^-(n+1), 2^-n].  A row reads the panels through n*, the first
# that starts past the last kink of its pair; a superpolynomial row reads
# on, at most _MAX_REFINEMENTS panels past n*, until its secant tail bound
# falls below _TAIL_ATOL, where dropping the rest changes an integral of
# order one by at most one rounding.  No grid reaches past survival
# 2^-_MAX_PANELS, the smallest double.
_MAX_REFINEMENTS = 60
_MAX_PANELS = 1074
_TAIL_ATOL = float(np.finfo(float).eps)

_LN2 = math.log(2.0)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Panel 0 is graded toward h = 0, where compositions such as c * h^p
# with p not an integer (Weibull pairs of unequal shapes) are not smooth.
_PANEL0_BREAKS = _LN2 * 2.0 ** -np.arange(1.0, 21.0)


@lru_cache(maxsize=64)
def _panel_nodes(breaks: tuple[float, ...]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Panel n* of the breaks, and the quadrature nodes h, their weights and the dyadic panel of each sub-panel row.

    The grid holds the panels through n* and _MAX_REFINEMENTS more, at
    most _MAX_PANELS.  The dyadic panels are split at every break inside
    them, and each sub-panel gets its own Gauss-Legendre rule.  The
    arrays are read-only, so one node array can be shared by every
    integral over the same panels.
    """
    first = min(int(max(breaks, default=0.0) // _LN2) + 1, _MAX_PANELS)
    count = min(first + _MAX_REFINEMENTS, _MAX_PANELS)
    top = count * _LN2
    inner = np.asarray(breaks, dtype=float)
    edges = np.unique(
        np.concatenate([_LN2 * np.arange(count + 1), _PANEL0_BREAKS, inner[(inner > 0.0) & (inner < top)]])
    )
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    h = mid[:, None] + half[:, None] * _GL_NODES
    w = half[:, None] * _GL_WEIGHTS
    panel = np.minimum(mid // _LN2, count - 1).astype(np.intp)
    for a in (h, w, panel):
        a.flags.writeable = False
    return first, h, w, panel


def _panel_sums(values: np.ndarray, w: np.ndarray, panel: np.ndarray) -> np.ndarray:
    """Dyadic panel integrals of rows of integrand values on the sub-panels of panels 0 .. panel[-1].

    Each sub-panel's weighted nodes are summed along the last axis; one
    bincount over row * panels + panel then adds the sub-panels of each
    row into its panels, in sub-panel order.
    """
    rows, count = values.shape[0], int(panel[-1]) + 1
    index = (np.arange(rows)[:, None] * count + panel).ravel()
    sums = (values * w).sum(axis=-1).ravel()
    return np.bincount(index, weights=sums, minlength=rows * count).reshape(rows, count)


def _row_read(kind: str, gamma: Optional[float], d: np.ndarray, first: int, log_r: Optional[float]) -> tuple:
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


def _row_result(pieces: np.ndarray, verdict: str, rest: Optional[float]):
    """The ImproperIntegral of a row's panel integrals and _row_read's rest, or the CriteriaError of a bad panel.

    The evidence holds the exactly rounded partial sums of the panels.
    """
    bad = ~np.isfinite(pieces)
    if bad.any():
        n = int(bad.argmax())
        return CriteriaError(f"panel [{n * _LN2}, {(n + 1) * _LN2}] evaluated to {pieces[n]}")
    panels = pieces.tolist()
    partial = tuple([math.fsum(panels[: i + 1]) for i in range(len(panels))])
    value = rest
    if verdict == VERDICT_FINITE:
        value = math.fsum([*panels, rest])
        if not math.isfinite(value):
            return CriteriaError(f"tail past h = {len(panels) * _LN2} evaluated to {rest}")
    return ImproperIntegral(verdict, value, partial)


def _checked(result):
    if isinstance(result, CriteriaError):
        raise result
    return result


def hazard_weighted_integral(params: ModelParams) -> ImproperIntegral:
    """Integral of the ladder's per-step mass density exp(h - C(h)) over h in [0, inf).

    With u = e^-h it is the integral of R(u)/u over u in (0, 1], where
    R(u) = S_thr(S_fit^-1(u))/u is the survival ratio at the fitness
    level of survival u and du/u the record-arrival intensity of the
    fitness law.  It is the mass-density row of classify, without the
    rate prefactor of expected_extinction_count.
    """
    return _checked(_criterion_integrals([(params, None)])[0])


def hazard_weighted_integral_xspace(
    integrand: Callable[[float], float],
    dist: DistributionSpec,
    upper: float = math.inf,
) -> float:
    """Level-space cross-check of hazard_weighted_integral.

    Integrates integrand(x) against the cumulative-hazard density of
    ``dist`` over [support_lower, upper) with adaptive scalar quadrature,
    an independent route to the same values.  Intended for finite cases
    only; no divergence detection is attempted.
    """
    value, _ = quad(
        lambda x: integrand(x) * dist.hazard_density(x),
        dist.support_lower,
        upper,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=500,
    )
    return value


def hazard_breaks(params: ModelParams) -> tuple[float, ...]:
    """Fitness hazards in (0, inf) where the composition C(h) has a kink.

    These are the kink levels of both laws (support edges, tabulated
    nodes) mapped through the fitness hazard, sorted.
    """
    fit = params.fitness_dist
    levels = np.concatenate([fit.kink_levels(), params.threshold_dist.kink_levels()])
    return tuple(sorted({h for h in fit.hazard_transform_array(levels).tolist() if 0.0 < h < math.inf}))


def _composition(params: ModelParams, h: np.ndarray) -> np.ndarray:
    """C(h) = H_thr(H_fit^-1(h)) on the hazards h."""
    return params.threshold_dist.hazard_transform_array(params.fitness_dist.inverse_hazard_array(h))


def _integrands(keys: list, sides: list[ModelParams], h: np.ndarray) -> np.ndarray:
    """Integrand rows of criterion row keys, mass-density rows first, on the nodes h.

    C(h) = H_thr(H_fit^-1(h)) is taken once per mark pair among the keys,
    copied to the pair's other rows, and turned into each row's integrand
    in place, which keeps one array of the rows' size alive besides the
    weighted one.  A count-exponent row is the logistic 1/(1 + e^x) of
    x = log r + C(h) - h, formed by vector exp, add and reciprocal: where
    e^x overflows to inf the value is 0, the integrand's limit, and a NaN
    stays NaN, so no inf/inf arises and a bad panel is still reported.
    """
    n_base = sum(log_r is None for _, log_r in keys)
    log_r = np.array([log_r for _, log_r in keys[n_base:]])
    values = np.empty((len(keys),) + h.shape)
    first: dict = {}
    for i, (pair, _) in enumerate(keys):
        j = first.setdefault(pair, i)
        if j < i:
            values[i] = values[j]
        else:
            values[i] = _composition(sides[pair], h)
    base, exponent = values[:n_base], values[n_base:]
    np.exp(np.subtract(h, base, out=base), out=base)
    exponent += log_r[:, None, None]
    exponent -= h
    np.exp(exponent, out=exponent)
    exponent += 1.0
    np.reciprocal(exponent, out=exponent)
    return values


def _criterion_integrals(rows: Sequence[tuple[ModelParams, Optional[float]]]) -> list:
    """Criterion integrals of one side each, one row per distinct (mark pair, log r).

    A row (params, None) is the integral of the ladder's per-step mass
    density exp(h - C(h)), without its rate prefactor; a row
    (params, log_r) the count exponent's integrand 1/(1 + r exp(C(h) - h)),
    formed as the logistic of log r + C(h) - h (see _integrands), so that
    it never forms inf/inf.  Only the mark pair of params and log_r
    enter, so equal rows are evaluated once.  _row_read decides from the
    pair's tail class and C on the panel edges which panels each row
    reads; rows that read the same panels of the same node array are
    evaluated together, in chunks of at most BLOCK_CHUNK_CELLS nodes that
    take C(h) once per pair in them.  Returns per row an ImproperIntegral
    or the CriteriaError of a bad panel.
    """
    first: dict = {}
    sides: list[ModelParams] = []
    keys = []
    for params, log_r in rows:
        pair = first.setdefault((params.fitness_dist, params.threshold_dist), len(first))
        if pair == len(sides):
            sides.append(params)
        keys.append((pair, log_r))
    breaks = [hazard_breaks(params) for params in sides]
    shapes = [composed_survival_exponent(params) for params in sides]
    edge_d: dict = {}
    reads: dict[tuple, list] = {}
    ends = {}
    results: dict = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for key in dict.fromkeys(keys):
            pair, log_r = key
            n_star, _, _, panel = _panel_nodes(breaks[pair])
            if pair not in edge_d:
                edges = _LN2 * np.arange(panel[-1] + 2.0)
                edge_d[pair] = edges - _composition(sides[pair], edges)
            last, verdict, rest = _row_read(*shapes[pair], edge_d[pair], n_star, log_r)
            ends[key] = (verdict, rest)
            reads.setdefault((breaks[pair], last), []).append(key)
        for (group_breaks, last), members in reads.items():
            _, h, w, panel = _panel_nodes(group_breaks)
            nodes = int(np.searchsorted(panel, last, side="right"))
            h, w, panel = h[:nodes], w[:nodes], panel[:nodes]
            # Mass-density rows first, as _integrands takes them.
            members.sort(key=lambda key: key[1] is not None)
            step = max(BLOCK_CHUNK_CELLS // h.size, 1)
            pieces = np.concatenate(
                [
                    _panel_sums(_integrands(members[start : start + step], sides, h), w, panel)
                    for start in range(0, len(members), step)
                ]
            )
            for key, row in zip(members, pieces):
                results[key] = _row_result(row, *ends[key])
    return [results[key] for key in keys]


def _scaled(base: ImproperIntegral, prefactor: float) -> ImproperIntegral:
    """base with its finite value and its evidence trail multiplied by prefactor."""
    value = base.value
    if value is not None and math.isfinite(value):
        value *= prefactor
    return ImproperIntegral(
        verdict=base.verdict,
        value=value,
        evidence=tuple(prefactor * e for e in base.evidence),
    )


def _log_r(params: ModelParams, t: float) -> float:
    """log r of the count exponent at argument t, r = lambda_birth / ((1 - e^-t) lambda_extinct)."""
    shrink = 1.0 if math.isinf(t) else -math.expm1(-t)
    return math.log(params.lambda_birth) - math.log(shrink) - math.log(params.lambda_extinct)


def expected_extinction_count(params: ModelParams) -> ImproperIntegral:
    """Mean number of extinction marks above the fitness-record ladder.

    Equals (lambda_extinct / lambda_birth) times the integral of the
    ladder's per-step mass density exp(h - C(h)) over h in [0, inf);
    finite exactly in the transient regime.  The prefactor is applied to
    both the value and the evidence trail.
    """
    return _scaled(hazard_weighted_integral(params), params.lambda_extinct / params.lambda_birth)


def extinction_count_exponent(params: ModelParams, t) -> ImproperIntegral:
    """Cumulant exponent of the ladder extinction count at argument t.

    The count's Laplace transform is exp(-exponent).  t = math.inf is
    accepted and gives the exponent of the survival probability at
    infinity; the integrand is monotone in t, so so is the exponent.
    The integrand is 1/(1 + r exp(C(h) - h)) with
    r = lambda_birth / ((1 - e^-t) lambda_extinct), formed as
    1/(1 + exp(log r + C(h) - h)): an overflowing exp gives the limit 0,
    so it never forms inf/inf.
    """
    try:
        t = _as_float(t, "t")
    except DistributionError as exc:
        raise CriteriaError(str(exc)) from None
    if not t > 0.0:
        raise CriteriaError(f"t must be positive (math.inf allowed), got {t}")
    return _checked(_criterion_integrals([(params, _log_r(params, t))])[0])


def laplace_extinction_count(params: ModelParams, t) -> Optional[float]:
    """E[exp(-t * ladder extinction count)].

    Returns exp(-exponent); 0.0 when the exponent diverges (the count
    is infinite with positive probability); None when inconclusive.
    """
    res = extinction_count_exponent(params, t)
    if res.is_finite:
        return math.exp(-res.value)
    if res.is_infinite:
        return 0.0
    return None


def _tail_shape(dist: DistributionSpec) -> tuple:
    """Canonical tail description: ("exp", shape, scale) or ("power", index).

    A tabulated law's log-linear tail past its last node is an
    exponential one, at the rate of its last segment.
    """
    if isinstance(dist, Exponential):
        return ("exp", 1.0, 1.0 / dist.rate)
    if isinstance(dist, Weibull):
        return ("exp", dist.shape, dist.scale)
    if isinstance(dist, Pareto):
        return ("power", dist.index)
    if isinstance(dist, TabulatedQuantile):
        return ("exp", 1.0, -1.0 / dist._tail_slope)
    raise CriteriaError(f"no tail shape for {type(dist).__name__}")


def composed_survival_exponent(params: ModelParams) -> tuple[str, Optional[float]]:
    """Decay class of the composed survival S_thr(S_fit^-1(u)) near u = 0.

    Returns ("power", gamma) when the composition behaves like a
    constant times u**gamma, ("superpolynomial", None) when it decays
    faster than any power, and ("subpolynomial", None) when slower.
    For a power pair C(h) = gamma h + c holds exactly past the last
    kink (hazard_breaks); for a superpolynomial pair C is convex there.
    """
    fit = _tail_shape(params.fitness_dist)
    thr = _tail_shape(params.threshold_dist)
    if fit[0] == "power" and thr[0] == "power":
        return ("power", thr[1] / fit[1])
    if fit[0] == "exp" and thr[0] == "exp":
        _, k_fit, s_fit = fit
        _, k_thr, s_thr = thr
        if k_thr > k_fit:
            return ("superpolynomial", None)
        if k_thr < k_fit:
            return ("subpolynomial", None)
        return ("power", _pow(s_fit / s_thr, k_fit))
    if fit[0] == "exp":
        # Power-law threshold survival at an exponential-type quantile
        # decays only logarithmically in u.
        return ("subpolynomial", None)
    # Exponential-type threshold survival at a power-growing quantile
    # decays faster than any power of u.
    return ("superpolynomial", None)


def exact_verdict(params: ModelParams) -> str:
    """Extinction-count criterion decided by composed_survival_exponent.

    Finite for a power exponent above 1 or superpolynomial decay,
    infinite otherwise.  Apply it to params.swapped() for the
    limit-count side.
    """
    kind, gamma = composed_survival_exponent(params)
    if kind == "power":
        return VERDICT_FINITE if gamma > 1.0 else VERDICT_INFINITE
    return VERDICT_FINITE if kind == "superpolynomial" else VERDICT_INFINITE


@dataclass(frozen=True)
class CriterionIntegrals:
    """Numeric values and evidence trails of the four criterion integrals."""

    e_m: Optional[float]
    e_n: Optional[float]
    phi_inf: Optional[float]
    phi_bar_inf: Optional[float]
    evidence: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class ClassificationReport:
    """Joint recurrence / limit-count verdict for one parameter set."""

    recurrence: str
    limit_count: str
    method: str
    integrals: CriterionIntegrals
    null_recurrent_like: bool

    def to_json(self) -> dict:
        return {
            "recurrence": self.recurrence,
            "limit_count": self.limit_count,
            "method": self.method,
            "null_recurrent_like": self.null_recurrent_like,
            "integrals": {
                "e_m": _encode_float(self.integrals.e_m),
                "e_n": _encode_float(self.integrals.e_n),
                "phi_inf": _encode_float(self.integrals.phi_inf),
                "phi_bar_inf": _encode_float(self.integrals.phi_bar_inf),
            },
            "evidence": {k: list(v) for k, v in self.integrals.evidence.items()},
        }


def classify(params: ModelParams) -> ClassificationReport:
    """Recurrence and limit-count verdicts with supporting integrals.

    The verdicts are exact_verdict of both sides, from the tail class of
    the mark pair; the four criterion integrals and their evidence are
    attached.  method is "NumericCauchy" when a law is tabulated and
    "AnalyticExponent" otherwise.  This is classify_many of one point.
    """
    return classify_many([params])[0]


def classify_many(points: Sequence[ModelParams]) -> list[ClassificationReport]:
    """classify of every point of a batch, in one array pass.

    The four criterion integrals of all points are rows of shared node
    arrays (see _criterion_integrals).  The mass-density integral and
    C(h) depend only on the mark pair (the rate prefactor multiplies
    value and evidence afterwards), so points
    that differ only in their rates share them; the count exponents keep
    one row per point and side.  Each report equals classify of its
    point bit for bit, and the first point, in order, that classify
    would refuse raises the same CriteriaError.
    """
    sides = [(params, params.swapped()) for params in points]
    rows = []
    for params, swapped in sides:
        rows += [
            (params, None),
            (swapped, None),
            (params, _log_r(params, math.inf)),
            (swapped, _log_r(swapped, math.inf)),
        ]
    integrals = _criterion_integrals(rows)
    return [
        _report(params, swapped, *integrals[4 * i : 4 * i + 4]) for i, (params, swapped) in enumerate(sides)
    ]


def _report(
    params: ModelParams, swapped: ModelParams, base_m, base_n, phi_inf, phi_bar_inf
) -> ClassificationReport:
    e_m = _scaled(_checked(base_m), params.lambda_extinct / params.lambda_birth)
    e_n = _scaled(_checked(base_n), swapped.lambda_extinct / swapped.lambda_birth)
    phi_inf = _checked(phi_inf)
    phi_bar_inf = _checked(phi_bar_inf)
    tabulated = any(isinstance(d, TabulatedQuantile) for d in (params.fitness_dist, params.threshold_dist))
    method = "NumericCauchy" if tabulated else "AnalyticExponent"
    recurrence = RECURRENCE_LABEL[exact_verdict(params)]
    limit_count = LIMIT_COUNT_LABEL[exact_verdict(swapped)]
    integrals = CriterionIntegrals(
        e_m=e_m.value,
        e_n=e_n.value,
        phi_inf=phi_inf.value,
        phi_bar_inf=phi_bar_inf.value,
        evidence={
            "e_m": e_m.evidence,
            "e_n": e_n.evidence,
            "phi_inf": phi_inf.evidence,
            "phi_bar_inf": phi_bar_inf.evidence,
        },
    )
    return ClassificationReport(
        recurrence=recurrence,
        limit_count=limit_count,
        method=method,
        integrals=integrals,
        null_recurrent_like=(recurrence == "Recurrent" and limit_count == "Infinite"),
    )


@dataclass(frozen=True)
class NegBinomLaw:
    """Negative binomial on {0,1,...}: P(X=k) = C(k+r-1, k) (1-p)^r p^k."""

    r: float
    p: float

    # scipy.stats.nbinom's Boost kernels, called directly: zero off the support.
    def pmf(self, k):
        from scipy.special._ufuncs import _nbinom_pmf

        k = np.asarray(k)
        return np.where((k < 0) | (k != np.floor(k)), 0.0, _nbinom_pmf(k, self.r, 1.0 - self.p))[()]

    def cdf(self, k):
        from scipy.special._ufuncs import _nbinom_cdf

        k = np.floor(k)
        return np.where(k < 0, 0.0, _nbinom_cdf(k, self.r, 1.0 - self.p))[()]

    def mean(self) -> float:
        return self.r * self.p / (1.0 - self.p)

    def laplace(self, t: float) -> float:
        return ((1.0 - self.p) / (1.0 - self.p * math.exp(-t))) ** self.r


@dataclass(frozen=True)
class GammaLaw:
    """Gamma with shape/rate parameterization; shape 1 is exponential."""

    shape: float
    rate: float

    def cdf(self, x):
        from scipy.special import gammainc

        # scipy.stats.gamma's scaling, to the bit; zero below the support.
        return gammainc(self.shape, np.maximum(x, 0.0) / (1.0 / self.rate))


@dataclass(frozen=True)
class ExponentialClosedForms:
    """Exact laws for an exponential fitness/threshold pair; None where the count diverges.

    The extinction count above the fitness ladder and its mass exist
    when the threshold rate exceeds the fitness one, the limit
    configuration's total in the opposite case.  The band-0 laws hold in
    every regime.  The birth count above the threshold ladder is the
    extinction_count_law of params.swapped().
    """

    extinction_count_law: Optional[NegBinomLaw]
    extinction_mass_law: Optional[GammaLaw]
    total_count_law: Optional[NegBinomLaw]
    band0_count_law: NegBinomLaw
    band0_mass_law: GammaLaw


def exponential_closed_forms(params: ModelParams) -> ExponentialClosedForms:
    """Closed-form laws for exponential marks on both streams."""
    fit, thr = params.fitness_dist, params.threshold_dist
    if not (isinstance(fit, Exponential) and isinstance(thr, Exponential)):
        raise CriteriaError("closed forms need exponential fitness and threshold laws")
    l_birth, l_ext = params.lambda_birth, params.lambda_extinct
    birth_share = l_birth / (l_birth + l_ext)
    ext_law = mass_law = total_law = None
    if thr.rate > fit.rate:
        r = fit.rate / (thr.rate - fit.rate)
        ext_law = NegBinomLaw(r=r, p=l_ext / (l_birth + l_ext))
        mass_law = GammaLaw(shape=r, rate=l_birth / l_ext)
    elif fit.rate > thr.rate:
        total_law = NegBinomLaw(r=fit.rate / (fit.rate - thr.rate), p=birth_share)
    return ExponentialClosedForms(
        extinction_count_law=ext_law,
        extinction_mass_law=mass_law,
        total_count_law=total_law,
        band0_count_law=NegBinomLaw(r=1.0, p=birth_share),
        band0_mass_law=GammaLaw(shape=1.0, rate=l_ext / l_birth),
    )
