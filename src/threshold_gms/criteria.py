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
ladder (finite iff the long-run configuration is finite).  The integrals
are evaluated on dyadic panels [n ln2, (n+1) ln2], one array pass of
Gauss-Legendre nodes for all of them, with a three-way verdict: finite,
infinite, or inconclusive.  Built-in family pairs short-circuit to an
exact power-exponent analysis of the composition as h -> inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    DistributionSpec,
    Exponential,
    ModelParams,
    Pareto,
    Weibull,
    _as_float,
)

VERDICT_FINITE = "finite"
VERDICT_INFINITE = "infinite"
VERDICT_INCONCLUSIVE = "inconclusive"

RECURRENCE_LABEL = {
    VERDICT_FINITE: "Transient",
    VERDICT_INFINITE: "Recurrent",
    VERDICT_INCONCLUSIVE: "Inconclusive",
}
LIMIT_COUNT_LABEL = {
    VERDICT_FINITE: "Finite",
    VERDICT_INFINITE: "Infinite",
    VERDICT_INCONCLUSIVE: "Inconclusive",
}


class CriteriaError(ValueError):
    """Invalid arguments or internally inconsistent classification."""


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use to keep it off the import path."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class ImproperIntegral:
    """Outcome of one improper integral on h in [0, inf).

    value is the finite integral, math.inf for detected divergence, or
    None when the verdict is inconclusive.  evidence holds the partial
    integrals over the growing cutoffs and is non-decreasing.
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


# Dyadic refinement policy of the improper integrals.  Panel n covers
# hazards [n ln2, (n+1) ln2], survival levels [2^-(n+1), 2^-n]; there are
# _MAX_REFINEMENTS of them.  Divergence is declared after _DIVERGENCE_RUN
# consecutive non-decreasing panels above _PANEL_ATOL, convergence once
# two consecutive panels fall below _PANEL_ATOL.
_MAX_REFINEMENTS = 60
_DIVERGENCE_RUN = 10
_PANEL_ATOL = 1e-10

# Geometric tail completion: once the panel ratio has stabilized to this
# relative agreement (and stays clearly below 1), the remaining panels are
# summed as a geometric series instead of being refined further.
_RATIO_RTOL = 1e-4
_COMPLETION_MIN_PANELS = 8


def _geometric_tail(panels: Sequence[float]) -> Optional[float]:
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


_LN2 = math.log(2.0)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Panel 0 is graded toward h = 0, where compositions such as c * h^p
# with p not an integer (Weibull pairs of unequal shapes) are not smooth.
_PANEL0_BREAKS = _LN2 * 2.0 ** -np.arange(1.0, 21.0)


@lru_cache(maxsize=64)
def _panel_nodes(breaks: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes h, their weights, and the dyadic panel of each sub-panel row.

    The dyadic panels are split at every break inside them, and each
    sub-panel gets its own Gauss-Legendre rule.  The arrays are read-only,
    so one node array can be shared by every integral over the same
    panels.
    """
    top = _MAX_REFINEMENTS * _LN2
    inner = np.asarray(breaks, dtype=float)
    edges = np.unique(
        np.concatenate(
            [_LN2 * np.arange(_MAX_REFINEMENTS + 1), _PANEL0_BREAKS, inner[(inner > 0.0) & (inner < top)]]
        )
    )
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    h = mid[:, None] + half[:, None] * _GL_NODES
    w = half[:, None] * _GL_WEIGHTS
    panel = np.minimum(mid // _LN2, _MAX_REFINEMENTS - 1).astype(np.intp)
    for a in (h, w, panel):
        a.flags.writeable = False
    return h, w, panel


def hazard_weighted_integral(
    integrand: Callable[[np.ndarray], np.ndarray], breaks: Sequence[float] = ()
) -> ImproperIntegral:
    """Evaluate the improper integral of integrand(h) over h in [0, inf).

    With u = e^-h this is the integral of f(u)/u over u in (0, 1] for
    f(u) = integrand(-log u), the integral against the record-arrival
    intensity (the cumulative-hazard measure of the mark law) from which
    every criterion integral below arises.  integrand takes an array of
    hazards and must be non-negative; it is called once, on the nodes of
    all _MAX_REFINEMENTS panels.  Each dyadic panel is integrated by
    24-node Gauss-Legendre rules on sub-panels split at ``breaks`` (the
    hazards where the integrand has a kink) and graded toward h = 0.
    The panels are then read in order: a non-finite or negative panel
    raises, a run of non-decreasing panels means divergence, and
    eventually-geometric panel decay (every power-exponent case) is
    finished by summing the geometric tail, which keeps slowly decaying
    exponents inside the refinement budget.  Panels past the stopping
    one are never inspected.
    """
    h, w, panel = _panel_nodes(tuple(breaks))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.broadcast_to(integrand(h), h.shape)
        pieces = np.bincount(panel, weights=(values * w).sum(axis=1), minlength=_MAX_REFINEMENTS)
    panels: list[float] = []
    partial: list[float] = []
    nondecreasing = 0
    quiet = 0
    prev: Optional[float] = None
    for n, piece in enumerate(pieces.tolist()):
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
            return ImproperIntegral(VERDICT_INFINITE, math.inf, tuple(partial))
        tail = _geometric_tail(panels)
        if tail is not None:
            value = math.fsum(panels) + tail
            return ImproperIntegral(VERDICT_FINITE, value, tuple(partial))
        quiet = quiet + 1 if piece < _PANEL_ATOL else 0
        if quiet >= 2 and n >= 2:
            return ImproperIntegral(VERDICT_FINITE, math.fsum(panels), tuple(partial))
        prev = piece
    return ImproperIntegral(VERDICT_INCONCLUSIVE, None, tuple(partial))


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
    h = fit.hazard_transform_array(levels)
    return tuple(np.unique(h[(h > 0.0) & np.isfinite(h)]).tolist())


class _Composition:
    """C(h) = H_thr(H_fit^-1(h)) of one side, kept for the last node array."""

    def __init__(self, params: ModelParams) -> None:
        self.fitness = params.fitness_dist
        self.threshold = params.threshold_dist
        self.breaks = hazard_breaks(params)
        self._h: Optional[np.ndarray] = None
        self._c: Optional[np.ndarray] = None

    def __call__(self, h: np.ndarray) -> np.ndarray:
        if h is not self._h:
            with np.errstate(over="ignore", invalid="ignore"):
                self._c = self.threshold.hazard_transform_array(self.fitness.inverse_hazard_array(h))
            self._c.flags.writeable = False
            self._h = h
        return self._c


@lru_cache(maxsize=8)
def _composition(params: ModelParams) -> _Composition:
    # Shared by e_m and phi_inf of one side (and by every t of the
    # Laplace exponent): the panel node arrays are cached, so these
    # integrals pass the same array and C(h) is computed once.
    return _Composition(params)


def composed_survival(params: ModelParams, u) -> float:
    """Threshold survival at the fitness level with survival u."""
    u = _as_float(u, "u")
    if not 0.0 < u <= 1.0:
        raise CriteriaError(f"u must lie in (0, 1], got {u}")
    return params.threshold_dist.survival(params.fitness_dist.inverse_survival(u))


def expected_extinction_count(params: ModelParams) -> ImproperIntegral:
    """Mean number of extinction marks above the fitness-record ladder.

    Equals (lambda_extinct / lambda_birth) times the integral of the
    ladder's per-step mass density exp(h - C(h)) over h in [0, inf)
    (composed_survival(u)/u^2 over u in (0, 1]); finite exactly in the
    transient regime.  The prefactor is applied to both the value and
    the evidence trail.
    """
    prefactor = params.lambda_extinct / params.lambda_birth
    comp = _composition(params)
    base = hazard_weighted_integral(lambda h: np.exp(h - comp(h)), comp.breaks)
    value = base.value
    if value is not None and math.isfinite(value):
        value *= prefactor
    return ImproperIntegral(
        verdict=base.verdict,
        value=value,
        evidence=tuple(prefactor * e for e in base.evidence),
    )


def expected_birth_count(params: ModelParams) -> ImproperIntegral:
    """Mean number of birth marks above the threshold-record ladder.

    Role-swapped twin of expected_extinction_count; finite exactly when
    the long-run configuration is finite.
    """
    return expected_extinction_count(params.swapped())


def extinction_count_exponent(params: ModelParams, t) -> ImproperIntegral:
    """Cumulant exponent of the ladder extinction count at argument t.

    The count's Laplace transform is exp(-exponent).  t = math.inf is
    accepted and gives the exponent of the survival probability at
    infinity; the integrand is monotone in t, so so is the exponent.
    The integrand is 1/(1 + r exp(C(h) - h)) with
    r = lambda_birth / ((1 - e^-t) lambda_extinct), taken through
    logaddexp so that it never forms inf/inf.
    """
    t = _as_float(t, "t")
    if not t > 0.0:
        raise CriteriaError(f"t must be positive (math.inf allowed), got {t}")
    shrink = 1.0 if math.isinf(t) else -math.expm1(-t)
    log_r = math.log(params.lambda_birth) - math.log(shrink) - math.log(params.lambda_extinct)
    comp = _composition(params)
    return hazard_weighted_integral(
        lambda h: np.exp(-np.logaddexp(0.0, log_r + comp(h) - h)), comp.breaks
    )


def birth_count_exponent(params: ModelParams, t) -> ImproperIntegral:
    """Role-swapped twin of extinction_count_exponent."""
    return extinction_count_exponent(params.swapped(), t)


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


def laplace_birth_count(params: ModelParams, t) -> Optional[float]:
    """Role-swapped twin of laplace_extinction_count."""
    return laplace_extinction_count(params.swapped(), t)


def _tail_shape(dist: DistributionSpec) -> Optional[tuple]:
    """Canonical tail description: ("exp", shape, scale) or ("power", index)."""
    if isinstance(dist, Exponential):
        return ("exp", 1.0, 1.0 / dist.rate)
    if isinstance(dist, Weibull):
        return ("exp", dist.shape, dist.scale)
    if isinstance(dist, Pareto):
        return ("power", dist.index)
    return None


def composed_survival_exponent(params: ModelParams) -> tuple[str, Optional[float]]:
    """Decay class of composed_survival near u = 0.

    Returns ("power", gamma) when the composition behaves like a
    constant times u**gamma, ("superpolynomial", None) when it decays
    faster than any power, ("subpolynomial", None) when slower, and
    ("unknown", None) for tabulated inputs.
    """
    fit = _tail_shape(params.fitness_dist)
    thr = _tail_shape(params.threshold_dist)
    if fit is None or thr is None:
        return ("unknown", None)
    if fit[0] == "power" and thr[0] == "power":
        return ("power", thr[1] / fit[1])
    if fit[0] == "exp" and thr[0] == "exp":
        _, k_fit, s_fit = fit
        _, k_thr, s_thr = thr
        if k_thr > k_fit:
            return ("superpolynomial", None)
        if k_thr < k_fit:
            return ("subpolynomial", None)
        return ("power", (s_fit / s_thr) ** k_fit)
    if fit[0] == "exp":
        # Power-law threshold survival at an exponential-type quantile
        # decays only logarithmically in u.
        return ("subpolynomial", None)
    # Exponential-type threshold survival at a power-growing quantile
    # decays faster than any power of u.
    return ("superpolynomial", None)


def exact_verdict(params: ModelParams) -> Optional[str]:
    """Extinction-count criterion decided by composed_survival_exponent.

    Finite for a power exponent above 1 or superpolynomial decay,
    infinite otherwise; None for tabulated laws, which have no exact
    exponent.  Apply it to params.swapped() for the limit-count side.
    """
    kind, gamma = composed_survival_exponent(params)
    if kind == "power":
        return VERDICT_FINITE if gamma > 1.0 else VERDICT_INFINITE
    if kind == "superpolynomial":
        return VERDICT_FINITE
    if kind == "subpolynomial":
        return VERDICT_INFINITE
    return None


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
        def encode(v: Optional[float]):
            if v is None:
                return None
            if math.isinf(v):
                return "inf"
            return v

        return {
            "recurrence": self.recurrence,
            "limit_count": self.limit_count,
            "method": self.method,
            "null_recurrent_like": self.null_recurrent_like,
            "integrals": {
                "e_m": encode(self.integrals.e_m),
                "e_n": encode(self.integrals.e_n),
                "phi_inf": encode(self.integrals.phi_inf),
                "phi_bar_inf": encode(self.integrals.phi_bar_inf),
            },
            "evidence": {k: list(v) for k, v in self.integrals.evidence.items()},
        }


def classify(params: ModelParams) -> ClassificationReport:
    """Recurrence and limit-count verdicts with supporting integrals.

    Built-in family pairs are decided by the exact decay exponent of the
    survival composition; otherwise the numeric three-way verdict of the
    dyadic-panel quadrature decides.  The numeric integrals are always
    attached as evidence.
    """
    m_analytic = exact_verdict(params)
    n_analytic = exact_verdict(params.swapped())

    e_m = expected_extinction_count(params)
    e_n = expected_birth_count(params)
    phi_inf = extinction_count_exponent(params, math.inf)
    phi_bar_inf = birth_count_exponent(params, math.inf)

    def resolve(analytic: Optional[str], numeric: ImproperIntegral, side: str) -> str:
        if analytic is None:
            return numeric.verdict
        if numeric.verdict != VERDICT_INCONCLUSIVE and numeric.verdict != analytic:
            raise CriteriaError(
                f"{side}: analytic verdict {analytic} contradicts numeric {numeric.verdict}"
            )
        return analytic

    m_verdict = resolve(m_analytic, e_m, "extinction-count criterion")
    n_verdict = resolve(n_analytic, e_n, "birth-count criterion")
    method = (
        "AnalyticExponent" if m_analytic is not None and n_analytic is not None else "NumericCauchy"
    )
    recurrence = RECURRENCE_LABEL[m_verdict]
    limit_count = LIMIT_COUNT_LABEL[n_verdict]
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

    def pmf(self, k):
        from scipy import stats

        return stats.nbinom.pmf(k, self.r, 1.0 - self.p)

    def cdf(self, k):
        from scipy import stats

        return stats.nbinom.cdf(k, self.r, 1.0 - self.p)

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
        from scipy import stats

        return stats.gamma.cdf(x, a=self.shape, scale=1.0 / self.rate)

    def mean(self) -> float:
        return self.shape / self.rate

    def laplace(self, t: float) -> float:
        return (1.0 + t / self.rate) ** (-self.shape)


@dataclass(frozen=True)
class ExponentialClosedForms:
    """Exact laws for an exponential fitness/threshold pair.

    The extinction-count side (count above the fitness ladder and its
    mass) exists when the threshold parameter exceeds the fitness one;
    the birth-count side (limit-configuration counts) in the opposite
    case.  The band-0 laws hold in every regime.
    """

    alpha_fitness: float
    alpha_threshold: float
    lambda_birth: float
    lambda_extinct: float
    extinction_count_diverges: bool
    birth_count_diverges: bool
    expected_extinctions: float
    expected_births: float
    extinction_count_law: Optional[NegBinomLaw]
    extinction_mass_law: Optional[GammaLaw]
    birth_count_law: Optional[NegBinomLaw]
    total_count_law: Optional[NegBinomLaw]
    band0_count_law: NegBinomLaw
    band0_mass_law: GammaLaw


def exponential_closed_forms(
    alpha_fitness, alpha_threshold, lambda_birth, lambda_extinct
) -> ExponentialClosedForms:
    """Closed-form laws for exponential marks on both streams."""
    a_fit = _as_float(alpha_fitness, "alpha_fitness")
    a_thr = _as_float(alpha_threshold, "alpha_threshold")
    l_birth = _as_float(lambda_birth, "lambda_birth")
    l_ext = _as_float(lambda_extinct, "lambda_extinct")
    for name, v in (
        ("alpha_fitness", a_fit),
        ("alpha_threshold", a_thr),
        ("lambda_birth", l_birth),
        ("lambda_extinct", l_ext),
    ):
        if not 0.0 < v < math.inf:
            raise CriteriaError(f"{name} must be positive and finite, got {v}")

    birth_share = l_birth / (l_birth + l_ext)
    band0_count = NegBinomLaw(r=1.0, p=birth_share)
    band0_mass = GammaLaw(shape=1.0, rate=l_ext / l_birth)

    ext_law = mass_law = None
    birth_law = total_law = None
    if a_thr > a_fit:
        r = a_fit / (a_thr - a_fit)
        ext_law = NegBinomLaw(r=r, p=l_ext / (l_birth + l_ext))
        mass_law = GammaLaw(shape=r, rate=l_birth / l_ext)
        expected_ext = (l_ext / l_birth) * r
        expected_birth = math.inf
    elif a_fit > a_thr:
        r = a_thr / (a_fit - a_thr)
        birth_law = NegBinomLaw(r=r, p=birth_share)
        total_law = NegBinomLaw(r=a_fit / (a_fit - a_thr), p=birth_share)
        expected_birth = (l_birth / l_ext) * r
        expected_ext = math.inf
    else:
        expected_ext = math.inf
        expected_birth = math.inf

    return ExponentialClosedForms(
        alpha_fitness=a_fit,
        alpha_threshold=a_thr,
        lambda_birth=l_birth,
        lambda_extinct=l_ext,
        extinction_count_diverges=not a_thr > a_fit,
        birth_count_diverges=not a_fit > a_thr,
        expected_extinctions=expected_ext,
        expected_births=expected_birth,
        extinction_count_law=ext_law,
        extinction_mass_law=mass_law,
        birth_count_law=birth_law,
        total_count_law=total_law,
        band0_count_law=band0_count,
        band0_mass_law=band0_mass,
    )
