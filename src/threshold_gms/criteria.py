"""Integral criteria separating the process regimes.

Everything reduces to improper integrals of a survival composition
against the record-arrival intensity.  With u denoting a fitness
survival level, the composition

    composed_survival(u) = threshold survival at the fitness level
                           whose survival equals u

drives both the expected number of extinction marks above the fitness
ladder (finite iff the process is transient) and, after swapping the
two roles, the expected number of birth marks above the threshold
ladder (finite iff the long-run configuration is finite).  Integrals
are evaluated in u-space, where the only singularity sits at u -> 0,
over a dyadic cutoff ladder with a three-way verdict: finite, infinite,
or inconclusive.  Built-in family pairs short-circuit to an exact
power-exponent analysis of the composition near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from scipy.integrate import quad

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


@dataclass(frozen=True)
class CutoffLadder:
    """Dyadic refinement policy for the improper integrals.

    Panel n covers [2^-(n+1), 2^-n].  Divergence is declared after
    divergence_run consecutive non-decreasing panel increments above
    panel_atol; convergence once two consecutive increments fall below
    panel_atol while shrinking.
    """

    max_refinements: int = 60
    divergence_run: int = 10
    panel_atol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_refinements < 4:
            raise CriteriaError("max_refinements must be at least 4")
        if self.divergence_run < 2:
            raise CriteriaError("divergence_run must be at least 2")
        if not 0.0 < self.panel_atol < 1.0:
            raise CriteriaError("panel_atol must lie in (0, 1)")


@dataclass(frozen=True)
class ImproperIntegral:
    """Outcome of one improper integral on (0, 1].

    value is the finite integral, math.inf for detected divergence, or
    None when the verdict is inconclusive.  evidence holds the partial
    integrals over the shrinking cutoffs and is non-decreasing.
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


def hazard_weighted_integral(
    integrand: Callable[[float], float], ladder: CutoffLadder = CutoffLadder()
) -> ImproperIntegral:
    """Evaluate the improper integral of integrand(u)/u over (0, 1].

    In level space this equals the integral of the same quantity against
    the record-arrival intensity (the cumulative-hazard measure of the
    mark law), which is how every criterion integral below arises.
    Panels are integrated by adaptive Gauss-Kronrod quadrature; the
    integrand must be non-negative.  Eventually-geometric panel decay
    (every power-exponent case) is finished by summing the geometric
    tail, which keeps slowly decaying exponents inside the refinement
    budget.
    """
    panels: list[float] = []
    partial: list[float] = []
    nondecreasing = 0
    quiet = 0
    prev: Optional[float] = None
    for n in range(ladder.max_refinements):
        hi = 2.0 ** (-n)
        lo = hi / 2.0
        piece, _ = quad(
            lambda u: integrand(u) / u, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200
        )
        if not math.isfinite(piece) or piece < -1e-9:
            raise CriteriaError(f"panel [{lo}, {hi}] evaluated to {piece}")
        piece = max(piece, 0.0)
        panels.append(piece)
        partial.append(math.fsum(panels))
        if prev is not None and piece >= prev * (1.0 - 1e-12):
            nondecreasing += 1
        elif prev is not None:
            nondecreasing = 0
        if nondecreasing >= ladder.divergence_run and piece > ladder.panel_atol:
            return ImproperIntegral(VERDICT_INFINITE, math.inf, tuple(partial))
        tail = _geometric_tail(panels)
        if tail is not None:
            value = math.fsum(panels) + tail
            return ImproperIntegral(VERDICT_FINITE, value, tuple(partial))
        quiet = quiet + 1 if piece < ladder.panel_atol else 0
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
    ``dist`` over [support_lower, upper).  Intended for finite cases
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


def composed_survival(params: ModelParams, u) -> float:
    """Threshold survival at the fitness level with survival u."""
    u = _as_float(u, "u")
    if not 0.0 < u <= 1.0:
        raise CriteriaError(f"u must lie in (0, 1], got {u}")
    return params.threshold_dist.survival(params.fitness_dist.inverse_survival(u))


def composed_survival_swapped(params: ModelParams, u) -> float:
    """Fitness survival at the threshold level with survival u."""
    return composed_survival(params.swapped(), u)


def expected_extinction_count(
    params: ModelParams, ladder: CutoffLadder = CutoffLadder()
) -> ImproperIntegral:
    """Mean number of extinction marks above the fitness-record ladder.

    Equals (lambda_extinct / lambda_birth) times the integral of
    composed_survival(u)/u^2 over (0, 1]; finite exactly in the
    transient regime.  The prefactor is applied to both the value and
    the evidence trail.
    """
    prefactor = params.lambda_extinct / params.lambda_birth
    base = hazard_weighted_integral(lambda u: composed_survival(params, u) / u, ladder)
    value = base.value
    if value is not None and math.isfinite(value):
        value *= prefactor
    return ImproperIntegral(
        verdict=base.verdict,
        value=value,
        evidence=tuple(prefactor * e for e in base.evidence),
    )


def expected_birth_count(
    params: ModelParams, ladder: CutoffLadder = CutoffLadder()
) -> ImproperIntegral:
    """Mean number of birth marks above the threshold-record ladder.

    Role-swapped twin of expected_extinction_count; finite exactly when
    the long-run configuration is finite.
    """
    return expected_extinction_count(params.swapped(), ladder)


def extinction_count_exponent(
    params: ModelParams, t, ladder: CutoffLadder = CutoffLadder()
) -> ImproperIntegral:
    """Cumulant exponent of the ladder extinction count at argument t.

    The count's Laplace transform is exp(-exponent).  t = math.inf is
    accepted and gives the exponent of the survival probability at
    infinity; the integrand is monotone in t, so so is the exponent.
    """
    t = _as_float(t, "t")
    if not t > 0.0:
        raise CriteriaError(f"t must be positive (math.inf allowed), got {t}")
    shrink = 1.0 if math.isinf(t) else -math.expm1(-t)
    lam_birth = params.lambda_birth
    lam_ext = params.lambda_extinct

    def integrand(u: float) -> float:
        num = shrink * lam_ext * composed_survival(params, u)
        return num / (lam_birth * u + num) if num > 0.0 else 0.0

    return hazard_weighted_integral(integrand, ladder)


def birth_count_exponent(
    params: ModelParams, t, ladder: CutoffLadder = CutoffLadder()
) -> ImproperIntegral:
    """Role-swapped twin of extinction_count_exponent."""
    return extinction_count_exponent(params.swapped(), t, ladder)


def laplace_extinction_count(
    params: ModelParams, t, ladder: CutoffLadder = CutoffLadder()
) -> Optional[float]:
    """E[exp(-t * ladder extinction count)].

    Returns exp(-exponent); 0.0 when the exponent diverges (the count
    is infinite with positive probability); None when inconclusive.
    """
    res = extinction_count_exponent(params, t, ladder)
    if res.is_finite:
        return math.exp(-res.value)
    if res.is_infinite:
        return 0.0
    return None


def laplace_birth_count(
    params: ModelParams, t, ladder: CutoffLadder = CutoffLadder()
) -> Optional[float]:
    """Role-swapped twin of laplace_extinction_count."""
    return laplace_extinction_count(params.swapped(), t, ladder)


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


def classify(params: ModelParams, ladder: CutoffLadder = CutoffLadder()) -> ClassificationReport:
    """Recurrence and limit-count verdicts with supporting integrals.

    Built-in family pairs are decided by the exact decay exponent of the
    survival composition; otherwise the numeric three-way verdict of the
    cutoff-ladder quadrature decides.  The numeric integrals are always
    attached as evidence.
    """
    m_analytic = exact_verdict(params)
    n_analytic = exact_verdict(params.swapped())

    e_m = expected_extinction_count(params, ladder)
    e_n = expected_birth_count(params, ladder)
    phi_inf = extinction_count_exponent(params, math.inf, ladder)
    phi_bar_inf = birth_count_exponent(params, math.inf, ladder)

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
