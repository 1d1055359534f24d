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
are evaluated on dyadic panels [n ln2, (n+1) ln2] of Gauss-Legendre
nodes, with a three-way verdict: finite, infinite, or inconclusive.
No rule reads a panel past the one where it fires, so each integral is
evaluated in at most two passes: panels 0 .. _DIVERGENCE_RUN for every
row, the rest only for the rows that no rule stopped there.
classify_many evaluates every integral of a batch of points as rows of
one padded array, in chunks of bounded size, and reads the panels of
all rows with one vectorised copy of the panel rules; C(h) and the
mass-density integral depend only on the mark pair, so points that
differ only in their rates share them.  classify is the batch of one
point, hazard_weighted_integral the rules' one-row front.  Built-in
family pairs short-circuit to an exact power-exponent analysis of the
composition as h -> inf.
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
    Weibull,
    _as_float,
    _encode_float,
)
from .process import BLOCK_CHUNK_CELLS

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


def _panel_sums(values: np.ndarray, w: np.ndarray, panel: np.ndarray) -> np.ndarray:
    """Dyadic panel integrals of rows of integrand values on one node array.

    Each sub-panel's weighted nodes are summed along the last axis; one
    bincount over row * _MAX_REFINEMENTS + panel then adds the sub-panels
    of each row into its panels, in sub-panel order.
    """
    rows = values.shape[0]
    index = (np.arange(rows)[:, None] * _MAX_REFINEMENTS + panel).ravel()
    sums = (values * w).sum(axis=-1).ravel()
    pieces = np.bincount(index, weights=sums, minlength=rows * _MAX_REFINEMENTS)
    return pieces.reshape(rows, _MAX_REFINEMENTS)


# Rule codes of _panel_rules, in the order the rules are checked at a panel.
_BAD_PANEL, _DIVERGES, _GEOMETRIC_TAIL, _QUIET = 4, 3, 2, 1
# Panels of the first evaluation pass: panel _DIVERGENCE_RUN is the first
# at which every rule can fire.
_FIRST_PASS_PANELS = _DIVERGENCE_RUN + 1


def _panel_rules(pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stopping panel and rule code of rows of dyadic panel integrals.

    Each row is read panel by panel up to the first panel where a rule
    fires.  At panel n the rules are checked in this order: a non-finite
    or negative panel is an error; the _DIVERGENCE_RUN-th consecutive
    non-decreasing panel above _PANEL_ATOL means divergence; from panel
    _COMPLETION_MIN_PANELS - 1 on, a stable ratio of the last four panels
    is finished by summing the geometric tail, which keeps slowly decaying
    exponents inside the refinement budget; from panel 2 on, two quiet
    panels end a finite integral.  The rules are evaluated for all rows
    and panels at once, each reading panels up to n only, so the codes of
    a row's first panels do not depend on the panels after them.  A row
    where no rule fires gets stop pieces.shape[1] and code 0.  Callers
    ignore invalid and divide floating-point errors.
    """
    rows, count = pieces.shape
    k = _COMPLETION_MIN_PANELS - 1
    p = np.where(pieces < 0.0, 0.0, pieces)
    later, earlier = p[:, 1:], p[:, :-1]
    quiet = p < _PANEL_ATOL
    # The tail test at panel n >= k reads panels n-3, ..., n through
    # q0 = p[n]/p[n-1], q1 = p[n-1]/p[n-2] and q2 = p[n-2]/p[n-3], and
    # step holds |q0 - q1| and |q1 - q2|.  On positive finite panels no
    # ratio is NaN, so these comparisons are the exact negations of the
    # float tests of the scalar rule (the larger step within tolerance
    # means both are, and a NaN step fails like its comparison); a zero
    # among the four panels makes one of them false (a ratio of inf, or
    # q0 = 0 with a nonzero q1), as the scalar rule's positivity test
    # does, and a non-finite panel has stopped the row already.
    ratio = later / earlier
    step = np.abs(ratio[:, 1:] - ratio[:, :-1])
    q0 = ratio[:, k - 1 :]
    # Length of the run of non-decreasing panels ending at panel n >= 1.
    n = np.arange(1, count)
    run = n - np.maximum.accumulate(np.where(later >= earlier * (1.0 - 1e-12), 0, n), axis=1)
    # rule[r, n] is the code of the first rule that fires at panel n;
    # rules are written in increasing precedence, each over the last.
    rule = np.zeros((rows, count), dtype=np.int8)
    rule[:, 2:] = quiet[:, 2:] & quiet[:, 1:-1]
    rule[:, k:][(q0 < 0.999) & (np.maximum(step[:, k - 2 :], step[:, k - 3 : -1]) <= _RATIO_RTOL * q0)] = _GEOMETRIC_TAIL
    rule[:, 1:][(run >= _DIVERGENCE_RUN) & (later > _PANEL_ATOL)] = _DIVERGES
    rule[~np.isfinite(pieces) | (pieces < -1e-9)] = _BAD_PANEL
    first = (rule != 0).argmax(axis=1)
    codes = rule[np.arange(rows), first]
    return np.where(codes != 0, first, count), codes


def _panel_results(pieces: np.ndarray, stops: np.ndarray, codes: np.ndarray) -> list:
    """Per row, the ImproperIntegral that its rule code gives at its stopping panel.

    The evidence holds the exactly rounded partial sums up to the stop,
    with negative panels clamped to 0; a bad panel gives its CriteriaError
    instead.  Panels past a row's stop are never read.
    """
    results: list = []
    for r, (stop, code) in enumerate(zip(stops.tolist(), codes.tolist())):
        if code == _BAD_PANEL:
            piece = float(pieces[r, stop])
            results.append(CriteriaError(f"panel [{stop * _LN2}, {(stop + 1) * _LN2}] evaluated to {piece}"))
            continue
        panels = [0.0 if piece < 0.0 else piece for piece in pieces[r, : stop + 1].tolist()]
        partial = tuple([math.fsum(panels[: i + 1]) for i in range(len(panels))])
        if code == _DIVERGES:
            results.append(ImproperIntegral(VERDICT_INFINITE, math.inf, partial))
        elif code == _GEOMETRIC_TAIL:
            p0, p1 = panels[-1], panels[-2]
            q = p0 / p1
            results.append(ImproperIntegral(VERDICT_FINITE, partial[-1] + p0 * q / (1.0 - q), partial))
        elif code == _QUIET:
            results.append(ImproperIntegral(VERDICT_FINITE, partial[-1], partial))
        else:
            results.append(ImproperIntegral(VERDICT_INCONCLUSIVE, None, partial))
    return results


def _read_panels(pieces: np.ndarray) -> list:
    """Verdicts of rows of dyadic panel integrals, one improper integral per row.

    The rules of _panel_rules stop each row; a row where no rule fires is
    inconclusive.  Returns per row an ImproperIntegral, whose evidence
    holds the exactly rounded partial sums up to the stop, or the
    CriteriaError of a bad panel at or before the stop.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return _panel_results(pieces, *_panel_rules(pieces))


def _read_in_passes(integrands: Callable, rows: int, w: np.ndarray, panel: np.ndarray) -> list:
    """_read_panels of rows of integrands on one node array, evaluated in at most two passes.

    integrands(index, nodes) gives the integrand values of the rows in
    ``index`` (ascending) on the sub-panels ``nodes`` (a slice), shaped
    (len(index), sub-panels, nodes).  The first pass evaluates every row
    on panels 0 .. _DIVERGENCE_RUN; the second only the rows that no rule
    stopped there, on the remaining panels.  Each pass goes in chunks of
    at most BLOCK_CHUNK_CELLS nodes.  A rule at panel n reads panels up to
    n only, and each panel's sub-panels are summed in the same order
    either way, so the results equal _read_panels of all
    _MAX_REFINEMENTS panels, bit for bit.
    """
    split = int(np.searchsorted(panel, _FIRST_PASS_PANELS))
    pieces = np.zeros((rows, _MAX_REFINEMENTS))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _fill_panels(pieces, integrands, np.arange(rows), slice(0, split), w, panel)
        stops, codes = _panel_rules(pieces[:, :_FIRST_PASS_PANELS])
        todo = np.flatnonzero(stops == _FIRST_PASS_PANELS)
        if todo.size:
            _fill_panels(pieces, integrands, todo, slice(split, None), w, panel)
            stops[todo], codes[todo] = _panel_rules(pieces[todo])
    return _panel_results(pieces, stops, codes)


def _fill_panels(
    pieces: np.ndarray, integrands: Callable, index: np.ndarray, nodes: slice, w: np.ndarray, panel: np.ndarray
) -> None:
    """Write the panel integrals of the rows in index on the sub-panels nodes into pieces."""
    w, panel = w[nodes], panel[nodes]
    panels = slice(panel[0], panel[-1] + 1)
    step = max(BLOCK_CHUNK_CELLS // w.size, 1)
    for start in range(0, index.size, step):
        chunk = index[start : start + step]
        pieces[chunk, panels] = _panel_sums(integrands(chunk, nodes), w, panel)[:, panels]


def _checked(result):
    if isinstance(result, CriteriaError):
        raise result
    return result


def hazard_weighted_integral(
    integrand: Callable[[np.ndarray], np.ndarray], breaks: Sequence[float] = ()
) -> ImproperIntegral:
    """Evaluate the improper integral of integrand(h) over h in [0, inf).

    With u = e^-h this is the integral of f(u)/u over u in (0, 1] for
    f(u) = integrand(-log u), the integral against the record-arrival
    intensity (the cumulative-hazard measure of the mark law) from which
    every criterion integral below arises.  integrand takes an array of
    hazards and must be non-negative.  Each dyadic panel is integrated by
    24-node Gauss-Legendre rules on sub-panels split at ``breaks`` (the
    hazards where the integrand has a kink) and graded toward h = 0.
    The panels are then read in order by the rules of classify_many, of
    which this is the one-row case: a non-finite or negative panel
    raises, a run of non-decreasing panels means divergence, and
    eventually-geometric panel decay (every power-exponent case) is
    finished by summing the geometric tail.  integrand is called at most
    twice: once on the nodes of panels 0 .. _DIVERGENCE_RUN, and once on
    those of the remaining panels if no rule stopped the integral there.
    Panels past the stopping one are never inspected.
    """
    h, w, panel = _panel_nodes(tuple(breaks))

    def integrands(index, nodes):
        return np.broadcast_to(integrand(h[nodes]), h[nodes].shape)[None]

    return _checked(_read_in_passes(integrands, 1, w, panel)[0])


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
            params = sides[pair]
            values[i] = params.threshold_dist.hazard_transform_array(params.fitness_dist.inverse_hazard_array(h))
    base, exponent = values[:n_base], values[n_base:]
    np.exp(np.subtract(h, base, out=base), out=base)
    exponent += log_r[:, None, None]
    exponent -= h
    np.exp(exponent, out=exponent)
    exponent += 1.0
    np.reciprocal(exponent, out=exponent)
    return values


def _criterion_integrals(rows: Sequence[tuple[ModelParams, Optional[float]]]) -> list:
    """Criterion integrals of one side each, as rows of padded node arrays.

    A row (params, None) is the integral of the ladder's per-step mass
    density exp(h - C(h)), without its rate prefactor; a row
    (params, log_r) the count exponent's integrand 1/(1 + r exp(C(h) - h)),
    formed as the logistic of log r + C(h) - h (see _integrands), so that
    it never forms inf/inf.  Only the mark pair of params and log_r
    enter, so equal rows are evaluated once.
    Rows are grouped by the pair's hazard_breaks (one node array each),
    and each group is read in the two passes of _read_in_passes, whose
    chunks take C(h) once per pair in them, on that pass's nodes only.
    Returns per row what _read_panels gives.
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
    groups: dict[tuple, list] = {}
    for key in sorted(dict.fromkeys(keys), key=lambda key: key[0]):
        groups.setdefault(breaks[key[0]], []).append(key)
    results: dict = {}
    for group_breaks, members in groups.items():
        h, w, panel = _panel_nodes(group_breaks)
        # Mass-density rows first, each kind in mark-pair order; rows are read back by key.
        members.sort(key=lambda key: key[1] is not None)

        def integrands(index, nodes, members=members, h=h):
            return _integrands([members[i] for i in index.tolist()], sides, h[nodes])

        results.update(zip(members, _read_in_passes(integrands, len(members), w, panel)))
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
    base = _checked(_criterion_integrals([(params, None)])[0])
    return _scaled(base, params.lambda_extinct / params.lambda_birth)


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
    """Decay class of the composed survival S_thr(S_fit^-1(u)) near u = 0.

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

    Built-in family pairs are decided by the exact decay exponent of the
    survival composition; otherwise the numeric three-way verdict of the
    dyadic-panel quadrature decides.  The numeric integrals are always
    attached as evidence.  This is classify_many of one point.
    """
    return classify_many([params])[0]


def classify_many(points: Sequence[ModelParams]) -> list[ClassificationReport]:
    """classify of every point of a batch, in one array pass.

    The four criterion integrals of all points are rows of the same
    padded node arrays, read by one vectorised copy of the panel rules.
    The mass-density integral and C(h) depend only on the mark pair (the
    rate prefactor multiplies value and evidence afterwards), so points
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
    m_analytic = exact_verdict(params)
    n_analytic = exact_verdict(swapped)

    e_m = _scaled(_checked(base_m), params.lambda_extinct / params.lambda_birth)
    e_n = _scaled(_checked(base_n), swapped.lambda_extinct / swapped.lambda_birth)
    phi_inf = _checked(phi_inf)
    phi_bar_inf = _checked(phi_bar_inf)

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
