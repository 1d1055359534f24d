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
of its mark pair, depend only on the pair's tail class (MarkPair.tail),
which also gives the verdicts (MarkPair.finite).  Each row is
evaluated once, on dyadic panels [n ln2, (n+1) ln2] of Gauss-Legendre
nodes through the first panel that starts past h*.  Past that panel a
power pair's C is exactly linear, so the row is finished in closed form;
a superpolynomial pair's C is convex, so the row reads on until the
secant bound on the rest is negligible.

A batch is classified as columns (classify_columns), a point being a
mark pair and its rates.  Each distinct mark pair among the points and
their role swaps holds one column of rows: its
mass-density row, which depends on the pair alone (the rate prefactor
scales it afterwards), and one count-exponent row per distinct log r of
the points' rates.  All rows of a pair are read at once (_row_read) and
evaluated as rows of shared node arrays, in chunks of bounded size; the
verdicts and the method are taken once per pair.  C(h) of the
exponential pairs among them is taken in one call with the rates as
columns (MarkPair.compose_rows), on the panel edges and each chunk of
nodes, with the bits of one call per pair.

Every front reads its rows this one way.  The count-exponent rows of a
divergent pair take inf from the verdict unevaluated, while its
mass-density row, which turns non-finite wherever they could, is still
evaluated, so a bad panel raises its CriteriaError.  Each row keeps the
number of panels it read and its tail, the value it took for h past
them.  classify --grid writes its phase map from the columns; classify
is the batch of one point, hazard_weighted_integral the one
mass-density row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Callable, Collection, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import (
    DistributionError,
    DistributionSpec,
    Exponential,
    MarkPair,
    ModelParams,
    TabulatedQuantile,
    _as_float,
    _encode_float,
    check_rates,
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
    when the verdict is inconclusive.  The read covers the first panels
    dyadic panels, h in [0, panels ln2], and takes tail for h past them:
    a power pair's closed form, 0.0 where a superpolynomial row stopped,
    math.inf for a divergent row, None for an inconclusive one.
    """

    verdict: str
    value: Optional[float]
    panels: int
    tail: Optional[float]

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


class _Nodes(NamedTuple):
    """The quadrature grid of one breaks tuple (see _panel_nodes)."""

    first: int  # panel n*, the first that starts past the last break
    h: np.ndarray  # nodes, one row per sub-panel
    w: np.ndarray  # their weights
    panel: np.ndarray  # the dyadic panel of each sub-panel row
    edges: np.ndarray  # the dyadic panel edges 0, ln2, ..., the grid's top


@lru_cache(maxsize=64)
def _panel_nodes(breaks: tuple[float, ...]) -> _Nodes:
    """The quadrature grid of the breaks: the dyadic panels through n* and _MAX_REFINEMENTS more.

    The grid holds at most _MAX_PANELS panels.  The dyadic panels are
    split at every break inside them, and each sub-panel gets its own
    Gauss-Legendre rule.  The arrays are read-only, so one node array can
    be shared by every integral over the same panels.
    """
    first = min(int(max(breaks, default=0.0) // _LN2) + 1, _MAX_PANELS)
    count = min(first + _MAX_REFINEMENTS, _MAX_PANELS)
    top = count * _LN2
    inner = np.asarray(breaks, dtype=float)
    dyadic = _LN2 * np.arange(count + 1)
    edges = np.unique(np.concatenate([dyadic, _PANEL0_BREAKS, inner[(inner > 0.0) & (inner < top)]]))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    h = mid[:, None] + half[:, None] * _GL_NODES
    w = half[:, None] * _GL_WEIGHTS
    panel = np.minimum(mid // _LN2, count - 1).astype(np.intp)
    for a in (h, w, panel, dyadic):
        a.flags.writeable = False
    return _Nodes(first, h, w, panel, dyadic)


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


def _row_read(marks: MarkPair, d: Optional[np.ndarray], first: int, log_r: np.ndarray) -> tuple:
    """Last panel each row of the mark pair reads, its verdict, and its rest: the integral past that panel, inf or None.

    log_r holds the pair's rows: NaN first for its mass-density row, then
    the count-exponent rows' log r.  d = h - C(h) on the panel edges 0,
    ln2, ..., the grid's top, or None unless the pair is finite and first
    is below _MAX_PANELS.  With F(y) = e^y for a mass-density row and
    log1p(e^y / r) for a count-exponent row, the integral of the row's
    integrand past an edge b where d falls at least at slope s is at most
    F(d(b)) / s, with equality where d falls at exactly s.  Past the last
    kink a power pair's d falls at exactly gamma - 1 (divergent rows for
    gamma <= 1), a subpolynomial pair's d grows (divergent), and a
    superpolynomial pair's d is concave, so its secant slope over panel n
    bounds every later slope: a row stops at the first panel n >= n*
    whose bound F(d(a_{n+1})) ln2 / (d(a_n) - d(a_{n+1})) is below
    _TAIL_ATOL, or where C has overflowed to inf, and drops the rest.  A
    row that cannot finish within the grid is inconclusive, with rest
    None.  The rest of a finite row is added to its panels; a divergent
    row's rest is its value inf.  Returns the three as lists over the
    rows.  Callers ignore overflow and invalid floating-point errors.
    """
    rows, top = log_r.size, min(first + _MAX_REFINEMENTS, _MAX_PANELS) - 1
    if not marks.finite:
        return [min(first, top)] * rows, [VERDICT_INFINITE] * rows, [math.inf] * rows
    if first > top:
        return [top] * rows, [VERDICT_INCONCLUSIVE] * rows, [None] * rows
    # F of the bound on the rows' edges: e^y on the mass-density row, which
    # comes first, and log1p(e^y / r) on the others.
    n_base = int(math.isnan(log_r[0])) if rows else 0
    kind, gamma = marks.tail
    if kind == "power":
        y = d[first + 1]
        rest = [float(np.exp(y))] if n_base else []
        if rows > n_base:
            rest += np.logaddexp(0.0, y - log_r[n_base:]).tolist()
        return [first] * rows, [VERDICT_FINITE] * rows, [f / (gamma - 1.0) for f in rest]
    a, b = d[first:-1], d[first + 1 :]
    bound = np.logaddexp(0.0, b - log_r[:, None])
    bound[:n_base] = np.exp(b)
    done = np.isneginf(b) | (bound * _LN2 < _TAIL_ATOL * (a - b))
    ends = done.any(axis=1).tolist()
    lasts = [first + n if end else top for n, end in zip(done.argmax(axis=1).tolist(), ends)]
    verdicts = [VERDICT_FINITE if end else VERDICT_INCONCLUSIVE for end in ends]
    return lasts, verdicts, [0.0 if end else None for end in ends]


class _Rows(NamedTuple):
    """Criterion rows as columns: per row the fields of its ImproperIntegral, or the CriteriaError of a bad panel."""

    verdict: list
    value: list
    panels: list
    tail: list
    error: list

    def integral(self, row: int) -> ImproperIntegral:
        """The ImproperIntegral of a row; raises the row's CriteriaError."""
        if self.error[row] is not None:
            raise self.error[row]
        return ImproperIntegral(self.verdict[row], self.value[row], self.panels[row], self.tail[row])


def hazard_weighted_integral(params: ModelParams) -> ImproperIntegral:
    """Integral of the ladder's per-step mass density exp(h - C(h)) over h in [0, inf).

    With u = e^-h it is the integral of R(u)/u over u in (0, 1], where
    R(u) = S_thr(S_fit^-1(u))/u is the survival ratio at the fitness
    level of survival u and du/u the record-arrival intensity of the
    fitness law.  It is the mass-density row of classify, without the
    rate prefactor of expected_extinction_count.
    """
    return _criterion_integrals([params.marks], [[math.nan]]).integral(0)


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


def _integrands(sides: Sequence[MarkPair], take: Sequence[int], log_r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integrand rows on the nodes h: row i is of the mark pair sides[take[i]].

    The first len(take) - log_r.size rows are mass-density rows; the others
    are count-exponent rows, with the log r of log_r in order.  take
    numbers the pairs in the order of their first row.  C(h) =
    H_thr(H_fit^-1(h)) is taken once per pair (MarkPair.compose_rows) and
    gathered to the rows in one take, then turned into each row's
    integrand in place.  A count-exponent row is the logistic
    1/(1 + e^x) of x = C(h) + log r - h, formed by vector exp, add and
    reciprocal: where e^x overflows to inf the value is 0, the
    integrand's limit, and a NaN stays NaN, so no inf/inf arises and a
    bad panel is still reported.
    """
    values = MarkPair.compose_rows(sides, h)
    if len(take) != len(sides):
        values = values.take(take, axis=0)
    n_base = len(take) - log_r.size
    base, exponent = values[:n_base], values[n_base:]
    if n_base:
        np.exp(np.subtract(h, base, out=base), out=base)
    if log_r.size:
        exponent += log_r.reshape((-1,) + (1,) * h.ndim)
        exponent -= h
        np.exp(exponent, out=exponent)
        exponent += 1.0
        np.reciprocal(exponent, out=exponent)
    return values


def _edge_drops(sides: Sequence[MarkPair], pairs: Sequence[int], nodes_of: Sequence[_Nodes]):
    """d = h - C(h) on the panel edges of each of the pairs, in order, C taken for a chunk of pairs at once.

    Every edge array is a prefix of the longest, the dyadic edges 0, ln2,
    ..., so a chunk of at most BLOCK_CHUNK_CELLS edges takes C(h) on that
    one (MarkPair.compose_rows) and each pair reads its own prefix.
    """
    if not pairs:
        return
    edges = max((nodes_of[p].edges for p in pairs), key=len)
    step = max(BLOCK_CHUNK_CELLS // edges.size, 1)
    for start in range(0, len(pairs), step):
        chunk = pairs[start : start + step]
        d = MarkPair.compose_rows([sides[p] for p in chunk], edges)
        np.subtract(edges, d, out=d)
        for p, drop in zip(chunk, d):
            yield drop[: nodes_of[p].edges.size]


def _criterion_integrals(sides: Sequence[MarkPair], columns: Sequence[Collection[float]]) -> _Rows:
    """Criterion integrals of distinct rows, given per mark pair as a column of log r.

    columns[p] holds the rows of the mark pair sides[p]: NaN first for
    its mass-density row, the integral of the ladder's per-step mass
    density exp(h - C(h)) without its rate prefactor, then one log r per
    count-exponent row, the integral of 1/(1 + r exp(C(h) - h)), formed
    as the logistic of log r + C(h) - h (see _integrands), so that it
    never forms inf/inf.
    _row_read decides, once per pair, from the pair's tail class and C on
    the panel edges (taken only where it reads them, _edge_drops) which
    panels each row reads; rows that read the same panels of the same
    node array are evaluated together, in chunks of at most
    BLOCK_CHUNK_CELLS nodes that take C(h) of the pairs in them together
    (MarkPair.compose_rows).

    The count-exponent rows of a divergent pair that has a mass-density
    row take their value inf from the verdict, unevaluated.  Such a row
    is the logistic of x = C(h) + log r - h, in [0, 1] wherever C(h) is
    not NaN, so its panels are finite unless C(h) is NaN on one of its
    nodes; there the pair's mass-density row, which reads the same
    panels, is NaN too, and it is still evaluated, so a batch that
    checks a point's mass-density rows first (_point_fields) raises the
    CriteriaError that evaluating every row would.  Returns the rows,
    each with its panels and tail, in column order, pair after pair.
    """
    log_r = np.array([*chain.from_iterable(columns)], dtype=float)
    starts = [0, *accumulate(len(column) for column in columns)]
    pair_of_row = [p for p, column in enumerate(columns) for _ in column]
    verdicts: list = []
    panels: list = []
    tails: list = []
    value: list = []
    error: list = [None] * log_r.size
    # Rows that read the same panels of one node array, by (breaks, last
    # panel): the mass-density rows, then the count-exponent rows.
    reads: dict[tuple, tuple[list, list]] = {}
    breaks_of = [marks.breaks for marks in sides]
    # The node arrays of the call, one per distinct breaks tuple, however
    # many more than _panel_nodes keeps.
    grids = {breaks: _panel_nodes(breaks) for breaks in dict.fromkeys(breaks_of)}
    nodes_of = [grids[breaks] for breaks in breaks_of]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reading = [marks.finite and nodes.first < _MAX_PANELS for marks, nodes in zip(sides, nodes_of)]
        drops = _edge_drops(sides, [p for p, reads_d in enumerate(reading) if reads_d], nodes_of)
        for p, (marks, breaks, nodes, reads_d) in enumerate(zip(sides, breaks_of, nodes_of, reading)):
            row, end = starts[p], starts[p + 1]
            d = next(drops) if reads_d else None
            lasts, verdict, tail = _row_read(marks, d, nodes.first, log_r[row:end])
            verdicts += verdict
            tails += tail
            panels += [last + 1 for last in lasts]
            value += tail  # the value of a row that is not finite: inf or None
            # Every row but a NaN first one is a count-exponent row.
            counts = not math.isnan(log_r[row])
            if not counts and verdict[0] == VERDICT_INFINITE:
                lasts = lasts[:1]
            for r, last in zip(range(row, end), lasts):
                reads.setdefault((breaks, last), ([], []))[r > row or counts].append(r)
        # The last chunk of edge drops is freed before any row is evaluated.
        d = drops = None
        for (breaks, last), (mass_rows, count_rows) in reads.items():
            nodes = grids[breaks]
            stop = int(np.searchsorted(nodes.panel, last, side="right"))
            h, w, panel = nodes.h[:stop], nodes.w[:stop], nodes.panel[:stop]
            members = mass_rows + count_rows
            step = max(BLOCK_CHUNK_CELLS // h.size, 1)
            for start in range(0, len(members), step):
                chunk = members[start : start + step]
                chunk_pairs: dict = {}
                take = [chunk_pairs.setdefault(pair_of_row[r], len(chunk_pairs)) for r in chunk]
                chunk_sides = [sides[p] for p in chunk_pairs]
                counts = log_r.take(chunk[max(len(mass_rows) - start, 0) :])
                pieces = _panel_sums(_integrands(chunk_sides, take, counts, h), w, panel)
                bad = ~np.isfinite(pieces)
                for i, (row, sums, is_bad) in enumerate(zip(chunk, pieces.tolist(), bad.any(axis=1).tolist())):
                    if is_bad:
                        n = int(bad[i].argmax())
                        error[row] = CriteriaError(f"panel [{n * _LN2}, {(n + 1) * _LN2}] evaluated to {sums[n]}")
                        continue
                    if verdicts[row] == VERDICT_FINITE:
                        value[row] = math.fsum([*sums, tails[row]])
                        if not math.isfinite(value[row]):
                            error[row] = CriteriaError(f"tail past h = {len(sums) * _LN2} evaluated to {tails[row]}")
    return _Rows(verdicts, value, panels, tails, error)


def _scaled(value: Optional[float], prefactor: float, name: str, rates: tuple) -> Optional[float]:
    """value of the integral name times its rate prefactor where it is finite; None and inf are kept.

    A finite value that the prefactor takes past the float range raises CriteriaError.
    """
    if value is None or not math.isfinite(value):
        return value
    if not math.isfinite(value * prefactor):
        raise CriteriaError(f"{name} = {value} times its rate prefactor overflows at (lambda_birth, lambda_extinct) = {rates}")
    return value * prefactor


def _log_r(lambda_birth: float, lambda_extinct: float, t: float) -> float:
    """log r of the count exponent at argument t, r = lambda_birth / ((1 - e^-t) lambda_extinct)."""
    shrink = 1.0 if math.isinf(t) else -math.expm1(-t)
    return math.log(lambda_birth) - math.log(shrink) - math.log(lambda_extinct)


def expected_extinction_count(params: ModelParams) -> ImproperIntegral:
    """Mean number of extinction marks above the fitness-record ladder.

    Equals (lambda_extinct / lambda_birth) times the integral of the
    ladder's per-step mass density exp(h - C(h)) over h in [0, inf);
    finite exactly in the transient regime.  The prefactor scales both
    the value and the tail; a finite value that it scales past the float
    range raises CriteriaError.
    """
    base = hazard_weighted_integral(params)
    rates = (params.lambda_birth, params.lambda_extinct)
    prefactor = params.lambda_extinct / params.lambda_birth
    value = _scaled(base.value, prefactor, "e_m", rates)
    return ImproperIntegral(base.verdict, value, base.panels, _scaled(base.tail, prefactor, "e_m", rates))


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
    log_r = _log_r(params.lambda_birth, params.lambda_extinct, t)
    return _criterion_integrals([params.marks], [[log_r]]).integral(0)


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


@dataclass(frozen=True)
class CriterionIntegrals:
    """Numeric values of the four criterion integrals, and reads: per integral, by name, (panels, tail) of its row."""

    e_m: Optional[float]
    e_n: Optional[float]
    phi_inf: Optional[float]
    phi_bar_inf: Optional[float]
    reads: dict[str, tuple[int, Optional[float]]]


@dataclass(frozen=True)
class ClassificationReport:
    """Joint recurrence / limit-count verdict for one parameter set."""

    recurrence: str
    limit_count: str
    method: str
    integrals: CriterionIntegrals
    null_recurrent_like: bool

    def to_json(self) -> dict:
        integrals = self.integrals
        return {
            "recurrence": self.recurrence,
            "limit_count": self.limit_count,
            "method": self.method,
            "null_recurrent_like": self.null_recurrent_like,
            "integrals": {name: _encode_float(getattr(integrals, name)) for name in integrals.reads},
            "reads": {name: {"panels": n, "tail": _encode_float(tail)} for name, (n, tail) in integrals.reads.items()},
        }


def classify(params: ModelParams) -> ClassificationReport:
    """Recurrence and limit-count verdicts with supporting integrals.

    The verdicts are MarkPair.finite of both sides, from the tail class
    of the mark pair; the four criterion integrals and their reads are
    attached.  method is "NumericCauchy" when a law is tabulated and
    "AnalyticExponent" otherwise.  This is classify_many of one point.
    """
    return classify_many([params])[0]


def classify_many(points: Sequence[ModelParams]) -> list[ClassificationReport]:
    """classify of every point of a batch, in one array pass (see classify_columns).

    Each point brings its own pair, params.marks.  Each report equals
    classify of its point bit for bit, and the first point, in order,
    that classify would refuse raises the same CriteriaError.
    """
    rates: dict = {}
    index = [
        (i, rates.setdefault((params.lambda_birth, params.lambda_extinct), len(rates)))
        for i, params in enumerate(points)
    ]
    batch = _classify_batch([params.marks for params in points], list(rates), index)
    panels, tails = batch.rows.panels, batch.rows.tail
    reports = []
    for fields, point in zip(_point_fields(batch), batch.points):
        recurrence, limit_count, method, null_recurrent_like, *values = fields
        _, _, row_m, row_n, row_phi, row_phi_bar, k = point
        rates, prefactor_m, prefactor_n = batch.rates[k]
        reads = {
            "e_m": (panels[row_m], _scaled(tails[row_m], prefactor_m, "e_m", rates)),
            "e_n": (panels[row_n], _scaled(tails[row_n], prefactor_n, "e_n", rates)),
            "phi_inf": (panels[row_phi], tails[row_phi]),
            "phi_bar_inf": (panels[row_phi_bar], tails[row_phi_bar]),
        }
        integrals = CriterionIntegrals(*values, reads)
        reports.append(ClassificationReport(recurrence, limit_count, method, integrals, null_recurrent_like))
    return reports


class ClassificationColumns(NamedTuple):
    """classify of a batch of points as columns: per point the fields of its report but the reads."""

    recurrence: list[str]
    limit_count: list[str]
    method: list[str]
    null_recurrent_like: list[bool]
    e_m: list[Optional[float]]
    e_n: list[Optional[float]]
    phi_inf: list[Optional[float]]
    phi_bar_inf: list[Optional[float]]


def classify_columns(
    pairs: Sequence[MarkPair],
    rates: Sequence[tuple[float, float]],
    points: Sequence[tuple[int, int]],
) -> ClassificationColumns:
    """classify of a batch of points, each given as indices (mark pair, rates).

    A point (i, k) has the mark pair pairs[i] and the rates
    (lambda_birth, lambda_extinct) = rates[k].  Each distinct mark pair
    among the points and their role swaps is one side of the criterion
    rows (_criterion_integrals): its mass-density row, which the rate
    prefactors scale afterwards, and one count-exponent row per distinct
    log r.  Each distinct rate pair gives its two log r and prefactors
    once; the verdict and the method are taken once per pair.  The
    values equal those of classify of each point bit for bit, and the
    first point, in order, that classify would refuse raises the same
    CriteriaError.
    """
    batch = _classify_batch(pairs, [check_rates(*pair) for pair in rates], points)
    fields = [list(field) for field in zip(*_point_fields(batch))] or [[] for _ in ClassificationColumns._fields]
    return ClassificationColumns(*fields)


class _Batch(NamedTuple):
    """A batch of points keyed to its mark pairs and read.

    rows holds the criterion rows; pairs per mark pair its verdict and
    method; rates per rate pair (lambda_birth, lambda_extinct) and
    the prefactors of e_m and e_n; points per point its pairs m (the
    point's) and n (its role swap's), its rows of e_m, e_n, phi_inf and
    phi_bar_inf, and its rate pair.
    """

    rows: _Rows
    pairs: list[tuple[str, str]]
    rates: list[tuple[tuple[float, float], float, float]]
    points: list[tuple[int, int, int, int, int, int, int]]


def _classify_batch(
    pairs: Sequence[MarkPair], rates: Sequence[tuple[float, float]], points: Sequence[tuple[int, int]]
) -> _Batch:
    """The batch of classify_columns, its rates already checked, its rows read.

    The sides are keyed by (fitness, threshold).  Every point's own pair
    is registered first, as given; then each point's role swap reuses
    the side of an equal pair already there, and only a missing one is
    built (MarkPair.swapped).
    """
    log_rs = [(_log_r(lb, le, math.inf), _log_r(le, lb, math.inf)) for lb, le in rates]
    side_of: dict = {}
    sides: list[MarkPair] = []
    # Per pair that a point uses: its side m, then (m, n) with n its role swap's side.
    own = dict.fromkeys(i for i, _ in points)
    for i in own:
        marks = pairs[i]
        own[i] = side_of.setdefault((marks.fitness, marks.threshold), len(sides))
        if own[i] == len(sides):
            sides.append(marks)
    for i, m in own.items():
        marks = pairs[i]
        n = side_of.setdefault((marks.threshold, marks.fitness), len(sides))
        if n == len(sides):
            sides.append(marks.swapped())
        own[i] = (m, n)
    # Per pair: its log r, by position; position 0 is the mass-density row.
    columns: list[dict] = [{math.nan: 0} for _ in sides]
    keyed = []
    for i, k in points:
        m, n = own[i]
        log_r_m, log_r_n = log_rs[k]
        column_m, column_n = columns[m], columns[n]
        c_m, c_n = column_m.setdefault(log_r_m, len(column_m)), column_n.setdefault(log_r_n, len(column_n))
        keyed.append((m, n, c_m, c_n, k))
    rows = _criterion_integrals(sides, columns) if sides else _Rows([], [], [], [], [])
    offset = [0, *accumulate(len(column) for column in columns)]
    batch_points = [(m, n, offset[m], offset[n], offset[m] + c_m, offset[n] + c_n, k) for m, n, c_m, c_n, k in keyed]
    verdicts = []
    for marks in sides:
        tabulated = isinstance(marks.fitness, TabulatedQuantile) or isinstance(marks.threshold, TabulatedQuantile)
        verdicts.append((VERDICT_FINITE if marks.finite else VERDICT_INFINITE, "NumericCauchy" if tabulated else "AnalyticExponent"))
    return _Batch(rows, verdicts, [((lb, le), le / lb, lb / le) for lb, le in rates], batch_points)


def _point_fields(batch: _Batch):
    """Per point of the batch: recurrence, limit_count, method, null_recurrent_like, e_m, e_n, phi_inf, phi_bar_inf.

    A point raises its first bad row's CriteriaError (e_m, e_n, phi_inf,
    phi_bar_inf), then that of an overflowing e_m or e_n (_scaled), so
    the first bad point raises what classify of it alone raises.
    """
    value, error, pairs, rates = batch.rows.value, batch.rows.error, batch.pairs, batch.rates
    errors = error.count(None) < len(error)
    for m, n, row_m, row_n, row_phi, row_phi_bar, k in batch.points:
        if errors:
            for row in (row_m, row_n, row_phi, row_phi_bar):
                if error[row] is not None:
                    raise error[row]
        pair, prefactor_m, prefactor_n = rates[k]
        (verdict_m, method), (verdict_n, _) = pairs[m], pairs[n]
        recurrence, limit_count = RECURRENCE_LABEL[verdict_m], LIMIT_COUNT_LABEL[verdict_n]
        yield (
            recurrence,
            limit_count,
            method,
            recurrence == "Recurrent" and limit_count == "Infinite",
            _scaled(value[row_m], prefactor_m, "e_m", pair),
            _scaled(value[row_n], prefactor_n, "e_n", pair),
            value[row_phi],
            value[row_phi_bar],
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
