"""Replicated sampling plans with deterministic seeding and GOF checks.

Every task runs in blocks of BLOCK replications, each block from one
counter-based RNG keyed by (base_seed, b, task salt).  The two ladder
tasks walk the blocks of a plan together, LADDER_GROUP at a time, each
block on its own stream and in the draw order it would take alone; the
two forward tasks draw BLOCK windows as padded rows and read them with
row kernels.  A block always samples all of its rows, so replication i
does not depend on how many replications the plan asks for.  The
extinction-count task carries each ladder's mass in
RunResult.aux["mass"], so a single run serves both the count and the
mass checks.

The limit task walks the count task's ladder of params.swapped(), after
each block's look-back gaps.  Where the exact tail exponent declares a
walked pair divergent, ladders.sample_ladder_blocks walks nothing and
stops every row as "divergent"; such blocks take the same path to
samples and auxiliaries as walked ones.  Every other replication is
finite only if its ladder stopped by the tail bound of the one
truncation rule of the ladders module (MAX_STEPS, TAIL_TOLERANCE), which
each plan's to_json records.  Each ladder replication's stop reason,
depth and tail bound ride along in RunResult.aux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import ModelParams, _as_float, _encode_float
# The one-ladder functions are not called here; perfbench/tracing.py wraps
# them under this module's names, so they stay importable from it.
from .ladders import (  # noqa: F401
    EFFECTIVELY_INFINITE,
    LADDER_GROUP,
    _poisson,
    birth_mass,
    extinction_mass,
    masses_effectively_infinite,
    populate_limit_config,
    sample_extinction_count,
    sample_first_gaps,
    sample_fitness_ladder,
    sample_ladder_blocks,
    sample_threshold_ladder,
    stop_rule_json,
)
# The one-window functions (evolve, generate_stream, last_empty_time,
# species_count_at) are not called here; perfbench/tracing.py wraps them
# under this module's names, so they stay importable from it.
from .process import (  # noqa: F401
    count_alive_rows,
    evolve,
    generate_block,
    generate_stream,
    last_empty_rows,
    last_empty_time,
    species_count_at,
)
from .streams import _as_int, replication_rng

TASK_EXTINCTION_COUNT = "extinction_count"
TASK_LIMIT_CONFIG = "limit_config"
TASK_FORWARD_COUNT = "forward_count"
TASK_EMPTY_SCAN = "empty_time_scan"

TASKS = (
    TASK_EXTINCTION_COUNT,
    TASK_LIMIT_CONFIG,
    TASK_FORWARD_COUNT,
    TASK_EMPTY_SCAN,
)

_TASK_SALTS = {
    TASK_EXTINCTION_COUNT: 1,
    TASK_LIMIT_CONFIG: 2,
    TASK_FORWARD_COUNT: 3,
    TASK_EMPTY_SCAN: 4,
}

_LADDER_TASKS = (TASK_EXTINCTION_COUNT, TASK_LIMIT_CONFIG)

# Replications per block of every task; one RNG stream per block.
BLOCK = 128

# Pooling floor of the chi-square checks: every pooled bin's expected count reaches it.
MIN_EXPECTED = 5.0


class MonteCarloError(ValueError):
    """Invalid plan arguments or incompatible comparison requests."""


def _plan_field(convert, value, name: str):
    """convert(value, name), its ValueError raised again as a MonteCarloError with the same message."""
    try:
        return convert(value, name)
    except ValueError as exc:
        raise MonteCarloError(str(exc)) from None


@dataclass(frozen=True)
class ReplicationPlan:
    """Everything needed to reproduce one batch of replications.

    t is the evaluation time for forward_count; horizon bounds the
    window for empty_time_scan.
    """

    task: str
    params: ModelParams
    replications: int
    base_seed: int
    t: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise MonteCarloError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name in ("replications", "base_seed"):
            object.__setattr__(self, name, _plan_field(_as_int, getattr(self, name), name))
        for name in ("t", "horizon"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _plan_field(_as_float, getattr(self, name), name))
        if self.replications < 1:
            raise MonteCarloError("replications must be a positive integer")
        if self.base_seed < 0:
            raise MonteCarloError("base_seed must be a non-negative integer")
        if self.task == TASK_FORWARD_COUNT and (self.t is None or not 0.0 < self.t < math.inf):
            raise MonteCarloError("forward_count requires a finite positive t")
        if self.task == TASK_EMPTY_SCAN and (self.horizon is None or not 0.0 < self.horizon < math.inf):
            raise MonteCarloError("empty_time_scan requires a finite positive horizon")

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "params": self.params.to_json(),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "stop": stop_rule_json(),
            "t": self.t,
            "horizon": self.horizon,
        }


@dataclass(frozen=True)
class RunSummary:
    """Moments over the finite samples, with divergence sentinels counted apart."""

    n: int
    mean: float
    variance: float
    se: float
    sentinel_count: int
    sentinel_fraction: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mean": _encode_float(self.mean),
            "variance": _encode_float(self.variance),
            "se": _encode_float(self.se),
            "sentinel_count": self.sentinel_count,
            "sentinel_fraction": self.sentinel_fraction,
        }


def summarize(samples: np.ndarray) -> RunSummary:
    samples = np.asarray(samples, dtype=float)
    n = int(samples.size)
    finite = samples[np.isfinite(samples)]
    sentinels = n - int(finite.size)
    if finite.size == 0:
        return RunSummary(n, math.inf, math.nan, math.nan, sentinels, sentinels / n)
    mean = float(finite.mean())
    if finite.size >= 2:
        variance = float(finite.var(ddof=1))
        se = math.sqrt(variance / finite.size)
    else:
        variance = math.nan
        se = math.nan
    return RunSummary(n, mean, variance, se, sentinels, sentinels / n)


@dataclass(frozen=True)
class RunResult:
    """Samples plus per-replication auxiliaries from one executed plan."""

    samples: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def summary(self) -> RunSummary:
        return summarize(self.samples)


def _ladder_group(plan: ReplicationPlan, blocks: range) -> dict[str, np.ndarray]:
    """Samples and auxiliaries of the BLOCK replications of each block in `blocks`, walked together.

    Each block draws from its own stream in the order it would alone:
    look-back gaps (limit task), ladders, then Poisson counts.
    """
    rngs = [replication_rng(plan.base_seed, index=b, salt=_TASK_SALTS[plan.task]) for b in blocks]
    params = plan.params
    limit = plan.task == TASK_LIMIT_CONFIG
    size = BLOCK * len(rngs)
    if limit:
        gaps = np.concatenate([sample_first_gaps(params, rng, BLOCK) for rng in rngs])
    block = sample_ladder_blocks(params.swapped() if limit else params, rngs, BLOCK)
    finite = block.finite
    mass = np.where(finite, block.mass, 0.0)
    out = {"stop_reason": block.stop_reason, "depth": block.depth, "tail": block.tail}
    rows = [slice(i * BLOCK, (i + 1) * BLOCK) for i in range(len(rngs))]
    # A sum of independent Poisson step counts is one Poisson count with the summed mass.
    if limit:
        # lambda_birth * gap overflows only past the float range: such a
        # row is a sentinel, and its band-0 count is drawn with mean 0.
        with np.errstate(over="ignore"):
            band0 = params.lambda_birth * gaps
        band0_finite = np.isfinite(band0)
        band0_mean = np.where(band0_finite, band0, 0.0)
        finite = finite & band0_finite
        n0, n_above = np.empty(size), np.empty(size)
        for rng, at in zip(rngs, rows):
            n0[at] = _poisson(rng, band0_mean[at])
            n_above[at] = _poisson(rng, mass[at])
        out.update(
            samples=np.where(finite, n0 + n_above, EFFECTIVELY_INFINITE),
            n0=np.where(finite, n0, math.nan),
            n_above=np.where(finite, n_above, math.nan),
            band0_mass=band0,
        )
    else:
        counts = np.concatenate([_poisson(rng, mass[at]) for rng, at in zip(rngs, rows)])
        out.update(
            samples=np.where(finite, counts, EFFECTIVELY_INFINITE),
            mass=np.where(finite, block.mass, EFFECTIVELY_INFINITE),
        )
    return out


def _forward_block(plan: ReplicationPlan, b: int) -> dict[str, np.ndarray]:
    """Samples of the BLOCK forward windows of block b, drawn in row chunks.

    The count at t needs no event times: the (kind, mark) sequence of a
    window does not depend on them.
    """
    rng = replication_rng(plan.base_seed, index=b, salt=_TASK_SALTS[plan.task])
    if plan.task == TASK_FORWARD_COUNT:
        chunks = generate_block(plan.params, plan.t, rng, BLOCK, with_times=False)
        parts = [count_alive_rows(birth, marks, valid) for _, birth, marks, valid in chunks]
    else:
        chunks = generate_block(plan.params, plan.horizon, rng, BLOCK)
        parts = [last_empty_rows(*chunk, plan.horizon) for chunk in chunks]
    return {"samples": np.concatenate(parts)}


def run(plan: ReplicationPlan) -> RunResult:
    """Execute every replication of the plan.

    Every task runs blocks 0 .. ceil(n / BLOCK) - 1 and keeps the first
    n rows; a ladder task walks them in groups of LADDER_GROUP.  A
    ladder task whose exact tail exponent is divergent walks no ladder:
    every replication is a "divergent" sentinel, and the limit task still
    draws each look-back gap for its band-0 mass.
    """
    n = plan.replications
    blocks = -(-n // BLOCK)
    if plan.task in _LADDER_TASKS:
        parts = [_ladder_group(plan, range(g, min(g + LADDER_GROUP, blocks))) for g in range(0, blocks, LADDER_GROUP)]
    else:
        parts = [_forward_block(plan, b) for b in range(blocks)]
    columns = {k: np.concatenate([part[k] for part in parts])[:n] for k in parts[0]}
    samples = columns.pop("samples").astype(float)
    return RunResult(samples=samples, aux=columns)


def ladder_diagnostics(result: RunResult) -> dict:
    """Stop-reason histogram, depth quantiles, largest tail bound and sentinel count of a ladder run.

    tail_bound_max is the largest tail bound of any replication, each at
    most TAIL_TOLERANCE, None when no replication stopped by it (every
    replication is a sentinel).  Every figure is a function of the
    samples alone, so reruns write identical diagnostics.
    """
    reasons, counts = np.unique(result.aux["stop_reason"], return_counts=True)
    depth = result.aux["depth"]
    tails = result.aux["tail"]
    tails = tails[np.isfinite(tails)]
    return {
        "stop_reasons": {str(r): int(c) for r, c in zip(reasons, counts)},
        "depth": {
            "p50": float(np.quantile(depth, 0.5)),
            "p99": float(np.quantile(depth, 0.99)),
            "max": int(depth.max()),
        },
        "tail_bound_max": float(tails.max()) if tails.size else None,
        "sentinel_count": result.summary.sentinel_count,
    }


@dataclass(frozen=True)
class GofReport:
    """Statistic and p-value of one goodness-of-fit test."""

    statistic: float
    p_value: float


def _pool_bins(columns, weight: Callable) -> list[list[float]]:
    """Merge adjacent table columns until weight(column) reaches MIN_EXPECTED in each.

    Each column holds one entry per table row and merges by entrywise
    sums.  The tail is pooled first, then any sparse interior column
    into its right neighbor (the last one into its left neighbor).
    """
    cols = [list(c) for c in columns]

    def merge(i: int, j: int) -> None:
        cols[j] = [a + b for a, b in zip(cols[j], cols[i])]
        del cols[i]

    while len(cols) > 1 and weight(cols[-1]) < MIN_EXPECTED:
        merge(len(cols) - 1, len(cols) - 2)
    i = 0
    while i < len(cols):
        if len(cols) > 1 and weight(cols[i]) < MIN_EXPECTED:
            j = i + 1 if i + 1 < len(cols) else i - 1
            merge(i, j)
            if j < i:
                i -= 1
        else:
            i += 1
    return cols


def _integer_samples(samples: Sequence, check: str) -> np.ndarray:
    """samples as int64 counts, refused unless at least 1000 finite non-negative integers."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 1000:
        raise MonteCarloError(f"{check} needs at least 1000 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise MonteCarloError(f"{check} expects finite samples; drop sentinels first")
    # On the floats, before the cast, which has no int64 for a value from 2^63 up.
    if arr.min() < 0:
        raise MonteCarloError(f"{check} expects non-negative samples")
    if arr.max() >= 2.0**63:
        raise MonteCarloError(f"{check} expects samples below 2^63, got {arr.max():g}")
    values = arr.astype(np.int64)
    if not np.array_equal(values, arr):
        raise MonteCarloError(f"{check} expects integer-valued samples")
    return values


def gof_chi_square(samples: Sequence, pmf: Callable, cdf: Callable) -> GofReport:
    """Pearson chi-square of integer samples against a fully specified pmf.

    Count categories are pooled (tail first, then any sparse interior
    bin into its neighbor) until every expected count reaches
    MIN_EXPECTED; the degrees of freedom are bins - 1 since no
    parameter is estimated from the data.
    """
    from scipy.special import chdtrc

    values = _integer_samples(samples, "chi-square check")
    n = int(values.size)
    k_max = int(values.max())
    observed = np.bincount(values, minlength=k_max + 1).astype(float).tolist()
    grid = np.arange(k_max + 1)
    expected = (n * np.asarray(pmf(grid), dtype=float)).tolist()
    # Probability mass beyond the largest observed value goes to the last bin.
    expected[-1] += n * float(1.0 - cdf(k_max))
    cols = _pool_bins(zip(observed, expected), lambda col: col[1])
    if len(cols) < 2:
        raise MonteCarloError("chi-square check needs at least two pooled bins")
    obs_arr, exp_arr = np.asarray(cols).T
    exp_arr *= obs_arr.sum() / exp_arr.sum()
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = len(cols) - 1
    p_value = float(chdtrc(dof, statistic))
    return GofReport(statistic, p_value)


def gof_ks(samples: Sequence, cdf: Callable) -> GofReport:
    """Two-sided Kolmogorov-Smirnov check of continuous samples against a cdf.

    The statistic is max(D+, D-) over the sorted samples, as
    scipy.stats.kstest computes it, bit for bit.  The p-value is
    Stephens' corrected asymptotic law (JRSS B 32, 1970): the Kolmogorov
    survival function at (sqrt(n) + 0.12 + 0.11 / sqrt(n)) D.  For
    n >= 1000 it is within 1.5% of the exact law of D_n wherever the
    exact p lies in [0.001, 0.5], and at or below it wherever the exact
    p is at most 0.02, so near the test levels a check is never looser
    than the exact test.
    """
    from scipy.special import kolmogorov

    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size < 1000:
        raise MonteCarloError(f"KS check needs at least 1000 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise MonteCarloError("KS check expects finite samples; drop sentinels first")
    n = int(arr.size)
    cdfvals = np.asarray(cdf(arr), dtype=float)
    if not np.all((cdfvals >= 0.0) & (cdfvals <= 1.0)):
        raise MonteCarloError("KS check needs a cdf with values in [0, 1] at every sample")
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    statistic = float(d_plus if d_plus > d_minus else d_minus)
    root = math.sqrt(n)
    return GofReport(statistic, float(kolmogorov((root + 0.12 + 0.11 / root) * statistic)))


def gof_two_sample_counts(a: Sequence, b: Sequence) -> GofReport:
    """Homogeneity chi-square for two integer count samples on a shared binning."""
    from scipy.special import chdtrc

    xa = _integer_samples(a, "two-sample check")
    xb = _integer_samples(b, "two-sample check")
    k_max = int(max(xa.max(), xb.max()))
    ca = np.bincount(xa, minlength=k_max + 1).astype(float)
    cb = np.bincount(xb, minlength=k_max + 1).astype(float)
    # Pool so the smaller row's expected count clears the floor in every column.
    share = min(xa.size, xb.size) / (xa.size + xb.size)
    cols = _pool_bins(zip(ca, cb), lambda col: (col[0] + col[1]) * share)
    if len(cols) < 2:
        raise MonteCarloError("two-sample check needs at least two pooled bins")
    table = np.asarray(cols).T
    # Pearson statistic against the independence table, in scipy's
    # chi2_contingency order: row sums times column sums over the total.
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).ravel().sum())
    p_value = float(chdtrc(len(cols) - 1, statistic))
    return GofReport(statistic, p_value)


def compare_forward_vs_limit(
    params: ModelParams,
    replications: int,
    base_seed: int,
    t: float,
) -> GofReport:
    """Two-sample check: forward population size at time t vs the limit law.

    The forward count from an empty start approaches the limit law from
    below (for the exponential pair exp(2)/exp(1) its mean is
    2 - 2/t + 2 exp(-t)/t against the limit's 2), so t must be large
    against 1 / min(rate) for the gap to be small against the check's
    resolution.  Only meaningful in the finite-limit regime; raises when
    the sampled limit run produced divergence sentinels.
    """
    forward = run(
        ReplicationPlan(
            task=TASK_FORWARD_COUNT,
            params=params,
            replications=replications,
            base_seed=base_seed,
            t=t,
        )
    )
    limit = run(
        ReplicationPlan(
            task=TASK_LIMIT_CONFIG,
            params=params,
            replications=replications,
            base_seed=base_seed,
        )
    )
    if limit.summary.sentinel_count > 0:
        raise MonteCarloError(
            "limit-configuration run produced divergence sentinels; "
            "the forward-vs-limit comparison needs a finite-limit regime"
        )
    return gof_two_sample_counts(forward.samples, limit.samples)
