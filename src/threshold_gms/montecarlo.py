"""Replicated sampling plans with deterministic seeding and GOF checks.

Every task runs in blocks of BLOCK replications, each block from one
counter-based RNG keyed by (base_seed, b, task salt): the two ladder
tasks walk their BLOCK ladders in lockstep, and the two forward tasks
draw BLOCK windows as padded rows and read them with row kernels.  A block
always samples all of its rows, so replication i does not depend on
how many replications the plan asks for.  The extinction-count task
carries each ladder's mass in RunResult.aux["mass"], so a single run
serves both the count and the mass checks.

A ladder task whose regime the exact tail exponent of the built-in
families declares divergent reports sentinels without walking ladders;
every other replication is finite only if its ladder's mass died out.
Each ladder replication's stop reason and depth ride along in
RunResult.aux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import VERDICT_INFINITE, exact_verdict
from .distributions import ModelParams, _as_float, model_params_from_json
# The one-ladder functions are not called here; perfbench/tracing.py wraps
# them under this module's names, so they stay importable from it.
from .ladders import (  # noqa: F401
    EFFECTIVELY_INFINITE,
    STOP_DTYPE,
    StopRule,
    _poisson,
    birth_mass,
    extinction_mass,
    masses_effectively_infinite,
    populate_limit_config,
    sample_extinction_count,
    sample_first_gaps,
    sample_fitness_ladder,
    sample_ladder_block,
    sample_threshold_ladder,
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
from .streams import replication_rng

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

# Stop reason of a replication whose plan the exact tail exponent declares
# divergent: no ladder was walked.
STOP_DIVERGENT = "divergent"

# Pooling floor of the chi-square checks: every pooled bin's expected count reaches it.
MIN_EXPECTED = 5.0


class MonteCarloError(ValueError):
    """Invalid plan arguments or incompatible comparison requests."""


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
    stop: StopRule = StopRule()
    t: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise MonteCarloError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if not isinstance(self.replications, int) or self.replications < 1:
            raise MonteCarloError("replications must be a positive integer")
        if not isinstance(self.base_seed, int) or self.base_seed < 0:
            raise MonteCarloError("base_seed must be a non-negative integer")
        if self.task == TASK_FORWARD_COUNT:
            if self.t is None or not _as_float(self.t, "t") > 0.0 or math.isinf(self.t):
                raise MonteCarloError("forward_count requires a finite positive t")
        if self.task == TASK_EMPTY_SCAN:
            if (
                self.horizon is None
                or not _as_float(self.horizon, "horizon") > 0.0
                or math.isinf(self.horizon)
            ):
                raise MonteCarloError("empty_time_scan requires a finite positive horizon")

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "params": self.params.to_json(),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "stop": self.stop.to_json(),
            "t": self.t,
            "horizon": self.horizon,
        }


def plan_from_json(payload: dict) -> ReplicationPlan:
    return ReplicationPlan(
        task=payload["task"],
        params=model_params_from_json(payload["params"]),
        replications=int(payload["replications"]),
        base_seed=int(payload["base_seed"]),
        stop=StopRule(**payload.get("stop", {})),
        t=payload.get("t"),
        horizon=payload.get("horizon"),
    )


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
        def encode(v: float):
            if math.isnan(v):
                return None
            if math.isinf(v):
                return "inf"
            return v

        return {
            "n": self.n,
            "mean": encode(self.mean),
            "variance": encode(self.variance),
            "se": encode(self.se),
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

    plan: ReplicationPlan
    samples: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def summary(self) -> RunSummary:
        return summarize(self.samples)


def _regime_diverges(plan: ReplicationPlan) -> bool:
    """Whether the exact tail exponent declares the plan's ladder mass divergent."""
    if plan.task == TASK_EXTINCTION_COUNT:
        return exact_verdict(plan.params) == VERDICT_INFINITE
    if plan.task == TASK_LIMIT_CONFIG:
        return exact_verdict(plan.params.swapped()) == VERDICT_INFINITE
    return False


def _ladder_block(plan: ReplicationPlan, b: int, diverges: bool) -> dict[str, np.ndarray]:
    """Samples and auxiliaries of the BLOCK replications of block b."""
    rng = replication_rng(plan.base_seed, index=b, salt=_TASK_SALTS[plan.task])
    params = plan.params
    limit = plan.task == TASK_LIMIT_CONFIG
    if diverges:
        out = {
            "samples": np.full(BLOCK, EFFECTIVELY_INFINITE),
            "stop_reason": np.full(BLOCK, STOP_DIVERGENT, dtype=STOP_DTYPE),
            "depth": np.zeros(BLOCK, dtype=np.int64),
        }
        if limit:
            nan = np.full(BLOCK, math.nan)
            band0 = params.lambda_birth * sample_first_gaps(params, rng, BLOCK)
            out.update(n0=nan, n_above=nan, band0_mass=band0)
        else:
            out["mass"] = out["samples"]
        return out
    block = sample_ladder_block(params, plan.stop, rng, BLOCK, threshold=limit)
    finite = block.finite
    mass = np.where(finite, block.mass, 0.0)
    out = {"stop_reason": block.stop_reason, "depth": block.depth}
    # A sum of independent Poisson step counts is one Poisson count with the summed mass.
    if limit:
        band0 = params.lambda_birth * block.first_gap
        n0 = _poisson(rng, band0)
        n_above = _poisson(rng, mass)
        out.update(
            samples=np.where(finite, n0 + n_above, EFFECTIVELY_INFINITE),
            n0=np.where(finite, n0, math.nan),
            n_above=np.where(finite, n_above, math.nan),
            band0_mass=band0,
        )
    else:
        out.update(
            samples=np.where(finite, _poisson(rng, mass), EFFECTIVELY_INFINITE),
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
        chunks = generate_block(plan.params, 0.0, plan.t, rng, BLOCK, with_times=False)
        parts = [count_alive_rows(birth, marks, valid) for _, birth, marks, valid in chunks]
    else:
        chunks = generate_block(plan.params, 0.0, plan.horizon, rng, BLOCK)
        parts = [last_empty_rows(*chunk, plan.horizon) for chunk in chunks]
    return {"samples": np.concatenate(parts)}


def run(plan: ReplicationPlan) -> RunResult:
    """Execute every replication of the plan.

    Every task runs blocks 0 .. ceil(n / BLOCK) - 1 and keeps the first
    n rows.  A ladder task whose exact tail exponent is divergent walks
    no ladder: every replication is a sentinel, and the limit task
    still draws each look-back gap for its band-0 mass.
    """
    n = plan.replications
    diverges = _regime_diverges(plan)
    blocks = [
        _ladder_block(plan, b, diverges) if plan.task in _LADDER_TASKS else _forward_block(plan, b)
        for b in range(-(-n // BLOCK))
    ]
    columns = {k: np.concatenate([blk[k] for blk in blocks])[:n] for k in blocks[0]}
    samples = columns.pop("samples").astype(float)
    return RunResult(plan=plan, samples=samples, aux=columns)


def ladder_diagnostics(result: RunResult) -> dict:
    """Stop-reason histogram, depth quantiles and sentinel count of a ladder run.

    Every figure is a function of the samples alone, so reruns write
    identical diagnostics.
    """
    reasons, counts = np.unique(result.aux["stop_reason"], return_counts=True)
    depth = result.aux["depth"]
    return {
        "stop_reasons": {str(r): int(c) for r, c in zip(reasons, counts)},
        "depth": {
            "p50": float(np.quantile(depth, 0.5)),
            "p99": float(np.quantile(depth, 0.99)),
            "max": int(depth.max()),
        },
        "sentinel_count": result.summary.sentinel_count,
    }


@dataclass(frozen=True)
class GofReport:
    """One goodness-of-fit verdict against a stated reference law."""

    test: str
    statistic: float
    p_value: float
    n: int
    reference: str

    def to_json(self) -> dict:
        return {
            "test": self.test,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n": self.n,
            "reference": self.reference,
        }


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


def gof_chi_square(samples: Sequence, pmf: Callable, cdf: Callable, reference: str) -> GofReport:
    """Pearson chi-square of integer samples against a fully specified pmf.

    Count categories are pooled (tail first, then any sparse interior
    bin into its neighbor) until every expected count reaches
    MIN_EXPECTED; the degrees of freedom are bins - 1 since no
    parameter is estimated from the data.
    """
    arr = np.asarray(samples)
    if arr.size < 1000:
        raise MonteCarloError(f"chi-square check needs at least 1000 samples, got {arr.size}")
    if not np.all(np.isfinite(arr.astype(float))):
        raise MonteCarloError("chi-square check expects finite samples; drop sentinels first")
    values = arr.astype(np.int64)
    if not np.array_equal(values, arr.astype(float)):
        raise MonteCarloError("chi-square check expects integer-valued samples")
    if values.min() < 0:
        raise MonteCarloError("chi-square check expects non-negative samples")
    from scipy import stats

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
    p_value = float(stats.chi2.sf(statistic, dof))
    return GofReport("chi_square", statistic, p_value, n, reference)


def gof_ks(samples: Sequence, cdf: Callable, reference: str) -> GofReport:
    """Kolmogorov-Smirnov check of continuous samples against a cdf."""
    from scipy import stats

    arr = np.asarray(samples, dtype=float)
    result = stats.kstest(arr, cdf)
    return GofReport("ks", float(result.statistic), float(result.pvalue), int(arr.size), reference)


def gof_two_sample_counts(a: Sequence, b: Sequence, reference: str) -> GofReport:
    """Homogeneity chi-square for two integer count samples on a shared binning."""
    from scipy import stats

    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size < 1000 or xb.size < 1000:
        raise MonteCarloError("two-sample check needs at least 1000 samples per side")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise MonteCarloError("two-sample check expects finite samples; drop sentinels first")
    if xa.min() < 0 or xb.min() < 0:
        raise MonteCarloError("two-sample check expects non-negative counts")
    k_max = int(max(xa.max(), xb.max()))
    ca = np.bincount(xa.astype(np.int64), minlength=k_max + 1).astype(float)
    cb = np.bincount(xb.astype(np.int64), minlength=k_max + 1).astype(float)
    # Pool so the smaller row's expected count clears the floor in every column.
    share = min(xa.size, xb.size) / (xa.size + xb.size)
    cols = _pool_bins(zip(ca, cb), lambda col: (col[0] + col[1]) * share)
    if len(cols) < 2:
        raise MonteCarloError("two-sample check needs at least two pooled bins")
    table = np.asarray(cols).T
    statistic, p_value, _, _ = stats.chi2_contingency(table, correction=False)
    return GofReport(
        "two_sample_chi_square",
        float(statistic),
        float(p_value),
        int(xa.size + xb.size),
        reference,
    )


def compare_forward_vs_limit(
    params: ModelParams,
    replications: int,
    base_seed: int,
    t: Optional[float] = None,
) -> GofReport:
    """Two-sample check: forward population size at large t vs the limit law.

    The default t is 1000 / min(rate): the forward count from an empty
    start approaches the limit law from below (for the exponential pair
    exp(2)/exp(1) its mean is 2 - 2/t + 2 exp(-t)/t against the limit's
    2), and that far out the gap is small against the check's
    resolution.  Only meaningful in the finite-limit regime; raises when
    the sampled limit run produced divergence sentinels.
    """
    if t is None:
        t = 1000.0 / min(params.lambda_birth, params.lambda_extinct)
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
    return gof_two_sample_counts(
        forward.samples,
        limit.samples,
        reference=f"forward population size at t={t:g} vs limit-configuration total",
    )
