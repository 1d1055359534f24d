"""Replicated sampling plans with deterministic seeding and GOF checks.

Every replication owns a counter-based RNG keyed by (base_seed,
replication index, task salt), so results are bit-identical regardless
of worker count or chunking.  The extinction-count and extinction-mass
tasks share a salt on purpose: they see identical ladders, which lets a
single run serve both the count and the mass checks.

A ladder task whose regime the exact tail exponent of the built-in
families declares divergent reports sentinels without walking ladders;
every other replication is finite only if its ladder's mass died out.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import VERDICT_INFINITE, exact_verdict
from .distributions import ModelParams, _as_float, model_params_from_json
from .ladders import (
    EFFECTIVELY_INFINITE,
    StopRule,
    birth_mass,
    extinction_mass,
    masses_effectively_infinite,
    populate_limit_config,
    sample_extinction_count,
    sample_first_gap,
    sample_fitness_ladder,
    sample_threshold_ladder,
)
from .process import Configuration, evolve, generate_stream, last_empty_time, species_count_at
from .streams import replication_rng

TASK_EXTINCTION_COUNT = "extinction_count"
TASK_EXTINCTION_MASS = "extinction_mass"
TASK_LIMIT_CONFIG = "limit_config"
TASK_FORWARD_COUNT = "forward_count"
TASK_EMPTY_SCAN = "empty_time_scan"

TASKS = (
    TASK_EXTINCTION_COUNT,
    TASK_EXTINCTION_MASS,
    TASK_LIMIT_CONFIG,
    TASK_FORWARD_COUNT,
    TASK_EMPTY_SCAN,
)

# The count and mass tasks deliberately share a salt (identical ladders).
_TASK_SALTS = {
    TASK_EXTINCTION_COUNT: 1,
    TASK_EXTINCTION_MASS: 1,
    TASK_LIMIT_CONFIG: 2,
    TASK_FORWARD_COUNT: 3,
    TASK_EMPTY_SCAN: 4,
}

THREADS_ENV = "THRESHOLD_GMS_THREADS"


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
    if plan.task in (TASK_EXTINCTION_COUNT, TASK_EXTINCTION_MASS):
        return exact_verdict(plan.params) == VERDICT_INFINITE
    if plan.task == TASK_LIMIT_CONFIG:
        return exact_verdict(plan.params.swapped()) == VERDICT_INFINITE
    return False


def _replicate_one(
    plan: ReplicationPlan, index: int, diverges: bool
) -> tuple[float, dict[str, float]]:
    rng = replication_rng(plan.base_seed, index=index, salt=_TASK_SALTS[plan.task])
    params = plan.params
    if plan.task in (TASK_EXTINCTION_COUNT, TASK_EXTINCTION_MASS):
        ladder = None if diverges else sample_fitness_ladder(params, plan.stop, rng)
        if ladder is None or masses_effectively_infinite(ladder.stop_reason):
            if plan.task == TASK_EXTINCTION_MASS:
                return EFFECTIVELY_INFINITE, {}
            return EFFECTIVELY_INFINITE, {"mass": EFFECTIVELY_INFINITE}
        mass = extinction_mass(ladder).value
        if plan.task == TASK_EXTINCTION_MASS:
            return mass, {}
        return float(sample_extinction_count(ladder, rng)), {"mass": mass}
    if plan.task == TASK_LIMIT_CONFIG:
        if diverges:
            ladder, band0 = None, params.lambda_birth * sample_first_gap(params, rng)
        else:
            ladder = sample_threshold_ladder(params, plan.stop, rng)
            band0 = birth_mass(ladder, params).per_step[0]
        if ladder is None or masses_effectively_infinite(ladder.stop_reason):
            return EFFECTIVELY_INFINITE, {"n0": math.nan, "n_above": math.nan, "band0_mass": band0}
        config = populate_limit_config(ladder, params, rng)
        return float(config.total), {
            "n0": float(config.n0),
            "n_above": float(config.n_above),
            "band0_mass": band0,
        }
    if plan.task == TASK_FORWARD_COUNT:
        stream = generate_stream(params, 0.0, plan.t, rng)
        trace = evolve(Configuration(), stream)
        return float(species_count_at(trace, plan.t)), {}
    stream = generate_stream(params, 0.0, plan.horizon, rng)
    trace = evolve(Configuration(), stream)
    empty = last_empty_time(trace)
    return (math.nan if empty is None else float(empty)), {}


def _run_range(plan: ReplicationPlan, start: int, count: int):
    diverges = _regime_diverges(plan)
    values: list[float] = []
    aux: dict[str, list[float]] = {}
    for i in range(start, start + count):
        v, extras = _replicate_one(plan, i, diverges)
        values.append(v)
        for k, x in extras.items():
            aux.setdefault(k, []).append(x)
    return start, values, aux


def worker_count(replications: int) -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise MonteCarloError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise MonteCarloError(f"{THREADS_ENV} must be at least 1, got {workers}")
    return min(workers, replications)


def run(plan: ReplicationPlan) -> RunResult:
    """Execute every replication of the plan.

    The worker count comes from the THRESHOLD_GMS_THREADS environment
    variable (default 1); per-replication seeding makes the output
    independent of it.  A ladder task whose exact tail exponent is
    divergent walks no ladder: every replication is a sentinel, and the
    limit task still draws each look-back gap for its band-0 mass.
    """
    n = plan.replications
    workers = worker_count(n)
    if workers == 1:
        _, values, aux_lists = _run_range(plan, 0, n)
    else:
        chunk = -(-n // workers)
        ranges = [(s, min(chunk, n - s)) for s in range(0, n, chunk)]
        pieces = []
        ctx = get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(_run_range, plan, s, c) for s, c in ranges]
            pieces = [f.result() for f in futures]
        pieces.sort(key=lambda item: item[0])
        values = []
        aux_lists = {}
        for _, vals, aux in pieces:
            values.extend(vals)
            for k, xs in aux.items():
                aux_lists.setdefault(k, []).extend(xs)
    samples = np.asarray(values, dtype=float)
    aux_arrays = {k: np.asarray(v, dtype=float) for k, v in aux_lists.items()}
    return RunResult(plan=plan, samples=samples, aux=aux_arrays)


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


def _pool_bins(columns, weight: Callable, min_expected: float) -> list[list[float]]:
    """Merge adjacent table columns until weight(column) reaches min_expected in each.

    Each column holds one entry per table row and merges by entrywise
    sums.  The tail is pooled first, then any sparse interior column
    into its right neighbor (the last one into its left neighbor).
    """
    cols = [list(c) for c in columns]

    def merge(i: int, j: int) -> None:
        cols[j] = [a + b for a, b in zip(cols[j], cols[i])]
        del cols[i]

    while len(cols) > 1 and weight(cols[-1]) < min_expected:
        merge(len(cols) - 1, len(cols) - 2)
    i = 0
    while i < len(cols):
        if len(cols) > 1 and weight(cols[i]) < min_expected:
            j = i + 1 if i + 1 < len(cols) else i - 1
            merge(i, j)
            if j < i:
                i -= 1
        else:
            i += 1
    return cols


def gof_chi_square(
    samples: Sequence,
    pmf: Callable,
    cdf: Callable,
    reference: str,
    min_expected: float = 5.0,
) -> GofReport:
    """Pearson chi-square of integer samples against a fully specified pmf.

    Count categories are pooled (tail first, then any sparse interior
    bin into its neighbor) until every expected count reaches
    min_expected; the degrees of freedom are bins - 1 since no
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
    cols = _pool_bins(zip(observed, expected), lambda col: col[1], min_expected)
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


def gof_two_sample_counts(a: Sequence, b: Sequence, reference: str, min_expected: float = 5.0) -> GofReport:
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
    cols = _pool_bins(zip(ca, cb), lambda col: (col[0] + col[1]) * share, min_expected)
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
    stop: StopRule = StopRule(),
) -> GofReport:
    """Two-sample check: forward population size at large t vs the limit law.

    Only meaningful in the finite-limit regime; raises when the sampled
    limit run produced divergence sentinels.
    """
    if t is None:
        t = 50.0 / min(params.lambda_birth, params.lambda_extinct)
    forward = run(
        ReplicationPlan(
            task=TASK_FORWARD_COUNT,
            params=params,
            replications=replications,
            base_seed=base_seed,
            stop=stop,
            t=t,
        )
    )
    limit = run(
        ReplicationPlan(
            task=TASK_LIMIT_CONFIG,
            params=params,
            replications=replications,
            base_seed=base_seed,
            stop=stop,
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
