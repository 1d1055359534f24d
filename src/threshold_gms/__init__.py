"""Toolkit for a birth/extinction species process with threshold-driven
mass extinctions: exact sampling of its record ladders and long-run
configuration, integral criteria separating the regimes, and
reproducible Monte Carlo checks against the closed-form exponential
laws.

The package namespace holds the names the README documents, the task
constants and what the experiment scripts use; every other name is
importable from its module.
"""

__version__ = "0.1.0"

from .criteria import classify, classify_many, exponential_closed_forms
from .distributions import Exponential, ModelParams, Pareto, TabulatedQuantile, Weibull
from .ladders import (
    sample_fitness_ladder,
    sample_ladder_block,
    sample_limit_config,
    sample_threshold_ladder,
)
from .montecarlo import (
    TASK_EMPTY_SCAN,
    TASK_EXTINCTION_COUNT,
    TASK_FORWARD_COUNT,
    TASK_LIMIT_CONFIG,
    ReplicationPlan,
    RunResult,
    compare_forward_vs_limit,
    gof_chi_square,
    gof_ks,
    run,
)
from .process import Event, EventStream, count_alive, evolve, generate_stream
from .streams import replication_rng

__all__ = [
    "Event",
    "EventStream",
    "Exponential",
    "ModelParams",
    "Pareto",
    "ReplicationPlan",
    "RunResult",
    "TASK_EMPTY_SCAN",
    "TASK_EXTINCTION_COUNT",
    "TASK_FORWARD_COUNT",
    "TASK_LIMIT_CONFIG",
    "TabulatedQuantile",
    "Weibull",
    "classify",
    "classify_many",
    "compare_forward_vs_limit",
    "count_alive",
    "evolve",
    "exponential_closed_forms",
    "generate_stream",
    "gof_chi_square",
    "gof_ks",
    "replication_rng",
    "run",
    "sample_fitness_ladder",
    "sample_ladder_block",
    "sample_limit_config",
    "sample_threshold_ladder",
]
