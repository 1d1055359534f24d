"""Toolkit for a birth/extinction species process with threshold-driven
mass extinctions: exact sampling of its record ladders and long-run
configuration, integral criteria separating the regimes, and
reproducible Monte Carlo checks against the closed-form exponential
laws.
"""

__version__ = "0.1.0"

from .criteria import (
    ClassificationReport,
    CriteriaError,
    CutoffLadder,
    ExponentialClosedForms,
    GammaLaw,
    ImproperIntegral,
    NegBinomLaw,
    birth_count_exponent,
    classify,
    composed_survival,
    composed_survival_exponent,
    composed_survival_swapped,
    expected_birth_count,
    expected_extinction_count,
    exponential_closed_forms,
    extinction_count_exponent,
    hazard_weighted_integral,
    hazard_weighted_integral_xspace,
    laplace_birth_count,
    laplace_extinction_count,
)
from .distributions import (
    DistributionError,
    DistributionSpec,
    Exponential,
    ModelParams,
    Pareto,
    TabulatedQuantile,
    Weibull,
    distribution_from_json,
    model_params_from_json,
    sample_many,
)
from .ladders import (
    EFFECTIVELY_INFINITE,
    FitnessLadder,
    LadderError,
    LadderMass,
    LadderStep,
    LimitConfigSample,
    StopRule,
    ThresholdLadder,
    birth_mass,
    count_extinctions_above_records,
    extinction_mass,
    masses_effectively_infinite,
    populate_limit_config,
    sample_extinction_count,
    sample_fitness_ladder,
    sample_ladder_block,
    sample_limit_config,
    sample_threshold_ladder,
)
from .montecarlo import (
    GofReport,
    MonteCarloError,
    ReplicationPlan,
    RunResult,
    RunSummary,
    TASK_EMPTY_SCAN,
    TASK_EXTINCTION_COUNT,
    TASK_EXTINCTION_MASS,
    TASK_FORWARD_COUNT,
    TASK_LIMIT_CONFIG,
    compare_forward_vs_limit,
    gof_chi_square,
    gof_ks,
    gof_two_sample_counts,
    plan_from_json,
    run,
    summarize,
)
from .process import (
    Configuration,
    Event,
    EventStream,
    PathTrace,
    ProcessError,
    count_alive,
    evolve,
    generate_stream,
    last_empty_time,
    species_count_at,
)
from .streams import open_uniform, replication_rng
from .validation import (
    CHECK_NAMES,
    CheckResult,
    SuiteConfig,
    SuiteContext,
    format_result,
    run_suite,
)
