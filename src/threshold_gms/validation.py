"""End-to-end acceptance checks for the whole toolkit.

Each check pins one reproducible claim: an exact constant from the
closed-form exponential laws, a goodness-of-fit verdict at a fixed
seed, an oracle equivalence, or a structural property.  The CLI
``validate`` command and the acceptance tests both run these through
run_suite, sharing the heavyweight Monte Carlo runs via SuiteContext.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

# classify is not called here; perfbench/tracing.py wraps it under this
# module's name, so it stays importable from it.
from .criteria import (  # noqa: F401
    classify,
    classify_many,
    expected_extinction_count,
    exponential_closed_forms,
    hazard_weighted_integral,
    hazard_weighted_integral_xspace,
    laplace_extinction_count,
)
from .distributions import Exponential, ModelParams, Pareto, Weibull
from .ladders import sample_fitness_ladder, sample_threshold_ladder
from .montecarlo import (
    ReplicationPlan,
    TASK_EXTINCTION_COUNT,
    TASK_LIMIT_CONFIG,
    compare_forward_vs_limit,
    gof_chi_square,
    gof_ks,
    run,
)
from .process import (
    Configuration,
    count_alive,
    count_alive_rows,
    evolve,
    generate_stream,
    last_empty_rows,
    last_empty_time,
)
from .streams import check_seed, replication_rng

# Exponential pair with the heavier threshold tail: transient regime
# with unit expected extinction count above the fitness ladder.
TRANSIENT_EXAMPLE = ModelParams(
    lambda_birth=1.0,
    lambda_extinct=1.0,
    fitness_dist=Exponential(1.0),
    threshold_dist=Exponential(2.0),
)
# Mirror image: heavier fitness tail, finite limit configuration.
FINITE_EXAMPLE = ModelParams(
    lambda_birth=1.0,
    lambda_extinct=1.0,
    fitness_dist=Exponential(2.0),
    threshold_dist=Exponential(1.0),
)

GRID_ALPHAS = (0.5, 1.0, 1.5, 2.0)
GRID_LAMBDA_BIRTH = 1.3
GRID_LAMBDA_EXTINCT = 0.7

# Finite-value cross-parameterization cases: (fitness, threshold, value).
QUADRATURE_CASES = (
    (Exponential(1.0), Exponential(2.0), 1.0),
    (Exponential(0.5), Exponential(1.5), 0.5),
    (Weibull(2.0, 1.0), Weibull(2.0, 0.5), 1.0 / 3.0),
    (Pareto(1.0, 1.0), Pareto(1.0, 3.0), 0.5),
    (Pareto(1.0, 1.0), Exponential(1.0), math.exp(-1.0)),
)

# Significance level of every goodness-of-fit check.
ALPHA = 0.01
# Random windows of the oracle check, ladder pairs of the properties check.
ORACLE_WINDOWS = 1000
PROPERTY_LADDERS = 200
# Evaluation time of the forward-vs-limit check, and the most replications it runs.
COMPARE_T = 1000.0
COMPARE_REPLICATIONS = 10_000

_ORACLE_SALT = 5
_PROPERTY_SALT = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    # Wall time of the check; never written to the byte-identical outputs.
    seconds: float = field(default=0.0, compare=False)


def format_result(result: CheckResult) -> str:
    tag = "PASS" if result.passed else "FAIL"
    return f"{tag} {result.name}: {result.details}"


@dataclass(frozen=True)
class SuiteConfig:
    replications: int = 100_000
    base_seed: int = 123456789

    def __post_init__(self) -> None:
        check_seed(self.base_seed)


class SuiteContext:
    """Lazily built shared inputs for the acceptance checks."""

    def __init__(self, config: Optional[SuiteConfig] = None) -> None:
        self.config = config or SuiteConfig()
        self._cache: dict = {}
        # Seconds run_suite spent loading modules before the first check.
        self.setup_seconds = 0.0

    def count_run(self):
        if "count_run" not in self._cache:
            self._cache["count_run"] = run(
                ReplicationPlan(
                    task=TASK_EXTINCTION_COUNT,
                    params=TRANSIENT_EXAMPLE,
                    replications=self.config.replications,
                    base_seed=self.config.base_seed,
                )
            )
        return self._cache["count_run"]

    def limit_run(self):
        if "limit_run" not in self._cache:
            self._cache["limit_run"] = run(
                ReplicationPlan(
                    task=TASK_LIMIT_CONFIG,
                    params=FINITE_EXAMPLE,
                    replications=self.config.replications,
                    base_seed=self.config.base_seed,
                )
            )
        return self._cache["limit_run"]

    def grid_classifications(self) -> dict:
        """Reports of every GRID_ALPHAS point and of its role swap, from one classify_many call."""
        if "grid" not in self._cache:
            points = [_grid_params(a_fit, a_thr) for a_fit in GRID_ALPHAS for a_thr in GRID_ALPHAS]
            points += [params.swapped() for params in points]
            self._cache["grid"] = dict(zip(points, classify_many(points)))
        return self._cache["grid"]


def _grid_params(alpha_fitness: float, alpha_threshold: float) -> ModelParams:
    return ModelParams(
        lambda_birth=GRID_LAMBDA_BIRTH,
        lambda_extinct=GRID_LAMBDA_EXTINCT,
        fitness_dist=Exponential(alpha_fitness),
        threshold_dist=Exponential(alpha_threshold),
    )


def check_expected_count(ctx: SuiteContext) -> CheckResult:
    exact = exponential_closed_forms(TRANSIENT_EXAMPLE).extinction_count_law.mean()
    integral = expected_extinction_count(TRANSIENT_EXAMPLE)
    quad_err = abs((integral.value or math.nan) - exact)
    quad_ok = integral.is_finite and quad_err <= 1e-6
    result = ctx.count_run()
    summary = result.summary
    mc_dev = abs(summary.mean - exact)
    mc_ok = summary.sentinel_count == 0 and mc_dev <= 3.0 * summary.se
    details = (
        f"quadrature {integral.value:.9f} (err {quad_err:.2e}, tol 1e-06); "
        f"MC mean {summary.mean:.5f}, se {summary.se:.5f}, |dev| {mc_dev / summary.se:.2f} se"
    )
    return CheckResult("expected-count", quad_ok and mc_ok, details)


def check_count_law(ctx: SuiteContext) -> CheckResult:
    law = exponential_closed_forms(TRANSIENT_EXAMPLE).extinction_count_law
    report = gof_chi_square(ctx.count_run().samples, law.pmf, law.cdf)
    passed = report.p_value > ALPHA
    details = f"chi-square stat {report.statistic:.2f}, p {report.p_value:.4f} (need > {ALPHA})"
    return CheckResult("count-law", passed, details)


def check_mass_law(ctx: SuiteContext) -> CheckResult:
    law = exponential_closed_forms(TRANSIENT_EXAMPLE).extinction_mass_law
    report = gof_ks(ctx.count_run().aux["mass"], law.cdf)
    passed = report.p_value > ALPHA
    details = f"KS stat {report.statistic:.5f}, p {report.p_value:.4f} (need > {ALPHA})"
    return CheckResult("mass-law", passed, details)


def check_laplace(ctx: SuiteContext) -> CheckResult:
    result = ctx.count_run()
    counts = result.samples
    if not np.all(np.isfinite(counts)):
        return CheckResult("laplace", False, "divergence sentinels in a transient-regime run")
    parts = []
    ok = True
    preds = {}
    for t in (0.5, 1.0, 2.0):
        transformed = np.exp(-t * counts)
        emp = float(transformed.mean())
        se = float(transformed.std(ddof=1)) / math.sqrt(transformed.size)
        pred = preds[t] = laplace_extinction_count(TRANSIENT_EXAMPLE, t)
        dev = abs(emp - pred)
        ok = ok and dev <= 3.0 * se
        parts.append(f"t={t:g}: emp {emp:.5f} vs {pred:.5f} ({dev / se:.2f} se)")
    closed = exponential_closed_forms(TRANSIENT_EXAMPLE).extinction_count_law.laplace(1.0)
    pred1 = preds[1.0]
    closed_err = abs(pred1 - closed)
    ok = ok and closed_err <= 1e-6
    parts.append(f"closed form at t=1: {pred1:.8f} vs {closed:.8f} (err {closed_err:.2e})")
    return CheckResult("laplace", ok, "; ".join(parts))


def check_limit_law(ctx: SuiteContext) -> CheckResult:
    forms = exponential_closed_forms(FINITE_EXAMPLE)
    result = ctx.limit_run()
    if result.summary.sentinel_count:
        return CheckResult("limit-law", False, "divergence sentinels in a finite-limit run")
    totals = result.samples
    n0 = result.aux["n0"]
    n_above = result.aux["n_above"]
    total_report = gof_chi_square(totals, forms.total_count_law.pmf, forms.total_count_law.cdf)
    n0_report = gof_chi_square(n0, forms.band0_count_law.pmf, forms.band0_count_law.cdf)
    corr = float(np.corrcoef(n0, n_above)[0, 1])
    corr_limit = 3.0 / math.sqrt(totals.size)
    passed = (
        total_report.p_value > ALPHA
        and n0_report.p_value > ALPHA
        and abs(corr) < corr_limit
    )
    details = (
        f"total p {total_report.p_value:.4f}; band-0 p {n0_report.p_value:.4f}; "
        f"|corr| {abs(corr):.5f} (limit {corr_limit:.5f})"
    )
    return CheckResult("limit-law", passed, details)


def check_band0_mass(ctx: SuiteContext) -> CheckResult:
    law = exponential_closed_forms(FINITE_EXAMPLE).band0_mass_law
    report = gof_ks(ctx.limit_run().aux["band0_mass"], law.cdf)
    passed = report.p_value > ALPHA
    details = f"KS stat {report.statistic:.5f}, p {report.p_value:.4f} (need > {ALPHA})"
    return CheckResult("band0-mass", passed, details)


def check_phase_map(ctx: SuiteContext) -> CheckResult:
    reports = ctx.grid_classifications()
    failures = []
    for a_fit in GRID_ALPHAS:
        for a_thr in GRID_ALPHAS:
            report = reports[_grid_params(a_fit, a_thr)]
            if a_thr > a_fit:
                want = ("Transient", "Infinite", False)
            elif a_fit > a_thr:
                want = ("Recurrent", "Finite", False)
            else:
                want = ("Recurrent", "Infinite", True)
            got = (report.recurrence, report.limit_count, report.null_recurrent_like)
            if got != want:
                failures.append(f"({a_fit:g},{a_thr:g}): got {got}, want {want}")
    n_points = len(GRID_ALPHAS) ** 2
    details = (
        f"all {n_points} grid verdicts match the tail-weight ordering"
        if not failures
        else "; ".join(failures)
    )
    return CheckResult("phase-map", not failures, details)


def _pairwise_region_count(stream) -> int:
    """Quadratic oracle: test every extinction against every record band."""
    records = []
    best = -math.inf
    for ev in stream.events:
        if ev.kind == "birth" and ev.mark > best:
            best = ev.mark
            records.append((ev.time, ev.mark))
    count = 0
    for ev in stream.events:
        if ev.kind != "extinction":
            continue
        for j, (t_j, x_j) in enumerate(records):
            last = j + 1 == len(records)
            if ev.time < t_j:
                continue
            if not last and ev.time >= records[j + 1][0]:
                continue
            if ev.mark >= x_j:
                count += 1
            break
    return count


def _brute_force_counts(initial: Configuration, stream) -> tuple[list[int], tuple[float, ...], Optional[float]]:
    """Event-by-event list-filter replay of the evolution, one sort per birth.

    Returns the count after every event, the final configuration and the
    last time the configuration was empty (None if it never was).
    """
    values = sorted(initial.values)
    counts = []
    last_empty = None
    for ev in stream.events:
        if ev.kind == "birth":
            if not values:
                last_empty = ev.time
            values.append(ev.mark)
            values.sort()
        else:
            values = [v for v in values if v >= ev.mark]
        counts.append(len(values))
    if not values:
        last_empty = stream.horizon
    return counts, tuple(values), last_empty


def check_oracle(ctx: SuiteContext) -> CheckResult:
    from .ladders import count_extinctions_above_records

    count_bad = 0
    evolve_bad = 0
    block_bad = 0
    for i in range(ORACLE_WINDOWS):
        rng = replication_rng(ctx.config.base_seed, index=i, salt=_ORACLE_SALT)
        horizon = float(1.0 + 29.0 * rng.random())
        stream = generate_stream(TRANSIENT_EXAMPLE, horizon, rng)
        fast_count = count_extinctions_above_records(stream)
        if fast_count != _pairwise_region_count(stream):
            count_bad += 1
        n_init = int(rng.integers(0, 6))
        initial = Configuration(
            tuple(sorted(TRANSIENT_EXAMPLE.fitness_dist.sample(rng) for _ in range(n_init)))
        )
        trace = evolve(initial, stream)
        brute_counts, brute_final, brute_empty = _brute_force_counts(initial, stream)
        if (
            trace.counts_after.tolist() != brute_counts
            or trace.configuration_at(horizon).values != brute_final
            or count_alive(stream, initial) != len(brute_final)
            or last_empty_time(trace) != brute_empty
        ):
            evolve_bad += 1
        # The forward tasks' block kernels, on the window as a one-row block from an empty start.
        _, empty_final, empty_last = _brute_force_counts(Configuration(), stream)
        times, birth, marks = stream.times[None], stream.birth[None], stream.marks[None]
        valid = np.ones(birth.shape, dtype=bool)
        if (
            count_alive_rows(birth, marks, valid)[0] != len(empty_final)
            or last_empty_rows(times, birth, marks, valid, horizon)[0] != empty_last
        ):
            block_bad += 1
    passed = count_bad == 0 and evolve_bad == 0 and block_bad == 0
    details = (
        f"count oracle matched {ORACLE_WINDOWS - count_bad}/{ORACLE_WINDOWS} windows; "
        f"array path (replay counts, suffix-maximum count, last-empty time) matched the "
        f"event-by-event replay on {ORACLE_WINDOWS - evolve_bad}/{ORACLE_WINDOWS}; "
        f"block kernels (row-wise count, row-wise last-empty scan) matched the empty-start "
        f"replay on {ORACLE_WINDOWS - block_bad}/{ORACLE_WINDOWS}"
    )
    return CheckResult("oracle", passed, details)


def check_forward_vs_limit(ctx: SuiteContext) -> CheckResult:
    report = compare_forward_vs_limit(
        FINITE_EXAMPLE,
        replications=min(COMPARE_REPLICATIONS, ctx.config.replications),
        base_seed=ctx.config.base_seed,
        t=COMPARE_T,
    )
    passed = report.p_value > ALPHA
    details = (
        f"two-sample chi-square stat {report.statistic:.2f}, p {report.p_value:.4f} "
        f"(need > {ALPHA}) at t={COMPARE_T:g}"
    )
    return CheckResult("forward-vs-limit", passed, details)


def check_quadrature(ctx: SuiteContext) -> CheckResult:
    parts = []
    ok = True
    for fitness, threshold, expected in QUADRATURE_CASES:
        params = ModelParams(
            lambda_birth=1.0,
            lambda_extinct=1.0,
            fitness_dist=fitness,
            threshold_dist=threshold,
        )
        # The integral of the ladder's per-step mass density exp(h - H_thr(H_fit^-1(h))).
        h_side = hazard_weighted_integral(params)

        def ratio(x: float) -> float:
            denom = fitness.survival(x)
            if denom <= 0.0:
                return 0.0
            return threshold.survival(x) / denom

        x_side = hazard_weighted_integral_xspace(ratio, fitness)
        gap = abs(h_side.value - x_side)
        err = abs(h_side.value - expected)
        ok = ok and h_side.is_finite and gap <= 1e-8 and err <= 1e-6
        parts.append(
            f"{type(fitness).__name__}/{type(threshold).__name__}: "
            f"h {h_side.value:.10f} vs x {x_side:.10f} (gap {gap:.1e}, value err {err:.1e})"
        )
    return CheckResult("quadrature", ok, "; ".join(parts))


def _cli_determinism_commands(tmp: Path) -> list[list[str]]:
    import json

    transient = tmp / "transient.json"
    finite = tmp / "finite.json"
    transient.write_text(json.dumps(TRANSIENT_EXAMPLE.to_json(), sort_keys=True))
    finite.write_text(json.dumps(FINITE_EXAMPLE.to_json(), sort_keys=True))
    return [
        ["simulate", "--params", str(transient), "--seed", "7", "--horizon", "20"],
        ["classify", "--params", str(transient)],
        ["ladder-mc", "--params", str(transient), "--seed", "7", "--reps", "2000"],
        ["limit-mc", "--params", str(finite), "--seed", "7", "--reps", "2000"],
        ["validate", "--only", "phase-map"],
    ]


def _dir_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _cli_in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of cli.main(argv); its stdout is discarded."""
    from . import cli

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


def check_properties(ctx: SuiteContext) -> CheckResult:
    parts = []
    ok = True

    monotone_bad = 0
    for i in range(PROPERTY_LADDERS):
        rng = replication_rng(ctx.config.base_seed, index=i, salt=_PROPERTY_SALT)
        fit_ladder = sample_fitness_ladder(TRANSIENT_EXAMPLE, rng)
        thr_ladder = sample_threshold_ladder(FINITE_EXAMPLE, rng)
        for ladder in (fit_ladder, thr_ladder):
            values = [s.value for s in ladder.steps]
            gaps = [s.gap for s in ladder.steps]
            if values != sorted(set(values)) or any(g <= 0.0 for g in gaps):
                monotone_bad += 1
        if thr_ladder.first_gap <= 0.0:
            monotone_bad += 1
    ok = ok and monotone_bad == 0
    parts.append(f"record monotonicity: {monotone_bad} violations in {PROPERTY_LADDERS} ladder pairs")

    reports = ctx.grid_classifications()
    domination_bad = []
    duality_bad = []
    for a_fit in GRID_ALPHAS:
        for a_thr in GRID_ALPHAS:
            params = _grid_params(a_fit, a_thr)
            report = reports[params]
            if report.recurrence == "Transient":
                e_m = report.integrals.e_m
                phi = report.integrals.phi_inf
                if e_m is None or phi is None or not phi <= e_m + 1e-9:
                    domination_bad.append(f"({a_fit:g},{a_thr:g}): phi_inf {phi} vs e_m {e_m}")
            swapped = reports[params.swapped()]
            finite_limit = report.limit_count == "Finite"
            swapped_transient = swapped.recurrence == "Transient"
            if finite_limit != swapped_transient or (
                report.null_recurrent_like != swapped.null_recurrent_like
            ):
                duality_bad.append(f"({a_fit:g},{a_thr:g})")
    ok = ok and not domination_bad and not duality_bad
    parts.append(
        "exponent domination holds on all transient grid points"
        if not domination_bad
        else "domination failures: " + "; ".join(domination_bad)
    )
    parts.append(
        "role-swap duality holds on the full grid"
        if not duality_bad
        else "duality failures: " + "; ".join(duality_bad)
    )

    nondeterministic = []
    with tempfile.TemporaryDirectory() as tmpname:
        tmp = Path(tmpname)
        commands = _cli_determinism_commands(tmp)
        for argv in commands:
            runs = []
            for attempt in range(2):
                out_dir = tmp / f"{argv[0]}-{attempt}"
                code, stderr = _cli_in_process([*argv, "--out", str(out_dir)])
                if code != 0:
                    nondeterministic.append(f"{argv[0]} exited {code}: {stderr.strip()[:200]}")
                    break
                runs.append(_dir_bytes(out_dir))
            if len(runs) == 2 and runs[0] != runs[1]:
                nondeterministic.append(f"{argv[0]} outputs differ between reruns")
        # One process-level rerun: a fresh interpreter must reproduce the
        # in-process bytes (hash seeds, import-time state).  It imports the
        # package this one imported, found on sys.path or not.
        argv = commands[1]
        out_dir = tmp / f"{argv[0]}-subprocess"
        cmd = [sys.executable, "-m", "threshold_gms.cli", *argv, "--out", str(out_dir)]
        path = [str(Path(__file__).resolve().parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            nondeterministic.append(f"{argv[0]} subprocess exited {proc.returncode}: {proc.stderr.strip()[:200]}")
        elif _dir_bytes(out_dir) != _dir_bytes(tmp / f"{argv[0]}-0"):
            nondeterministic.append(f"{argv[0]} subprocess output differs from the in-process run")
    ok = ok and not nondeterministic
    parts.append(
        f"all {len(commands)} commands rerun bit-identically in-process, and {commands[1][0]} in a subprocess"
        if not nondeterministic
        else "determinism failures: " + "; ".join(nondeterministic)
    )
    return CheckResult("properties", ok, "; ".join(parts))


_CHECKS: dict[str, Callable[[SuiteContext], CheckResult]] = {
    "expected-count": check_expected_count,
    "count-law": check_count_law,
    "mass-law": check_mass_law,
    "laplace": check_laplace,
    "limit-law": check_limit_law,
    "band0-mass": check_band0_mass,
    "phase-map": check_phase_map,
    "oracle": check_oracle,
    "forward-vs-limit": check_forward_vs_limit,
    "quadrature": check_quadrature,
    "properties": check_properties,
}
CHECK_NAMES = tuple(_CHECKS)
# Checks that run a goodness-of-fit test, and so need scipy.special.
_GOF_CHECKS = frozenset({"count-law", "mass-law", "limit-law", "band0-mass", "forward-vs-limit"})


def run_suite(
    only: Optional[Sequence[str]] = None,
    context: Optional[SuiteContext] = None,
) -> list[CheckResult]:
    """Run the acceptance checks, newest failure details included.

    only restricts to a subset of CHECK_NAMES (order preserved, each
    name at most once); an exception inside a check is reported as a
    failure of that check rather than aborting the suite.  Each result
    carries the seconds its check took, shared runs built on first use
    included.  When a selected check runs a goodness-of-fit test,
    scipy.special, the source of every p-value, is loaded before the
    first check and its seconds go to the context's setup_seconds, so
    that no check is charged for loading it.
    """
    ctx = context if context is not None else SuiteContext()
    if only is None:
        selected = CHECK_NAMES
    else:
        unknown = [name for name in only if name not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown check names {unknown}; expected subset of {CHECK_NAMES}")
        repeated = sorted({name for name in only if only.count(name) > 1})
        if repeated:
            raise ValueError(f"check names {repeated} are given more than once")
        selected = tuple(only)
    if _GOF_CHECKS.intersection(selected):
        t0 = perf_counter()
        import scipy.special  # noqa: F401

        ctx.setup_seconds += perf_counter() - t0
    results = []
    for name in selected:
        t0 = perf_counter()
        try:
            result = _CHECKS[name](ctx)
        except Exception as exc:
            result = CheckResult(name, False, f"error: {exc!r}")
        results.append(replace(result, seconds=perf_counter() - t0))
    return results
