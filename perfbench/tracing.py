"""Timing and counting wrappers installed around the package's layers.

The traced run replaces each public function at the name its callers
look it up by (a module global, a class attribute, or an entry of the
acceptance-check table) with a wrapper that times it and counts calls.
Nothing in the package changes; ``Tracer.restore`` puts the originals
back.

Every wrapper keeps per-name totals (calls, inclusive time, self time);
self time is the inclusive time minus the time of wrapped calls made
inside it.  Coarse layers (CLI commands, Monte Carlo runs, acceptance
checks, classifications, benchmark rounds) also record one span each,
(id, parent id, name, start, end), kept in memory and written out at
the end.  Hot leaves such as ``survival`` keep totals only, so the
span list stays small however long the run.
"""

from __future__ import annotations

import csv
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

import numpy as np

STOP_REASONS = ("tail_bound", "quiet", "max_steps", "underflow", "overflow")
TASKS = ("extinction_count", "limit_config", "forward_count", "empty_time_scan")
CHECKS = ("expected-count", "count-law", "mass-law", "laplace", "limit-law", "band0-mass")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.depths: list[int] = []
        self.spans: list[tuple] = []
        # Each open call is [time spent in wrapped children, span id].
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn: Callable, span: bool = False,
             after: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if span:
                    self.spans.append((frame[1], parent[1], name, t0, t1))
            if after is not None:
                after(args, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a named span (used for benchmark rounds)."""
        return self.wrap(name, fn, span=True)(*args)

    def patch(self, owner, attr: str, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self):
        return (
            {k: tuple(v) for k, v in self.stats.items()},
            Counter(self.counts),
            len(self.depths),
        )

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, parent, name, t0, t1 in self.spans:
                writer.writerow([sid, parent, name, repr(t0), repr(t1)])


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from threshold_gms import cli, criteria, distributions, ladders, montecarlo, process, streams, validation

    def put(name: str, fn_owner, attr: str, lookups, span=False, after=None):
        original = fn_owner.__dict__[attr] if not isinstance(fn_owner, dict) else fn_owner[attr]
        wrapper = tr.wrap(name, original, span=span, after=after)
        for owner in lookups:
            tr.patch(owner, attr, wrapper)

    # streams
    put("streams.replication_rng", streams, "replication_rng", (montecarlo, validation, cli))

    # ladders
    def on_ladder(args, ladder, dt):
        tr.counts["ladders.steps"] += len(ladder.steps)
        tr.counts["ladders.stop." + ladder.stop_reason] += 1
        tr.depths.append(len(ladder.steps))

    for attr in ("sample_fitness_ladder", "sample_threshold_ladder"):
        put("ladders.sample", ladders, attr, (ladders, montecarlo, validation), after=on_ladder)
    for attr in ("extinction_mass", "birth_mass"):
        put("ladders.mass", ladders, attr, (ladders, montecarlo))
    for attr in ("sample_extinction_count", "populate_limit_config"):
        put("ladders.poisson", ladders, attr, (ladders, montecarlo))
    put("ladders.divergence", ladders, "masses_effectively_infinite", (ladders, montecarlo))

    # distributions: class attributes, found through the instances.
    families = (distributions.Exponential, distributions.Weibull, distributions.Pareto,
                distributions.TabulatedQuantile)
    for cls in families:
        for attr in ("survival", "inverse_survival"):
            put("distributions." + attr, cls, attr, (cls,))
    for attr in ("sample", "sample_conditional_above"):
        put("distributions.draw", distributions.DistributionSpec, attr,
            (distributions.DistributionSpec,))

    # process
    def on_stream(args, stream, dt):
        tr.counts["process.events"] += len(stream.events)

    put("process.generate", process, "generate_stream", (montecarlo, cli, validation), after=on_stream)
    put("process.evolve", process, "evolve", (montecarlo, cli, validation))
    for attr in ("species_count_at", "last_empty_time"):
        put("process.query", process, attr, (montecarlo, cli))

    # montecarlo
    def on_run(args, result, dt):
        plan = args[0]
        tr.counts["run_time." + plan.task] += dt
        tr.counts["run_reps." + plan.task] += plan.replications

    put("montecarlo.run", montecarlo, "run", (montecarlo, validation, cli), span=True, after=on_run)
    for attr in ("gof_chi_square", "gof_ks"):
        put("montecarlo.gof", montecarlo, attr, (montecarlo, validation))

    # validation: the check table run_suite dispatches through.
    for name in CHECKS:
        put("validation.check." + name, validation._CHECKS, name, (validation._CHECKS,), span=True)

    # criteria
    put("criteria.classify", criteria, "classify", (criteria, cli, validation), span=True)
    put("criteria.integral", criteria, "hazard_weighted_integral", (criteria, validation))
    original_quad = criteria.quad

    def counting_quad(func, *args, **kwargs):
        def counted(x):
            evals[0] += 1
            return func(x)

        evals = [0]
        try:
            return original_quad(counted, *args, **kwargs)
        finally:
            tr.counts["criteria.integrand_evals"] += evals[0]

    tr.patch(criteria, "quad", tr.wrap("criteria.panel", counting_quad))

    # cli
    put("cli.main", cli, "main", (cli,), span=True)


def layer_metrics(tr: Tracer, before, after) -> dict[str, float]:
    """Layer metrics of the one round between two snapshots."""
    s0, c0, d0 = before
    s1, c1, d1 = after

    def stat(name: str, field: int) -> float:
        a = s1.get(name, (0, 0.0, 0.0))
        b = s0.get(name, (0, 0.0, 0.0))
        return a[field] - b[field]

    def calls(name):
        return stat(name, 0)

    def total(name):
        return stat(name, 1)

    def self_time(name):
        return stat(name, 2)

    def count(key):
        return c1.get(key, 0) - c0.get(key, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    depths = np.asarray(tr.depths[d0:d1], dtype=float)
    m: dict[str, float] = {}
    m["streams.rngs"] = calls("streams.replication_rng")
    m["streams.rng_us"] = ratio(total("streams.replication_rng"), calls("streams.replication_rng"), 1e6)
    m["montecarlo.self_s"] = self_time("montecarlo.run") + self_time("montecarlo.gof")
    m["montecarlo.gof_s"] = total("montecarlo.gof")
    for task in TASKS:
        m["montecarlo.us_per_rep." + task] = ratio(count("run_time." + task), count("run_reps." + task), 1e6)
    for name in CHECKS:
        m["validation.check_s." + name] = total("validation.check." + name)
    m["ladders.sample_s"] = total("ladders.sample")
    m["ladders.steps"] = count("ladders.steps")
    m["ladders.us_per_step"] = ratio(total("ladders.sample"), count("ladders.steps"), 1e6)
    m["ladders.mass_s"] = total("ladders.mass")
    m["ladders.poisson_s"] = self_time("ladders.poisson")
    m["ladders.depth_p50"] = float(np.quantile(depths, 0.5)) if depths.size else 0.0
    m["ladders.depth_p99"] = float(np.quantile(depths, 0.99)) if depths.size else 0.0
    for reason in STOP_REASONS:
        m["ladders.stop." + reason] = count("ladders.stop." + reason)
    draws = calls("distributions.draw")
    m["distributions.survival_calls"] = calls("distributions.survival")
    m["distributions.draws"] = draws
    m["distributions.inverse_per_draw"] = ratio(calls("distributions.inverse_survival"), draws)
    m["distributions.self_s"] = sum(
        self_time(n) for n in ("distributions.survival", "distributions.inverse_survival", "distributions.draw")
    )
    events = count("process.events")
    m["process.generate_s"] = total("process.generate")
    m["process.events"] = events
    m["process.us_per_event"] = ratio(total("process.generate") + total("process.evolve"), events, 1e6)
    m["process.evolve_s"] = total("process.evolve")
    m["process.query_s"] = total("process.query")
    m["cli.self_s"] = self_time("cli.main")
    m["criteria.classify_ms"] = ratio(total("criteria.classify"), calls("criteria.classify"), 1e3)
    m["criteria.integrals"] = calls("criteria.integral")
    m["criteria.panels"] = calls("criteria.panel")
    m["criteria.integrand_evals"] = count("criteria.integrand_evals")
    return m


# Every per-layer metric with its unit; times and counts are per round.
UNITS = {
    "streams.rng_us": "us", "streams.rngs": "count",
    "montecarlo.self_s": "s", "montecarlo.gof_s": "s",
    **{"montecarlo.us_per_rep." + t: "us" for t in TASKS},
    **{"validation.check_s." + c: "s" for c in CHECKS},
    "ladders.sample_s": "s", "ladders.steps": "count", "ladders.us_per_step": "us",
    "ladders.mass_s": "s", "ladders.poisson_s": "s",
    "ladders.depth_p50": "count", "ladders.depth_p99": "count",
    **{"ladders.stop." + r: "count" for r in STOP_REASONS},
    "distributions.survival_calls": "count", "distributions.draws": "count",
    "distributions.inverse_per_draw": "ratio", "distributions.self_s": "s",
    "process.generate_s": "s", "process.events": "count", "process.us_per_event": "us",
    "process.evolve_s": "s", "process.query_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "criteria.classify_ms": "ms", "criteria.integrals": "count", "criteria.panels": "count",
    "criteria.integrand_evals": "count",
    "setup.import_s": "s", "setup.warmup_s": "s",
    "trace.overhead_pct": "%",
}

# Metrics that count work: they must repeat exactly from round to round.
COUNT_METRICS = (
    "streams.rngs", "ladders.steps", "ladders.depth_p50", "ladders.depth_p99",
    *("ladders.stop." + r for r in STOP_REASONS),
    "distributions.survival_calls", "distributions.draws", "distributions.inverse_per_draw",
    "process.events", "criteria.integrals", "criteria.panels", "criteria.integrand_evals",
)
