"""Seconds per replication of the three ladder tasks, as one JSON object.

    PYTHONPATH=src python3 scripts/bench_ladders.py [--repeat 3]

Each figure is the best of ``--repeat`` timed ``run()`` calls on one
worker, in microseconds per replication.  The shallow pairs are the
acceptance suite's (exp(1)/exp(2) for the count and mass tasks,
exp(2)/exp(1) for the limit task); the deep pairs sit at gamma = 1.05,
where ladders are about 500 steps deep.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from threshold_gms.distributions import Exponential, ModelParams, Pareto, Weibull
from threshold_gms.montecarlo import ReplicationPlan, run

CASES = {
    "extinction_count/exp(1)/exp(2)": ("extinction_count", Exponential(1.0), Exponential(2.0), 4000),
    "extinction_mass/exp(1)/exp(2)": ("extinction_mass", Exponential(1.0), Exponential(2.0), 4000),
    "limit_config/exp(2)/exp(1)": ("limit_config", Exponential(2.0), Exponential(1.0), 4000),
    "extinction_count/exp(1)/exp(1.05)": ("extinction_count", Exponential(1.0), Exponential(1.05), 480),
    "extinction_count/weibull(2)/gamma=1.05": (
        "extinction_count", Weibull(2.0, 1.0), Weibull(2.0, 1.05 ** -0.5), 480),
    "extinction_count/pareto(1)/pareto(1.05)": (
        "extinction_count", Pareto(1.0, 1.0), Pareto(1.0, 1.05), 480),
    "limit_config/exp(1.05)/exp(1)": ("limit_config", Exponential(1.05), Exponential(1.0), 480),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    os.environ.pop("THRESHOLD_GMS_THREADS", None)
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "us_per_rep": {},
    }
    for label, (task, fit, thr, reps) in CASES.items():
        plan = ReplicationPlan(task=task, params=ModelParams(1.0, 1.0, fit, thr), replications=reps,
                               base_seed=20261018)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            run(plan)
            best = min(best, time.perf_counter() - t0)
        out["us_per_rep"][label] = round(1e6 * best / reps, 2)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
