"""Seconds per replication of the Monte Carlo tasks, as one JSON object.

    PYTHONPATH=src python3 scripts/bench_ladders.py [--repeat 3]

Each figure is the best of ``--repeat`` timed ``run()`` calls, in
microseconds per replication.  The shallow ladder pairs are the
acceptance suite's (exp(1)/exp(2) for the count task,
exp(2)/exp(1) for the limit task); the deep pairs sit at gamma = 1.05,
where ladders are about 500 steps deep.  The forward tasks use the
benchmark's windows: the forward count of exp(2)/exp(1) at t = 50 and
the last-empty scan of exp(1)/exp(2) on (0, 50].  ``simulate_s`` is the
best time of one in-process ``simulate`` of exp(1)/exp(2) to horizon
20 000, trace.csv included.  ``gof_ms`` holds the best milliseconds of
one goodness-of-fit test at n = 100 000 on seeded samples of the
acceptance suite's laws: the chi-square of NegBin(1, 1/2) counts, the
KS test of unit exponential masses against Gamma(1, 1), and the
two-sample chi-square of two NegBin(2, 1/2) samples of 100 000 each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time

import numpy as np

from threshold_gms import cli
from threshold_gms.criteria import GammaLaw, NegBinomLaw
from threshold_gms.distributions import Exponential, ModelParams, Pareto, Weibull
from threshold_gms.montecarlo import ReplicationPlan, gof_chi_square, gof_ks, gof_two_sample_counts, run

CASES = {
    "extinction_count/exp(1)/exp(2)": ("extinction_count", Exponential(1.0), Exponential(2.0), 4000, {}),
    "limit_config/exp(2)/exp(1)": ("limit_config", Exponential(2.0), Exponential(1.0), 4000, {}),
    "extinction_count/exp(1)/exp(1.05)": ("extinction_count", Exponential(1.0), Exponential(1.05), 480, {}),
    "extinction_count/weibull(2)/gamma=1.05": (
        "extinction_count", Weibull(2.0, 1.0), Weibull(2.0, 1.05 ** -0.5), 480, {}),
    "extinction_count/pareto(1)/pareto(1.05)": (
        "extinction_count", Pareto(1.0, 1.0), Pareto(1.0, 1.05), 480, {}),
    "limit_config/exp(1.05)/exp(1)": ("limit_config", Exponential(1.05), Exponential(1.0), 480, {}),
    "forward_count/exp(2)/exp(1)/t=50": (
        "forward_count", Exponential(2.0), Exponential(1.0), 1200, {"t": 50.0}),
    "empty_time_scan/exp(1)/exp(2)/horizon=50": (
        "empty_time_scan", Exponential(1.0), Exponential(2.0), 500, {"horizon": 50.0}),
}
SIMULATE_HORIZON = 20000.0
GOF_N = 100_000


def best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "us_per_rep": {},
    }
    for label, (task, fit, thr, reps, window) in CASES.items():
        plan = ReplicationPlan(task=task, params=ModelParams(1.0, 1.0, fit, thr), replications=reps,
                               base_seed=20261018, **window)
        out["us_per_rep"][label] = round(1e6 * best_of(args.repeat, lambda: run(plan)) / reps, 2)
    with tempfile.TemporaryDirectory() as tmp:
        params = os.path.join(tmp, "params.json")
        with open(params, "w") as handle:
            json.dump(ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0)).to_json(), handle)
        argv = ["simulate", "--params", params, "--seed", "7", "--horizon", repr(SIMULATE_HORIZON),
                "--out", os.path.join(tmp, "sim")]
        out["simulate_s"] = round(best_of(args.repeat, lambda: cli.main(argv)), 4)
    rng = np.random.default_rng(20261018)
    counts, masses = rng.negative_binomial(1, 0.5, GOF_N), rng.exponential(1.0, GOF_N)
    a, b = rng.negative_binomial(2, 0.5, GOF_N), rng.negative_binomial(2, 0.5, GOF_N)
    count_law, mass_law = NegBinomLaw(1.0, 0.5), GammaLaw(1.0, 1.0)
    gof = {
        "chi_square": lambda: gof_chi_square(counts, count_law.pmf, count_law.cdf),
        "ks": lambda: gof_ks(masses, mass_law.cdf),
        "two_sample": lambda: gof_two_sample_counts(a, b),
    }
    out["gof_ms"] = {name: round(1e3 * best_of(args.repeat, fn), 3) for name, fn in gof.items()}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
