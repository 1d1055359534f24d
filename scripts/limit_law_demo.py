#!/usr/bin/env python3
"""Empirical check of the long-run configuration against its closed form.

In the finite-limit regime of the exponential model the number of
species alive in the long run is negative binomial, and the composition
splits into a geometric band below the most recent extinction threshold
plus the older bands above it.  The script replicates the limit
configuration, prints observed vs predicted frequencies, and then runs
the forward process at increasing horizons to show the finite-time
population law locking onto the limit law.

Run from the repository root:

    python3 scripts/limit_law_demo.py --reps 20000
"""

import argparse
import sys

import numpy as np

from threshold_gms import (
    TASK_LIMIT_CONFIG,
    Exponential,
    ModelParams,
    ReplicationPlan,
    compare_forward_vs_limit,
    exponential_closed_forms,
    gof_chi_square,
    gof_ks,
    run,
)


def frequency_table(samples: np.ndarray, law, k_max: int) -> str:
    n = samples.size
    lines = ["    k   observed   predicted"]
    for k in range(k_max + 1):
        obs = float((samples == k).mean())
        lines.append(f"  {k:>3}   {obs:8.4f}    {float(law.pmf(k)):8.4f}")
    tail_obs = float((samples > k_max).mean())
    tail_pred = 1.0 - float(law.cdf(k_max))
    lines.append(f"  >{k_max:>2}   {tail_obs:8.4f}    {tail_pred:8.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha-fitness", type=float, default=2.0)
    parser.add_argument("--alpha-threshold", type=float, default=1.0)
    parser.add_argument("--lambda-birth", type=float, default=1.0)
    parser.add_argument("--lambda-extinct", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=20_000)
    parser.add_argument("--forward-reps", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=20240901)
    args = parser.parse_args(argv)

    params = ModelParams(
        lambda_birth=args.lambda_birth,
        lambda_extinct=args.lambda_extinct,
        fitness_dist=Exponential(args.alpha_fitness),
        threshold_dist=Exponential(args.alpha_threshold),
    )
    forms = exponential_closed_forms(params)
    if forms.total_count_law is None:
        print(
            "the long-run configuration diverges for these parameters; "
            "pick alpha_fitness > alpha_threshold",
            file=sys.stderr,
        )
        return 1

    result = run(
        ReplicationPlan(
            task=TASK_LIMIT_CONFIG,
            params=params,
            replications=args.reps,
            base_seed=args.seed,
        )
    )
    totals = result.samples
    n0 = result.aux["n0"]
    band0_mass = result.aux["band0_mass"]

    print(f"{args.reps} limit-configuration draws, seed {args.seed}")
    print(f"mean total {totals.mean():.4f} (predicted {forms.total_count_law.mean():.4f})")
    print()
    print("total species count vs negative binomial closed form")
    print(frequency_table(totals, forms.total_count_law, k_max=8))
    report = gof_chi_square(totals, forms.total_count_law.pmf, forms.total_count_law.cdf)
    print(f"  chi-square p = {report.p_value:.4f}")
    print()
    print("band-0 count (species born since the last extinction)")
    print(frequency_table(n0, forms.band0_count_law, k_max=6))
    report = gof_chi_square(n0, forms.band0_count_law.pmf, forms.band0_count_law.cdf)
    print(f"  chi-square p = {report.p_value:.4f}")
    print()
    ks = gof_ks(band0_mass, forms.band0_mass_law.cdf)
    print(f"band-0 fitness mass vs exponential: KS stat {ks.statistic:.5f}, p = {ks.p_value:.4f}")

    print()
    print("forward process vs limit law (two-sample chi-square)")
    for t in (2.0, 5.0, 15.0, 50.0):
        report = compare_forward_vs_limit(
            params, replications=args.forward_reps, base_seed=args.seed + 1, t=t
        )
        verdict = "matches" if report.p_value > 0.01 else "still far"
        print(f"  t = {t:>5g}: stat {report.statistic:9.2f}, p = {report.p_value:.2e}  ({verdict})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
