"""Seconds spent classifying, importing and starting the CLI, as one JSON object.

    PYTHONPATH=src python3 scripts/bench_criteria.py [--repeat 5]

``classify_ms`` is the best of ``--repeat`` in-process ``classify`` calls
per family pair, in milliseconds, after one warm-up call; each call
scales one parameter of the fitness law by its own factor 1 + 1e-6 k,
so that no call shares marks, and with them a composition, with
another.  ``grid_ms`` is the best of ``--repeat`` classifications of a
400-point grid shaped like the benchmark's criteria sweep (10 x 10
exponential rates from 0.5 to 3, lambda_birth in {1, 1.3},
lambda_extinct in {1, 0.7}), point by point through ``classify``, in one
``classify_many`` call, and (``cli``) as the benchmark runs it: one
in-process ``cli.main(["classify", "--grid", ...])`` that writes
phase_map.csv into a temporary directory.  ``grid_40k_s`` is one such
``classify --grid`` call on a 200 x 200 grid of exponential rates from
0.5 to 3 (40 000 points), run once.  ``integrand_us`` is the best
per-node time, in microseconds, of forming the mass-density and the
count-exponent integrand rows (composition included) on one chunk of the
nodes of panel 0 of the breakless node array, one GRID mark pair per
row.  ``accuracy.max_rel_error`` holds, per criterion integral, the
largest relative error over GRID against the exponential closed forms
(the negative binomial mean for e_m and e_n, -r log(1 - p) for phi_inf
and phi_bar_inf), and ``accuracy.none_on_finite_sides`` the number of
GRID values that are None where the closed form is finite.
``import_s`` is the best time of ``import threshold_gms.cli`` in a
fresh interpreter, measured inside it, and ``cli_classify_s`` the best
wall time of one ``python -m threshold_gms.cli classify`` process,
start-up included.  ``scipy_modules_after_import`` counts the scipy
modules that importing the CLI loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

from threshold_gms import cli
from threshold_gms.criteria import _integrands, _panel_nodes, classify, classify_many, exponential_closed_forms
from threshold_gms.distributions import Exponential, ModelParams, Pareto, TabulatedQuantile, Weibull
from threshold_gms.process import BLOCK_CHUNK_CELLS


def _tabulated(rate: float, rows: int, top: float) -> TabulatedQuantile:
    levels = np.linspace(0.0, top / rate, rows)
    return TabulatedQuantile(grid=tuple((float(math.exp(-rate * x)), float(x)) for x in levels))


# Family pairs as functions of the factor that scales one fitness parameter.
PAIRS = {
    "exp(1)/exp(2)": lambda s: (Exponential(s), Exponential(2.0)),
    "exp(1)/exp(1.05)": lambda s: (Exponential(s), Exponential(1.05)),
    "weibull(2,1)/weibull(2,0.5)": lambda s: (Weibull(2.0, s), Weibull(2.0, 0.5)),
    "weibull(1.5,1)/weibull(2.4,1)": lambda s: (Weibull(1.5, s), Weibull(2.4, 1.0)),
    "pareto(1,1)/pareto(1,3)": lambda s: (Pareto(1.0, s), Pareto(1.0, 3.0)),
    "pareto(1,1)/pareto(3,1.5)": lambda s: (Pareto(1.0, s), Pareto(3.0, 1.5)),
    "tabulated(12)/exp(2)": lambda s: (_tabulated(s, 12, 6.0), Exponential(2.0)),
    "tabulated(12)/tabulated(12)": lambda s: (_tabulated(s, 12, 6.0), _tabulated(0.6, 12, 6.0)),
    "tabulated(400)/exp(2)": lambda s: (_tabulated(s, 400, 20.7), Exponential(2.0)),
}
GRID_ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0)
GRID = [
    ModelParams(l_birth, l_ext, Exponential(a_fit), Exponential(a_thr))
    for a_fit in GRID_ALPHAS
    for a_thr in GRID_ALPHAS
    for l_birth in (1.0, 1.3)
    for l_ext in (1.0, 0.7)
]
_ALPHAS = ",".join(map(repr, GRID_ALPHAS))
GRID_SPEC = f"alpha_fitness={_ALPHAS};alpha_threshold={_ALPHAS};lambda_birth=1,1.3;lambda_extinct=1,0.7"
_ALPHAS_200 = ",".join(repr(float(a)) for a in np.linspace(0.5, 3.0, 200))
GRID_40K_SPEC = f"alpha_fitness={_ALPHAS_200};alpha_threshold={_ALPHAS_200}"

_IMPORT = "import time; t = time.perf_counter(); import threshold_gms.cli; print(time.perf_counter() - t)"
_SCIPY = "import sys, threshold_gms.cli; print(sum(m.startswith('scipy') for m in sys.modules))"


def best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def integrand_us(repeat: int) -> dict[str, float]:
    """Best per-node microseconds of each integrand kind on one chunk of panel 0's nodes."""
    grid = _panel_nodes(())
    nodes = grid.h[grid.panel == 0]
    rows = BLOCK_CHUNK_CELLS // nodes.size
    # Every fourth GRID point starts a new mark pair, all at lambda_birth = lambda_extinct = 1.
    sides = GRID[::4][:rows]
    take = list(range(rows))
    out = {}
    for kind, log_r in (("mass_density", np.empty(0)), ("count_exponent", np.zeros(rows))):
        seconds = best_of(repeat, lambda: _integrands(sides, take, log_r, nodes))
        out[kind] = round(1e6 * seconds / (rows * nodes.size), 5)
    return out


def exact_integrals(params: ModelParams) -> dict[str, float]:
    """e_m, e_n, phi_inf and phi_bar_inf of an exponential pair from its negative binomial laws; inf where divergent."""
    out = {}
    for mean, exponent, side in (("e_m", "phi_inf", params), ("e_n", "phi_bar_inf", params.swapped())):
        law = exponential_closed_forms(side).extinction_count_law
        out[mean] = math.inf if law is None else law.mean()
        out[exponent] = math.inf if law is None else -law.r * math.log1p(-law.p)
    return out


def accuracy() -> dict:
    """Largest relative error of each criterion integral over GRID, and the None values on finite sides."""
    worst = {"e_m": 0.0, "e_n": 0.0, "phi_inf": 0.0, "phi_bar_inf": 0.0}
    nones = 0
    for params, report in zip(GRID, classify_many(GRID)):
        for name, want in exact_integrals(params).items():
            got = getattr(report.integrals, name)
            if math.isinf(want):
                continue
            if got is None:
                nones += 1
            else:
                worst[name] = max(worst[name], abs(got - want) / want)
    return {"max_rel_error": worst, "none_on_finite_sides": nones}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "classify_ms": {},
    }
    for label, marks in PAIRS.items():
        classify(ModelParams(1.0, 1.0, *marks(1.0)))
        points = iter([ModelParams(1.0, 1.0, *marks(1.0 + 1e-6 * (k + 1))) for k in range(args.repeat)])
        out["classify_ms"][label] = round(1e3 * best_of(args.repeat, lambda: classify(next(points))), 3)
    with tempfile.TemporaryDirectory() as tmp:
        grid_out = os.path.join(tmp, "grid")

        def cli_grid(spec: str) -> None:
            cli.main(["classify", "--grid", spec, "--out", grid_out])

        out["grid_ms"] = {
            "classify": round(1e3 * best_of(args.repeat, lambda: [classify(p) for p in GRID]), 1),
            "classify_many": round(1e3 * best_of(args.repeat, lambda: classify_many(GRID)), 1),
            "cli": round(1e3 * best_of(args.repeat, lambda: cli_grid(GRID_SPEC)), 1),
        }
        out["grid_40k_s"] = round(best_of(1, lambda: cli_grid(GRID_40K_SPEC)), 3)

    out["integrand_us"] = integrand_us(args.repeat)
    out["accuracy"] = accuracy()

    def python(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout

    out["import_s"] = round(min(float(python(_IMPORT)) for _ in range(args.repeat)), 4)
    out["scipy_modules_after_import"] = int(python(_SCIPY))
    with tempfile.TemporaryDirectory() as tmp:
        params = os.path.join(tmp, "params.json")
        with open(params, "w") as handle:
            json.dump(ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0)).to_json(), handle)
        cmd = [sys.executable, "-m", "threshold_gms.cli", "classify", "--params", params,
               "--out", os.path.join(tmp, "cls")]
        out["cli_classify_s"] = round(
            best_of(args.repeat, lambda: subprocess.run(cmd, capture_output=True, check=True)), 4)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
