"""Seconds spent classifying, importing and starting the CLI, as one JSON object.

    PYTHONPATH=src python3 scripts/bench_criteria.py [--repeat 5]

``classify_ms`` is the best of ``--repeat`` in-process ``classify`` calls
per family pair, in milliseconds, after one warm-up call; each call
scales one parameter of the fitness law by its own factor 1 + 1e-6 k,
so that no call shares marks, and with them a composition, with
another.  ``grid_ms`` is the best of ``--repeat`` classifications of a
400-point grid shaped like the benchmark's criteria sweep (10 x 10
exponential rates from 0.5 to 3, lambda_birth in {1, 1.3},
lambda_extinct in {1, 0.7}), once point by point through ``classify``
and once in one ``classify_many`` call.  ``import_s`` is the best time
of ``import threshold_gms.cli`` in a fresh interpreter, measured inside
it, and ``cli_classify_s`` the best wall time of one
``python -m threshold_gms.cli classify`` process, start-up included.
``scipy_modules_after_import`` counts the scipy modules that importing
the CLI loads.
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

from threshold_gms.criteria import classify, classify_many
from threshold_gms.distributions import Exponential, ModelParams, Pareto, TabulatedQuantile, Weibull


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

_IMPORT = "import time; t = time.perf_counter(); import threshold_gms.cli; print(time.perf_counter() - t)"
_SCIPY = "import sys, threshold_gms.cli; print(sum(m.startswith('scipy') for m in sys.modules))"


def best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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
    out["grid_ms"] = {
        "classify": round(1e3 * best_of(args.repeat, lambda: [classify(p) for p in GRID]), 1),
        "classify_many": round(1e3 * best_of(args.repeat, lambda: classify_many(GRID)), 1),
    }

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
