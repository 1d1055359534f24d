"""Steadiness command: two sets of repeated runs of every workload.

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

Every run measures for BENCHMARK.json's run_seconds.  Each set makes
--runs rounds; round i runs every workload, in the
listed order when i is even and in reverse when it is odd, each with
its own seed.  Set A uses seeds first-seed, first-seed + 1, ...; set B
the next --runs seeds.  For every end-to-end metric it prints, per set,
the median, the quartiles (Python's ``statistics.quantiles(values,
n=4)``) and the spread (q3 - q1) / median; then the shift of set B's
median from set A's in the metric's worse direction, and the bound the
figures suggest: three times the larger spread or the shift, whichever
is larger, at least 0.05 and at most 0.25.  The bounds in
BENCHMARK.json come from this output.  Every run's result line is kept
in perfbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

MAX_BOUND = 0.25
MIN_BOUND = 0.05
SETS = ("A", "B")


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {s: {w: [] for w in WORKLOADS} for s in SETS}
    for j, set_name in enumerate(SETS):
        for i in range(args.runs):
            seed = args.first_seed + j * args.runs + i
            for w in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{w} seed {seed}: run failed with code {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                result["seed"] = seed
                result["elapsed_s"] = time.monotonic() - t0
                runs[set_name][w].append(result)
                share = result["failed"] / result["attempted"]
                print(f"set {set_name} {w} seed {seed}: correct={result['correct']} "
                      f"failed share={share:g} elapsed {result['elapsed_s']:.1f} s", flush=True)

    print(f"\n{'workload':15} {'metric':12} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}"
          f" {'shift':>7} {'bound':>6}")
    bounds: dict[str, float] = {}
    for w in WORKLOADS:
        for metric in lower_is_better:
            stats = {s: summary([r["metrics"][metric]["value"] for r in runs[s][w]]) for s in SETS}
            a, b = stats["A"][0], stats["B"][0]
            shift = (b - a) / a if lower_is_better[metric] else (a - b) / a
            need = max(3.0 * max(st[3] for st in stats.values()), shift)
            bound = round(min(MAX_BOUND, max(MIN_BOUND, need)), 2)
            bounds[metric] = max(bounds.get(metric, 0.0), bound)
            for s in SETS:
                med, q1, q3, spread = stats[s]
                tail = f" {shift:7.4f} {bound:6.2f}" if s == SETS[-1] else ""
                print(f"{w:15} {metric:12} {s:3} {med:10.5g} {q1:10.5g} {q3:10.5g} {spread:7.4f}{tail}")
    shares = {(s, w, r["failed"] / r["attempted"]) for s in SETS for w in WORKLOADS for r in runs[s][w]}
    print("\nfailed shares (set, workload, share): " + json.dumps(sorted(shares)))
    print("suggested bounds (largest over workloads): " + json.dumps(bounds))
    out = BENCH / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs, "bounds": bounds}, indent=1) + "\n")
    print(f"runs written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
