"""Benchmark command: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in a fresh Python
process (worker.py) on the package sources under ``src/``.  With
``--trace 0`` the last line of output holds the end-to-end metrics:

* setup_s      median, over five fresh processes, of the time from
               process start to the first timed call being ready
               (imports, inputs and warm-up), each calibrated by the
               reference loops it runs just before and just after;
* wall_s       mean seconds of a round (a round is a fixed amount of
               work), each operation calibrated by the reference loop
               run just before it;
* items_per_s  replications (or classified points) per second;
* peak_rss_mb  peak resident memory of the process that ran the rounds.

Times are calibrated to a reference machine speed (calibrate.py); the
raw times are kept in the run record.

With ``--trace 1`` it holds the per-layer metrics of a separate,
traced process (see tracing.py).  Results and spans are also kept under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibrate import calibrated_setup  # noqa: E402
from tracing import UNITS  # noqa: E402

WORKLOADS = ("validate-mc", "ladder-deep", "forward-window", "criteria-sweep")
# Set-up-only processes, half before and half after the measured run,
# so that the set-up samples span the same stretch of time as the rounds.
SETUP_PROBES = 4
PROCESS_S = 10  # allowance for one process start, set-up and checks


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One worker process, whatever the caller's environment says.
    env.pop("THRESHOLD_GMS_THREADS", None)
    # The same string hashing in every process removes one source of
    # process-to-process timing differences; no output depends on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, work: Path, extra: list[str], deadline: float):
    """Run worker.py, killing it at the deadline; return (set-up seconds, its result)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), *extra,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError("worker did not finish before the deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if not ready:
        raise RunError("worker never became ready")
    if not lines[-1].startswith("RESULT "):
        raise RunError("worker printed no result")
    return float(ready[0].split()[1]) - t0, json.loads(lines[-1][len("RESULT "):])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "threshold_gms" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    # A traced run takes up to twice its seconds (the tracer's overhead).
    deadline = time.monotonic() + 2 * args.seconds + (SETUP_PROBES + 1) * PROCESS_S
    probes = SETUP_PROBES // 2 if not args.trace else 0
    setups, setup_refs = [], []
    try:
        for i in range(2 * probes + 1):
            setup_s, result = start_worker(args, work, [] if i == probes else ["--setup-only"], deadline)
            setups.append(setup_s - result["setup_loops_s"])
            setup_refs.append(result["setup_reference_s"])
            if i == probes:
                worker = result
        if args.trace:
            shutil.copyfile(work / "spans.csv", results / f"spans-{tag}.csv")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        wall = statistics.fmean(worker["calibrated_round_s"])
        metrics = {
            "setup_s": {"value": calibrated_setup(setups, setup_refs), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": worker["items_per_round"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    for problem in worker["problems"] + worker["errors"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    out = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = dict(out, setup_samples_s=setups, setup_reference_s=setup_refs, worker=worker)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
