"""One workload in one fresh process; started by run.py, not by hand.

Times the reference loop (calibrate.py) a few times as it starts, and
again after printing ``READY <monotonic time>`` once imports, inputs and
warm-up are done; the parent turns READY into set-up time, less the
first loops, and calibrates it by all of them.  With ``--setup-only`` it
then prints ``RESULT {"setup_reference_s": [...], ...}``; otherwise it
runs whole rounds until ``--seconds`` have passed, checks the outputs
and prints ``RESULT <json>`` as its last line.

Round times are the calibrated seconds of the rounds' operations (see
workloads.Outcome and calibrate.py).  With ``--trace 1`` the first third
of the time runs untraced and the rest traced, so the run reports its
own tracing overhead; the spans go to ``spans.csv`` in the ``--work``
directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

from calibrate import reference_loop  # light: time and statistics only

SETUP_REFERENCE_LOOPS = 3
# The machine's speed as set-up starts; these loops are not set-up time.
PRE_REFERENCE_S = [reference_loop() for _ in range(SETUP_REFERENCE_LOOPS)]
T_START = time.perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import threshold_gms.cli  # noqa: E402,F401  (the import cost is part of set-up)
import threshold_gms.validation  # noqa: E402,F401

import checkers as ck  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

# Tabulated laws trip scipy's roundoff heuristic; the package's own test
# configuration ignores the warning too, and the verdicts are checked.
from scipy.integrate import IntegrationWarning  # noqa: E402

warnings.simplefilter("ignore", IntegrationWarning)


def run_rounds(workload, seconds: float, totals: dict, min_rounds: int, first: int = 0,
               tracer=None) -> list[float]:
    """Rounds first, first + 1, ... until both min_rounds and seconds are reached.

    Returns the calibrated seconds of each round (the sum of its
    operations' calibrated seconds, see workloads.Outcome); the raw
    seconds and the reference loop times go to totals.
    """
    calibrated: list[float] = []
    start = time.perf_counter()
    while len(calibrated) < min_rounds or time.perf_counter() - start < seconds:
        k = first + len(calibrated)
        if tracer is None:
            outcome, items = workload.round(k)
        else:
            outcome, items = tracer.span("round", workload.round, k)
        calibrated.append(outcome.calibrated_s)
        totals["round_s"].append(outcome.raw_s)
        totals["reference_s"] += outcome.reference_s
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        totals["items"] = items
        totals["errors"].extend(outcome.errors[:3])
    return calibrated


def traced_rounds(workload, seconds: float, totals: dict):
    """Rounds 0, 1, ... again under the tracer; per-round layer metrics.

    Work counts are taken from round 0, so they repeat between runs at
    the same seed; on a workload whose rounds repeat their inputs they
    must also repeat from round to round.
    """
    tr = tracing.Tracer()
    tracing.install(tr)
    per_round = []
    times = []
    try:
        start = time.perf_counter()
        while len(times) < workload.min_rounds or time.perf_counter() - start < seconds:
            before = tr.snapshot()
            times += run_rounds(workload, 0.0, totals, 1, first=len(times), tracer=tr)
            per_round.append(tracing.layer_metrics(tr, before, tr.snapshot()))
    finally:
        tr.restore()
    mismatched = [
        k for k in tracing.COUNT_METRICS
        if workload.fixed_inputs and any(m[k] != per_round[0][k] for m in per_round)
    ]
    layers = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    for k in tracing.COUNT_METRICS:
        layers[k] = per_round[0][k]
    return layers, times, mismatched, tr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    t0 = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - t0
    print(f"READY {time.monotonic()!r}", flush=True)
    result = {
        "setup_reference_s": PRE_REFERENCE_S + [reference_loop() for _ in range(SETUP_REFERENCE_LOOPS)],
        "setup_loops_s": sum(PRE_REFERENCE_S),
    }
    if args.setup_only:
        print("RESULT " + json.dumps(result), flush=True)
        return 0

    totals = {"attempted": 0, "failed": 0, "items": 0, "errors": [], "round_s": [], "reference_s": []}
    result.update(import_s=IMPORT_S, warmup_s=warmup_s)
    problems: list[str] = []
    if args.trace:
        plain = run_rounds(workload, args.seconds / 3.0, totals, workload.min_rounds)
        digest = workload.digest()
        layers, traced, mismatched, tr = traced_rounds(workload, args.seconds * 2.0 / 3.0, totals)
        layers["cli.bytes_written"] = float(workload.output_bytes())
        layers["setup.import_s"] = IMPORT_S
        layers["setup.warmup_s"] = warmup_s
        layers["trace.overhead_pct"] = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
        result["layers"] = layers
        tr.write_spans(work / "spans.csv")
        if mismatched:
            problems.append("work counts differ between rounds: " + ", ".join(mismatched))
        # Away from the boundary every ladder ends because its mass died out.
        for reason in ("max_steps", "underflow", "overflow"):
            if layers["ladders.stop." + reason]:
                problems.append(f"{layers['ladders.stop.' + reason]:g} ladders stopped by {reason}")
        calibrated = plain
    else:
        t0 = time.perf_counter()
        calibrated = run_rounds(workload, 0.0, totals, 1)
        digest = workload.digest()
        calibrated += run_rounds(workload, args.seconds - (time.perf_counter() - t0), totals,
                                 workload.min_rounds - 1, first=1)
    result.update(calibrated_round_s=calibrated, round_s=totals["round_s"], reference_s=totals["reference_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.digest() != digest:
        problems.append("a repeated round wrote different outputs")
    if totals["failed"] == 0:
        try:
            workload.check()
        except ck.CheckFailed as exc:
            problems.append(str(exc))
        except Exception as exc:  # an unreadable output is a wrong output
            problems.append(f"checker could not read the outputs: {exc!r}")
    result.update(
        correct=not problems,
        problems=problems,
        errors=totals["errors"],
        attempted=totals["attempted"],
        failed=totals["failed"],
        items_per_round=totals["items"],
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
