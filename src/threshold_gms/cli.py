"""Command-line entry points for simulation, classification, and checks.

Commands compute everything first and only then create the output
directory, so a bad configuration never leaves partial files behind.
Every command also writes a manifest.json from which the run can be
reproduced exactly; nothing in the outputs depends on wall-clock time.
Each output is a new file (output.open_new_file): whatever has its name,
a file or a symlink or a hard link, is removed first and never written
through, and nothing is fsynced.  An old file is neither truncated nor
renamed over, because ext4 flushes a file on close() in both cases.  A
command with --format removes its output in the other format, which an
earlier run may have left, so --out holds exactly the manifest's outputs.
Every output's text comes from the output module: JSON documents as
json.dumps(indent=2, sort_keys=True) writes them, tables as csv.writer or
json.dumps would, with every column formatted at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .criteria import classify, classify_columns
from .distributions import Exponential, ModelParams, _encode_float, model_params_from_json
from .montecarlo import (
    ReplicationPlan,
    TASK_EXTINCTION_COUNT,
    TASK_LIMIT_CONFIG,
    ladder_diagnostics,
    run,
)
from .output import (
    csv_cells,
    csv_layout,
    number_texts,
    optional_float_texts,
    write_json,
    write_json_columns,
    write_rows,
)
from .process import (
    Configuration,
    evolve,
    generate_stream,
    last_empty_time,
    read_initial_csv,
    species_count_at,
    write_trace_csv,
    write_trace_json,
)
from .streams import replication_rng
from .validation import CHECK_NAMES, SuiteConfig, SuiteContext, format_result, run_suite

DEFAULT_SEED = 123456789

# Most points one classify --grid may hold, the product of its axis
# lengths: a larger grid is refused after parsing, before any law is built.
MAX_GRID_POINTS = 1 << 20


def _write_manifest(out_dir: Path, command: str, arguments: dict, outputs: Sequence[str]) -> None:
    manifest = {
        "command": command,
        "arguments": arguments,
        "outputs": sorted(outputs),
        "package": {"name": "threshold-gms", "version": __version__},
    }
    write_json(out_dir / "manifest.json", manifest)


def _remove_other_format(out_dir: Path, stem: str, fmt: str) -> None:
    """Remove stem's file in the format not written this run: csv for json, json for csv."""
    (out_dir / f"{stem}.{'json' if fmt == 'csv' else 'csv'}").unlink(missing_ok=True)


def _load_params(path: str) -> ModelParams:
    payload = json.loads(Path(path).read_text())
    return model_params_from_json(payload)


def _out_dir(args) -> Path:
    return Path(args.out)


def _cmd_simulate(args) -> int:
    params = _load_params(args.params)
    horizon = float(args.horizon)
    rng = replication_rng(args.seed, index=0, salt=0)
    stream = generate_stream(params, horizon, rng)
    initial = read_initial_csv(args.initial) if args.initial else Configuration()
    trace = evolve(initial, stream)
    empty = last_empty_time(trace)
    births = int(stream.birth.sum())
    summary = {
        "final_count": species_count_at(trace, horizon),
        "last_empty_time": _encode_float(empty if empty is not None else math.nan),
        "events": len(stream),
        "births": births,
        "extinctions": len(stream) - births,
    }

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    outputs = ["summary.json", "manifest.json"]
    if args.format == "csv":
        write_trace_csv(trace, out / "trace.csv")
        outputs.append("trace.csv")
    else:
        write_trace_json(trace, out / "trace.json")
        outputs.append("trace.json")
    _remove_other_format(out, "trace", args.format)
    write_json(out / "summary.json", summary)
    _write_manifest(
        out,
        "simulate",
        {
            "params": params.to_json(),
            "seed": args.seed,
            "horizon": horizon,
            "initial": args.initial,
            "format": args.format,
        },
        outputs,
    )
    return 0


def _parse_grid(spec: str) -> dict[str, list[float]]:
    allowed = ("alpha_fitness", "alpha_threshold", "lambda_birth", "lambda_extinct")
    grid: dict[str, list[float]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, rest = part.partition("=")
        key = key.strip()
        if not sep or key not in allowed:
            raise ValueError(f"grid entries must look like 'name=v1,v2' with name in {allowed}")
        if key in grid:
            raise ValueError(f"grid entry {key!r} is given more than once")
        values = [float(tok) for tok in rest.split(",") if tok.strip()]
        if not values:
            raise ValueError(f"grid entry {key!r} lists no values")
        grid[key] = values
    for required in ("alpha_fitness", "alpha_threshold"):
        if required not in grid:
            raise ValueError(f"grid requires {required!r}")
    grid.setdefault("lambda_birth", [1.0])
    grid.setdefault("lambda_extinct", [1.0])
    points = math.prod(len(values) for values in grid.values())
    if points > MAX_GRID_POINTS:
        raise ValueError(f"the grid has {points} points, past the grid budget of {MAX_GRID_POINTS} (MAX_GRID_POINTS)")
    return grid


# The axes of a grid, in the order of phase_map.csv's first columns and of its points.
_GRID_AXES = ("alpha_fitness", "alpha_threshold", "lambda_birth", "lambda_extinct")
_PHASE_MAP = csv_layout(
    [*_GRID_AXES, "recurrence", "limit_count", "method", "null_recurrent_like", "e_m", "e_n", "phi_inf", "phi_bar_inf"]
)


def _cmd_classify(args) -> int:
    if bool(args.params) == bool(args.grid):
        raise ValueError("classify needs exactly one of --params or --grid")

    if args.params:
        params = _load_params(args.params)
        report = classify(params)
        payload = {"params": params.to_json(), "report": report.to_json()}
        out = _out_dir(args)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "classification.json", payload)
        _write_manifest(out, "classify", {"params": params.to_json()}, ["classification.json", "manifest.json"])
        return 0

    grid = _parse_grid(args.grid)
    fitness = [Exponential(a) for a in grid["alpha_fitness"]]
    threshold = [Exponential(a) for a in grid["alpha_threshold"]]
    rates = list(product(grid["lambda_birth"], grid["lambda_extinct"]))
    points = product(range(len(fitness)), range(len(fitness), len(fitness) + len(threshold)), range(len(rates)))
    columns = classify_columns(fitness + threshold, rates, list(points))
    # Each axis value is formatted once; the points are their product, in
    # order, so row i holds value (i // step) % len(axis) of each axis.
    axes = [np.array([repr(v) for v in grid[axis]], dtype=object) for axis in _GRID_AXES]
    steps = [math.prod(len(texts) for texts in axes[j + 1 :]) for j in range(len(axes))]
    integrals = (columns.e_m, columns.e_n, columns.phi_inf, columns.phi_bar_inf)

    def fields(lo: int, hi: int):
        rows = np.arange(lo, hi)
        return (
            *(texts[rows // step % len(texts)].tolist() for texts, step in zip(axes, steps)),
            columns.recurrence[lo:hi],
            columns.limit_count[lo:hi],
            columns.method[lo:hi],
            ["true" if flag else "false" for flag in columns.null_recurrent_like[lo:hi]],
            *(optional_float_texts(values[lo:hi]) for values in integrals),
        )

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / "phase_map.csv", _PHASE_MAP, len(columns.method), fields)
    _write_manifest(out, "classify", {"grid": args.grid}, ["phase_map.csv", "manifest.json"])
    return 0


# The two ladder commands: help text, Monte Carlo task, and the sample
# columns as (CSV header, JSON key, result column), where "samples" names
# RunResult.samples and every other column is an entry of RunResult.aux.
_LADDER_COMMANDS = {
    "ladder-mc": (
        "replicate the fitness-record ladder and its extinction counts",
        TASK_EXTINCTION_COUNT,
        (("count", "counts", "samples"), ("mass", "masses", "mass")),
    ),
    "limit-mc": (
        "replicate draws of the long-run configuration",
        TASK_LIMIT_CONFIG,
        (
            ("n0", "n0", "n0"),
            ("n_above", "n_above", "n_above"),
            ("total", "totals", "samples"),
            ("band0_mass", "band0_mass", "band0_mass"),
        ),
    ),
}


def _cmd_ladder(args) -> int:
    _, task, columns = _LADDER_COMMANDS[args.command]
    params = _load_params(args.params)
    plan = ReplicationPlan(task=task, params=params, replications=args.reps, base_seed=args.seed)
    result = run(plan)
    values = [result.samples if column == "samples" else result.aux[column] for _, _, column in columns]

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    outputs = ["summary.json", "manifest.json"]
    if args.format == "csv":
        layout = csv_layout(["rep", *(header for header, _, _ in columns)])
        write_rows(
            out / "samples.csv",
            layout,
            plan.replications,
            lambda lo, hi: (number_texts(np.arange(lo, hi)), *(csv_cells(column[lo:hi]) for column in values)),
        )
        outputs.append("samples.csv")
    else:
        keyed = {key: column for (_, key, _), column in zip(columns, values)}
        write_json_columns(out / "samples.json", keyed)
        outputs.append("samples.json")
    _remove_other_format(out, "samples", args.format)
    summary = {
        "plan": plan.to_json(),
        "summary": result.summary.to_json(),
        "diagnostics": ladder_diagnostics(result),
    }
    write_json(out / "summary.json", summary)
    _write_manifest(
        out,
        args.command,
        {"params": params.to_json(), "seed": args.seed, "reps": args.reps, "format": args.format},
        outputs,
    )
    return 0


def _cmd_validate(args) -> int:
    only: Optional[list[str]] = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        if not only:
            raise ValueError(f"--only names no check; expected a subset of {CHECK_NAMES}")
    if args.reps < 1000:
        raise ValueError("validate needs --reps >= 1000 for the distributional checks")
    context = SuiteContext(SuiteConfig(replications=args.reps, base_seed=args.seed))
    results = run_suite(only=only, context=context)

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    payload = [
        {"name": r.name, "passed": r.passed, "details": r.details} for r in results
    ]
    write_json(out / "validation.json", {"checks": payload})
    _write_manifest(
        out,
        "validate",
        {"only": only, "reps": args.reps, "seed": args.seed},
        ["validation.json", "manifest.json"],
    )
    if context.setup_seconds:
        print(f"set-up: {context.setup_seconds:.2f} s", file=sys.stderr)
    for r in results:
        print(format_result(r))
        print(f"{r.name}: {r.seconds:.2f} s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-gms",
        description="Simulation and classification toolkit for a birth/extinction species process with threshold-driven mass extinctions.",
    )
    parser.add_argument("--version", action="version", version=f"threshold-gms {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw one event stream and evolve a configuration along it")
    sim.add_argument("--params", required=True, help="JSON file with rates and mark laws")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--horizon", type=float, required=True)
    sim.add_argument("--initial", help="optional CSV of initial fitness values")
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=_cmd_simulate)

    cls = sub.add_parser("classify", help="recurrence / limit-count verdicts for parameters or a grid")
    cls.add_argument("--params", help="JSON file with rates and mark laws")
    cls.add_argument("--grid", help="exponential sweep, e.g. 'alpha_fitness=0.5,1;alpha_threshold=0.5,1'")
    cls.add_argument("--out", required=True)
    cls.set_defaults(func=_cmd_classify)

    for name, (help_text, _, _) in _LADDER_COMMANDS.items():
        lad = sub.add_parser(name, help=help_text)
        lad.add_argument("--params", required=True)
        lad.add_argument("--seed", type=int, default=DEFAULT_SEED)
        lad.add_argument("--reps", type=int, required=True)
        lad.add_argument("--out", required=True)
        lad.add_argument("--format", choices=("csv", "json"), default="csv")
        lad.set_defaults(func=_cmd_ladder)

    val = sub.add_parser("validate", help="run the acceptance checks")
    val.add_argument("--only", help="comma-separated subset of check names: " + ", ".join(CHECK_NAMES))
    val.add_argument("--reps", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    val.add_argument("--out", required=True)
    val.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import: importing the CLI is part of
    # every start-up, and building the parser costs more than parsing.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
