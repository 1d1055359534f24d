import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from threshold_gms import cli
from threshold_gms.criteria import classify
from threshold_gms.distributions import Exponential, ModelParams
from threshold_gms.ladders import TAIL_TOLERANCE
from threshold_gms.validation import FINITE_EXAMPLE, TRANSIENT_EXAMPLE


@pytest.fixture
def transient_params(tmp_path):
    path = tmp_path / "transient.json"
    path.write_text(json.dumps(TRANSIENT_EXAMPLE.to_json()))
    return str(path)


@pytest.fixture
def finite_params(tmp_path):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(FINITE_EXAMPLE.to_json()))
    return str(path)


def read_dir(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_simulate_writes_trace_and_summary(tmp_path, transient_params):
    out = tmp_path / "sim"
    code = cli.main(
        ["simulate", "--params", transient_params, "--horizon", "10", "--out", str(out)]
    )
    assert code == 0
    files = read_dir(out)
    assert set(files) == {"trace.csv", "summary.json", "manifest.json"}
    summary = json.loads(files["summary.json"])
    assert summary["events"] == summary["births"] + summary["extinctions"]
    assert summary["final_count"] >= 0
    rows = files["trace.csv"].decode().strip().splitlines()
    assert rows[0] == "time,kind,mark,count_after"
    assert len(rows) == summary["events"] + 1
    manifest = json.loads(files["manifest.json"])
    assert manifest["command"] == "simulate"
    assert sorted(manifest["outputs"]) == ["manifest.json", "summary.json", "trace.csv"]


def test_simulate_reruns_are_byte_identical(tmp_path, transient_params):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = ["simulate", "--params", transient_params, "--horizon", "15", "--seed", "5"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert read_dir(out1) == read_dir(out2)


def test_simulate_seed_changes_the_draw(tmp_path, transient_params):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["simulate", "--params", transient_params, "--horizon", "15"]
    assert cli.main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(out2)]) == 0
    assert read_dir(out1)["trace.csv"] != read_dir(out2)["trace.csv"]


def test_simulate_json_format(tmp_path, transient_params):
    out = tmp_path / "sim"
    code = cli.main(
        [
            "simulate",
            "--params",
            transient_params,
            "--horizon",
            "8",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    trace = json.loads((out / "trace.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert len(trace["events"]) == summary["events"]
    if trace["events"]:
        assert set(trace["events"][0]) == {"time", "kind", "mark", "count_after"}


def test_simulate_json_and_csv_carry_the_same_rows(tmp_path, transient_params):
    initial = tmp_path / "initial.csv"
    initial.write_text("fitness\n0.5\n2.5\n")
    rows = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        argv = ["simulate", "--params", transient_params, "--horizon", "300", "--seed", "11",
                "--initial", str(initial), "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 0
        if fmt == "csv":
            with open(out / "trace.csv", newline="") as handle:
                events = list(csv.DictReader(handle))
        else:
            events = json.loads((out / "trace.json").read_text())["events"]
        rows[fmt] = [(float(e["time"]), e["kind"], float(e["mark"]), int(e["count_after"])) for e in events]
    assert len(rows["csv"]) > 100 and {kind for _, kind, _, _ in rows["csv"]} == {"birth", "extinction"}
    assert rows["json"] == rows["csv"]
    assert (tmp_path / "json" / "summary.json").read_bytes() == (tmp_path / "csv" / "summary.json").read_bytes()


def test_simulate_accepts_initial_configuration(tmp_path, transient_params):
    initial = tmp_path / "initial.csv"
    initial.write_text("fitness\n0.5\n2.5\n")
    out = tmp_path / "sim"
    code = cli.main(
        [
            "simulate",
            "--params",
            transient_params,
            "--horizon",
            "0.001",
            "--initial",
            str(initial),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # with an almost empty window the two seeded species usually survive
    assert summary["final_count"] >= 0


def test_classify_single_params(tmp_path, transient_params):
    out = tmp_path / "cls"
    assert cli.main(["classify", "--params", transient_params, "--out", str(out)]) == 0
    payload = json.loads((out / "classification.json").read_text())
    assert payload["report"]["recurrence"] == "Transient"
    assert payload["report"]["limit_count"] == "Infinite"
    assert payload["report"]["integrals"]["e_n"] == "inf"


def test_classify_grid_phase_map(tmp_path):
    out = tmp_path / "grid"
    argv = [
        "classify",
        "--grid",
        "alpha_fitness=1,2;alpha_threshold=1,2",
        "--out",
        str(out),
    ]
    assert cli.main(argv) == 0
    with open(out / "phase_map.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    by_key = {(r["alpha_fitness"], r["alpha_threshold"]): r for r in rows}
    transient = by_key[("1.0", "2.0")]
    assert transient["recurrence"] == "Transient"
    assert transient["e_n"] == "inf"
    assert transient["null_recurrent_like"] == "false"
    boundary = by_key[("1.0", "1.0")]
    assert boundary["null_recurrent_like"] == "true"
    assert boundary["e_m"] == "inf"
    out2 = tmp_path / "grid2"
    assert cli.main(argv[:-1] + [str(out2)]) == 0
    assert read_dir(out) == read_dir(out2)


def test_classify_grid_matches_per_point_classify(tmp_path):
    """Every phase_map.csv row equals classify of its point, value for value.

    The grid repeats the fitness rate 1 and holds the diagonal (boundary)
    points alpha_fitness = alpha_threshold, where both sides diverge.
    """
    alphas = [0.5, 1.0, 1.7, 2.5, 1.0]
    grid = "alpha_fitness=0.5,1,1.7,2.5,1;alpha_threshold=0.5,1,1.7,2.5;lambda_birth=1,1.3;lambda_extinct=1,0.7"
    out = tmp_path / "grid"
    assert cli.main(["classify", "--grid", grid, "--out", str(out)]) == 0
    with open(out / "phase_map.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    points = list(itertools.product(alphas, alphas[:4], (1.0, 1.3), (1.0, 0.7)))
    assert len(rows) == len(points) == 80
    diagonal = 0
    for row, (a_fit, a_thr, l_birth, l_ext) in zip(rows, points):
        report = classify(ModelParams(l_birth, l_ext, Exponential(a_fit), Exponential(a_thr)))
        assert [float(row[k]) for k in ("alpha_fitness", "alpha_threshold", "lambda_birth", "lambda_extinct")] == [
            a_fit,
            a_thr,
            l_birth,
            l_ext,
        ]
        assert (row["recurrence"], row["limit_count"], row["method"]) == (
            report.recurrence,
            report.limit_count,
            report.method,
        )
        assert row["null_recurrent_like"] == str(report.null_recurrent_like).lower()
        for name in ("e_m", "e_n", "phi_inf", "phi_bar_inf"):
            want = getattr(report.integrals, name)
            assert (None if row[name] == "" else float(row[name])) == want, (row, name)
        diagonal += a_fit == a_thr
        if a_fit == a_thr:
            assert row["null_recurrent_like"] == "true" and row["e_m"] == row["e_n"] == "inf"
    assert diagonal == 5 * 4


def test_classify_grid_past_the_point_budget_is_refused_before_any_point(tmp_path, monkeypatch, capsys):
    """1025 x 1024 alpha values make 1 049 600 points, past MAX_GRID_POINTS: exit 2 before any law or point is built."""
    assert cli.MAX_GRID_POINTS == 1 << 20

    def never(*args, **kwargs):
        raise AssertionError("a grid law or point was built")

    for name in ("Exponential", "ModelParams", "classify_columns"):
        monkeypatch.setattr(cli, name, never)
    axis = ",".join(str(k) for k in range(1, 1026))
    out = tmp_path / "never"
    argv = ["classify", "--grid", f"alpha_fitness={axis};alpha_threshold={axis[: axis.rindex(',')]}", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "1049600 points" in err and f"grid budget of {1 << 20}" in err
    # A grid of exactly MAX_GRID_POINTS points is within the budget.
    square = ",".join(str(k) for k in range(1, 1025))
    grid = cli._parse_grid(f"alpha_fitness={square};alpha_threshold={square}")
    assert len(grid["alpha_fitness"]) * len(grid["alpha_threshold"]) == cli.MAX_GRID_POINTS


def _src_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cached_parser_matches_a_fresh_process(tmp_path, transient_params, capsys):
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    with pytest.raises(SystemExit):
        cli.main(["classify", "--no-such-flag"])
    capsys.readouterr()
    out = tmp_path / "in-process"
    assert cli.main(["classify", "--params", transient_params, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    cmd = [sys.executable, "-m", "threshold_gms.cli", "classify", "--params", transient_params, "--out", str(fresh)]
    subprocess.run(cmd, capture_output=True, check=True, env=_src_env())
    assert read_dir(out) == read_dir(fresh)


def test_run_suite_loads_scipy_special_for_gof_checks_and_never_scipy_stats():
    """The set-up loads scipy.special before the first GOF check; the five GOF checks never load scipy.stats."""
    code = """
import sys
from threshold_gms import validation
seen = []
def probe(ctx):
    seen.append("scipy.special" in sys.modules)
    return validation.CheckResult("probe", True, "")
validation._CHECKS["probe"] = validation._CHECKS["plain-probe"] = probe
gof = sorted(validation._GOF_CHECKS)
validation._GOF_CHECKS = validation._GOF_CHECKS | {"probe"}
ctx = validation.SuiteContext(validation.SuiteConfig(replications=1000))
validation.run_suite(only=["plain-probe"], context=ctx)
plain = ctx.setup_seconds
results = validation.run_suite(only=["plain-probe", "probe", *gof], context=ctx)
print(seen, plain, ctx.setup_seconds > 0.0, len(gof), all(r.passed for r in results))
print("scipy.stats" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_src_env())
    assert proc.stdout.splitlines() == ["[False, True, True] 0.0 True 5 True", "False"]


def test_ladder_mc_outputs(tmp_path, transient_params):
    out = tmp_path / "mc"
    argv = [
        "ladder-mc",
        "--params",
        transient_params,
        "--reps",
        "400",
        "--seed",
        "77",
        "--out",
        str(out),
    ]
    assert cli.main(argv) == 0
    files = read_dir(out)
    assert set(files) == {"samples.csv", "summary.json", "manifest.json"}
    rows = files["samples.csv"].decode().strip().splitlines()
    assert rows[0] == "rep,count,mass"
    assert len(rows) == 401
    summary = json.loads(files["summary.json"])
    assert summary["plan"]["task"] == "extinction_count"
    assert summary["summary"]["n"] == 400
    assert summary["summary"]["sentinel_count"] == 0
    out2 = tmp_path / "mc2"
    assert cli.main(argv[:-1] + [str(out2)]) == 0
    assert read_dir(out) == read_dir(out2)


def test_ladder_mc_json_format(tmp_path, transient_params):
    out = tmp_path / "mc"
    code = cli.main(
        [
            "ladder-mc",
            "--params",
            transient_params,
            "--reps",
            "50",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "samples.json").read_text())
    assert len(payload["counts"]) == 50
    assert len(payload["masses"]) == 50


def _params_file(tmp_path, name, fitness, threshold) -> str:
    path = tmp_path / f"{name}.json"
    payload = {"lambda_birth": 1.0, "lambda_extinct": 1.0, "fitness_dist": fitness, "threshold_dist": threshold}
    path.write_text(json.dumps(payload))
    return str(path)


def _exp(rate):
    return {"family": "exponential", "rate": rate}


BOUNDARY_PAIRS = {
    "exponential": (_exp(1.0), _exp(1.0)),
    "weibull": ({"family": "weibull", "shape": 2.0, "scale": 1.0},) * 2,
    "pareto": ({"family": "pareto", "minimum": 1.0, "index": 1.0},) * 2,
}


@pytest.mark.parametrize(
    "command,pair",
    [
        *(("ladder-mc", BOUNDARY_PAIRS[name]) for name in BOUNDARY_PAIRS),
        *(("limit-mc", BOUNDARY_PAIRS[name]) for name in BOUNDARY_PAIRS),
        # Recurrent side: the extinction count above the fitness ladder diverges.
        ("ladder-mc", (_exp(1.0), _exp(0.99))),
        # Its mirror has the infinite limit configuration (exp(1)/exp(0.99) has a finite one).
        ("limit-mc", (_exp(0.99), _exp(1.0))),
    ],
)
def test_divergent_regimes_report_only_sentinels(tmp_path, command, pair):
    params = _params_file(tmp_path, "pair", *pair)
    out = tmp_path / "out"
    assert cli.main([command, "--params", params, "--reps", "200", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["sentinel_fraction"] == 1.0


@pytest.mark.parametrize("rate,mean", [(1.05, 20.0), (1.03, 1.0 / 0.03)])
def test_near_boundary_counts_keep_their_mean(tmp_path, rate, mean):
    """exp(1)/exp(rate) counts are NegBin(1/(rate-1), 1/2): mean 1/(rate-1)."""
    params = _params_file(tmp_path, "near", _exp(1.0), _exp(rate))
    out = tmp_path / "out"
    assert cli.main(["ladder-mc", "--params", params, "--reps", "1000", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["sentinel_count"] == 0
    assert abs(summary["mean"] - mean) < 3.0 * summary["se"]


def test_huge_ladder_masses_still_give_counts(tmp_path):
    """Poisson means past numpy's limit (about 1e19) take the normal approximation."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**TRANSIENT_EXAMPLE.to_json(), "lambda_extinct": 1e25}))
    out = tmp_path / "ladder"
    assert cli.main(["ladder-mc", "--params", str(path), "--reps", "200", "--out", str(out)]) == 0
    with open(out / "samples.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 200
    for row in rows:
        count, mass = float(row["count"]), float(row["mass"])
        assert mass > 1e18 and abs(count - mass) <= 1e-6 * mass

    path = tmp_path / "huge-limit.json"
    path.write_text(json.dumps({**FINITE_EXAMPLE.to_json(), "lambda_birth": 1e25}))
    out = tmp_path / "limit"
    assert cli.main(["limit-mc", "--params", str(path), "--reps", "200", "--out", str(out)]) == 0
    with open(out / "samples.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 200
    for row in rows:
        n0, band0 = float(row["n0"]), float(row["band0_mass"])
        assert abs(n0 - band0) <= 1e-6 * band0
        assert float(row["total"]) == n0 + float(row["n_above"])


def test_cli_import_leaves_scipy_stats_and_integrate_unloaded():
    code = "import sys, threshold_gms.cli; print('scipy.stats' in sys.modules or 'scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_src_env())
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_orjson_unloaded():
    """Only write_trace_csv and write_trace_json need orjson, so it loads on the first trace, not with the CLI."""
    code = "import sys, threshold_gms.cli; print('orjson' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_src_env())
    assert proc.stdout.strip() == "False"


def test_benchmark_tracer_wraps_the_cli(tmp_path, transient_params, monkeypatch):
    """Every name the benchmark's tracer patches resolves, and a traced ladder-mc and simulate run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        out = tmp_path / "mc"
        assert cli.main(["ladder-mc", "--params", transient_params, "--reps", "20", "--out", str(out)]) == 0
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--params", transient_params, "--horizon", "30", "--out", str(sim)]) == 0
    finally:
        tr.restore()
    stops = json.loads((out / "summary.json").read_text())["diagnostics"]["stop_reasons"]
    assert set(stops) <= {"tail_bound"} and sum(stops.values()) == 20
    assert tr.stats["cli.main"][0] == 2
    # The stream hook counted the events through len(stream.events).
    events = json.loads((sim / "summary.json").read_text())["events"]
    assert events > 0 and tr.counts["process.events"] == events
    assert tr.stats["process.generate"][0] == tr.stats["process.evolve"][0] == 1
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("command", ["ladder-mc", "limit-mc"])
def test_summary_reports_ladder_diagnostics(tmp_path, transient_params, finite_params, command):
    """Stop-reason histogram, depth quantiles, tail bound and sentinel count; a divergent plan walks nothing."""
    finite = transient_params if command == "ladder-mc" else finite_params
    divergent = finite_params if command == "ladder-mc" else transient_params
    out = tmp_path / "finite"
    assert cli.main([command, "--params", finite, "--reps", "300", "--out", str(out)]) == 0
    diag = json.loads((out / "summary.json").read_text())["diagnostics"]
    assert diag["stop_reasons"] == {"tail_bound": 300}
    assert 0 < diag["depth"]["p50"] <= diag["depth"]["p99"] <= diag["depth"]["max"] < 100
    assert 0.0 < diag["tail_bound_max"] <= TAIL_TOLERANCE
    assert diag["sentinel_count"] == 0
    out = tmp_path / "divergent"
    assert cli.main([command, "--params", divergent, "--reps", "300", "--out", str(out)]) == 0
    diag = json.loads((out / "summary.json").read_text())["diagnostics"]
    assert diag == {
        "stop_reasons": {"divergent": 300},
        "depth": {"p50": 0.0, "p99": 0.0, "max": 0},
        "tail_bound_max": None,
        "sentinel_count": 300,
    }


def test_limit_mc_outputs(tmp_path, finite_params):
    out = tmp_path / "limit"
    code = cli.main(
        ["limit-mc", "--params", finite_params, "--reps", "300", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "samples.csv").read_text().strip().splitlines()
    assert rows[0] == "rep,n0,n_above,total,band0_mass"
    assert len(rows) == 301
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["sentinel_count"] == 0


def test_limit_mc_divergent_regime_reports_sentinels(tmp_path, transient_params):
    out = tmp_path / "limit"
    code = cli.main(
        ["limit-mc", "--params", transient_params, "--reps", "5", "--out", str(out)]
    )
    assert code == 0
    with open(out / "samples.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(r["total"] == "inf" for r in rows)
    assert all(r["n0"] == "" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["sentinel_fraction"] == 1.0


def test_validate_subset(tmp_path, capsys):
    out = tmp_path / "val"
    code = cli.main(
        [
            "validate",
            "--only",
            "quadrature,phase-map",
            "--reps",
            "1000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "PASS quadrature" in captured.out
    assert "PASS phase-map" in captured.out
    # Seconds per check go to stderr only, never into the output files.
    timings = [line.split(": ") for line in captured.err.splitlines()]
    assert [name for name, _ in timings] == ["quadrature", "phase-map"]
    assert all(sec.endswith(" s") and float(sec[:-2]) >= 0.0 for _, sec in timings)
    payload = json.loads((out / "validation.json").read_text())
    assert [c["name"] for c in payload["checks"]] == ["quadrature", "phase-map"]
    assert all(c["passed"] and set(c) == {"name", "passed", "details"} for c in payload["checks"])


def test_validate_reports_scipy_set_up_apart(tmp_path, capsys):
    out = tmp_path / "val"
    assert cli.main(["validate", "--only", "count-law", "--reps", "1000", "--out", str(out)]) == 0
    timings = [line.split(": ")[0] for line in capsys.readouterr().err.splitlines()]
    assert timings == ["set-up", "count-law"]


# Two runs of each command into one --out: the first run's arguments, then different ones.
RERUNS = {
    "simulate": (
        ["simulate", "--params", "TRANSIENT", "--horizon", "15", "--seed", "5"],
        ["simulate", "--params", "TRANSIENT", "--horizon", "12", "--seed", "6"],
    ),
    "classify-params": (["classify", "--params", "TRANSIENT"], ["classify", "--params", "FINITE"]),
    "classify-grid": (
        ["classify", "--grid", "alpha_fitness=1,2;alpha_threshold=1"],
        ["classify", "--grid", "alpha_fitness=0.5;alpha_threshold=1,2"],
    ),
    "ladder-mc": (
        ["ladder-mc", "--params", "TRANSIENT", "--reps", "40", "--seed", "1"],
        ["ladder-mc", "--params", "FINITE", "--reps", "30", "--seed", "2"],
    ),
    "limit-mc": (
        ["limit-mc", "--params", "FINITE", "--reps", "40", "--seed", "1"],
        ["limit-mc", "--params", "FINITE", "--reps", "30", "--seed", "2"],
    ),
    "validate": (
        ["validate", "--only", "phase-map", "--reps", "1000"],
        ["validate", "--only", "phase-map", "--reps", "2000", "--seed", "5"],
    ),
}


@pytest.mark.parametrize("case", RERUNS)
def test_reruns_write_new_files_and_never_rewrite_old_ones(tmp_path, case, transient_params, finite_params):
    """A hard link to a first run's output keeps the first run's bytes; the name holds the second run's."""
    names = {"TRANSIENT": transient_params, "FINITE": finite_params}
    first, second = ([names.get(a, a) for a in argv] for argv in RERUNS[case])
    out = tmp_path / "out"
    assert cli.main(first + ["--out", str(out)]) == 0
    first_files = read_dir(out)
    side = tmp_path / "side"
    side.mkdir()
    for name in first_files:
        os.link(out / name, side / name)
    assert cli.main(second + ["--out", str(out)]) == 0
    assert read_dir(side) == first_files
    fresh = tmp_path / "fresh"
    assert cli.main(second + ["--out", str(fresh)]) == 0
    assert read_dir(out) == read_dir(fresh) != first_files
    assert cli.main(second + ["--out", str(out)]) == 0
    assert read_dir(out) == read_dir(fresh)


FORMAT_COMMANDS = {
    "simulate": ["simulate", "--params", "TRANSIENT", "--horizon", "12", "--seed", "6"],
    "ladder-mc": ["ladder-mc", "--params", "TRANSIENT", "--reps", "30", "--seed", "2"],
    "limit-mc": ["limit-mc", "--params", "FINITE", "--reps", "30", "--seed", "2"],
}


@pytest.mark.parametrize("formats", [("csv", "json"), ("json", "csv")])
@pytest.mark.parametrize("case", FORMAT_COMMANDS)
def test_a_rerun_in_the_other_format_leaves_only_the_manifest_outputs(tmp_path, case, formats, transient_params, finite_params):
    """The other format's output of an earlier run is removed, and no other file is."""
    names = {"TRANSIENT": transient_params, "FINITE": finite_params}
    argv = [names.get(a, a) for a in FORMAT_COMMANDS[case]] + ["--out", str(tmp_path / "out")]
    for fmt in formats:
        assert cli.main(argv + ["--format", fmt]) == 0
        listing = sorted(os.listdir(tmp_path / "out"))
        assert listing == json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]
    (tmp_path / "out" / "notes.txt").write_text("kept")
    assert cli.main(argv + ["--format", formats[0]]) == 0
    outputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]
    assert sorted(os.listdir(tmp_path / "out")) == sorted([*outputs, "notes.txt"])
    assert len(outputs) == 3 and any(name.endswith("." + formats[0]) for name in outputs)


def test_an_output_symlink_is_replaced_not_written_through(tmp_path, transient_params):
    target = tmp_path / "target.json"
    target.write_bytes(b"kept")
    out = tmp_path / "cls"
    out.mkdir()
    (out / "classification.json").symlink_to(target)
    assert cli.main(["classify", "--params", transient_params, "--out", str(out)]) == 0
    assert target.read_bytes() == b"kept"
    assert not (out / "classification.json").is_symlink()
    assert json.loads((out / "classification.json").read_text())["report"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--params", "missing.json", "--horizon", "5"],
        ["classify"],
        ["classify", "--grid", "alpha_fitness=1"],
        ["validate", "--reps", "500"],
        ["ladder-mc", "--params", "PARAMS", "--reps", "0"],
        # Every window is (0, horizon].
        ["simulate", "--params", "PARAMS", "--horizon", "-1"],
        # A repeated grid key would silently keep only its last values.
        ["classify", "--grid", "alpha_fitness=1;alpha_fitness=2;alpha_threshold=1"],
        # An --only that names no check would pass by running nothing.
        ["validate", "--only", ",", "--reps", "1000"],
        ["validate", "--only", "", "--reps", "1000"],
        # A repeated check name would run the check twice and write it twice.
        ["validate", "--only", "phase-map,phase-map", "--reps", "1000"],
        # A seed outside [0, 2**128) keys no stream of its own.
        ["simulate", "--params", "PARAMS", "--seed", "-3", "--horizon", "5"],
        ["ladder-mc", "--params", "PARAMS", "--seed", "-3", "--reps", "10"],
        ["validate", "--seed", "-3", "--only", "phase-map"],
        # More expected events than the window budget: refused before drawing, not at allocation.
        ["simulate", "--params", "PARAMS", "--horizon", "1e8"],
        # A grid's rates and mark laws are checked as a ModelParams checks them.
        ["classify", "--grid", "alpha_fitness=1;alpha_threshold=2;lambda_birth=1,0"],
        ["classify", "--grid", "alpha_fitness=1,-1;alpha_threshold=2"],
    ],
)
def test_errors_leave_no_output_behind(tmp_path, argv, transient_params, capsys):
    argv = [a if a != "PARAMS" else transient_params for a in argv]
    out = tmp_path / "never"
    code = cli.main(argv + ["--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_classify_rejects_both_sources(tmp_path, transient_params, capsys):
    out = tmp_path / "never"
    code = cli.main(
        [
            "classify",
            "--params",
            transient_params,
            "--grid",
            "alpha_fitness=1;alpha_threshold=1",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


def test_malformed_params_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never"
    code = cli.main(
        ["simulate", "--params", str(bad), "--horizon", "5", "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "tabulated", "grid": 5},
        {"family": "tabulated", "grid": [[1.0, 0.0], 3]},
        {"family": "tabulated", "csv": 7},
        {"family": "exponential", "rate": "2"},
        {"family": "exponential", "rate": True},
    ],
    ids=["grid-not-a-sequence", "grid-row-not-a-pair", "csv-not-a-path", "rate-a-string", "rate-a-bool"],
)
def test_malformed_tabulated_spec_is_a_usage_error(tmp_path, capsys, spec):
    params = {
        "lambda_birth": 1.0,
        "lambda_extinct": 1.0,
        "fitness_dist": spec,
        "threshold_dist": {"family": "exponential", "rate": 1.0},
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "never"
    code = cli.main(["classify", "--params", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


def test_simulate_has_no_start_option(tmp_path, transient_params, capsys):
    """Every window is (0, horizon]: --start is an unknown option, a usage error."""
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--params", transient_params, "--start", "0", "--horizon", "5", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--start" in capsys.readouterr().err
    assert not out.exists()
