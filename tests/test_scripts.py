"""The experiment scripts and the README's library example run against the package namespace."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_and_readme_example_run():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    commands = {
        "limit_law_demo": ["scripts/limit_law_demo.py", "--reps", "1000", "--forward-reps", "1000"],
        "bench_ladders": ["scripts/bench_ladders.py", "--repeat", "1"],
        "bench_criteria": ["scripts/bench_criteria.py", "--repeat", "1"],
    }
    procs = {
        name: subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for name, argv in commands.items()
    }

    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    exec(snippet, namespace)
    assert namespace["report"].recurrence == "Transient"
    assert namespace["report"].integrals.e_m == 1.0

    outputs = {name: proc.communicate() for name, proc in procs.items()}
    for name, proc in procs.items():
        assert proc.returncode == 0, (name, outputs[name][1])
    assert "total species count vs negative binomial closed form" in outputs["limit_law_demo"][0]
    bench = json.loads(outputs["bench_ladders"][0])
    assert len(bench["us_per_rep"]) == 8 and bench["simulate_s"] > 0.0
    assert len(bench["us_per_step"]) == 6 and all(us > 0.0 for us in bench["us_per_step"].values())
    assert sorted(bench["minor_faults"]) == sorted(bench["us_per_step"])
    assert all(isinstance(n, int) and n >= 0 for n in bench["minor_faults"].values())
    assert bench["peak_rss_mb"] > 0.0
    assert sorted(bench["simulate_ms"]) == ["evolve", "generate_stream", "write_trace_csv", "write_trace_json"]
    assert all(ms > 0.0 for ms in bench["simulate_ms"].values())
    assert sorted(bench["gof_ms"]) == ["chi_square", "ks", "two_sample"]
    assert all(ms > 0.0 for ms in bench["gof_ms"].values())
    bench = json.loads(outputs["bench_criteria"][0])
    assert len(bench["classify_ms"]) == 9 and all(ms > 0.0 for ms in bench["classify_ms"].values())
    assert sorted(bench["grid_ms"]) == ["classify", "classify_many", "cli"]
    assert all(ms > 0.0 for ms in bench["grid_ms"].values())
    assert bench["grid_40k_s"] > 0.0
    assert sorted(bench["integrand_us"]) == ["count_exponent", "mass_density"]
    assert all(us > 0.0 for us in bench["integrand_us"].values())
    assert sorted(bench["accuracy"]["max_rel_error"]) == ["e_m", "e_n", "phi_bar_inf", "phi_inf"]
    assert max(bench["accuracy"]["max_rel_error"].values()) < 1e-12
    assert bench["accuracy"]["none_on_finite_sides"] == 0
    # README: importing the package loads no scipy module.
    assert bench["scipy_modules_after_import"] == 0


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    """perfbench's tracer patches package names by lookup: a deleted or renamed one fails here, not only in a traced run."""
    from threshold_gms import montecarlo

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    original = montecarlo.run
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert montecarlo.run.__wrapped__ is original
    finally:
        tracer.restore()
    assert montecarlo.run is original
