"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs one round
of a fixed set of operations (a CLI command, a ``run()`` call or an
acceptance check each), and afterwards checks the outputs against
``checkers``.  Every round of a run repeats the same operations; all
workloads but ``ladder-deep`` also repeat the same inputs, so their
rounds take the same work and give byte-identical outputs.
``ladder-deep`` gives each round its own CLI seed and checks the pooled
samples of all its rounds.

Sizes are chosen so that one round takes about two seconds on a
2-core machine, which leaves several rounds in a run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checkers as ck
from calibrate import reference_loop, speed_scale


@dataclass
class Outcome:
    """Operations run so far: counts, errors and their time.

    With ``calibrate`` every operation is timed, and a reference loop
    just before it gives the machine's speed at that moment: raw_s sums
    the operations' seconds, calibrated_s the same seconds each scaled
    by its own loop (see calibrate.py).  Warm-up runs uncalibrated, so
    set-up time holds no reference loops.
    """

    calibrate: bool = True
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    raw_s: float = 0.0
    calibrated_s: float = 0.0
    reference_s: list = field(default_factory=list)

    def _run(self, fn, *args, **kwargs):
        if not self.calibrate:
            return fn(*args, **kwargs)
        ref = reference_loop()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.raw_s += dt
            self.calibrated_s += dt * speed_scale([ref])
            self.reference_s.append(ref)

    def cli(self, argv: list[str]) -> None:
        from threshold_gms import cli

        self.attempted += 1
        try:
            code = self._run(cli.main, argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            self.failed += 1
            self.errors.append(f"{argv[0]}: {exc!r}")
            return
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {code}")

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return self._run(fn, *args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None


def _params_json(lam_b, lam_e, fit: dict, thr: dict) -> dict:
    return {"lambda_birth": lam_b, "lambda_extinct": lam_e, "fitness_dist": fit, "threshold_dist": thr}


def _exp(rate: float) -> dict:
    return {"family": "exponential", "rate": rate}


def _pareto(index: float) -> dict:
    return {"family": "pareto", "minimum": 1.0, "index": index}


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, sort_keys=True))
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _digest(dirs) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(Path(d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(d)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def _bytes(dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in Path(d).rglob("*") if p.is_file())


class Workload:
    name = ""
    min_rounds = 3  # rounds a run makes however long they take
    fixed_inputs = True  # every round repeats the inputs of round 0

    def __init__(self, seed: int, work: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.out_dirs = []

    def out(self, tag: str) -> str:
        d = str(self.work / tag)
        self.out_dirs.append(d)
        return d

    def warmup(self) -> None:
        raise NotImplementedError

    def round(self, k: int) -> tuple[Outcome, int]:
        """Run round k; return its outcome and the items it processed."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        return _digest(self.out_dirs)

    def output_bytes(self) -> int:
        return _bytes(self.out_dirs)


# ---------------------------------------------------------------- validate-mc

SIX_CHECKS = ["expected-count", "count-law", "mass-law", "laplace", "limit-law", "band0-mass"]


class ValidateMC(Workload):
    """The six Monte Carlo acceptance checks on a fresh SuiteContext.

    Pairs are the suite's own: exp(1)/exp(2) for the ladder count and
    mass, exp(2)/exp(1) for the limit configuration.
    """

    name = "validate-mc"
    REPS = 4000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.base_seed = int(self.rng.integers(1, 2**31))

    def _suite(self, out: Outcome, reps: int):
        """One run_suite call per check, on one context that caches the shared runs."""
        from threshold_gms.validation import SuiteConfig, SuiteContext, run_suite

        ctx = SuiteContext(SuiteConfig(replications=reps, base_seed=self.base_seed))
        results = []
        for name in SIX_CHECKS:
            for r in out.call(name, run_suite, only=[name], context=ctx) or []:
                if r.details.startswith("error:"):
                    out.failed += 1
                    out.errors.append(f"{r.name}: {r.details}")
                results.append(r)
        return ctx, results

    def warmup(self):
        self._suite(Outcome(calibrate=False), 1000)

    def round(self, k):
        out = Outcome()
        self.ctx, self.results = self._suite(out, self.REPS)
        return out, 2 * self.REPS

    def digest(self):
        h = hashlib.sha256()
        for run in (self.ctx.count_run(), self.ctx.limit_run()):
            h.update(run.samples.tobytes())
            for k in sorted(run.aux):
                h.update(run.aux[k].tobytes())
        h.update(repr([(r.name, r.passed, r.details) for r in self.results]).encode())
        return h.hexdigest()

    def output_bytes(self):
        return 0

    def check(self):
        # Cached by the context: reading them back runs nothing again.
        count_run, limit_run = self.ctx.count_run(), self.ctx.limit_run()
        counts, masses = count_run.samples, count_run.aux["mass"]
        totals, n0, band0 = limit_run.samples, limit_run.aux["n0"], limit_run.aux["band0_mass"]
        ck.require(np.all(np.isfinite(counts)) and np.all(np.isfinite(totals)),
                   "sentinels in a run whose mass is finite")
        ck.check_negbin(counts, 1.0, 0.5, "extinction counts exp(1)/exp(2)")
        ck.check_gamma(masses, 1.0, 1.0, "extinction masses exp(1)/exp(2)")
        ck.check_negbin(totals, 2.0, 0.5, "limit totals exp(2)/exp(1)")
        ck.check_negbin(n0, 1.0, 0.5, "band-0 counts exp(2)/exp(1)")
        ck.check_gamma(band0, 1.0, 1.0, "band-0 masses exp(2)/exp(1)")

        # A statistical check may fail at alpha = 0.01 on an unlucky seed;
        # its verdict must then agree with the reference statistic, so a
        # verdict is wrong only when the reference is clearly on the
        # other side of the line.
        verdicts = {r.name: r.passed for r in self.results}
        n = counts.size
        z_mean = abs(counts.mean() - 1.0) / (counts.std(ddof=1) / math.sqrt(n))
        emp = [np.exp(-t * counts) for t in (0.5, 1.0, 2.0)]
        z_lap = max(
            abs(e.mean() - 0.5 / (1.0 - 0.5 * math.exp(-t))) / (e.std(ddof=1) / math.sqrt(n))
            for e, t in zip(emp, (0.5, 1.0, 2.0))
        )
        corr = abs(float(np.corrcoef(n0, limit_run.aux["n_above"])[0, 1])) * math.sqrt(n)
        p = {
            "count-law": ck.chi_square_p(counts, lambda k: ck.negbin_pmf(k, 1.0, 0.5)),
            "mass-law": ck.ks_p(masses, lambda x: ck.gamma_cdf(x, 1.0, 1.0)),
            "limit-law": min(
                ck.chi_square_p(totals, lambda k: ck.negbin_pmf(k, 2.0, 0.5)),
                ck.chi_square_p(n0, lambda k: ck.negbin_pmf(k, 1.0, 0.5)),
                1.0 if corr < 3.0 else 0.0,
            ),
            "band0-mass": ck.ks_p(band0, lambda x: ck.gamma_cdf(x, 1.0, 1.0)),
        }
        for name, pv in p.items():
            ck.check_verdict(name, verdicts[name], pv)
        ck.check_z_verdict("expected-count", verdicts["expected-count"], z_mean)
        ck.check_z_verdict("laplace", verdicts["laplace"], z_lap)


# ---------------------------------------------------------------- ladder-deep

class LadderDeep(Workload):
    """Deep ladders near the boundary, three families and one limit run.

    Every pair has H_thr = 1.05 H_fit, so the counts are NegBin(20, 1/2)
    with Gamma(20, 1) masses for all three families, and the limit total
    of the mirrored exponential pair is NegBin(21, 1/2).

    The 120 replications of one command cannot resolve a count that is
    off by one (NegBin(20, 1/2) has standard deviation 6.3), so every
    command of every round gets its own CLI seed (s + 4k + j for command
    j of round k) and the check pools the samples of all rounds and
    families: at least six rounds, 2160 counts.  The seeds must differ
    between families too: at one seed the three families draw the same
    hazard-space ladders and write identical masses, so their samples
    are not independent.  A traced run repeats rounds 0, 1, ... under
    the tracer, so its work counts repeat between runs at the same seed
    and its round 0 must rewrite the same bytes.
    """

    name = "ladder-deep"
    REPS = 120
    min_rounds = 6
    fixed_inputs = False
    FAMILIES = {
        "exponential": (_exp(1.0), _exp(1.05)),
        "weibull": (
            {"family": "weibull", "shape": 2.0, "scale": 1.0},
            {"family": "weibull", "shape": 2.0, "scale": 1.05 ** -0.5},
        ),
        "pareto": (
            {"family": "pareto", "minimum": 1.0, "index": 1.0},
            {"family": "pareto", "minimum": 1.0, "index": 1.05},
        ),
    }

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cli_seed = int(self.rng.integers(1, 2**31))
        self.params = {
            fam: _write(work / f"{fam}.json", _params_json(1.0, 1.0, fit, thr))
            for fam, (fit, thr) in self.FAMILIES.items()
        }
        self.limit_params = _write(work / "limit.json", _params_json(1.0, 1.0, _exp(1.05), _exp(1.0)))
        self.rounds_run: set[int] = set()
        # Digest and output size cover round 0.
        self.out_dirs = list(self._outs("r0").values())

    def _outs(self, tag: str) -> dict[str, str]:
        return {name: str(self.work / tag / name) for name in (*self.FAMILIES, "limit")}

    def _commands(self, reps: int, first_seed: int, tag: str):
        r, outs = str(reps), self._outs(tag)
        for j, (fam, path) in enumerate(self.params.items()):
            yield ["ladder-mc", "--params", path, "--seed", str(first_seed + j), "--reps", r, "--out", outs[fam]]
        yield ["limit-mc", "--params", self.limit_params, "--seed", str(first_seed + 3), "--reps", r,
               "--out", outs["limit"]]

    def warmup(self):
        out = Outcome(calibrate=False)
        for argv in self._commands(2, self.cli_seed - 4, "warmup"):
            out.cli(argv)

    def round(self, k):
        out = Outcome()
        for argv in self._commands(self.REPS, self.cli_seed + 4 * k, f"r{k}"):
            out.cli(argv)
        self.rounds_run.add(k)
        return out, 4 * self.REPS

    def check(self):
        counts = {fam: [] for fam in self.FAMILIES}
        masses = {fam: [] for fam in self.FAMILIES}
        totals, n0 = [], []
        for k in sorted(self.rounds_run):
            outs = self._outs(f"r{k}")
            for fam in self.FAMILIES:
                rows = _read_csv(Path(outs[fam]) / "samples.csv")
                ck.require(len(rows) == self.REPS, f"{fam} round {k}: {len(rows)} rows, want {self.REPS}")
                ck.require(all(r["count"] != "inf" for r in rows),
                           f"{fam} round {k}: divergence sentinel near the boundary")
                counts[fam] += [float(r["count"]) for r in rows]
                masses[fam] += [float(r["mass"]) for r in rows]
            rows = _read_csv(Path(outs["limit"]) / "samples.csv")
            ck.require(len(rows) == self.REPS and all(r["total"] != "inf" for r in rows),
                       f"limit run round {k}: missing rows or divergence sentinels")
            totals += [float(r["total"]) for r in rows]
            n0 += [float(r["n0"]) for r in rows]
        for fam in self.FAMILIES:
            ck.check_negbin(counts[fam], 20.0, 0.5, f"{fam} extinction counts")
            ck.check_gamma(masses[fam], 20.0, 1.0, f"{fam} extinction masses")
        ck.check_negbin(sum(counts.values(), []), 20.0, 0.5, "extinction counts of all families")
        ck.check_gamma(sum(masses.values(), []), 20.0, 1.0, "extinction masses of all families")
        ck.check_negbin(totals, 21.0, 0.5, "limit totals exp(1.05)/exp(1)")
        ck.check_negbin(n0, 1.0, 0.5, "band-0 counts exp(1.05)/exp(1)")


# ---------------------------------------------------------------- forward-window

class ForwardWindow(Workload):
    """Replicated short windows through run(), plus one long CLI path."""

    name = "forward-window"
    FORWARD_REPS = 1200
    SCAN_REPS = 500
    T = 50.0
    SCAN_HORIZON = 50.0
    PATH_HORIZON = 20000.0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.forward_seed = int(self.rng.integers(1, 2**31))
        self.scan_seed = int(self.rng.integers(1, 2**31))
        self.path_seed = str(int(self.rng.integers(1, 2**31)))
        self.path_params = _write(work / "transient.json", _params_json(1.0, 1.0, _exp(1.0), _exp(2.0)))
        self.path_out = self.out("simulate")

    def _plans(self, forward_reps, scan_reps):
        from threshold_gms.distributions import Exponential, ModelParams
        from threshold_gms.montecarlo import ReplicationPlan

        finite = ModelParams(1.0, 1.0, Exponential(2.0), Exponential(1.0))
        transient = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0))
        return (
            ReplicationPlan(task="forward_count", params=finite, replications=forward_reps,
                            base_seed=self.forward_seed, t=self.T),
            ReplicationPlan(task="empty_time_scan", params=transient, replications=scan_reps,
                            base_seed=self.scan_seed, horizon=self.SCAN_HORIZON),
        )

    def _round(self, out, forward_reps, scan_reps, horizon, out_dir):
        from threshold_gms import montecarlo

        results = [out.call("run " + p.task, montecarlo.run, p) for p in self._plans(forward_reps, scan_reps)]
        out.cli(["simulate", "--params", self.path_params, "--seed", self.path_seed,
                 "--horizon", repr(horizon), "--out", out_dir])
        return results

    def warmup(self):
        self._round(Outcome(calibrate=False), 20, 20, 200.0, self.path_out + "-warmup")

    def round(self, k):
        out = Outcome()
        self.forward, self.scan = self._round(
            out, self.FORWARD_REPS, self.SCAN_REPS, self.PATH_HORIZON, self.path_out
        )
        return out, self.FORWARD_REPS + self.SCAN_REPS + 1

    def check(self):
        fwd = self.forward.samples
        ck.require(fwd.size == self.FORWARD_REPS and np.all(fwd == np.round(fwd)) and fwd.min() >= 0,
                   "forward counts are not non-negative integers")
        ck.check_mean(fwd, ck.forward_mean_exponential(2.0, 1.0, 1.0, 1.0, self.T),
                      f"forward count at t={self.T:g}, exp(2)/exp(1)")
        scan = self.scan.samples
        ck.require(scan.size == self.SCAN_REPS and np.all(scan > 0.0) and np.all(scan <= self.SCAN_HORIZON),
                   "a last-empty time lies outside (0, horizon]")

        out = Path(self.path_out)
        rows = _read_csv(out / "trace.csv")
        summary = json.loads((out / "summary.json").read_text())
        times = [float(r["time"]) for r in rows]
        kinds = [r["kind"] for r in rows]
        marks = [float(r["mark"]) for r in rows]
        recount = ck.recount_from_trace(kinds, marks)
        got = np.array([int(r["count_after"]) for r in rows])
        bad = int(np.count_nonzero(got != recount))
        ck.require(bad == 0, f"simulate: {bad} count_after rows differ from the suffix-maximum recount")
        ck.require(summary["events"] == len(rows), "simulate: summary event count differs from the trace")
        ck.require(summary["births"] == kinds.count("birth"), "simulate: birth count differs")
        ck.require(summary["final_count"] == (int(recount[-1]) if len(rows) else 0),
                   "simulate: final_count differs from the recount")
        want_empty = ck.last_empty_from_counts(times, recount, self.PATH_HORIZON)
        ck.require(summary["last_empty_time"] == want_empty,
                   f"simulate: last_empty_time {summary['last_empty_time']} != recount {want_empty}")
        ck.require(0.0 < want_empty <= self.PATH_HORIZON, "simulate: last-empty time outside (0, horizon]")


# ---------------------------------------------------------------- criteria-sweep

class CriteriaSweep(Workload):
    """A dense exponential phase map plus Weibull, Pareto and tabulated pairs.

    The layout is fixed and the seed jitters every rate, shape and level
    by up to 2%: quadrature cost depends on how far each pair is from
    the boundary, so fully random parameters would change the work per
    round from seed to seed.
    """

    name = "criteria-sweep"
    ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0)
    LAMBDAS_BIRTH = (1.0, 1.3)
    LAMBDAS_EXTINCT = (1.0, 0.7)
    # (fitness shape, threshold shape, log scale ratio); gamma = exp(k * ratio)
    # for equal shapes, 0 or inf for unequal ones.
    WEIBULL = ((0.8, 0.8, 0.6), (1.5, 2.4, 0.0), (2.0, 2.0, -0.4), (2.5, 1.5, 0.0))
    PARETO = ((1.0, 2.0), (2.0, 1.4), (0.7, 1.05), (2.5, 1.25))  # (fitness, threshold) index
    TABULATED = ((0.8, 1.6), (1.2, 0.6), (1.0, 2.0), (1.5, 0.9))  # (fitness, threshold) rate
    JITTER = 0.02

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # Threshold rates repeat the fitness rates, so the grid holds its
        # diagonal (the boundary) next to both regimes.
        self.alphas = [self._jitter(a) for a in self.ALPHAS]
        self.grid = ";".join(
            [
                "alpha_fitness=" + ",".join(repr(a) for a in self.alphas),
                "alpha_threshold=" + ",".join(repr(a) for a in self.alphas),
                "lambda_birth=" + ",".join(repr(v) for v in self.LAMBDAS_BIRTH),
                "lambda_extinct=" + ",".join(repr(v) for v in self.LAMBDAS_EXTINCT),
            ]
        )
        self.grid_out = self.out("grid")
        # (label, fitness law, threshold law, gamma = lim H_thr(H_fit^-1(h)) / h).
        singles = []
        for i, (k_fit, k_thr, ratio) in enumerate(self.WEIBULL):
            k_fit, k_thr = self._jitter(k_fit), self._jitter(k_thr)
            if ratio:
                k_thr, ratio = k_fit, self._jitter(ratio)
                gamma = math.exp(k_fit * ratio)
            else:
                gamma = math.inf if k_thr > k_fit else 0.0
            fit = {"family": "weibull", "shape": k_fit, "scale": 1.0}
            thr = {"family": "weibull", "shape": k_thr, "scale": math.exp(-ratio)}
            singles.append((f"weibull-{i}", fit, thr, gamma))
        for i, (a_fit, a_thr) in enumerate(self.PARETO):
            a_fit, a_thr = self._jitter(a_fit), self._jitter(a_thr)
            singles.append((f"pareto-{i}", _pareto(a_fit), _pareto(a_thr), a_thr / a_fit))
        for i, (a_fit, a_thr) in enumerate(self.TABULATED):
            a_fit, a_thr = self._jitter(a_fit), self._jitter(a_thr)
            thr = self._tabulated(a_thr) if i % 2 else _exp(a_thr)
            singles.append((f"tabulated-{i}", self._tabulated(a_fit), thr, a_thr / a_fit))
        self.single_files = [
            (label, _write(work / f"{label}.json", _params_json(1.0, 1.0, fit, thr)), gamma)
            for label, fit, thr, gamma in singles
        ]
        self.single_outs = {label: self.out(label) for label, _, _ in self.single_files}

    def _jitter(self, value: float) -> float:
        return round(value * float(np.exp(self.rng.uniform(-self.JITTER, self.JITTER))), 6)

    def _tabulated(self, rate: float) -> dict:
        """Exponential survival at 12 levels up to survival e^-6; the log-linear tail keeps the rate."""
        step = 6.0 / rate / 11
        levels = [0.0] + [round(step * (k + self.rng.uniform(-0.1, 0.1)), 6) for k in range(1, 12)]
        return {"family": "tabulated", "grid": [[math.exp(-rate * x), x] for x in levels]}

    @property
    def points(self) -> int:
        return len(self.alphas) ** 2 * len(self.LAMBDAS_BIRTH) * len(self.LAMBDAS_EXTINCT)

    def warmup(self):
        out = Outcome(calibrate=False)
        out.cli(["classify", "--grid", "alpha_fitness=1,2;alpha_threshold=2", "--out", self.grid_out + "-warmup"])
        for label, path, _ in self.single_files[::4]:
            out.cli(["classify", "--params", path, "--out", self.single_outs[label] + "-warmup"])

    def round(self, k):
        out = Outcome()
        out.cli(["classify", "--grid", self.grid, "--out", self.grid_out])
        for label, path, _ in self.single_files:
            out.cli(["classify", "--params", path, "--out", self.single_outs[label]])
        return out, self.points + len(self.single_files)

    def check(self):
        rows = _read_csv(Path(self.grid_out) / "phase_map.csv")
        ck.require(len(rows) == self.points, f"phase map has {len(rows)} rows, want {self.points}")
        diagonal = 0
        for r in rows:
            a_f, a_t = float(r["alpha_fitness"]), float(r["alpha_threshold"])
            l_b, l_e = float(r["lambda_birth"]), float(r["lambda_extinct"])
            where = f"grid point ({a_f:g}, {a_t:g}, {l_b:g}, {l_e:g})"
            want = ck.exponential_verdicts(a_f, a_t)
            ck.require((r["recurrence"], r["limit_count"]) == want, f"{where}: verdict {r['recurrence']}/{r['limit_count']}, want {want}")
            ck.require(r["method"] == "AnalyticExponent", f"{where}: method {r['method']}")
            e_m, e_n = ck.expected_counts(a_f, a_t, l_b, l_e)
            got_m, got_n = ck.optional_float(r["e_m"]), ck.optional_float(r["e_n"])
            ck.require(got_m is not None and ck.close(got_m, e_m), f"{where}: e_m {r['e_m']}, want {e_m}")
            ck.require(got_n is not None and ck.close(got_n, e_n), f"{where}: e_n {r['e_n']}, want {e_n}")
            diagonal += a_f == a_t
        ck.require(diagonal == len(self.alphas) * len(self.LAMBDAS_BIRTH) * len(self.LAMBDAS_EXTINCT),
                   "phase map lost its diagonal")
        for label, _, gamma in self.single_files:
            report = json.loads((Path(self.single_outs[label]) / "classification.json").read_text())["report"]
            if gamma > 1.0:
                want = ("Transient", "Infinite")
            else:
                want = ("Recurrent", "Finite")
            got = (report["recurrence"], report["limit_count"])
            ck.require(got == want, f"{label}: verdict {got}, want {want} (gamma {gamma:g})")
            want_method = "NumericCauchy" if label.startswith("tabulated") else "AnalyticExponent"
            ck.require(report["method"] == want_method, f"{label}: method {report['method']}")


WORKLOADS = {w.name: w for w in (ValidateMC, LadderDeep, ForwardWindow, CriteriaSweep)}
