"""Self-tests of the benchmark's reference checkers (no package import).

    python3 -m pytest perfbench/test_checkers.py -q
    python3 perfbench/test_checkers.py

Each checker must accept a sample drawn from its law and reject a
deliberately wrong one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checkers as ck
import tracing


def negbin_sample(r, p, n, seed=0):
    # numpy counts failures before r successes with success probability 1 - p.
    return np.random.default_rng(seed).negative_binomial(r, 1.0 - p, size=n).astype(float)


@pytest.mark.parametrize("r", [1.0, 2.0, 20.0])
def test_negbin_accepts_its_law_and_rejects_a_shift_by_one(r):
    x = negbin_sample(r, 0.5, 4000, seed=int(r))
    ck.check_negbin(x, r, 0.5, "sample")
    with pytest.raises(ck.CheckFailed):
        ck.check_negbin(x + 1.0, r, 0.5, "shifted")


def test_ladder_deep_pool_resolves_a_shift_by_one():
    # The smallest pool ladder-deep checks: its minimum rounds of three families.
    from workloads import LadderDeep

    n = LadderDeep.min_rounds * len(LadderDeep.FAMILIES) * LadderDeep.REPS
    counts = negbin_sample(20.0, 0.5, n, seed=13)
    masses = np.random.default_rng(13).gamma(20.0, 1.0, n)
    ck.check_negbin(counts, 20.0, 0.5, "pool")
    ck.check_gamma(masses, 20.0, 1.0, "pool")
    with pytest.raises(ck.CheckFailed):
        ck.check_negbin(counts + 1.0, 20.0, 0.5, "shifted pool")
    with pytest.raises(ck.CheckFailed):
        ck.check_gamma(masses + 1.0, 20.0, 1.0, "shifted pool")


def test_negbin_pmf_matches_the_geometric_law():
    k = np.arange(10)
    assert np.allclose(ck.negbin_pmf(k, 1.0, 0.5), 0.5 ** (k + 1))
    assert math.isclose(ck.negbin_pmf(np.arange(400), 20.0, 0.5).sum(), 1.0, rel_tol=1e-12)


def test_chi_square_rejects_a_wrong_shape_with_the_right_mean():
    # Poisson(1) has mean 1 like NegBin(1, 1/2) but half its variance.
    x = np.random.default_rng(3).poisson(1.0, 4000).astype(float)
    assert ck.chi_square_p(x, lambda k: ck.negbin_pmf(k, 1.0, 0.5)) < ck.P_MIN


def test_chi_square_refuses_sentinels_and_fractions():
    with pytest.raises(ck.CheckFailed):
        ck.chi_square_p([0.0, 1.0, math.inf], lambda k: ck.negbin_pmf(k, 1.0, 0.5))
    with pytest.raises(ck.CheckFailed):
        ck.chi_square_p([0.5] * 100, lambda k: ck.negbin_pmf(k, 1.0, 0.5))


@pytest.mark.parametrize("shape", [1.0, 20.0])
def test_gamma_accepts_its_law_and_rejects_a_shift(shape):
    x = np.random.default_rng(5).gamma(shape, 1.0, 4000)
    ck.check_gamma(x, shape, 1.0, "sample")
    with pytest.raises(ck.CheckFailed):
        ck.check_gamma(x + max(0.1, 0.1 * shape), shape, 1.0, "shifted")


def test_mean_check_rejects_a_shift_by_one():
    x = np.random.default_rng(7).poisson(2.0, 1200).astype(float)
    ck.check_mean(x, 2.0, "sample")
    with pytest.raises(ck.CheckFailed):
        ck.check_mean(x + 1.0, 2.0, "shifted")


@pytest.mark.parametrize("t", [20.0, 50.0])
def test_forward_mean_reproduces_the_closed_form(t):
    # exp(2) fitness, exp(1) thresholds: 2 - 2/t + 2 exp(-t)/t.
    want = 2.0 - 2.0 / t + 2.0 * math.exp(-t) / t
    assert math.isclose(ck.forward_mean_exponential(2.0, 1.0, 1.0, 1.0, t), want, rel_tol=1e-9)


def test_forward_mean_tends_to_the_limit_mean():
    # exp(3)/exp(1): the limit total is NegBin(3/2, 1/2), mean 1.5.
    assert math.isclose(ck.forward_mean_exponential(3.0, 1.0, 1.0, 1.0, 1e6), 1.5, rel_tol=1e-3)


def brute_counts(kinds, marks):
    alive, counts = [], []
    for kind, mark in zip(kinds, marks):
        if kind == "birth":
            alive.append(mark)
        else:
            alive = [v for v in alive if v >= mark]
        counts.append(len(alive))
    return counts


def test_recount_keeps_a_species_whose_fitness_equals_the_threshold():
    kinds = ["birth", "extinction", "extinction", "birth", "extinction"]
    marks = [1.0, 1.0, 0.5, 2.0, 1.5]
    assert list(ck.recount_from_trace(kinds, marks)) == [1, 1, 1, 2, 1]
    kinds = ["birth", "extinction"]
    assert list(ck.recount_from_trace(kinds, [1.0, math.nextafter(1.0, 2.0)])) == [1, 0]


def test_recount_matches_a_replay_on_random_streams():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        kinds = ["birth" if b else "extinction" for b in rng.random(n) < 0.5]
        # Few distinct marks, so ties between fitness and threshold occur.
        marks = list(rng.integers(0, 5, n).astype(float))
        assert list(ck.recount_from_trace(kinds, marks)) == brute_counts(kinds, marks)


def test_recount_rejects_a_wrong_count_column():
    kinds = ["birth", "birth", "extinction"]
    marks = [1.0, 3.0, 2.0]
    assert list(ck.recount_from_trace(kinds, marks)) != [1, 2, 2]


def test_last_empty_time():
    times = [1.0, 2.0, 3.0, 4.0]
    assert ck.last_empty_from_counts(times, np.array([1, 0, 1, 2]), 10.0) == 3.0
    assert ck.last_empty_from_counts(times, np.array([1, 2, 2, 2]), 10.0) == 1.0
    assert ck.last_empty_from_counts(times, np.array([1, 2, 1, 0]), 10.0) == 10.0
    assert ck.last_empty_from_counts([], np.array([], dtype=int), 10.0) == 10.0


def test_verdicts_and_expected_counts():
    assert ck.exponential_verdicts(1.0, 2.0) == ("Transient", "Infinite")
    assert ck.exponential_verdicts(2.0, 1.0) == ("Recurrent", "Finite")
    assert ck.exponential_verdicts(1.5, 1.5) == ("Recurrent", "Infinite")
    e_m, e_n = ck.expected_counts(1.0, 2.0, 1.3, 0.7)
    assert math.isclose(e_m, 0.7 / 1.3) and math.isinf(e_n)
    e_m, e_n = ck.expected_counts(2.0, 1.0, 1.0, 1.0)
    assert math.isinf(e_m) and e_n == 1.0
    assert ck.close(1.0 + 1e-7, 1.0) and not ck.close(1.0 + 1e-5, 1.0)
    assert ck.close(math.inf, math.inf) and not ck.close(3.0, math.inf)


def test_verdict_consistency():
    ck.check_verdict("x", True, 0.3)
    ck.check_verdict("x", False, 0.004)
    ck.check_verdict("x", True, 0.008)  # near the line either verdict stands
    with pytest.raises(ck.CheckFailed):
        ck.check_verdict("x", True, 1e-6)
    with pytest.raises(ck.CheckFailed):
        ck.check_verdict("x", False, 0.5)
    ck.check_z_verdict("x", True, 1.0)
    ck.check_z_verdict("x", False, 3.5)
    with pytest.raises(ck.CheckFailed):
        ck.check_z_verdict("x", True, 4.0)
    with pytest.raises(ck.CheckFailed):
        ck.check_z_verdict("x", False, 1.0)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.UNITS.items())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
