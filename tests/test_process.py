import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_gms.distributions import Exponential, ModelParams, Pareto, TabulatedQuantile, Weibull
from threshold_gms.process import (
    Configuration,
    Event,
    EventStream,
    ProcessError,
    count_alive,
    evolve,
    generate_stream,
    last_empty_time,
    read_initial_csv,
    species_count_at,
    write_trace_csv,
)
from threshold_gms.streams import replication_rng
from threshold_gms.validation import _brute_force_counts

PARAMS = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0))


def _stream(events, horizon, start=0.0):
    return EventStream.from_events(start, horizon, events)


def test_empty_window_gives_empty_stream():
    rng = replication_rng(1, 0, 0)
    stream = generate_stream(PARAMS, 5.0, 5.0, rng)
    assert len(stream.events) == 0 and stream.times.size == stream.birth.size == stream.marks.size == 0


def test_event_validation():
    with pytest.raises(ProcessError):
        Event(time=1.0, kind="other", mark=0.5)
    with pytest.raises(ProcessError):
        Event(time=math.inf, kind="birth", mark=0.5)
    with pytest.raises(ProcessError):
        Event(time=1.0, kind="birth", mark=-0.5)


def test_stream_validation():
    ev = Event(time=1.0, kind="birth", mark=0.5)
    with pytest.raises(ProcessError):
        _stream([ev, ev], horizon=2.0)
    with pytest.raises(ProcessError):
        _stream([Event(time=3.0, kind="birth", mark=0.5)], horizon=2.0)
    with pytest.raises(ProcessError):
        _stream([], start=2.0, horizon=1.0)
    with pytest.raises(ProcessError):
        _stream([ev, "not an event"], horizon=2.0)


def test_event_count_is_poisson():
    """Total arrivals over the window follow a Poisson law with mean rate * length."""
    params = ModelParams(0.7, 0.3, Exponential(1.0), Exponential(1.0))
    n_reps = 4000
    horizon = 10.0
    counts = []
    for i in range(n_reps):
        rng = replication_rng(2, i, 0)
        counts.append(len(generate_stream(params, 0.0, horizon, rng).events))
    counts = np.array(counts)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(n_reps)
    assert abs(mean - 10.0) < 3.0 * se
    # Poisson: variance equals the mean
    assert abs(counts.var(ddof=1) - 10.0) < 1.0


def test_kind_split_matches_rates():
    params = ModelParams(3.0, 1.0, Exponential(1.0), Exponential(1.0))
    rng = replication_rng(3, 0, 0)
    stream = generate_stream(params, 0.0, 5000.0, rng)
    n = len(stream.events)
    frac = np.count_nonzero(stream.birth) / n
    se = math.sqrt(0.75 * 0.25 / n)
    assert abs(frac - 0.75) < 3.5 * se


def test_extinction_removes_strictly_below_threshold():
    stream = _stream([Event(time=1.0, kind="extinction", mark=2.0)], horizon=2.0)
    trace = evolve(Configuration((1.0, 2.0, 3.0)), stream)
    assert trace.configuration_at(2.0).values == (2.0, 3.0)


def test_evolve_worked_example():
    events = [
        Event(time=1.0, kind="birth", mark=1.0),
        Event(time=2.0, kind="birth", mark=5.0),
        Event(time=3.0, kind="extinction", mark=2.0),
    ]
    trace = evolve(Configuration(), _stream(events, horizon=4.0))
    assert trace.counts_after == (1, 2, 1)
    assert trace.configuration_at(4.0).values == (5.0,)
    assert trace.configuration_at(2.5).values == (1.0, 5.0)


def test_total_extinction_opens_empty_interval():
    events = [
        Event(time=1.0, kind="extinction", mark=3.0),
        Event(time=2.0, kind="birth", mark=0.5),
    ]
    trace = evolve(Configuration((2.0,)), _stream(events, horizon=5.0))
    assert trace.empty_intervals == ((1.0, 2.0),)
    assert last_empty_time(trace) == 2.0


def test_trailing_empty_interval_closes_at_horizon():
    events = [Event(time=1.0, kind="extinction", mark=10.0)]
    trace = evolve(Configuration((2.0, 3.0)), _stream(events, horizon=5.0))
    assert trace.empty_intervals == ((1.0, 5.0),)
    assert last_empty_time(trace) == 5.0


def test_initially_empty_interval_starts_at_window_start():
    events = [Event(time=2.0, kind="birth", mark=1.0)]
    trace = evolve(Configuration(), _stream(events, horizon=5.0))
    assert trace.empty_intervals == ((0.0, 2.0),)


def test_never_empty_returns_none():
    events = [Event(time=1.0, kind="birth", mark=1.0)]
    trace = evolve(Configuration((2.0,)), _stream(events, horizon=5.0))
    assert trace.empty_intervals == ()
    assert last_empty_time(trace) is None


def test_species_count_at_boundaries():
    events = [
        Event(time=1.0, kind="birth", mark=1.0),
        Event(time=3.0, kind="birth", mark=2.0),
    ]
    trace = evolve(Configuration(), _stream(events, horizon=4.0))
    assert species_count_at(trace, 0.0) == 0
    assert species_count_at(trace, 1.0) == 1
    assert species_count_at(trace, 2.9) == 1
    assert species_count_at(trace, 4.0) == 2
    with pytest.raises(ProcessError):
        species_count_at(trace, 4.5)


def test_generate_stream_is_deterministic():
    a = generate_stream(PARAMS, 0.0, 30.0, replication_rng(9, 5, 0))
    b = generate_stream(PARAMS, 0.0, 30.0, replication_rng(9, 5, 0))
    for name in ("times", "birth", "marks"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    c = generate_stream(PARAMS, 0.0, 30.0, replication_rng(9, 6, 0))
    assert a.times.tobytes() != c.times.tobytes()


def test_window_too_far_out_for_the_float_resolution_is_refused():
    """Past about 1e15 the float spacing approaches the mean event gap, and event times would tie."""
    rng = replication_rng(1)
    with pytest.raises(ProcessError, match="resolution"):
        generate_stream(PARAMS, 1e15, 1e15 + 2000, rng)
    with pytest.raises(ProcessError, match="resolution"):
        generate_stream(PARAMS, 1e15, 1.000000000002e15, rng)
    assert rng.random() == replication_rng(1).random()  # refused before drawing anything
    assert len(generate_stream(PARAMS, 1e6, 1e6 + 20.0, rng).events)


def test_evolve_matches_naive_replay_on_random_windows():
    for i in range(300):
        rng = replication_rng(10, i, 0)
        horizon = 1.0 + 25.0 * rng.random()
        stream = generate_stream(PARAMS, 0.0, horizon, rng)
        n_init = int(rng.integers(0, 5))
        initial = Configuration(tuple(PARAMS.fitness_dist.sample(rng) for _ in range(n_init)))
        trace = evolve(initial, stream)
        counts, final, _ = _brute_force_counts(initial, stream)
        assert list(trace.counts_after) == counts
        assert trace.configuration_at(horizon).values == final


event_lists = st.lists(
    st.tuples(
        st.floats(0.01, 1.0),
        st.booleans(),
        st.floats(0.0, 10.0),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(gaps_kinds_marks=event_lists, n_init=st.integers(0, 4))
def test_evolution_structure_properties(gaps_kinds_marks, n_init):
    """Births add exactly one species; extinctions never add any."""
    t = 0.0
    events = []
    for gap, is_birth, mark in gaps_kinds_marks:
        t += gap
        events.append(Event(time=t, kind="birth" if is_birth else "extinction", mark=mark))
    stream = _stream(events, horizon=t + 1.0)
    initial = Configuration(tuple(float(k) for k in range(n_init)))
    trace = evolve(initial, stream)
    prev = len(initial)
    for ev, count in zip(stream.events, trace.counts_after):
        if ev.kind == "birth":
            assert count == prev + 1
        else:
            assert count <= prev
        assert count >= 0
        prev = count
    for lo, hi in trace.empty_intervals:
        assert stream.start <= lo < hi <= stream.horizon


def test_csv_writers_round_trip(tmp_path):
    events = [
        Event(time=1.0, kind="birth", mark=1.5),
        Event(time=2.0, kind="extinction", mark=0.5),
    ]
    trace = evolve(Configuration((0.25,)), _stream(events, horizon=3.0))
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace, trace_path)
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "time,kind,mark,count_after"
    assert len(lines) == 3

    init_path = tmp_path / "init.csv"
    init_path.write_text("fitness\n0.5\n1.5\n")
    config = read_initial_csv(init_path)
    assert config.values == (0.5, 1.5)


MARK_LAWS = {
    "exponential": Exponential(1.5),
    "weibull": Weibull(0.7, 2.0),
    "pareto": Pareto(1.0, 1.2),
    "tabulated": TabulatedQuantile(((1.0, 0.0), (0.5, 1.0), (0.05, 4.0))),
}


def _check_against_brute_force(initial, stream):
    trace = evolve(initial, stream)
    counts, final, last_empty = _brute_force_counts(initial, stream)
    assert list(trace.counts_after) == counts
    assert trace.configuration_at(stream.horizon).values == final
    assert species_count_at(trace, stream.horizon) == len(final)
    assert count_alive(stream, initial) == len(final)
    assert last_empty_time(trace) == last_empty


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fitness=st.sampled_from(sorted(MARK_LAWS)),
    threshold=st.sampled_from(sorted(MARK_LAWS)),
    rates=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    length=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    initial=st.lists(st.floats(0.0, 5.0), max_size=5),
)
def test_array_path_matches_event_by_event_replay(seed, fitness, threshold, rates, length, initial):
    """Replay counts, suffix-maximum count and last-empty time agree with the list filter."""
    params = ModelParams(rates[0], rates[1], MARK_LAWS[fitness], MARK_LAWS[threshold])
    stream = generate_stream(params, 2.0, 2.0 + length, replication_rng(seed))
    _check_against_brute_force(Configuration(tuple(initial)), stream)


@settings(max_examples=200, deadline=None)
@given(
    gaps_kinds_marks=st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans(), st.integers(0, 3)), max_size=30),
    initial=st.lists(st.integers(0, 3), max_size=5),
)
def test_array_path_on_marks_that_tie(gaps_kinds_marks, initial):
    """Marks on four levels, so thresholds often equal a living fitness, which survives."""
    t = 0.0
    events = []
    for gap, is_birth, mark in gaps_kinds_marks:
        t += gap
        events.append(Event(time=t, kind="birth" if is_birth else "extinction", mark=float(mark)))
    _check_against_brute_force(Configuration(tuple(map(float, initial))), _stream(events, horizon=t + 1.0))


def test_a_fitness_equal_to_a_later_threshold_survives():
    events = [
        Event(time=1.0, kind="birth", mark=2.0),
        Event(time=2.0, kind="extinction", mark=2.0),
        Event(time=3.0, kind="extinction", mark=1.0),
    ]
    stream = _stream(events, horizon=4.0)
    assert count_alive(stream, (2.0, 1.5)) == 2
    assert evolve(Configuration((2.0, 1.5)), stream).counts_after == (3, 2, 2)


@pytest.mark.parametrize(
    "times, marks",
    [
        ([1.0, 2.0], [0.5, math.inf]),
        ([1.0, 2.0], [math.nan, 0.5]),
        ([1.0, 2.0], [0.5, -1.0]),
        ([1.0, 1.0], [0.5, 0.5]),
        ([1.0, math.nan], [0.5, 0.5]),
        ([0.0, 1.0], [0.5, 0.5]),
    ],
)
def test_stream_refuses_bad_marks_and_times(times, marks):
    """Marks must be finite and >= 0; times strictly increasing inside (start, horizon]."""
    with pytest.raises(ProcessError):
        EventStream(0.0, 5.0, times, [True, False], marks)


def test_a_mark_past_the_float_range_is_refused():
    """Weibull shape 0.001 sends every unit exponential above about 2 past the float range."""
    params = ModelParams(1.0, 1.0, Weibull(0.001, 1.0), Exponential(1.0))
    with pytest.raises(ProcessError, match="finite"):
        generate_stream(params, 0.0, 50.0, replication_rng(1))


def test_events_view_reads_the_arrays():
    events = [Event(time=1.0, kind="birth", mark=1.5), Event(time=2.0, kind="extinction", mark=0.5)]
    stream = _stream(events, horizon=3.0)
    assert len(stream.events) == 2
    assert list(stream.events) == events
    assert stream.events[-1] == events[-1]
    assert stream.birth.tolist() == [True, False]
    with pytest.raises(ValueError):
        stream.marks[0] = 2.0  # the checked arrays are read-only
