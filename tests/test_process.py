import json
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_gms import output, process
from threshold_gms.distributions import Exponential, ModelParams, Pareto, TabulatedQuantile, Weibull
from threshold_gms.process import (
    Configuration,
    Event,
    EventStream,
    ProcessError,
    count_alive,
    count_alive_rows,
    evolve,
    first_above,
    generate_block,
    generate_stream,
    last_empty_rows,
    last_empty_time,
    read_initial_csv,
    species_count_at,
    write_trace_csv,
    write_trace_json,
)
from threshold_gms.streams import replication_rng
from threshold_gms.validation import _brute_force_counts

PARAMS = ModelParams(1.0, 1.0, Exponential(1.0), Exponential(2.0))


def _stream(events, horizon):
    return EventStream.from_events(horizon, events)


def test_empty_window_gives_empty_stream():
    rng = replication_rng(1, 0, 0)
    stream = generate_stream(PARAMS, 0.0, rng)
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
        _stream([], horizon=-1.0)
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
        counts.append(len(generate_stream(params, horizon, rng).events))
    counts = np.array(counts)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(n_reps)
    assert abs(mean - 10.0) < 3.0 * se
    # Poisson: variance equals the mean
    assert abs(counts.var(ddof=1) - 10.0) < 1.0


def test_kind_split_matches_rates():
    params = ModelParams(3.0, 1.0, Exponential(1.0), Exponential(1.0))
    rng = replication_rng(3, 0, 0)
    stream = generate_stream(params, 5000.0, rng)
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
    assert trace.counts_after.tolist() == [1, 2, 1]
    assert trace.counts_after.dtype == np.int64 and not trace.counts_after.flags.writeable
    assert type(species_count_at(trace, 4.0)) is int
    assert trace.configuration_at(4.0).values == (5.0,)
    assert trace.configuration_at(2.5).values == (1.0, 5.0)


def test_total_extinction_opens_empty_interval():
    events = [
        Event(time=1.0, kind="extinction", mark=3.0),
        Event(time=2.0, kind="birth", mark=0.5),
    ]
    trace = evolve(Configuration((2.0,)), _stream(events, horizon=5.0))
    assert trace.counts_after.tolist() == [0, 1]
    assert last_empty_time(trace) == 2.0


def test_trailing_empty_interval_closes_at_horizon():
    events = [Event(time=1.0, kind="extinction", mark=10.0)]
    trace = evolve(Configuration((2.0, 3.0)), _stream(events, horizon=5.0))
    assert trace.counts_after.tolist() == [0]
    assert last_empty_time(trace) == 5.0


def test_initially_empty_interval_starts_at_window_start():
    events = [Event(time=2.0, kind="birth", mark=1.0)]
    trace = evolve(Configuration(), _stream(events, horizon=5.0))
    assert species_count_at(trace, 0.0) == species_count_at(trace, 1.9) == 0
    assert last_empty_time(trace) == 2.0


def test_never_empty_returns_none():
    events = [Event(time=1.0, kind="birth", mark=1.0)]
    trace = evolve(Configuration((2.0,)), _stream(events, horizon=5.0))
    assert trace.counts_after.tolist() == [2]
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
    a = generate_stream(PARAMS, 30.0, replication_rng(9, 5, 0))
    b = generate_stream(PARAMS, 30.0, replication_rng(9, 5, 0))
    for name in ("times", "birth", "marks"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    c = generate_stream(PARAMS, 30.0, replication_rng(9, 6, 0))
    assert a.times.tobytes() != c.times.tobytes()


def test_window_past_the_event_budget_is_refused():
    """A window expecting more than MAX_WINDOW_EVENTS events is refused before drawing, not at allocation."""
    rng = replication_rng(1)
    horizon = 1e8  # 2e8 expected events
    with pytest.raises(ProcessError, match="event budget of 16777216"):
        generate_stream(PARAMS, horizon, rng)
    with pytest.raises(ProcessError, match="event budget"):
        generate_block(PARAMS, horizon, rng, 3)
    assert rng.random() == replication_rng(1).random()  # refused before drawing anything


def test_evolve_matches_naive_replay_on_random_windows():
    for i in range(300):
        rng = replication_rng(10, i, 0)
        horizon = 1.0 + 25.0 * rng.random()
        stream = generate_stream(PARAMS, horizon, rng)
        n_init = int(rng.integers(0, 5))
        initial = Configuration(tuple(PARAMS.fitness_dist.sample(rng) for _ in range(n_init)))
        trace = evolve(initial, stream)
        counts, final, _ = _brute_force_counts(initial, stream)
        assert trace.counts_after.tolist() == counts
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
    last = last_empty_time(trace)
    assert last is None or 0.0 <= last <= stream.horizon


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
    assert trace.counts_after.tolist() == counts
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
    stream = generate_stream(params, length, replication_rng(seed))
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
    assert evolve(Configuration((2.0, 1.5)), stream).counts_after.tolist() == [3, 2, 2]


@pytest.mark.parametrize(
    "initial, error",
    [
        ([-1.0, math.nan, math.inf], ProcessError),
        ([math.inf], ProcessError),
        ([math.nan], ProcessError),
        ([True], ProcessError),
        (["1.0"], ProcessError),
    ],
)
def test_count_alive_checks_the_initial_values_as_evolve_does(initial, error):
    """Negative, infinite, NaN, bool and text fitness values are refused by both, through Configuration."""
    stream = _stream([], horizon=1.0)
    with pytest.raises(error):
        count_alive(stream, initial)
    with pytest.raises(error):
        evolve(initial, stream)
    assert count_alive(stream, [0.0, 2.0]) == len(evolve([0.0, 2.0], stream).initial) == 2


@pytest.mark.parametrize(
    "refuse",
    [
        lambda stream: count_alive(stream, [math.nan]),
        lambda stream: evolve([1.0, math.nan], stream),
        lambda stream: Event(math.nan, "birth", 1.0),
        lambda stream: Event(1.0, "extinction", math.nan),
        lambda stream: EventStream(math.nan, [], [], []),
        lambda stream: evolve([], stream).configuration_at(math.nan),
        lambda stream: species_count_at(evolve([], stream), math.nan),
    ],
    ids=["count_alive", "evolve", "Event time", "Event mark", "EventStream horizon",
         "configuration_at", "species_count_at"],
)
def test_nan_is_refused_as_a_process_error(refuse):
    """A NaN value raises ProcessError, as a negative or infinite one does, with _as_float's message."""
    stream = _stream([Event(1.0, "birth", 2.0)], horizon=2.0)
    with pytest.raises(ProcessError, match="must not be NaN"):
        refuse(stream)


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
    """Marks must be finite and >= 0; times strictly increasing inside (0, horizon]."""
    with pytest.raises(ProcessError):
        EventStream(5.0, times, [True, False], marks)


@pytest.mark.parametrize(
    "times, marks, field",
    [
        (["a"], [1.0], "times"),
        ([1.0], ["a"], "marks"),
        ([object()], [1.0], "times"),
        ([1.0], [{}], "marks"),
        (["0.5"], [1.0], "times"),
        ([0.5], np.array(["1.0"]), "marks"),
        ([0.5], [b"1.0"], "marks"),
    ],
)
def test_stream_refuses_entries_that_are_not_numbers(times, marks, field):
    """A time or mark that is not a number is a ProcessError naming its field, not numpy's bare error."""
    with pytest.raises(ProcessError, match=f"^{field} must be numbers"):
        EventStream(1.0, times, [True], marks)


@pytest.mark.parametrize(
    "times, marks, field",
    [
        ([True, 1.5], [1.0, 1.0], "times"),
        ([1.0, 1.5], [1.0, False], "marks"),
        ([np.True_, 1.5], [1.0, 1.0], "times"),
        (np.array([True, True]), [1.0, 1.0], "times"),
        ([1.0, 1.5], np.array([1.0, True], dtype=object), "marks"),
        ([[True], [1.5]], [1.0, 1.0], "times"),
    ],
)
def test_stream_refuses_bools_as_times_and_marks(times, marks, field):
    """numpy would cast a bool to 0.0 or 1.0; as a time or a mark it is a ProcessError naming the field."""
    with pytest.raises(ProcessError, match=f"^{field} must be numbers, not bools"):
        EventStream(2.0, times, [True, False], marks)


@pytest.mark.parametrize("birth", [["a"], [object()], [""], [None], [2], [-1], [1.0], [True, None]])
def test_stream_refuses_birth_flags_that_are_not_bools(birth):
    """numpy would take any object's truth value; only bools and the integers 0 and 1 are flags."""
    with pytest.raises(ProcessError, match="^birth must be"):
        EventStream(5.0, [1.0, 2.0][: len(birth)], birth, [0.5, 0.5][: len(birth)])


@pytest.mark.parametrize("birth", [[True, False], [np.True_, np.False_], [1, 0], np.array([1, 0], dtype=np.uint8)])
def test_stream_takes_bools_and_the_integers_0_and_1_as_birth_flags(birth):
    stream = EventStream(5.0, [1.0, 2.0], birth, [0.5, 0.5])
    assert stream.birth.dtype == bool and stream.birth.tolist() == [True, False]


def test_a_mark_past_the_float_range_is_refused():
    """Weibull shape 0.001 sends every unit exponential above about 2 past the float range."""
    params = ModelParams(1.0, 1.0, Weibull(0.001, 1.0), Exponential(1.0))
    with pytest.raises(ProcessError, match="finite"):
        generate_stream(params, 50.0, replication_rng(1))


def test_events_view_reads_the_arrays():
    events = [Event(time=1.0, kind="birth", mark=1.5), Event(time=2.0, kind="extinction", mark=0.5)]
    stream = _stream(events, horizon=3.0)
    assert len(stream.events) == 2
    assert list(stream.events) == events
    assert stream.events[-1] == events[-1]
    assert stream.birth.tolist() == [True, False]
    with pytest.raises(ValueError):
        stream.marks[0] = 2.0  # the checked arrays are read-only


def _pad(streams):
    """The streams as one padded block, whose padding would change every result if it were read."""
    shape = (len(streams), max(len(s) for s in streams) + 2)
    times, marks = np.full(shape, math.nan), np.full(shape, 1e300)
    # Every row pads at least one birth and one extinction.
    birth = np.broadcast_to(np.arange(shape[1]) % 2 == 0, shape).copy()
    valid = np.zeros(shape, dtype=bool)
    for r, s in enumerate(streams):
        k = len(s)
        times[r, :k], birth[r, :k], marks[r, :k], valid[r, :k] = s.times, s.birth, s.marks, True
    return times, birth, marks, valid


def _check_block_kernels(streams, horizon):
    times, birth, marks, valid = _pad(streams)
    assert count_alive_rows(birth, marks, valid).tolist() == [count_alive(s) for s in streams]
    last = last_empty_rows(times, birth, marks, valid, horizon).tolist()
    assert last == [last_empty_time(evolve(Configuration(), s)) for s in streams]
    return last


def test_block_kernels_match_the_one_window_path():
    """Rows with no events, rows that end empty and tied marks, padded into one block."""
    horizon = 20.0
    quiet = ModelParams(0.2, 3.0, Exponential(1.0), Exponential(1.0))
    streams = [
        generate_stream(params, horizon, replication_rng(31, i))
        for i, params in enumerate([PARAMS, PARAMS.swapped(), quiet, quiet, PARAMS])
    ]
    tied = [(1.0, "birth", 2.0), (2.0, "extinction", 2.0), (3.0, "birth", 1.0), (4.0, "extinction", 2.0),
            (5.0, "extinction", 2.5), (6.0, "birth", 1.0), (7.0, "extinction", 1.0)]
    streams += [
        _stream([], horizon),
        _stream([Event(t, kind, mark) for t, kind, mark in tied], horizon),
        _stream([Event(t, kind, mark) for t, kind, mark in tied[:5]], horizon),
    ]
    last = _check_block_kernels(streams, horizon)
    assert last[-3:] == [horizon, 6.0, horizon]
    assert last.count(horizon) > 3  # the quiet windows end empty too


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans(), st.integers(0, 3)), max_size=20),
        min_size=1,
        max_size=6,
    )
)
def test_block_kernels_on_marks_that_tie(rows):
    """Marks on four levels, so thresholds often equal a living fitness, which survives."""
    horizon = 21.0
    streams = []
    for events in rows:
        times = np.cumsum([gap for gap, _, _ in events])
        birth = [is_birth for _, is_birth, _ in events]
        streams.append(EventStream(horizon, times, birth, [float(m) for _, _, m in events]))
    _check_block_kernels(streams, horizon)


def test_generate_block_layout():
    """Counts first, then row chunks padded to their longest row; valid times lie in the window."""
    chunks = list(generate_block(PARAMS, 200.0, replication_rng(32), 300))
    counts = replication_rng(32).poisson(400.0, 300)
    assert len(chunks) > 1 and sum(valid.shape[0] for *_, valid in chunks) == 300
    assert np.concatenate([valid.sum(axis=1) for *_, valid in chunks]).tolist() == counts.tolist()
    for times, birth, marks, valid in chunks:
        assert valid.size <= 1 << 15 and valid[:, -1].any()
        assert np.all((times[valid] > 0.0) & (times[valid] <= 200.0)) and np.all(marks[valid] >= 0.0)
    untimed = generate_block(PARAMS, 200.0, replication_rng(32), 300, with_times=False)
    assert all(times is None for times, *_ in untimed)


def test_generate_block_refuses_tied_times():
    class TiedTimes:
        """Every uniform is 0, so every event lands on the horizon."""

        poisson = replication_rng(33).poisson
        standard_exponential = replication_rng(33).standard_exponential

        def random(self, shape):
            return np.zeros(shape)

    with pytest.raises(ProcessError, match="strictly increasing"):
        list(generate_block(PARAMS, 5.0, TiedTimes(), 4))


class _BadCellDraws:
    """Rows of 0, 2 and 2 events, every uniform 0 (every time on the horizon, every event a birth) and every hazard 1."""

    def poisson(self, lam, size):
        return np.array([0, 2, 2])

    def random(self, shape):
        return np.zeros(shape)

    def standard_exponential(self, shape):
        return np.ones(shape)


@pytest.mark.parametrize(
    "times, mark",
    [([5.0, 5.0], 1.0), ([5.0], -1.0), ([5.0], math.inf), ([5.0], math.nan)],
    ids=["tied times", "mark -1", "mark inf", "mark nan"],
)
def test_streams_and_blocks_refuse_bad_cells_alike(times, mark, monkeypatch):
    """EventStream and generate_block check their cells through one routine: one message, the block's naming its row."""
    with pytest.raises(ProcessError) as stream_error:
        EventStream(5.0, times, [True] * len(times), [mark] * len(times))
    monkeypatch.setattr(Exponential, "inverse_hazard_array", lambda self, h: np.full(h.shape, mark))
    with pytest.raises(ProcessError) as block_error:
        list(generate_block(PARAMS, 5.0, _BadCellDraws(), 3))
    assert str(block_error.value) == f"{stream_error.value} in row 1"


def test_generate_stream_is_a_one_row_block():
    """simulate and the forward tasks draw through one path: the same seed gives the same window."""
    stream = generate_stream(PARAMS, 300.0, replication_rng(34))
    [(times, birth, marks, valid)] = generate_block(PARAMS, 300.0, replication_rng(34), 1)
    assert valid.all() and len(stream) == valid.size > 0
    assert stream.times.tolist() == times[0].tolist() and stream.marks.tolist() == marks[0].tolist()
    assert stream.birth.tolist() == birth[0].tolist()


def test_block_kernels_on_windows_without_events():
    """A chunk whose rows all hold no event has no columns; every row ends empty."""
    none = np.empty((3, 0))
    never = np.empty((3, 0), dtype=bool)
    assert count_alive_rows(never, none, never).tolist() == [0, 0, 0]
    assert last_empty_rows(none, never, none, never, 5.0).tolist() == [5.0, 5.0, 5.0]


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.sampled_from([-math.inf, 0.0, 1.0, 2.0]), max_size=40),
    queries=st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.0, 1.0, 2.0, 0.5])), max_size=20),
)
def test_first_above_matches_a_scan(levels, queries):
    """Thresholds on four levels, so a value often equals one (and is not exceeded by it)."""
    thresholds = np.array(levels, dtype=np.float64)
    n = thresholds.size
    starts = [min(s, n) for s, _ in queries]
    values = [v for _, v in queries]
    want = [next((j for j in range(s, n) if levels[j] > v), n) for s, v in zip(starts, values)]
    assert first_above(thresholds, np.array(starts, dtype=np.int64), np.array(values)).tolist() == want


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 16, 33])
def test_first_above_at_table_edges(n):
    """Sizes that are and are not powers of two; queries from every start, the end included."""
    thresholds = np.arange(n, dtype=np.float64)[::-1].copy()
    thresholds[::3] = -math.inf
    starts = np.repeat(np.arange(n + 1), 3)
    values = np.tile([-1.0, n / 2, float(n)], n + 1)
    want = [next((j for j in range(s, n) if thresholds[j] > v), n) for s, v in zip(starts, values)]
    assert first_above(thresholds, starts, values).tolist() == want


def _tied_stream(seed, size):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 1.0, size))
    return EventStream(float(times[-1]) + 1.0 if size else 1.0, times, rng.random(size) < 0.5,
                       rng.integers(0, 4, size).astype(float))


@pytest.mark.parametrize("segment", [1, 2, 3, 7])
def test_evolve_carries_survivors_across_segments(segment):
    """Survivors pass from segment to segment; configuration_at replays the whole stream independently."""
    streams = [generate_stream(PARAMS.swapped(), 40.0, replication_rng(35, i)) for i in range(4)]
    streams += [_tied_stream(i, size) for i, size in enumerate([0, 1, 5, 23, 60])]
    initials = [(), (0.5,), (3.0, 1.0, 1.0, 2.0, 0.0)]
    with mock.patch.object(process, "SEGMENT_EVENTS", segment):
        for stream in streams:
            for initial in initials:
                _check_against_brute_force(Configuration(initial), stream)


@pytest.mark.parametrize("params", [PARAMS, PARAMS.swapped()], ids=["growing", "finite-limit"])
def test_evolve_on_a_stream_longer_than_a_segment(params):
    stream = generate_stream(params, 3000.0, replication_rng(36))
    assert len(stream) > 1.4 * process.SEGMENT_EVENTS
    _check_against_brute_force(Configuration((0.2, 1.0, 4.0)), stream)


def _one_shot_trace_csv(trace):
    stream = trace.stream
    kinds = ["birth" if b else "extinction" for b in stream.birth.tolist()]
    rows = zip(stream.times.tolist(), kinds, stream.marks.tolist(), trace.counts_after.tolist())
    return "time,kind,mark,count_after\r\n" + "".join(
        f"{t!r},{kind},{mark!r},{count}\r\n" for t, kind, mark, count in rows
    )


def test_trace_csv_slices_write_the_one_shot_rows(tmp_path):
    stream = generate_stream(PARAMS, 2500.0, replication_rng(37))
    assert len(stream) > process.SEGMENT_EVENTS
    trace = evolve(Configuration((1.0,)), stream)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == _one_shot_trace_csv(trace).encode()
    with mock.patch.object(process, "SEGMENT_EVENTS", 7):
        write_trace_csv(trace, path)
    assert path.read_bytes() == _one_shot_trace_csv(trace).encode()
    write_trace_csv(evolve(Configuration(), _stream([], horizon=1.0)), path)
    assert path.read_bytes() == b"time,kind,mark,count_after\r\n"


def test_trace_writer_makes_a_new_file_each_time(tmp_path):
    """A second write to one path leaves a hard link to the first file with the first trace's bytes."""
    path = tmp_path / "trace.csv"
    first = evolve(Configuration(), generate_stream(PARAMS, 30.0, replication_rng(38)))
    second = evolve(Configuration(), generate_stream(PARAMS, 20.0, replication_rng(39)))
    write_trace_csv(first, path)
    os.link(path, tmp_path / "first.csv")
    write_trace_csv(second, path)
    assert (tmp_path / "first.csv").read_bytes() == _one_shot_trace_csv(first).encode()
    assert path.read_bytes() == _one_shot_trace_csv(second).encode() != _one_shot_trace_csv(first).encode()
    write_trace_csv(second, path)
    assert path.read_bytes() == _one_shot_trace_csv(second).encode()


# Around the edges of the range where Ryu's notation matches repr's, and at the ends of the doubles.
FLOAT_PANEL = [
    0.0,
    -0.0,
    5e-324,
    math.nextafter(1e-4, 0.0),
    1e-4,
    math.nextafter(1e16, 0.0),
    1e16,
    2.0**53,
    sys.float_info.max,
    -1.5e-5,
    -1e16,
    0.1,
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_float_texts_are_the_reprs(values):
    assert output.float_texts(np.array(values, dtype=np.float64)) == [repr(v) for v in values]


def test_float_texts_on_a_fixed_panel():
    values = np.array(FLOAT_PANEL)
    assert output.float_texts(values) == [repr(v) for v in FLOAT_PANEL]
    strided = np.repeat(values, 2)[::2]
    assert not strided.flags.c_contiguous
    assert output.float_texts(strided) == [repr(v) for v in FLOAT_PANEL]
    assert output.float_texts(np.array([])) == []


def _one_shot_trace_json(trace):
    stream = trace.stream
    kinds = ["birth" if b else "extinction" for b in stream.birth.tolist()]
    rows = zip(stream.times.tolist(), kinds, stream.marks.tolist(), trace.counts_after.tolist())
    events = [{"time": t, "kind": kind, "mark": mark, "count_after": count} for t, kind, mark, count in rows]
    return json.dumps({"events": events}, indent=2, sort_keys=True) + "\n"


def _far_stream():
    """Times from 1e14 past 1e16, marks from 0 through the subnormals to the largest double."""
    times = np.geomspace(1e14, 3e17, 40)
    marks = np.resize(np.array([abs(v) for v in FLOAT_PANEL] + [3.5e-7, 1e20]), times.size)
    return EventStream(1e18, times, np.arange(times.size) % 3 != 1, marks)


def _panel_stream():
    """FLOAT_PANEL's positive values as times, the sizes of all its values as marks."""
    times = sorted(v for v in FLOAT_PANEL if v > 0.0)
    marks = np.resize(np.abs(FLOAT_PANEL), len(times))
    return EventStream(sys.float_info.max, times, np.arange(len(times)) % 2 == 0, marks)


@pytest.mark.parametrize("segment", [process.SEGMENT_EVENTS, 7])
def test_trace_csv_keeps_repr_outside_the_ryu_range(tmp_path, segment):
    """Marks below 1e-4 and times past 1e16 write the one-shot repr rows, in whole and in slices."""
    tiny = ModelParams(1.0, 1.0, Exponential(3e4), Exponential(2.0))
    traces = [
        evolve(Configuration((2e-5,)), generate_stream(tiny, 500.0, replication_rng(38))),
        evolve(Configuration((1e-300, 1e300)), _far_stream()),
        evolve(Configuration((2e-5,)), _panel_stream()),
    ]
    assert (traces[0].stream.marks < 1e-4).any() and (traces[1].stream.times > 1e16).any()
    path = tmp_path / "trace.csv"
    with mock.patch.object(process, "SEGMENT_EVENTS", segment):
        for trace in traces:
            write_trace_csv(trace, path)
            assert path.read_bytes() == _one_shot_trace_csv(trace).encode()


@pytest.mark.parametrize("segment", [process.SEGMENT_EVENTS, 7])
def test_trace_json_writes_the_json_dumps_bytes(tmp_path, segment):
    """trace.json is json.dumps(indent=2, sort_keys=True) of the rows: in slices, empty, and at the float edges."""
    tiny = ModelParams(1.0, 1.0, Exponential(3e4), Exponential(2.0))
    traces = [
        evolve(Configuration((1.0,)), generate_stream(PARAMS, 2500.0, replication_rng(37))),
        evolve(Configuration(), _stream([], horizon=1.0)),
        evolve(Configuration((0.5,)), _tied_stream(3, 14)),  # two whole segments of 7
        evolve(Configuration((2e-5,)), generate_stream(tiny, 500.0, replication_rng(38))),
        evolve(Configuration((1e-300, 1e300)), _far_stream()),
        evolve(Configuration((2e-5,)), _panel_stream()),
    ]
    assert len(traces[0].stream) > process.SEGMENT_EVENTS
    path = tmp_path / "trace.json"
    with mock.patch.object(process, "SEGMENT_EVENTS", segment):
        for trace in traces:
            write_trace_json(trace, path)
            assert path.read_bytes() == _one_shot_trace_json(trace).encode()
    assert _one_shot_trace_json(traces[1]) == '{\n  "events": []\n}\n'
