"""Forward simulation of the birth/threshold-extinction process on arrays.

Species arrive in a Poisson stream and carry i.i.d. fitness marks;
extinction events arrive in an independent Poisson stream and carry
i.i.d. threshold marks.  An extinction with threshold y removes every
species whose fitness is strictly below y (a fitness equal to y
survives).  Both streams are generated jointly from one superposed
clock, as a struct of arrays (times, birth flags, marks) drawn for the
whole window at once.  Both are time-homogeneous, so every window is
(0, horizon]: a window (s, s + T] is (0, T] with every time shifted by s.

A species born at s with fitness x is alive at t exactly when x is at
least every threshold in (s, t], so the count at the horizon is read
off the backward running maximum of the thresholds (``count_alive``).
The count after every event comes from each species' killer, the
first later extinction with a threshold strictly above its fitness,
found for all species at once by binary lifting on a range-maximum
table of the thresholds (``evolve``).  It runs over
segments of SEGMENT_EVENTS events, each handing its survivors to the
next, so the table's size does not grow with the horizon.
``PathTrace.configuration_at`` rebuilds a configuration by an
independent sorted-list replay, against which the tests check it.

The forward Monte Carlo tasks draw many windows at once as padded 2-D
blocks (``generate_block``) and read each row's count at the horizon
(``count_alive_rows``) or last empty time (``last_empty_rows``) without
building a stream or a replay.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .distributions import DistributionError, ModelParams, _as_float, _read_numeric_csv
from .output import Layout, float_texts, number_texts, write_rows

BIRTH = "birth"
EXTINCTION = "extinction"


# Largest expected event count, (lambda_b + lambda_e) * horizon, of a
# window that generate_block accepts.  Drawing and evolving a stream
# takes about 70 bytes an event at its peak, so about 1.2 GB at the budget;
# a longer window is refused before anything is drawn, not at allocation.
MAX_WINDOW_EVENTS = 1 << 24

# Cells (row, event) in one chunk of a block of windows: 256 kB per float array.
BLOCK_CHUNK_CELLS = 1 << 15

# Events in one segment of evolve and of the trace writers: a
# segment's killer table is 13 levels of 4097 floats, about 430 kB.
SEGMENT_EVENTS = 1 << 12


class ProcessError(ValueError):
    """Malformed events, streams, or out-of-window queries."""


def _real(value, name: str) -> float:
    """value as a float; a non-number or NaN is refused as a ProcessError with _as_float's message."""
    try:
        return _as_float(value, name)
    except DistributionError as exc:
        raise ProcessError(str(exc)) from None


@dataclass(frozen=True)
class Event:
    """One timestamped birth (fitness mark) or extinction (threshold mark).

    Only the brute-force oracles and hand-made test streams work event
    by event; the simulator itself keeps the stream as arrays.
    """

    time: float
    kind: str
    mark: float

    def __post_init__(self) -> None:
        t = _real(self.time, "time")
        if math.isinf(t):
            raise ProcessError("event time must be finite")
        if self.kind not in (BIRTH, EXTINCTION):
            raise ProcessError(f"kind must be '{BIRTH}' or '{EXTINCTION}', got {self.kind!r}")
        mark = _real(self.mark, "mark")
        if math.isinf(mark) or mark < 0.0:
            raise ProcessError(f"mark must be finite and non-negative, got {mark}")
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "mark", mark)


def _float_array(values, name: str) -> np.ndarray:
    """values as a new float64 array; entries that are not numbers, bools and text among them, are refused as a ProcessError."""
    # numpy casts a bool to 0.0 or 1.0 and parses numeric text, so a list goes through an object array that
    # keeps its entries' types; an array of another dtype holds bools or text only if its dtype is of that kind.
    try:
        if not isinstance(values, np.ndarray) or values.dtype == object:
            values = np.array(values, dtype=object)
        array = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProcessError(f"{name} must be numbers: {exc}") from None
    if values.dtype.kind in "bSU" or (
        values.dtype == object and any(isinstance(v, (bool, np.bool_, str, bytes)) for v in values.flat)
    ):
        raise ProcessError(f"{name} must be numbers, not bools or text")
    return array


def _flag_array(values, name: str) -> np.ndarray:
    """values as a new bool array; entries other than bools and the integers 0 and 1 are a ProcessError."""
    try:
        flags = np.array(values)
    except (TypeError, ValueError) as exc:
        raise ProcessError(f"{name} must be bools: {exc}") from None
    # An empty list arrives as float64; numpy takes any object's truth value, so only bool and 0/1 pass.
    flag_like = flags.dtype == bool or (flags.dtype.kind in "iu" and ((flags == 0) | (flags == 1)).all())
    if flags.size and not flag_like:
        raise ProcessError(f"{name} must be bools or the integers 0 and 1, got {flags.dtype} entries")
    return flags.astype(bool, copy=False)


def _horizon(horizon) -> float:
    horizon = _real(horizon, "horizon")
    if not 0.0 <= horizon < math.inf:
        raise ProcessError(f"horizon must be finite and >= 0, got {horizon}")
    return horizon


def _check_events(times: Optional[np.ndarray], marks: np.ndarray, valid: np.ndarray, first_row=None) -> None:
    """Refuse the first valid cell of padded rows whose time or mark is bad, naming its event.

    Times (None for rows drawn without them) must strictly increase
    from 0, and marks must be finite and >= 0.  NaN fails every
    comparison, so it is refused with the ties and the negative marks.
    A block's rows pass first_row, the block row of their row 0, and the
    message also names the cell's block row; a stream's one row passes
    None.
    """
    bad = ~((marks >= 0.0) & (marks < np.inf))
    if times is not None:
        bad |= ~(np.diff(times, axis=1, prepend=0.0) > 0.0)
    bad &= valid
    if not bad.any():
        return
    r, i = np.argwhere(bad)[0].tolist()
    where = f"at event {i}" if first_row is None else f"at event {i} in row {first_row + r}"
    if times is not None:
        prev = times[r, i - 1] if i else 0.0
        if not times[r, i] > prev:
            raise ProcessError(f"event times must be strictly increasing from 0; got {times[r, i]} after {prev} {where}")
    raise ProcessError(f"marks must be finite and non-negative; got {marks[r, i]} {where}")


class EventStream:
    """Time-ordered events on the window (0, horizon], as three arrays.

    ``times`` (float64, strictly increasing inside the window), ``birth``
    (bool: a birth, else an extinction) and ``marks`` (float64, finite
    and >= 0: the fitness of a birth, the threshold of an extinction).
    The arrays are checked once, here, and made read-only.
    """

    def __init__(self, horizon, times, birth, marks) -> None:
        self.horizon = _horizon(horizon)
        times = _float_array(times, "times")
        birth = _flag_array(birth, "birth")
        marks = _float_array(marks, "marks")
        if not times.ndim == birth.ndim == marks.ndim == 1 or not times.size == birth.size == marks.size:
            raise ProcessError("times, birth and marks must be 1-d arrays of one length")
        _check_events(times[None], marks[None], np.ones((1, times.size), dtype=bool))
        if times.size and not times[-1] <= self.horizon:
            raise ProcessError(f"event at {times[-1]} beyond the window horizon {self.horizon}")
        for a in (times, birth, marks):
            a.flags.writeable = False
        self.times, self.birth, self.marks = times, birth, marks

    @classmethod
    def from_events(cls, horizon, events: Iterable[Event]) -> "EventStream":
        events = tuple(events)
        if not all(isinstance(ev, Event) for ev in events):
            raise ProcessError("stream entries must be Event instances")
        return cls(
            horizon,
            [ev.time for ev in events],
            [ev.kind == BIRTH for ev in events],
            [ev.mark for ev in events],
        )

    @property
    def events(self) -> "EventView":
        return EventView(self)

    def __len__(self) -> int:
        return int(self.times.size)


class EventView(Sequence):
    """The stream as a sequence of Event objects, built one at a time on access."""

    def __init__(self, stream: EventStream) -> None:
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream)

    def __getitem__(self, i: int) -> Event:
        s = self._stream
        return Event(float(s.times[i]), BIRTH if s.birth[i] else EXTINCTION, float(s.marks[i]))

    def __iter__(self) -> Iterator[Event]:
        s = self._stream
        for t, is_birth, mark in zip(s.times.tolist(), s.birth.tolist(), s.marks.tolist()):
            yield Event(t, BIRTH if is_birth else EXTINCTION, mark)


def generate_block(
    params: ModelParams,
    horizon: float,
    rng: np.random.Generator,
    rows: int,
    with_times: bool = True,
) -> Iterator[tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]]:
    """Draw `rows` independent windows (0, horizon] as padded 2-D arrays.

    The two Poisson streams are superposed: each row holds a Poisson
    number of events at the total rate, placed at sorted uniform times,
    then a Bernoulli split by rate proportion decides each kind, and
    each mark is the inverse cumulative hazard of a unit exponential
    under its kind's law (both laws map every draw, which is cheaper
    than splitting the draws by kind).  The Poisson event counts of all
    rows come first; then consecutive rows go in chunks of at most
    BLOCK_CHUNK_CELLS (row, event) cells, each padded to its longest
    row.  Yields (times, birth, marks, valid) per chunk, where ``valid``
    marks the cells that hold an event and times is None without
    ``with_times``.  A window expecting more than MAX_WINDOW_EVENTS
    events is refused before anything is drawn.  Every chunk's valid
    cells are checked as EventStream checks its one row: a mark that is
    not finite or is below 0, or times that do not strictly increase,
    raise ProcessError naming the row.
    """
    horizon = _horizon(horizon)
    total = params.lambda_birth + params.lambda_extinct
    expected = total * horizon
    if expected > MAX_WINDOW_EVENTS:
        raise ProcessError(
            f"the window expects {expected:g} events, past the event budget of {MAX_WINDOW_EVENTS} "
            f"per window (MAX_WINDOW_EVENTS); shorten the window or lower the rates"
        )
    counts = rng.poisson(expected, rows)
    return _block_chunks(params, horizon, rng, counts, with_times)


def _block_chunks(params, horizon, rng, counts, with_times):
    # Apart from generate_block, so that its checks and counts run at the call, not at the first chunk.
    share = params.lambda_birth / (params.lambda_birth + params.lambda_extinct)
    per_chunk = max(BLOCK_CHUNK_CELLS // max(int(counts.max(initial=0)), 1), 1)
    for lo in range(0, counts.size, per_chunk):
        n = counts[lo : lo + per_chunk]
        valid = np.arange(n.max(initial=0)) < n[:, None]
        times = None
        if with_times:
            times = horizon * (1.0 - rng.random(valid.shape))
            times = np.sort(np.where(valid, times, np.inf), axis=1)  # padding sorts to the end of its row
            np.minimum(times, horizon, out=times)
        birth = rng.random(valid.shape) < share
        hazards = rng.standard_exponential(valid.shape)
        marks = np.where(
            birth,
            params.fitness_dist.inverse_hazard_array(hazards),
            params.threshold_dist.inverse_hazard_array(hazards),
        )
        _check_events(times, marks, valid, lo)
        yield times, birth, marks, valid


def generate_stream(params: ModelParams, horizon: float, rng: np.random.Generator) -> EventStream:
    """Draw the joint event stream on (0, horizon]: a one-row generate_block."""
    [(times, birth, marks, _)] = generate_block(params, horizon, rng, 1)
    return EventStream(horizon, times[0], birth[0], marks[0])


def count_alive(stream: EventStream, initial: Iterable[float] = ()) -> int:
    """Species alive at the horizon, without a replay.

    The window's births are counted as a one-row block by
    count_alive_rows; an initial species is alive exactly when its
    fitness is at least the largest threshold of the window.  The
    initial values are checked as evolve checks them, by Configuration.
    """
    if not isinstance(initial, Configuration):
        initial = Configuration(values=tuple(initial))
    birth, marks = stream.birth[None], stream.marks[None]
    alive = int(count_alive_rows(birth, marks, np.ones(birth.shape, dtype=bool))[0])
    top = stream.marks[~stream.birth].max(initial=-np.inf)
    return alive + sum(1 for v in initial if v >= top)


def _alive_at_horizon(birth: np.ndarray, marks: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mask of the births of a padded block alive at the horizon, from an empty start.

    Each birth against the suffix maximum of the later thresholds.
    """
    thresholds = np.where(valid & ~birth, marks, -np.inf)
    later = np.maximum.accumulate(thresholds[:, ::-1], axis=1)[:, ::-1]
    return valid & birth & (marks >= later)


def count_alive_rows(birth: np.ndarray, marks: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """count_alive of every row of a padded block, from an empty start.

    Cells outside ``valid`` are ignored.
    """
    return np.count_nonzero(_alive_at_horizon(birth, marks, valid), axis=1)


def last_empty_rows(
    times: np.ndarray, birth: np.ndarray, marks: np.ndarray, valid: np.ndarray, horizon: float
) -> np.ndarray:
    """last_empty_time of every row of a padded block, from an empty start.

    A row with no birth alive at the horizon ends empty: its last empty
    time is the horizon.  Otherwise the first such birth stays alive to
    the horizon, so the row is never empty after it, and one pass over
    the row's events up to it keeps ``top``, the largest living fitness,
    or -inf while the configuration is empty: a birth x raises it to
    max(top, x), and an extinction y > top empties the configuration (a
    fitness equal to y survives, so while top >= y the maximum does).
    The last empty time is that of the last birth finding the
    configuration empty.  Cells outside ``valid`` are ignored.
    """
    alive = _alive_at_horizon(birth, marks, valid)
    # The cells of a row with a survivor that have no survivor before them.
    scan = valid & alive.any(axis=1, keepdims=True) & (np.cumsum(alive, axis=1) - alive == 0)
    # A Python pass per row over plain float lists: a lockstep pass over
    # the columns pays several numpy calls per column, and long windows
    # leave one row per chunk.
    ts, births, ms = times[scan].tolist(), birth[scan].tolist(), marks[scan].tolist()
    out = []
    end = 0
    for n in np.count_nonzero(scan, axis=1).tolist():
        lo, end = end, end + n
        top, last = -math.inf, horizon
        for t, is_birth, mark in zip(ts[lo:end], births[lo:end], ms[lo:end]):
            if is_birth:
                if top == -math.inf:
                    last = t
                if mark > top:
                    top = mark
            elif mark > top:
                top = -math.inf
        out.append(last)
    return np.array(out, dtype=np.float64)


@dataclass(frozen=True)
class Configuration:
    """Ordered multiset of living fitness values."""

    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vals = []
        for v in self.values:
            v = _real(v, "fitness")
            if math.isinf(v) or v < 0.0:
                raise ProcessError(f"fitness values must be finite and >= 0, got {v}")
            vals.append(v)
        object.__setattr__(self, "values", tuple(sorted(vals)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)


@dataclass(frozen=True, eq=False)
class PathTrace:
    """Evolution of a configuration along one event stream.

    Only the post-event population sizes are stored, as a read-only
    int64 array; a configuration is rebuilt on demand by replaying the
    events up to its time.
    """

    stream: EventStream
    initial: Configuration
    counts_after: np.ndarray

    def configuration_at(self, t: float) -> Configuration:
        """Configuration immediately after the last event at or before t."""
        stream = self.stream
        k = int(np.searchsorted(stream.times, _query_time(stream, t), side="right"))
        species = list(self.initial.values)
        for is_birth, mark in zip(stream.birth[:k].tolist(), stream.marks[:k].tolist()):
            if is_birth:
                insort(species, mark)
            else:
                del species[: bisect_left(species, mark)]
        return Configuration(values=tuple(species))


def first_above(thresholds: np.ndarray, starts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each query i, the first j >= starts[i] with thresholds[j] > values[i], else len(thresholds).

    Binary lifting on a range-maximum table: level l holds the maximum
    of every run of 2**l consecutive thresholds (+inf where the run
    passes the end), and each query, from the top level down, jumps a
    run when no threshold in it exceeds its value.  The starts lie in
    [0, len(thresholds)].
    """
    n = thresholds.size
    pos = np.array(starts, dtype=np.int64)
    if n == 0:
        return pos
    top = n.bit_length() - 1
    table = np.full((top + 1, n + 1), np.inf)
    table[0, :n] = thresholds
    for level in range(1, top + 1):
        half = 1 << (level - 1)
        below = table[level - 1]
        np.maximum(below[: n + 1 - half], below[half:], out=table[level, : n + 1 - half])
    for level in range(top, -1, -1):
        pos += (table[level][pos] <= values) << level
    return pos


def evolve(initial: Configuration, stream: EventStream) -> PathTrace:
    """Apply every event of the stream to the initial configuration.

    Every species, initial or born, dies at its killer: the first later
    extinction whose threshold is strictly above its fitness
    (``first_above``).  The count after each event is the number alive
    at the start, plus the births, minus the deaths so far.  The stream
    goes in segments of SEGMENT_EVENTS events, each handing its
    survivors' fitness values to the next as its initial configuration,
    so the killer table stays the same size at any horizon.
    """
    if not isinstance(initial, Configuration):
        initial = Configuration(values=tuple(initial))
    n = len(stream)
    counts = np.empty(n, dtype=np.int64)
    alive = np.array(initial.values, dtype=np.float64)
    for lo in range(0, n, SEGMENT_EVENTS):
        birth, marks = stream.birth[lo : lo + SEGMENT_EVENTS], stream.marks[lo : lo + SEGMENT_EVENTS]
        m = birth.size
        born = np.flatnonzero(birth)
        fitness = np.concatenate([alive, marks[born]])
        starts = np.concatenate([np.zeros(alive.size, dtype=np.int64), born + 1])
        killers = first_above(np.where(birth, -np.inf, marks), starts, fitness)
        deaths = np.bincount(killers, minlength=m + 1)[:m]
        counts[lo : lo + m] = alive.size + np.cumsum(birth - deaths)
        alive = fitness[killers == m]
    counts.flags.writeable = False
    return PathTrace(stream=stream, initial=initial, counts_after=counts)


def _query_time(stream: EventStream, t) -> float:
    t = _real(t, "t")
    if not 0.0 <= t <= stream.horizon:
        raise ProcessError(f"t={t} outside window [0.0, {stream.horizon}]")
    return t


def species_count_at(trace: PathTrace, t: float) -> int:
    """Population size immediately after the last event at or before t."""
    idx = int(np.searchsorted(trace.stream.times, _query_time(trace.stream, t), side="right")) - 1
    if idx < 0:
        return len(trace.initial)
    return int(trace.counts_after[idx])


def last_empty_time(trace: PathTrace) -> Optional[float]:
    """Supremum of times in the window with an empty configuration.

    The horizon if the configuration ends empty.  Otherwise an empty
    stretch runs from an emptying extinction (or from 0) up to the next
    birth, right-open, so the supremum is the time of the last birth
    that finds the configuration empty; None if no birth does.
    """
    stream, counts = trace.stream, trace.counts_after
    before = np.concatenate(([len(trace.initial)], counts))
    if before[-1] == 0:
        return stream.horizon
    found = np.flatnonzero(stream.birth & (before[:-1] == 0))
    return float(stream.times[found[-1]]) if found.size else None


# The fields of a trace row, as they stand in a trace layout's row.
_TIME, _KIND, _MARK, _COUNT = range(4)

# Each trace format's layout and the texts of the kind field, for an
# extinction and for a birth, with the constant text on both sides of it
# folded in.  csv: the rows csv.writer would write, no field needing
# quoting.  json: json.dumps({"events": [...]}, indent=2, sort_keys=True)
# + "\n", with each event's keys in sorted order: count_after, kind,
# mark, time.
_TRACE_FORMATS = {
    "csv": (
        Layout(
            head="time,kind,mark,count_after\r\n",
            row=(_TIME, _KIND, _MARK, ",", _COUNT),
            sep="\r\n",
            tail="\r\n",
            empty="time,kind,mark,count_after\r\n",
        ),
        (",extinction,", ",birth,"),
    ),
    "json": (
        Layout(
            head='{\n  "events": [\n    {\n      "count_after": ',
            row=(_COUNT, _KIND, _MARK, ',\n      "time": ', _TIME),
            sep='\n    },\n    {\n      "count_after": ',
            tail="\n    }\n  ]\n}\n",
            empty='{\n  "events": []\n}\n',
        ),
        (',\n      "kind": "extinction",\n      "mark": ', ',\n      "kind": "birth",\n      "mark": '),
    ),
}


def _write_trace(trace: PathTrace, path, fmt: str) -> None:
    """The event log in one format, SEGMENT_EVENTS rows at a time (output.write_rows)."""
    layout, kind_texts = _TRACE_FORMATS[fmt]
    stream, kinds = trace.stream, np.array(kind_texts, dtype=object)

    def fields(lo: int, hi: int):
        return (
            float_texts(stream.times[lo:hi]),
            kinds[stream.birth[lo:hi].view(np.uint8)].tolist(),
            float_texts(stream.marks[lo:hi]),
            number_texts(trace.counts_after[lo:hi]),
        )

    write_rows(path, layout, len(stream), fields, SEGMENT_EVENTS)


def write_trace_csv(trace: PathTrace, path) -> None:
    """Event log as CSV columns (time, kind, mark, count_after)."""
    _write_trace(trace, path, "csv")


def write_trace_json(trace: PathTrace, path) -> None:
    """Event log as json.dumps({"events": [{count_after, kind, mark, time}, ...]}, indent=2, sort_keys=True) + "\n"."""
    _write_trace(trace, path, "json")


def read_initial_csv(path) -> Configuration:
    """Initial configuration from a one-column CSV of fitness values."""
    return Configuration(values=tuple(row[0] for row in _read_numeric_csv(path, 1, ProcessError)))
