"""Forward simulation of the birth/threshold-extinction process on arrays.

Species arrive in a Poisson stream and carry i.i.d. fitness marks;
extinction events arrive in an independent Poisson stream and carry
i.i.d. threshold marks.  An extinction with threshold y removes every
species whose fitness is strictly below y (a fitness equal to y
survives).  Both streams are generated jointly from one superposed
clock, as a struct of arrays (times, birth flags, marks) drawn for the
whole window at once.

A species born at s with fitness x is alive at t exactly when x is at
least every threshold in (s, t], so the count at the horizon is read
off the backward running maximum of the thresholds (``count_alive``).
The count after every event and the empty intervals come from one
replay over plain float lists (``evolve``).

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

from .distributions import ModelParams, _as_float, _read_numeric_csv

BIRTH = "birth"
EXTINCTION = "extinction"


# Largest float spacing in a window, in units of the mean event gap, that
# generate_stream accepts: about one gap in a million is then too short
# to separate two event times.
MAX_SPACING_PER_GAP = 1e-6

# Cells (row, event) in one chunk of a block of windows: 256 kB per float array.
BLOCK_CHUNK_CELLS = 1 << 15


class ProcessError(ValueError):
    """Malformed events, streams, or out-of-window queries."""


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
        t = _as_float(self.time, "time")
        if math.isinf(t):
            raise ProcessError("event time must be finite")
        if self.kind not in (BIRTH, EXTINCTION):
            raise ProcessError(f"kind must be '{BIRTH}' or '{EXTINCTION}', got {self.kind!r}")
        mark = _as_float(self.mark, "mark")
        if math.isinf(mark) or mark < 0.0:
            raise ProcessError(f"mark must be finite and non-negative, got {mark}")
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "mark", mark)


def _window(start, horizon) -> tuple[float, float]:
    start = _as_float(start, "start")
    horizon = _as_float(horizon, "horizon")
    if math.isinf(start) or math.isinf(horizon):
        raise ProcessError("window endpoints must be finite")
    if horizon < start:
        raise ProcessError(f"horizon {horizon} precedes start {start}")
    return start, horizon


class EventStream:
    """Time-ordered events on the window (start, horizon], as three arrays.

    ``times`` (float64, strictly increasing inside the window), ``birth``
    (bool: a birth, else an extinction) and ``marks`` (float64, finite
    and >= 0: the fitness of a birth, the threshold of an extinction).
    The arrays are checked once, here, and made read-only.
    """

    def __init__(self, start, horizon, times, birth, marks) -> None:
        self.start, self.horizon = _window(start, horizon)
        times = np.array(times, dtype=np.float64)
        birth = np.array(birth, dtype=bool)
        marks = np.array(marks, dtype=np.float64)
        if not times.ndim == birth.ndim == marks.ndim == 1 or not times.size == birth.size == marks.size:
            raise ProcessError("times, birth and marks must be 1-d arrays of one length")
        # NaN fails every comparison, so it is refused with the ties and the negative marks.
        if times.size and not (
            times[0] > self.start and times[-1] <= self.horizon and (times[1:] > times[:-1]).all()
        ):
            steps = np.diff(times, prepend=self.start)
            if (steps > 0.0).all():
                raise ProcessError(f"event at {times[-1]} beyond the window horizon {self.horizon}")
            i = int(np.flatnonzero(~(steps > 0.0))[0])
            prev = self.start if i == 0 else times[i - 1]
            raise ProcessError(
                f"event times must be strictly increasing within the window; got {times[i]} after {prev}"
            )
        ok = (marks >= 0.0) & (marks < np.inf)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise ProcessError(f"mark {marks[i]} at time {times[i]}: marks must be finite and non-negative")
        for a in (times, birth, marks):
            a.flags.writeable = False
        self.times, self.birth, self.marks = times, birth, marks

    @classmethod
    def from_events(cls, start, horizon, events: Iterable[Event]) -> "EventStream":
        events = tuple(events)
        if not all(isinstance(ev, Event) for ev in events):
            raise ProcessError("stream entries must be Event instances")
        return cls(
            start,
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


def _check_resolution(params: ModelParams, start: float, horizon: float) -> None:
    """Refuse a window so far from 0 that its event times would tie."""
    total = params.lambda_birth + params.lambda_extinct
    spacing = math.ulp(max(abs(start), abs(horizon)))
    if spacing * total > MAX_SPACING_PER_GAP:
        raise ProcessError(
            f"float resolution {spacing:g} at t={max(abs(start), abs(horizon)):g} is too coarse for "
            f"a mean event gap of {1.0 / total:g}: event times would tie; move the window toward 0"
        )


def generate_block(
    params: ModelParams,
    start: float,
    horizon: float,
    rng: np.random.Generator,
    rows: int,
    with_times: bool = True,
) -> Iterator[tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]]:
    """Draw `rows` independent windows (start, horizon] as padded 2-D arrays.

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
    ``with_times``.  A window so far from 0 that the float spacing there
    is not small against the mean gap is refused before anything is
    drawn, since its event times would tie; a mark that is not finite
    or is below 0, or times that do not strictly increase, on a valid
    cell raise ProcessError.
    """
    start, horizon = _window(start, horizon)
    _check_resolution(params, start, horizon)
    total = params.lambda_birth + params.lambda_extinct
    counts = rng.poisson(total * (horizon - start), rows)
    return _block_chunks(params, start, horizon, rng, counts, with_times)


def _block_chunks(params, start, horizon, rng, counts, with_times):
    # Apart from generate_block, so that its checks and counts run at the call, not at the first chunk.
    length = horizon - start
    share = params.lambda_birth / (params.lambda_birth + params.lambda_extinct)
    per_chunk = max(BLOCK_CHUNK_CELLS // max(int(counts.max(initial=0)), 1), 1)
    for lo in range(0, counts.size, per_chunk):
        n = counts[lo : lo + per_chunk]
        valid = np.arange(n.max(initial=0)) < n[:, None]
        times = None
        if with_times:
            times = start + length * (1.0 - rng.random(valid.shape))
            times = np.sort(np.where(valid, times, np.inf), axis=1)  # padding sorts to the end of its row
            np.minimum(times, horizon, out=times)
            steps = np.diff(times, axis=1, prepend=start)
            bad = valid & ~(steps > 0.0)
            if bad.any():
                r, i = np.argwhere(bad)[0]
                raise ProcessError(
                    f"event times must be strictly increasing within the window; "
                    f"got {times[r, i]} in row {lo + r}"
                )
        birth = rng.random(valid.shape) < share
        hazards = rng.standard_exponential(valid.shape)
        marks = np.where(
            birth,
            params.fitness_dist.inverse_hazard_array(hazards),
            params.threshold_dist.inverse_hazard_array(hazards),
        )
        bad = valid & ~((marks >= 0.0) & (marks < np.inf))
        if bad.any():
            r, i = np.argwhere(bad)[0]
            raise ProcessError(
                f"mark {marks[r, i]} in row {lo + r}: marks must be finite and non-negative"
            )
        yield times, birth, marks, valid


def generate_stream(
    params: ModelParams,
    start: float,
    horizon: float,
    rng: np.random.Generator,
) -> EventStream:
    """Draw the joint event stream on (start, horizon]: a one-row generate_block."""
    [(times, birth, marks, _)] = generate_block(params, start, horizon, rng, 1)
    return EventStream(start, horizon, times[0], birth[0], marks[0])


def count_alive(stream: EventStream, initial: Iterable[float] = ()) -> int:
    """Species alive at the horizon, without a replay.

    The window's births are counted as a one-row block by
    count_alive_rows; an initial species is alive exactly when its
    fitness is at least the largest threshold of the window.
    """
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
            v = _as_float(v, "fitness")
            if math.isinf(v) or v < 0.0:
                raise ProcessError(f"fitness values must be finite and >= 0, got {v}")
            vals.append(v)
        object.__setattr__(self, "values", tuple(sorted(vals)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)


@dataclass(frozen=True)
class PathTrace:
    """Evolution of a configuration along one event stream.

    Only the post-event population sizes and the empty intervals are
    stored; a configuration is rebuilt on demand by replaying the
    events up to its time.
    """

    stream: EventStream
    initial: Configuration
    counts_after: tuple[int, ...]
    empty_intervals: tuple[tuple[float, float], ...]

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


def evolve(initial: Configuration, stream: EventStream) -> PathTrace:
    """Apply every event of the stream to the initial configuration.

    One replay over plain float lists: a birth inserts its fitness into
    the sorted living values, an extinction cuts every value below its
    threshold off the front.
    """
    if not isinstance(initial, Configuration):
        initial = Configuration(values=tuple(initial))
    species = list(initial.values)
    counts: list[int] = []
    empties: list[tuple[float, float]] = []
    open_at: Optional[float] = stream.start if not species else None
    for t, is_birth, mark in zip(stream.times.tolist(), stream.birth.tolist(), stream.marks.tolist()):
        if is_birth:
            if open_at is not None:
                empties.append((open_at, t))
                open_at = None
            insort(species, mark)
        elif species:
            cut = bisect_left(species, mark)
            if cut:
                del species[:cut]
                if not species:
                    open_at = t
        counts.append(len(species))
    if open_at is not None:
        empties.append((open_at, stream.horizon))
    return PathTrace(
        stream=stream,
        initial=initial,
        counts_after=tuple(counts),
        empty_intervals=tuple(empties),
    )


def _query_time(stream: EventStream, t) -> float:
    t = _as_float(t, "t")
    if not stream.start <= t <= stream.horizon:
        raise ProcessError(f"t={t} outside window [{stream.start}, {stream.horizon}]")
    return t


def species_count_at(trace: PathTrace, t: float) -> int:
    """Population size immediately after the last event at or before t."""
    idx = int(np.searchsorted(trace.stream.times, _query_time(trace.stream, t), side="right")) - 1
    if idx < 0:
        return len(trace.initial)
    return trace.counts_after[idx]


def last_empty_time(trace: PathTrace) -> Optional[float]:
    """Supremum of times in the window with an empty configuration.

    Returns None when the configuration never empties.  Between an
    emptying extinction and the next birth the empty set is a
    right-open interval, so the supremum is the closing time itself.
    """
    if not trace.empty_intervals:
        return None
    return trace.empty_intervals[-1][1]


def trace_rows(trace: PathTrace) -> Iterator[tuple[float, str, float, int]]:
    """(time, kind, mark, count_after) of every event, as plain Python values."""
    stream = trace.stream
    kinds = [BIRTH if b else EXTINCTION for b in stream.birth.tolist()]
    return zip(stream.times.tolist(), kinds, stream.marks.tolist(), trace.counts_after)


def write_trace_csv(trace: PathTrace, path) -> None:
    """Event log as CSV columns (time, kind, mark, count_after)."""
    # The rows csv.writer would write (no field needs quoting), without its per-row cost.
    with open(path, "w", newline="") as handle:
        handle.write("time,kind,mark,count_after\r\n")
        handle.writelines(
            f"{t!r},{kind},{mark!r},{count}\r\n" for t, kind, mark, count in trace_rows(trace)
        )


def read_initial_csv(path) -> Configuration:
    """Initial configuration from a one-column CSV of fitness values."""
    return Configuration(values=tuple(row[0] for row in _read_numeric_csv(path, 1, ProcessError)))
