"""Event-driven simulation of the birth/threshold-extinction process.

Species arrive in a Poisson stream and carry i.i.d. fitness marks;
extinction events arrive in an independent Poisson stream and carry
i.i.d. threshold marks.  An extinction with threshold y removes every
species whose fitness is strictly below y (a fitness equal to y
survives).  Both streams are generated jointly from one superposed
clock so a single generator drives the whole window.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .distributions import ModelParams, _as_float

BIRTH = "birth"
EXTINCTION = "extinction"


# Largest float spacing in a window, in units of the mean event gap, that
# generate_stream accepts: about one gap in a million is then too short
# for t += gap to move t.
MAX_SPACING_PER_GAP = 1e-6


class ProcessError(ValueError):
    """Malformed events, streams, or out-of-window queries."""


@dataclass(frozen=True)
class Event:
    """One timestamped birth (fitness mark) or extinction (threshold mark)."""

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


@dataclass(frozen=True)
class EventStream:
    """Time-ordered events on the window (start, horizon]."""

    start: float
    horizon: float
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        start = _as_float(self.start, "start")
        horizon = _as_float(self.horizon, "horizon")
        if math.isinf(start) or math.isinf(horizon):
            raise ProcessError("window endpoints must be finite")
        if horizon < start:
            raise ProcessError(f"horizon {horizon} precedes start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "events", tuple(self.events))
        prev = start
        for ev in self.events:
            if not isinstance(ev, Event):
                raise ProcessError("stream entries must be Event instances")
            if ev.time <= prev:
                # Simultaneous events have probability zero under the
                # continuous model; equality indicates corrupted input.
                raise ProcessError(
                    f"event times must be strictly increasing within the window; "
                    f"got {ev.time} after {prev}"
                )
            prev = ev.time
        if self.events and self.events[-1].time > horizon:
            raise ProcessError("event beyond the window horizon")

    def births(self) -> list[Event]:
        return [ev for ev in self.events if ev.kind == BIRTH]

    def extinctions(self) -> list[Event]:
        return [ev for ev in self.events if ev.kind == EXTINCTION]


def generate_stream(
    params: ModelParams,
    start: float,
    horizon: float,
    rng: np.random.Generator,
) -> EventStream:
    """Draw the joint event stream on (start, horizon].

    The two Poisson streams are superposed: one exponential clock at the
    total rate, then a Bernoulli split by rate proportion decides the
    kind, then the mark is drawn from that kind's law.  A window so far
    from 0 that the float spacing there is not small against the mean
    gap is refused before anything is drawn, since its event times
    would tie.
    """
    start = _as_float(start, "start")
    horizon = _as_float(horizon, "horizon")
    if math.isinf(start) or math.isinf(horizon):
        raise ProcessError("window endpoints must be finite")
    if horizon < start:
        raise ProcessError(f"horizon {horizon} precedes start {start}")
    total = params.lambda_birth + params.lambda_extinct
    spacing = math.ulp(max(abs(start), abs(horizon)))
    if spacing * total > MAX_SPACING_PER_GAP:
        raise ProcessError(
            f"float resolution {spacing:g} at t={max(abs(start), abs(horizon)):g} is too coarse for "
            f"a mean event gap of {1.0 / total:g}: event times would tie; move the window toward 0"
        )
    p_birth = params.lambda_birth / total
    scale = 1.0 / total
    events: list[Event] = []
    t = start
    while True:
        t += rng.exponential(scale)
        if t > horizon:
            break
        if rng.random() < p_birth:
            events.append(Event(time=t, kind=BIRTH, mark=params.fitness_dist.sample(rng)))
        else:
            events.append(Event(time=t, kind=EXTINCTION, mark=params.threshold_dist.sample(rng)))
    return EventStream(start=start, horizon=horizon, events=tuple(events))


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

    @property
    def is_empty(self) -> bool:
        return not self.values

    def min(self) -> float:
        if not self.values:
            raise ProcessError("empty configuration has no minimum")
        return self.values[0]

    def max(self) -> float:
        if not self.values:
            raise ProcessError("empty configuration has no maximum")
        return self.values[-1]


def _apply_event(species: list[float], ev: Event) -> None:
    if ev.kind == BIRTH:
        insort(species, ev.mark)
    else:
        cut = bisect_left(species, ev.mark)
        if cut:
            del species[:cut]


@dataclass(frozen=True)
class PathTrace:
    """Evolution of a configuration along one event stream.

    Snapshots are reconstructed on demand by replaying the event deltas;
    only the post-event population sizes and the empty intervals are
    stored eagerly.
    """

    stream: EventStream
    initial: Configuration
    counts_after: tuple[int, ...]
    empty_intervals: tuple[tuple[float, float], ...]

    def configuration_at(self, t: float) -> Configuration:
        """Configuration immediately after the last event at or before t."""
        t = _as_float(t, "t")
        if not self.stream.start <= t <= self.stream.horizon:
            raise ProcessError(f"t={t} outside window [{self.stream.start}, {self.stream.horizon}]")
        species = list(self.initial.values)
        for ev in self.stream.events:
            if ev.time > t:
                break
            _apply_event(species, ev)
        return Configuration(values=tuple(species))


def evolve(initial: Configuration, stream: EventStream) -> PathTrace:
    """Apply every event of the stream to the initial configuration."""
    if not isinstance(initial, Configuration):
        initial = Configuration(values=tuple(initial))
    species = list(initial.values)
    counts: list[int] = []
    empties: list[tuple[float, float]] = []
    open_at: Optional[float] = stream.start if not species else None
    for ev in stream.events:
        if ev.kind == BIRTH:
            if open_at is not None:
                empties.append((open_at, ev.time))
                open_at = None
            insort(species, ev.mark)
        else:
            if species:
                cut = bisect_left(species, ev.mark)
                if cut:
                    del species[:cut]
                if not species:
                    open_at = ev.time
        counts.append(len(species))
    if open_at is not None:
        empties.append((open_at, stream.horizon))
    return PathTrace(
        stream=stream,
        initial=initial,
        counts_after=tuple(counts),
        empty_intervals=tuple(empties),
    )


def species_count_at(trace: PathTrace, t: float) -> int:
    """Population size immediately after the last event at or before t."""
    t = _as_float(t, "t")
    stream = trace.stream
    if not stream.start <= t <= stream.horizon:
        raise ProcessError(f"t={t} outside window [{stream.start}, {stream.horizon}]")
    times = [ev.time for ev in stream.events]
    idx = bisect_right(times, t) - 1
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


def write_trace_csv(trace: PathTrace, path) -> None:
    """Event log as CSV columns (time, kind, mark, count_after)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "kind", "mark", "count_after"])
        for ev, count in zip(trace.stream.events, trace.counts_after):
            writer.writerow([repr(ev.time), ev.kind, repr(ev.mark), count])


def write_snapshots_csv(trace: PathTrace, times: Iterable[float], path) -> None:
    """Sampled configurations as CSV columns (time, count, min_fitness, max_fitness)."""
    rows = []
    for t in times:
        config = trace.configuration_at(t)
        if config.is_empty:
            rows.append([repr(float(t)), 0, "", ""])
        else:
            rows.append([repr(float(t)), len(config), repr(config.min()), repr(config.max())])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "count", "min_fitness", "max_fitness"])
        writer.writerows(rows)


def read_initial_csv(path) -> Configuration:
    """Initial configuration from a one-column CSV of fitness values."""
    values: list[float] = []
    with open(path, newline="") as handle:
        for lineno, rec in enumerate(csv.reader(handle)):
            if not rec or all(not cell.strip() for cell in rec):
                continue
            try:
                values.append(float(rec[0]))
            except ValueError:
                if lineno == 0:
                    continue
                raise ProcessError(f"{path}: line {lineno + 1} is not numeric") from None
    return Configuration(values=tuple(values))
