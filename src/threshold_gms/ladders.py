"""Record ladders of the two marked Poisson streams.

The running maximum of birth fitnesses climbs a ladder of record values;
extinction marks landing above the current record are the events that
wipe the whole population.  Looking backward in time from a fixed
instant, threshold marks climb an analogous ladder, and the species
alive in the long-run configuration are exactly the births that beat
every later threshold record.

Both ladders are sampled in cumulative-hazard space.  By Renyi's record
theorem (Resnick, Extreme Values, Regular Variation and Point Processes,
1987, section 4.1) the cumulative hazards h_k = H(record_k) of the mark
law are the arrival times of a unit-rate Poisson process, so each record
is H^-1(h_k) with h_k = h_{k-1} + E_k, E_k a unit exponential.  The
waiting gap at a record is G * e^h / (event rate) with G a unit
exponential, and the opposing stream's mass over that gap is
(opposing rate / event rate) * G * exp(h - H_opp(record)), which stays
finite and exact where the survival values themselves would underflow.

Every step of every ladder is therefore a running sum of exponentials,
and sample_ladder_block walks a whole block of ladders in lockstep with
numpy.  The one-ladder samplers are that block sampler run at size 1.

Ladders are infinite objects; one fixed rule (MAX_STEPS, TAIL_TOLERANCE,
QUIET_WINDOW) truncates them once the remaining mass is negligible.
Only a ladder whose mass died out counts as finite: one cut at MAX_STEPS
or by float overflow reports the "effectively infinite" sentinel rather
than a silently truncated number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import DistributionSpec, Exponential, ModelParams

EFFECTIVELY_INFINITE = math.inf

STOP_MAX_STEPS = "max_steps"
STOP_TAIL_BOUND = "tail_bound"
STOP_QUIET = "quiet"
STOP_OVERFLOW = "overflow"
STOP_REASONS = (STOP_TAIL_BOUND, STOP_QUIET, STOP_MAX_STEPS, STOP_OVERFLOW)
_FINITE_STOPS = (STOP_TAIL_BOUND, STOP_QUIET)  # the mass died out
STOP_DTYPE = "<U10"  # numpy string dtype that holds every stop reason

# A block's first chunk walks FIRST_CHUNK steps per row and each later
# chunk twice as many, capped so that one chunk holds at most CHUNK_CELLS
# (row, step) cells: 32 kB per float array, under 1 MB in all.
FIRST_CHUNK = 32
CHUNK_CELLS = 4096

# The truncation rule of every ladder.  A walk stops at step k when k
# reaches MAX_STEPS, when an analytic bound on the expected remaining mass
# (available for exponential pairs) falls below TAIL_TOLERANCE, or when the
# last QUIET_WINDOW per-step masses are each below
# TAIL_TOLERANCE / QUIET_WINDOW.
MAX_STEPS = 10_000
TAIL_TOLERANCE = 1e-9
QUIET_WINDOW = 20

# Smallest Poisson mean drawn from the normal approximation.
POISSON_NORMAL_FROM = 1e18


class LadderError(ValueError):
    """Invalid ladder structure or sampler arguments."""


def stop_rule_json() -> dict:
    """The truncation rule, as plans record it next to their samples."""
    return {"max_steps": MAX_STEPS, "tail_tolerance": TAIL_TOLERANCE, "quiet_window": QUIET_WINDOW}


@dataclass(frozen=True)
class LadderStep:
    """One record value, the waiting gap spent at it, and the opposing-stream mass over that gap.

    The gap is inf once e^h overflows (h past about 709); the mass is
    computed in hazard space and stays exact there.
    """

    value: float
    gap: float
    mass: float


def _check_steps(steps: Sequence[LadderStep]) -> tuple[LadderStep, ...]:
    steps = tuple(steps)
    prev = -math.inf
    for step in steps:
        if not isinstance(step, LadderStep):
            raise LadderError("steps must be LadderStep instances")
        if not step.value > prev:
            raise LadderError(
                f"record values must be strictly increasing; got {step.value} after {prev}"
            )
        if not step.gap >= 0.0:
            raise LadderError(f"gaps must be non-negative, got {step.gap}")
        if not step.mass >= 0.0:
            raise LadderError(f"masses must be non-negative, got {step.mass}")
        prev = step.value
    return steps


@dataclass(frozen=True)
class FitnessLadder:
    """Forward fitness-record ladder with truncation diagnostics.

    tail_bound is the expected mass remaining past the truncation point
    when an analytic bound exists, None otherwise ("unknown").
    """

    steps: tuple[LadderStep, ...]
    truncated_at: int
    tail_bound: Optional[float]
    stop_reason: str = STOP_MAX_STEPS

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _check_steps(self.steps))
        if self.truncated_at != len(self.steps):
            raise LadderError("truncated_at must equal the number of generated steps")


@dataclass(frozen=True)
class ThresholdLadder:
    """Backward threshold-record ladder.

    first_gap is the look-back time from the reference instant to the
    most recent extinction, i.e. the time width of the unrestricted
    band below the first record.
    """

    steps: tuple[LadderStep, ...]
    first_gap: float
    truncated_at: int
    tail_bound: Optional[float]
    stop_reason: str = STOP_MAX_STEPS

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _check_steps(self.steps))
        if not self.first_gap > 0.0 or math.isinf(self.first_gap):
            raise LadderError(f"first_gap must be positive and finite, got {self.first_gap}")
        if self.truncated_at != len(self.steps):
            raise LadderError("truncated_at must equal the number of generated steps")


@dataclass(frozen=True)
class LadderMass:
    """Total opposing-stream mass over a ladder, with per-step terms."""

    value: float
    per_step: tuple[float, ...]
    truncation_tail: Optional[float]


@dataclass(frozen=True)
class LimitConfigSample:
    """One draw of the long-run configuration."""

    species: tuple[float, ...]
    n0: int
    n_above: int
    total: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "species", tuple(sorted(self.species)))
        if self.total != self.n0 + self.n_above or self.total != len(self.species):
            raise LadderError("total must equal n0 + n_above and the species count")


def _exponential_tail_bound(
    mark_dist: DistributionSpec,
    opp_dist: DistributionSpec,
    mark_rate: float,
    opp_rate: float,
) -> Optional[tuple[float, float]]:
    """Expected remaining mass past a record, for an exponential pair.

    Past a record at level x the future records sit at x plus a sum of
    exponential increments, so the expected remaining mass telescopes to
    a geometric series: (opp_rate/mark_rate) * exp(-(b-a)x) * a/(b-a)
    with a the mark rate parameter and b the opposing one.  Only
    meaningful when b > a (otherwise the series diverges).  Returned as
    (log coefficient, b - a), so the bound at x is exp(log_coef - (b-a)x).
    """
    if not (isinstance(mark_dist, Exponential) and isinstance(opp_dist, Exponential)):
        return None
    a, b = mark_dist.rate, opp_dist.rate
    if b <= a:
        return None
    delta = b - a
    return math.log(opp_rate) - math.log(mark_rate) + math.log(a) - math.log(delta), delta


@dataclass(frozen=True)
class LadderBlock:
    """Ladders walked in lockstep, one row per replication.

    depth[i] counts the kept steps of row i, stop_reason[i] says why the
    row ended, mass[i] sums the opposing-stream masses of its kept steps
    and tail[i] is the analytic tail bound at its last record (nan when
    there is none, as for overflow stops).  first_gap holds the
    look-back gaps of threshold ladders (None for fitness ladders);
    steps holds each row's (value, gap, mass) arrays when they were kept.
    """

    depth: np.ndarray
    stop_reason: np.ndarray
    mass: np.ndarray
    tail: np.ndarray
    first_gap: Optional[np.ndarray] = None
    steps: Optional[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = None

    @property
    def finite(self) -> np.ndarray:
        """Rows whose mass died out; every other row is a sentinel."""
        return np.isin(self.stop_reason, _FINITE_STOPS)

    def ladder_steps(self, row: int) -> tuple[LadderStep, ...]:
        values, gaps, masses = self.steps[row]
        return tuple(LadderStep(*step) for step in zip(values.tolist(), gaps.tolist(), masses.tolist()))

    def tail_bound(self, row: int) -> Optional[float]:
        tail = float(self.tail[row])
        return None if math.isnan(tail) else tail


# Stop reasons of the four stop tests of the block walk, in order of precedence.
_TEST_REASONS = np.array([STOP_OVERFLOW, STOP_OVERFLOW, STOP_TAIL_BOUND, STOP_QUIET], dtype=STOP_DTYPE)


def _first_true(hits: np.ndarray) -> np.ndarray:
    """Per row, the column of the first True; the row width where there is none."""
    first = hits.argmax(axis=1)
    return np.where(hits[np.arange(hits.shape[0]), first], first, hits.shape[1])


def _walk_block(
    mark_dist: DistributionSpec,
    mark_rate: float,
    opp_dist: DistributionSpec,
    opp_rate: float,
    rng: np.random.Generator,
    rows: int,
    keep_steps: bool,
) -> LadderBlock:
    """Walk `rows` record ladders in cumulative-hazard space, a chunk of steps at a time.

    Each chunk draws, for every row still walking, unit exponentials E
    (hazard increments) and G (gap factors) in one call.  The row's
    hazards are h = running sum of E, its records H^-1(h) and its step
    masses (opp_rate/mark_rate) * G * exp(h - H_opp(record)), taken in log
    form so that no inf - inf or 0 * inf can arise.  A row stops at the
    first step that meets one of these tests, in this order of precedence:
    the record overflows (the step is not kept), the mass is inf, the
    tail bound falls below TAIL_TOLERANCE, QUIET_WINDOW masses in a row
    were below TAIL_TOLERANCE / QUIET_WINDOW (the run carries across
    chunks), or the step is the MAX_STEPS-th.
    """
    tail_form = _exponential_tail_bound(mark_dist, opp_dist, mark_rate, opp_rate)
    if tail_form is not None:
        # The bound exp(log_coef - delta * level) is below TAIL_TOLERANCE past this level.
        tail_level = (tail_form[0] - math.log(TAIL_TOLERANCE)) / tail_form[1]
    log_ratio = math.log(opp_rate) - math.log(mark_rate)
    quiet_cap = TAIL_TOLERANCE / QUIET_WINDOW
    depth = np.zeros(rows, dtype=np.int64)
    reason = np.full(rows, STOP_MAX_STEPS, dtype=STOP_DTYPE)
    mass = np.zeros(rows)
    last_level = np.full(rows, math.nan)
    kept: list[list] = [[] for _ in range(rows)]
    active = np.arange(rows)  # rows still walking, with their hazard and quiet run so far
    h = np.zeros(rows)
    quiet = np.zeros(rows, dtype=np.int64)
    walked = 0
    width = FIRST_CHUNK
    while active.size:
        n = active.size
        c = min(width, max(CHUNK_CELLS // n, 1), MAX_STEPS - walked)
        width *= 2
        # In-place updates below keep the chunk's working set to a few arrays.
        hs, log_g = rng.standard_exponential((2, n, c))
        hs[:, 0] += h
        np.cumsum(hs, axis=1, out=hs)
        level = mark_dist.inverse_hazard_array(hs)
        m = hs - opp_dist.hazard_transform_array(level)  # the log of the step mass, then the mass
        with np.errstate(over="ignore", divide="ignore"):
            m += np.log(log_g, out=log_g)
            m += log_ratio
            np.exp(m, out=m)
        col = np.arange(c)
        # Each step's quiet run starts after the last loud step (or carries on from the last chunk).
        run_start = np.where(m < quiet_cap, (-1 - quiet)[:, None], col)
        np.maximum.accumulate(run_start, axis=1, out=run_start)
        fired = np.stack([
            _first_true(np.isinf(level)),
            _first_true(np.isinf(m)),
            _first_true(level > tail_level) if tail_form is not None else np.full(n, c),
            _first_true(run_start <= col - QUIET_WINDOW),
        ])
        stop_at = fired.min(axis=0)
        test = fired.argmin(axis=0)  # the first test in order of precedence among those firing first
        hit = stop_at < c
        take = np.where(hit & (test != 0), stop_at + 1, stop_at)  # steps kept in this chunk
        row = np.arange(n)
        with np.errstate(over="ignore"):
            mass[active] += np.where(col < take[:, None], m, 0.0).sum(axis=1)
        depth[active] += take
        if keep_steps:
            with np.errstate(over="ignore", divide="ignore"):
                gap = np.exp(log_g + hs - math.log(mark_rate))
            for i in range(n):
                kept[active[i]].append((level[i, : take[i]], gap[i, : take[i]], m[i, : take[i]]))
        walked += c
        ended = hit | (walked >= MAX_STEPS)
        reason[active[hit]] = _TEST_REASONS[test[hit]]
        last_level[active[take > 0]] = level[row[take > 0], take[take > 0] - 1]
        active = active[~ended]
        h = hs[~ended, -1]
        quiet = c - 1 - run_start[~ended, -1]
    tail = np.full(rows, math.nan)
    if tail_form is not None:
        has_tail = reason != STOP_OVERFLOW
        with np.errstate(over="ignore"):
            tail[has_tail] = np.exp(tail_form[0] - tail_form[1] * last_level[has_tail])
    steps = None
    if keep_steps:
        steps = tuple(
            tuple(np.concatenate([piece[j] for piece in pieces]) for j in range(3)) for pieces in kept
        )
    return LadderBlock(depth=depth, stop_reason=reason, mass=mass, tail=tail, steps=steps)


def _poisson(rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
    """Poisson counts with the given means, as floats.

    numpy refuses means from about 1e19 on; rows whose mean reaches
    POISSON_NORMAL_FROM take round(normal(mean, sqrt(mean))) instead,
    whose relative error there is below 1e-9.  Only those rows draw a
    normal, so a block without them keeps its random stream.
    """
    big = mean >= POISSON_NORMAL_FROM
    if not big.any():
        return rng.poisson(mean).astype(float)
    counts = rng.poisson(np.where(big, 0.0, mean)).astype(float)
    counts[big] = np.round(rng.normal(mean[big], np.sqrt(mean[big])))
    return counts


def sample_first_gaps(params: ModelParams, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Look-back times to the most recent extinction: exponential at the extinction rate."""
    return rng.exponential(1.0 / params.lambda_extinct, rows)


def sample_ladder_block(
    params: ModelParams,
    rng: np.random.Generator,
    rows: int,
    threshold: bool = False,
    keep_steps: bool = False,
) -> LadderBlock:
    """Draw `rows` independent ladders from one generator, walked in lockstep.

    The forward fitness ladder carries the extinction stream's mass; with
    threshold=True the backward threshold ladder carries the birth
    stream's mass, and the look-back gaps are drawn first, one per row.
    Results depend only on the generator and `rows`, never on how many
    rows a caller then reads.
    """
    if threshold:
        gaps = sample_first_gaps(params, rng, rows)
        block = _walk_block(
            params.threshold_dist, params.lambda_extinct, params.fitness_dist, params.lambda_birth,
            rng, rows, keep_steps,
        )
        return replace(block, first_gap=gaps)
    return _walk_block(
        params.fitness_dist, params.lambda_birth, params.threshold_dist, params.lambda_extinct,
        rng, rows, keep_steps,
    )


def sample_fitness_ladder(params: ModelParams, rng: np.random.Generator) -> FitnessLadder:
    """Draw the forward fitness-record ladder: a block of one row, steps kept.

    Records climb the fitness law's cumulative hazard by unit
    exponentials; each gap is exponential at rate lambda_birth * fitness
    survival at the record.
    """
    block = sample_ladder_block(params, rng, 1, keep_steps=True)
    return FitnessLadder(
        steps=block.ladder_steps(0),
        truncated_at=int(block.depth[0]),
        tail_bound=block.tail_bound(0),
        stop_reason=str(block.stop_reason[0]),
    )


def sample_threshold_ladder(params: ModelParams, rng: np.random.Generator) -> ThresholdLadder:
    """Draw the backward threshold-record ladder: a block of one row, steps kept.

    The look-back gap to the most recent extinction is exponential at
    the extinction rate; records then mirror the fitness ladder with the
    roles of the two streams exchanged.
    """
    block = sample_ladder_block(params, rng, 1, threshold=True, keep_steps=True)
    return ThresholdLadder(
        steps=block.ladder_steps(0),
        first_gap=float(block.first_gap[0]),
        truncated_at=int(block.depth[0]),
        tail_bound=block.tail_bound(0),
        stop_reason=str(block.stop_reason[0]),
    )


def extinction_mass(ladder: FitnessLadder) -> LadderMass:
    """Extinction-stream mass above the fitness ladder.

    per_step[k] is the mass the sampler stored at record k,
    lambda_extinct * gap_k * threshold survival at record k; the total
    uses exact compensated summation.
    """
    per_step = tuple(step.mass for step in ladder.steps)
    return LadderMass(
        value=math.fsum(per_step), per_step=per_step, truncation_tail=ladder.tail_bound
    )


def birth_mass(ladder: ThresholdLadder, params: ModelParams) -> LadderMass:
    """Birth-stream mass over the threshold ladder, band by band.

    per_step[0] = lambda_birth * first_gap is the unrestricted band
    below the first record; per_step[k] for k >= 1 is the mass stored at
    record k, lambda_birth * gap_k * fitness survival at record k.
    """
    per_step = (params.lambda_birth * ladder.first_gap, *(step.mass for step in ladder.steps))
    return LadderMass(
        value=math.fsum(per_step), per_step=per_step, truncation_tail=ladder.tail_bound
    )


def masses_effectively_infinite(stop_reason: str) -> bool:
    """Whether a ladder's mass counts as infinite, decided by why the ladder stopped.

    Only a ladder whose mass died out (tail bound or quiet run) is
    finite; one cut at MAX_STEPS or by float overflow is not, so no
    finite result is ever a truncation artefact.
    """
    return stop_reason not in _FINITE_STOPS


def sample_extinction_count(ladder: FitnessLadder, rng: np.random.Generator) -> Union[int, float]:
    """Number of extinction marks landing above the fitness ladder.

    Conditionally on the ladder the count is Poisson with mean equal to
    the ladder's extinction mass (a sum of independent Poisson step
    counts is one Poisson count), drawn as the block tasks draw it.
    Returns EFFECTIVELY_INFINITE when the ladder's mass did not die out.
    """
    if masses_effectively_infinite(ladder.stop_reason):
        return EFFECTIVELY_INFINITE
    return int(_poisson(rng, np.array([extinction_mass(ladder).value]))[0])


def count_extinctions_above_records(stream) -> int:
    """Window-restricted oracle for the ladder extinction count.

    Scans the stream's births for running-maximum records, forms the
    step regions (record time to next record time, clipped at the
    horizon) x [record value, inf), and counts extinction points inside
    them.  Threshold marks equal to the record value count as inside.
    """
    from bisect import bisect_right

    record_times: list[float] = []
    record_values: list[float] = []
    best = -math.inf
    for ev in stream.events:
        if ev.kind == "birth" and ev.mark > best:
            best = ev.mark
            record_times.append(ev.time)
            record_values.append(ev.mark)
    count = 0
    for ev in stream.events:
        if ev.kind != "extinction" or not record_times or ev.time < record_times[0]:
            continue
        k = bisect_right(record_times, ev.time) - 1
        if ev.mark >= record_values[k]:
            count += 1
    return count


def populate_limit_config(
    ladder: ThresholdLadder, params: ModelParams, rng: np.random.Generator
) -> LimitConfigSample:
    """Fill the bands of a threshold ladder with Poisson species counts.

    The band below the first record carries unrestricted fitness draws;
    band k carries draws conditioned above record k.  A band whose mass
    reaches POISSON_NORMAL_FROM, far too many species to draw one by
    one, is refused before anything is drawn.
    """
    fit = params.fitness_dist
    masses = np.array(birth_mass(ladder, params).per_step)
    huge = np.flatnonzero(masses >= POISSON_NORMAL_FROM)
    if huge.size:
        band = int(huge[0])
        raise LadderError(
            f"band {band} has birth mass {masses[band]:g}, past {POISSON_NORMAL_FROM:g}: "
            "too many species to draw one by one"
        )
    counts = rng.poisson(masses)
    n0 = int(counts[0])
    species = [fit.sample(rng) for _ in range(n0)]
    n_above = 0
    for step, raw in zip(ladder.steps, counts[1:]):
        c = int(raw)
        n_above += c
        for _ in range(c):
            species.append(fit.sample_conditional_above(step.value, rng))
    return LimitConfigSample(
        species=tuple(species), n0=n0, n_above=n_above, total=n0 + n_above
    )


def sample_limit_config(
    params: ModelParams, rng: np.random.Generator
) -> Union[LimitConfigSample, float]:
    """One draw of the long-run configuration.

    Returns EFFECTIVELY_INFINITE when the birth mass over the sampled
    ladder did not die out (infinite limit-count regime).
    """
    ladder = sample_threshold_ladder(params, rng)
    if masses_effectively_infinite(ladder.stop_reason):
        return EFFECTIVELY_INFINITE
    return populate_limit_config(ladder, params, rng)

