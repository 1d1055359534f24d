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
and sample_ladder_blocks walks several blocks of ladders in lockstep with
numpy, each block on its own generator and in the draw order it would
take alone.  sample_ladder_block is that walk with one block, and the
one-ladder samplers are a block of one row.  The threshold ladder is the
fitness ladder of params.swapped(), walked after one look-back gap
(sample_first_gaps) drawn from the same generator.  A walk draws and
computes each chunk of steps in place, in five float arrays that each
thread keeps from walk to walk, so a warm walk takes no fresh pages.

Ladders are infinite objects; one fixed rule (MAX_STEPS, TAIL_TOLERANCE)
truncates them once a bound on the remaining mass is negligible.  With
C(h) = H_opp(H^-1(h)) the composition of the two hazards, the expected
mass past record k is (opposing rate / event rate) times the integral of
exp(s - C(s)) over s > h_k.  Where C is convex from h_{k-1} on, its
secant slope over the last step bounds every later slope, so that mass
is at most (opposing rate / event rate) * exp(d_k) * E_k / (d_{k-1} - d_k)
with d = h - C(h); every built-in pair is linear or convex past its last
kink, or divergent.  The divergent pairs, whose concave C could meet the
bound falsely, never reach the walk: sample_ladder_blocks reads
criteria.exact_verdict first and stops every row of such a pair as
"divergent".  Only a ladder stopped by the bound counts as finite: one
cut at MAX_STEPS or by float overflow reports the "effectively infinite"
sentinel rather than a silently truncated number.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .criteria import VERDICT_INFINITE, exact_verdict, hazard_breaks
from .distributions import ModelParams

EFFECTIVELY_INFINITE = math.inf

STOP_MAX_STEPS = "max_steps"
STOP_TAIL_BOUND = "tail_bound"  # the mass died out: the only finite stop
STOP_OVERFLOW = "overflow"
STOP_DIVERGENT = "divergent"  # no ladder was walked: exact_verdict declares the mass divergent
STOP_REASONS = (STOP_TAIL_BOUND, STOP_MAX_STEPS, STOP_OVERFLOW, STOP_DIVERGENT)

# Round k of a walk takes min(FIRST_CHUNK * 2^k, CHUNK_CELLS // rows) steps
# per row in every block, so a chunk of one block of `rows` rows holds at
# most CHUNK_CELLS (row, step) cells (128 rows: 64 steps), and k blocks
# walked together hold at most k * CHUNK_CELLS cells per array.
FIRST_CHUNK = 32
CHUNK_CELLS = 8192

# Ladder blocks the Monte Carlo tasks walk together.  Each thread keeps the
# five float arrays of a walk's chunk between walks, grown on demand up to
# LADDER_GROUP * CHUNK_CELLS cells each (2.6 MB for all five), so no round
# pays fresh pages; a larger chunk gets arrays of its own.
LADDER_GROUP = 8
_WORKSPACE_CELLS = LADDER_GROUP * CHUNK_CELLS
_workspace = threading.local()

# The truncation rule of every ladder.  A walk stops at step k when k
# reaches MAX_STEPS, or when the secant bound on the expected remaining
# mass falls below TAIL_TOLERANCE with record k - 1 at or past the last kink.
MAX_STEPS = 10_000
TAIL_TOLERANCE = 1e-9

# Smallest Poisson mean drawn from the normal approximation.
POISSON_NORMAL_FROM = 1e18

# Most species one limit configuration may hold: the species are drawn one
# by one, so a larger configuration is refused before any is drawn.  The
# same budget as the forward route's process.MAX_WINDOW_EVENTS.
MAX_SPECIES = 1 << 24


class LadderError(ValueError):
    """Invalid ladder structure or sampler arguments."""


def stop_rule_json() -> dict:
    """The truncation rule, as plans record it next to their samples."""
    return {"max_steps": MAX_STEPS, "tail_tolerance": TAIL_TOLERANCE}


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

    tail_bound bounds the expected mass remaining past the last record
    of a ladder stopped by it, None for every other stop ("unknown").
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


@dataclass(frozen=True)
class LadderBlock:
    """Ladders walked in lockstep, one row per replication.

    depth[i] counts the kept steps of row i, stop_code[i] says why the
    row ended (an index into STOP_REASONS, named by stop_reason), mass[i]
    sums the opposing-stream masses of its kept steps and tail[i] is the
    secant tail bound at its last record (nan unless the row stopped by
    it).  steps holds each row's (value, gap, mass) arrays when they were
    kept.
    """

    depth: np.ndarray
    stop_code: np.ndarray
    mass: np.ndarray
    tail: np.ndarray
    steps: Optional[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = None

    @property
    def stop_reason(self) -> np.ndarray:
        return _REASON_NAMES[self.stop_code]

    @property
    def finite(self) -> np.ndarray:
        """Rows whose mass died out; every other row is a sentinel."""
        return self.stop_code == _TAIL_CODE

    def ladder_steps(self, row: int) -> tuple[LadderStep, ...]:
        values, gaps, masses = self.steps[row]
        return tuple(LadderStep(*step) for step in zip(values.tolist(), gaps.tolist(), masses.tolist()))

    def tail_bound(self, row: int) -> Optional[float]:
        tail = float(self.tail[row])
        return None if math.isnan(tail) else tail


# Stop reasons as the walk records them: int8 indices into STOP_REASONS.
_TAIL_CODE, _MAX_STEPS_CODE, _OVERFLOW_CODE, _DIVERGENT_CODE = range(len(STOP_REASONS))
_REASON_NAMES = np.array(STOP_REASONS)  # "<U10", the width of the longest name


def _chunk_arrays(rows: int, c: int) -> np.ndarray:
    """Five (rows, c) float arrays, uninitialised: this thread's kept workspace, or fresh past its cap."""
    cells = rows * c
    if cells > _WORKSPACE_CELLS:
        return np.empty((5, rows, c))
    kept = getattr(_workspace, "arrays", None)
    if kept is None or kept.shape[1] < cells:
        kept = _workspace.arrays = np.empty((5, cells))
    return kept[:, :cells].reshape(5, rows, c)


def _walk_blocks(
    params: ModelParams,
    rngs: Sequence[np.random.Generator],
    rows: int,
    keep_steps: bool,
) -> LadderBlock:
    """Walk `rows` record ladders of params' fitness law per generator, in cumulative-hazard space.

    The marks are params.fitness_dist at rate lambda_birth and the
    opposing stream params.threshold_dist at rate lambda_extinct (the
    threshold ladder walks params.swapped()).  Block b, rows b * rows to
    (b + 1) * rows - 1, draws from rngs[b] alone.  Round k takes c =
    min(FIRST_CHUNK * 2^k, CHUNK_CELLS // rows, MAX_STEPS - steps walked)
    steps per row in every block, a width set by k and `rows` alone.  Each
    block draws, for its rows still walking, unit exponentials (hazard
    increments), then G (gap factors), each call written into the chunk's
    arrays: the stream one (2, rows, c) call would give.  The chunk's
    arrays are this thread's kept workspace (_chunk_arrays), so kept steps
    are copied out of it.  The row's hazards h_k are
    the running sums of the increments, its records H^-1(h_k), d_k = h_k -
    H_opp(record_k) (d before the first record is -H_opp(H^-1(0))) and its
    step masses (opp_rate/mark_rate) * G * exp(d_k), taken in log form so
    that no inf - inf or 0 * inf can arise.  The blocks' draws stack along
    the row axis and share one pass of the arithmetic, which is elementwise
    or per row, so no row depends on the blocks walking beside it.  A row
    stops at the first step that meets one of these tests, in this order
    of precedence: the record overflows (the step is not kept), the mass
    is inf, the tail bound (opp_rate/mark_rate) * exp(d_k) * E_k / (d_{k-1}
    - d_k) with E_k = h_k - h_{k-1} is below TAIL_TOLERANCE and h_{k-1} is
    at or past the last kink of hazard_breaks(params), or the step is the
    MAX_STEPS-th.  Multiplied through by G the bound test reads E_k * mass
    < TAIL_TOLERANCE * (d_{k-1} - d_k) * G, so it takes no exp or log of
    its own; a NaN there (d = -inf on both sides: no mass is left) meets it.
    """
    mark_dist, opp_dist, mark_rate = params.fitness_dist, params.threshold_dist, params.lambda_birth
    log_ratio = math.log(params.lambda_extinct) - math.log(mark_rate)
    h_kink = max(hazard_breaks(params), default=0.0)
    d_start = -float(opp_dist.hazard_transform_array(mark_dist.inverse_hazard_array(np.float64(0.0))))
    blocks = len(rngs)
    total = blocks * rows
    depth = np.zeros(total, dtype=np.int64)
    code = np.full(total, _MAX_STEPS_CODE, dtype=np.int8)
    mass = np.zeros(total)
    tail = np.full(total, math.nan)
    kept: list[list] = [[] for _ in range(total)] if keep_steps else []
    active = np.arange(total)  # rows still walking, in block order, with their last h and d so far
    h = np.zeros(total)
    d = np.full(total, d_start)
    walked, width, most = 0, FIRST_CHUNK, max(CHUNK_CELLS // rows, 1)
    while active.size and walked < MAX_STEPS:
        c = min(width, most, MAX_STEPS - walked)
        walked += c
        width *= 2
        # Each block draws its walking rows' chunk from its own generator, stacked in block order.
        hs, g, level, drop, m = _chunk_arrays(active.size, c)
        o = 0
        for b, n in enumerate(np.bincount(active // rows, minlength=blocks).tolist()):
            if n:
                rngs[b].standard_exponential(out=hs[o : o + n])
                rngs[b].standard_exponential(out=g[o : o + n])
                o += n
        # In-place updates below keep the chunk's working set to the five arrays
        # hs, g, level, m and drop: m holds d, then the mass; drop holds H_opp,
        # then d_{k-1} - d_k, then the bound test's right side; g holds G, then
        # log G, then the test's left side.  Flat passes pair each row's end
        # with the next row's start, and column 0 is then set from the carry.
        hs[:, 0] += h
        np.cumsum(hs, axis=1, out=hs)
        mark_dist.inverse_hazard_array(hs, out=level)
        opp_dist.hazard_transform_array(level, out=drop)
        np.subtract(hs, drop, out=m)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.subtract(m.reshape(-1)[:-1], m.reshape(-1)[1:], out=drop.reshape(-1)[1:])
            np.subtract(d, m[:, 0], out=drop[:, 0])
            d = m[:, -1].copy()
            drop *= g
            drop *= TAIL_TOLERANCE
            m += np.log(g, out=g)
            m += log_ratio
            np.exp(m, out=m)
            if keep_steps:
                gap = np.exp(g + hs - math.log(mark_rate))
            np.subtract(hs.reshape(-1)[1:], hs.reshape(-1)[:-1], out=g.reshape(-1)[1:])  # E = h_k - h_{k-1}
            np.subtract(hs[:, 0], h, out=g[:, 0])
            g *= m
        stop = np.greater_equal(g, drop)
        np.logical_not(stop, out=stop)
        if h_kink > 0.0:  # the secant bounds later slopes only where C is convex from h_{k-1} on
            stop[:, 0] &= h >= h_kink
            stop[:, 1:] &= hs[:, :-1] >= h_kink
        stop |= np.isinf(level)
        stop |= np.isinf(m)
        first = stop.argmax(axis=1)
        row = np.arange(first.size)
        hit = stop[row, first]
        take = np.where(hit, first, c)  # steps kept in this chunk
        hits = np.flatnonzero(hit)
        if hits.size:
            # Precedence only where a row stops: the tail bound is overwritten by the overflow tests.
            at = hits, first[hits]
            record_overflow = np.isinf(level[at])
            bounded = ~(record_overflow | np.isinf(m[at]))
            take[hits] += ~record_overflow
            code[active[hits]] = np.where(bounded, _TAIL_CODE, _OVERFLOW_CODE)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = np.where(g[at] > 0.0, TAIL_TOLERANCE * g[at] / drop[at], 0.0)
            tail[active[hits]] = np.where(bounded, bound, math.nan)
        np.copyto(m, 0.0, where=np.arange(c) >= take[:, None])  # the steps past the stop carry no mass
        with np.errstate(over="ignore"):
            mass[active] += m.sum(axis=1)
        depth[active] += take
        if keep_steps:  # the next chunk overwrites level and m
            level_kept, m_kept = level.copy(), m.copy()
            for i, r in enumerate(active.tolist()):
                kept[r].append((level_kept[i, : take[i]], gap[i, : take[i]], m_kept[i, : take[i]]))
        going = ~hit
        active, h, d = active[going], hs[going, -1], d[going]
    steps = None
    if keep_steps:
        steps = tuple(
            tuple(np.concatenate([piece[j] for piece in pieces]) for j in range(3)) for pieces in kept
        )
    return LadderBlock(depth=depth, stop_code=code, mass=mass, tail=tail, steps=steps)


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


def sample_ladder_blocks(
    params: ModelParams,
    rngs: Sequence[np.random.Generator],
    rows: int,
    keep_steps: bool = False,
) -> LadderBlock:
    """Draw `rows` independent fitness ladders from each generator, all blocks walked together.

    Each ladder carries the extinction stream's mass; the threshold ladder
    is this walk of params.swapped().  Rows b * rows to (b + 1) * rows - 1
    depend only on rngs[b] and `rows`: they are
    sample_ladder_block(params, rngs[b], rows, ...) bit for bit, whatever
    other blocks walk beside them.  Where exact_verdict declares the mass
    infinite nothing is drawn: every row stops as "divergent" with depth 0,
    mass 0 and tail nan (and empty steps when kept).
    """
    if exact_verdict(params) != VERDICT_INFINITE:
        return _walk_blocks(params, rngs, rows, keep_steps)
    total = len(rngs) * rows
    empty = np.empty(0)
    return LadderBlock(
        depth=np.zeros(total, dtype=np.int64),
        stop_code=np.full(total, _DIVERGENT_CODE, dtype=np.int8),
        mass=np.zeros(total),
        tail=np.full(total, math.nan),
        steps=((empty, empty, empty),) * total if keep_steps else None,
    )


def sample_ladder_block(
    params: ModelParams,
    rng: np.random.Generator,
    rows: int,
    keep_steps: bool = False,
) -> LadderBlock:
    """Draw `rows` independent ladders from one generator: sample_ladder_blocks with one block.

    Results depend only on the generator and `rows`, never on how many
    rows a caller then reads.
    """
    return sample_ladder_blocks(params, [rng], rows, keep_steps)


def _one_ladder(cls, block: LadderBlock, **extra):
    """Row 0 of a block walked with its steps kept, as a FitnessLadder or ThresholdLadder."""
    return cls(
        steps=block.ladder_steps(0),
        truncated_at=int(block.depth[0]),
        tail_bound=block.tail_bound(0),
        stop_reason=str(block.stop_reason[0]),
        **extra,
    )


def sample_fitness_ladder(params: ModelParams, rng: np.random.Generator) -> FitnessLadder:
    """Draw the forward fitness-record ladder: a block of one row, steps kept.

    Records climb the fitness law's cumulative hazard by unit
    exponentials; each gap is exponential at rate lambda_birth * fitness
    survival at the record.
    """
    return _one_ladder(FitnessLadder, sample_ladder_block(params, rng, 1, keep_steps=True))


def sample_threshold_ladder(params: ModelParams, rng: np.random.Generator) -> ThresholdLadder:
    """Draw the backward threshold-record ladder: one look-back gap, then a one-row walk of params.swapped().

    The look-back gap to the most recent extinction is exponential at
    the extinction rate; records then mirror the fitness ladder with the
    roles of the two streams exchanged.
    """
    gap = float(sample_first_gaps(params, rng, 1)[0])
    return _one_ladder(ThresholdLadder, sample_ladder_block(params.swapped(), rng, 1, keep_steps=True), first_gap=gap)


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

    Only a ladder whose mass died out (stopped by the tail bound) is
    finite; one cut at MAX_STEPS or by float overflow is not, so no
    finite result is ever a truncation artefact.
    """
    return stop_reason != STOP_TAIL_BOUND


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
    one, is refused before anything is drawn; bands whose Poisson counts
    sum past MAX_SPECIES are refused after the counts, before any species.
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
    total = sum(counts.tolist())
    if total > MAX_SPECIES:
        raise LadderError(
            f"the configuration has {total} species, past the species budget of {MAX_SPECIES} "
            "(MAX_SPECIES); lower the birth rate or raise the extinction rate"
        )
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
    """One draw of the long-run configuration, in sample_threshold_ladder's draw order.

    Returns EFFECTIVELY_INFINITE when the birth mass over the sampled
    ladder did not die out (infinite limit-count regime) or the band-0
    mass lambda_birth * first_gap is past the float range, as run does.
    """
    gap = float(sample_first_gaps(params, rng, 1)[0])
    block = sample_ladder_block(params.swapped(), rng, 1, keep_steps=True)
    if not (block.finite[0] and math.isfinite(params.lambda_birth * gap)):
        return EFFECTIVELY_INFINITE
    return populate_limit_config(_one_ladder(ThresholdLadder, block, first_gap=gap), params, rng)

