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
is H^-1(h_k) with h_k = h_{k-1} - log U.  The waiting gap at a record is
G * e^h / (event rate) with G a unit exponential, and the opposing
stream's mass over that gap is (opposing rate / event rate) * G *
exp(h - H_opp(record)), which stays finite and exact where the survival
values themselves would underflow.

Ladders are infinite objects; a StopRule truncates them once the
remaining mass is negligible.  Only a ladder whose mass died out counts
as finite: one cut at max_steps or by float overflow reports the
"effectively infinite" sentinel rather than a silently truncated number.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .distributions import DistributionSpec, Exponential, ModelParams, _exp

EFFECTIVELY_INFINITE = math.inf

STOP_MAX_STEPS = "max_steps"
STOP_TAIL_BOUND = "tail_bound"
STOP_QUIET = "quiet"
STOP_OVERFLOW = "overflow"


class LadderError(ValueError):
    """Invalid ladder structure or sampler arguments."""


@dataclass(frozen=True)
class StopRule:
    """Truncation policy for ladder generation.

    Generation stops at step k when k reaches max_steps, when an analytic
    bound on the expected remaining mass (available for exponential
    pairs) falls below tail_tolerance, or when the last quiet_window
    per-step masses are each below tail_tolerance / quiet_window.
    """

    max_steps: int = 10_000
    tail_tolerance: float = 1e-9
    quiet_window: int = 20

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise LadderError("max_steps must be at least 1")
        if not 0.0 < self.tail_tolerance < math.inf:
            raise LadderError("tail_tolerance must be positive and finite")
        if self.quiet_window < 1:
            raise LadderError("quiet_window must be at least 1")

    def to_json(self) -> dict:
        return {
            "max_steps": self.max_steps,
            "tail_tolerance": self.tail_tolerance,
            "quiet_window": self.quiet_window,
        }


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

    def to_json(self) -> dict:
        return {"n0": self.n0, "n_above": self.n_above, "total": self.total}


def _exponential_tail_bound(
    mark_dist: DistributionSpec,
    opp_dist: DistributionSpec,
    mark_rate: float,
    opp_rate: float,
) -> Optional[Callable[[float], float]]:
    """Expected remaining mass past a record, for an exponential pair.

    Past a record at level x the future records sit at x plus a sum of
    exponential increments, so the expected remaining mass telescopes to
    a geometric series: (opp_rate/mark_rate) * exp(-(b-a)x) * a/(b-a)
    with a the mark rate parameter and b the opposing one.  Only
    meaningful when b > a (otherwise the series diverges).
    """
    if not (isinstance(mark_dist, Exponential) and isinstance(opp_dist, Exponential)):
        return None
    a, b = mark_dist.rate, opp_dist.rate
    if b <= a:
        return None
    delta = b - a
    coef = (opp_rate / mark_rate) * (a / delta)

    def bound(level: float) -> float:
        return coef * math.exp(-delta * level)

    return bound


def _sample_ladder_core(
    mark_dist: DistributionSpec,
    mark_rate: float,
    opp_dist: DistributionSpec,
    opp_rate: float,
    stop: StopRule,
    rng: np.random.Generator,
) -> tuple[list[LadderStep], Optional[float], str]:
    """Shared record-ladder sampler for both mark roles, walking the cumulative hazard h."""
    tail_fn = _exponential_tail_bound(mark_dist, opp_dist, mark_rate, opp_rate)
    quiet_cap = stop.tail_tolerance / stop.quiet_window
    ratio = opp_rate / mark_rate
    steps: list[LadderStep] = []
    tail: Optional[float] = None
    quiet = 0
    h, level = 0.0, -math.inf
    while True:
        h, level = mark_dist.record_above(h, level, rng)
        if math.isinf(level):
            return steps, None, STOP_OVERFLOW
        g = rng.standard_exponential()
        mass = ratio * g * _exp(h - opp_dist.hazard_transform(level))
        steps.append(LadderStep(value=level, gap=g * _exp(h) / mark_rate, mass=mass))
        if math.isinf(mass):
            return steps, None, STOP_OVERFLOW
        if tail_fn is not None:
            tail = tail_fn(level)
            if tail < stop.tail_tolerance:
                return steps, tail, STOP_TAIL_BOUND
        quiet = quiet + 1 if mass < quiet_cap else 0
        if quiet >= stop.quiet_window:
            return steps, tail, STOP_QUIET
        if len(steps) >= stop.max_steps:
            return steps, tail, STOP_MAX_STEPS


def sample_fitness_ladder(
    params: ModelParams, stop: StopRule, rng: np.random.Generator
) -> FitnessLadder:
    """Draw the forward fitness-record ladder.

    First record from the fitness law; each next record conditioned
    above the last; each gap exponential at rate
    lambda_birth * fitness survival at the record.
    """
    steps, tail, reason = _sample_ladder_core(
        params.fitness_dist,
        params.lambda_birth,
        params.threshold_dist,
        params.lambda_extinct,
        stop,
        rng,
    )
    return FitnessLadder(
        steps=tuple(steps), truncated_at=len(steps), tail_bound=tail, stop_reason=reason
    )


def sample_first_gap(params: ModelParams, rng: np.random.Generator) -> float:
    """Look-back time to the most recent extinction: exponential at the extinction rate."""
    first_gap = float(rng.exponential(1.0 / params.lambda_extinct))
    while first_gap <= 0.0:
        first_gap = float(rng.exponential(1.0 / params.lambda_extinct))
    return first_gap


def sample_threshold_ladder(
    params: ModelParams, stop: StopRule, rng: np.random.Generator
) -> ThresholdLadder:
    """Draw the backward threshold-record ladder.

    The look-back gap to the most recent extinction is exponential at
    the extinction rate; records then mirror the fitness ladder with the
    roles of the two streams exchanged.
    """
    first_gap = sample_first_gap(params, rng)
    steps, tail, reason = _sample_ladder_core(
        params.threshold_dist,
        params.lambda_extinct,
        params.fitness_dist,
        params.lambda_birth,
        stop,
        rng,
    )
    return ThresholdLadder(
        steps=tuple(steps),
        first_gap=first_gap,
        truncated_at=len(steps),
        tail_bound=tail,
        stop_reason=reason,
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
    finite; one cut at max_steps or by float overflow is not, so no
    finite result is ever a truncation artefact.
    """
    return stop_reason not in (STOP_TAIL_BOUND, STOP_QUIET)


def sample_extinction_count(ladder: FitnessLadder, rng: np.random.Generator) -> Union[int, float]:
    """Number of extinction marks landing above the fitness ladder.

    Conditionally on the ladder the count is Poisson with mean equal to
    the ladder's extinction mass, drawn as one Poisson count per step.
    Returns EFFECTIVELY_INFINITE when the ladder's mass did not die out.
    """
    if masses_effectively_infinite(ladder.stop_reason):
        return EFFECTIVELY_INFINITE
    return int(rng.poisson(np.array([step.mass for step in ladder.steps])).sum())


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
    band k carries draws conditioned above record k.
    """
    fit = params.fitness_dist
    counts = rng.poisson(np.array(birth_mass(ladder, params).per_step))
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
    params: ModelParams, stop: StopRule, rng: np.random.Generator
) -> Union[LimitConfigSample, float]:
    """One draw of the long-run configuration.

    Returns EFFECTIVELY_INFINITE when the birth mass over the sampled
    ladder did not die out (infinite limit-count regime).
    """
    ladder = sample_threshold_ladder(params, stop, rng)
    if masses_effectively_infinite(ladder.stop_reason):
        return EFFECTIVELY_INFINITE
    return populate_limit_config(ladder, params, rng)


def write_ladder_csv(ladder, path) -> None:
    """Ladder steps as CSV columns (k, record_value, gap, per_step_mass)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "record_value", "gap", "per_step_mass"])
        for k, step in enumerate(ladder.steps, start=1):
            writer.writerow([k, repr(step.value), repr(step.gap), repr(step.mass)])
