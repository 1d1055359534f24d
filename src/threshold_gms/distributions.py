"""Fitness and threshold laws on [support_lower, inf).

Each law exposes its survival function, the inverse survival function
(inf-convention generalized inverse), the cumulative hazard
``-log(survival)`` and its closed-form inverse.  Every draw is taken in
cumulative-hazard space: the hazard of a draw is a unit exponential,
and so is its excess hazard above any level, so no survival value can
underflow.

The cumulative hazard and its inverse also come in array forms
(``hazard_transform_array``, ``inverse_hazard_array``) for the block
ladder sampler: they check nothing per element and return inf where the
float range overflows.  Given ``out``, an array of the argument's shape,
they write the same values there, by the same operations in the same
order, and return it.  The scalar forms check their argument once and
call them.
"""

from __future__ import annotations

import csv
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DistributionError(ValueError):
    """Invalid parameters, malformed input, or out-of-domain arguments."""


def _as_float(value, name: str) -> float:
    """value as a float; bools and text, which float() would take, are refused with non-numbers and NaN."""
    # An exact float skips the isinstance test, which costs more than the conversion.
    if type(value) is not float and isinstance(value, (bool, np.bool_, str, bytes)):
        raise DistributionError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise DistributionError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(x):
        raise DistributionError(f"{name} must not be NaN")
    return x


def _encode_float(v):
    """A float for JSON output: None or NaN -> null, +-inf -> "inf"."""
    if v is None or math.isnan(v):
        return None
    if math.isinf(v):
        return "inf"
    return v


def _read_numeric_csv(path, columns: int, error: type) -> list[tuple[float, ...]]:
    """The first `columns` cells of every row of a numeric CSV file, as floats.

    Blank rows are skipped, and a non-numeric first row is treated as a
    header; a row with fewer cells, or a later non-numeric row, raises
    error.
    """
    rows: list[tuple[float, ...]] = []
    with open(path, newline="") as handle:
        for lineno, rec in enumerate(csv.reader(handle)):
            if not rec or all(not cell.strip() for cell in rec):
                continue
            if len(rec) < columns:
                raise error(f"{path}: line {lineno + 1} needs {columns} columns")
            try:
                rows.append(tuple(float(cell) for cell in rec[:columns]))
            except ValueError:
                if lineno == 0:
                    continue
                raise error(f"{path}: line {lineno + 1} is not numeric") from None
    return rows


def _check_level(x, lower: float) -> float:
    x = _as_float(x, "x")
    if math.isinf(x):
        raise DistributionError("x must be finite")
    if x < lower:
        raise DistributionError(f"x={x} below support lower bound {lower}")
    return x


def _pow(base: float, exponent: float) -> float:
    """Float power that returns inf instead of raising OverflowError."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _into(out, value):
    """value, copied into out when one is given: the array forms that cannot compute in place."""
    if out is None:
        return value
    np.copyto(out, value)
    return out


def _check_hazard(h) -> float:
    h = _as_float(h, "h")
    if not h >= 0.0:
        raise DistributionError(f"cumulative hazard must be non-negative, got {h}")
    return h


def _check_survival_prob(u) -> float:
    u = _as_float(u, "u")
    if not 0.0 < u <= 1.0:
        raise DistributionError(f"survival probability must lie in (0, 1], got {u}")
    return u


class DistributionSpec(ABC):
    """Continuous law with unbounded upper support and positive survival.

    Subclasses guarantee survival(support_lower) == 1 and survival(x) > 0
    for every finite x, which keeps record ladders well defined at any
    finite height.
    """

    @property
    @abstractmethod
    def support_lower(self) -> float:
        """Left edge of the support."""

    @abstractmethod
    def survival(self, x) -> float:
        """P(X > x) for x >= support_lower (clamped to 1 below it)."""

    @abstractmethod
    def inverse_survival(self, u) -> float:
        """inf{x : survival(x) <= u} for u in (0, 1]; u == 1 gives support_lower."""

    @abstractmethod
    def hazard_transform_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Cumulative hazard -log(survival(x)) of levels x >= 0 (inf allowed), unchecked; inf on overflow."""

    @abstractmethod
    def inverse_hazard_array(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Levels whose cumulative hazards are h >= 0, unchecked; inf past the float range."""

    def hazard_transform(self, x) -> float:
        """Cumulative hazard of one finite level x >= 0, in closed form; inf past the float range."""
        return float(self.hazard_transform_array(np.float64(_check_level(x, 0.0))))

    def inverse_hazard(self, h) -> float:
        """Level whose cumulative hazard is h >= 0, in closed form; inf past the float range."""
        return float(self.inverse_hazard_array(np.float64(_check_hazard(h))))

    @abstractmethod
    def hazard_density(self, x) -> float:
        """d/dx of the cumulative hazard (density / survival)."""

    def kink_levels(self) -> np.ndarray:
        """Levels where the cumulative hazard is not smooth: the support edge."""
        return np.array([self.support_lower])

    @abstractmethod
    def to_json(self) -> dict:
        """JSON-serializable description of this law."""

    def sample(self, rng: np.random.Generator) -> float:
        """One draw H^-1(E) of a unit exponential E: the cumulative hazard of a draw is Exp(1)."""
        e = rng.standard_exponential()
        value = float(self.inverse_hazard_array(np.float64(e)))
        if math.isinf(value):
            raise DistributionError(f"quantile overflow at hazard {e}")
        return value

    def sample_conditional_above(self, lower, rng: np.random.Generator) -> float:
        """Draw conditioned on strictly exceeding ``lower``, at hazard H(lower) + E.

        Above any level the excess hazard of the law is a unit
        exponential.  The redraw guards the measure-zero floating-point
        tie at ``lower``; where even one unit of hazard cannot move the
        level past ``lower`` the tie is certain, and the call raises
        instead of looping.
        """
        lower = _as_float(lower, "lower")
        h = self.hazard_transform(lower)
        while True:
            value = float(self.inverse_hazard_array(np.float64(h + rng.standard_exponential())))
            if value > lower:
                break
            if not self.inverse_hazard(h + 1.0) > lower:
                raise DistributionError(f"no level above {lower} is representable at hazard {h}")
        if math.isinf(value):
            raise DistributionError(f"draw above {lower} overflows the float range")
        return value


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    """Exponential law with the given rate."""

    rate: float

    def __post_init__(self) -> None:
        rate = _as_float(self.rate, "rate")
        if not 0.0 < rate < math.inf:
            raise DistributionError(f"rate must be positive and finite, got {rate}")
        object.__setattr__(self, "rate", rate)

    @property
    def support_lower(self) -> float:
        return 0.0

    def survival(self, x) -> float:
        x = _check_level(x, 0.0)
        return math.exp(-self.rate * x) if x > 0.0 else 1.0

    def inverse_survival(self, u) -> float:
        u = _check_survival_prob(u)
        return -math.log(u) / self.rate

    def hazard_transform_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.multiply(self.rate, x, out=out)

    def inverse_hazard_array(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.divide(h, self.rate, out=out)

    def hazard_density(self, x) -> float:
        _check_level(x, 0.0)
        return self.rate

    def to_json(self) -> dict:
        return {"family": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class Weibull(DistributionSpec):
    """Weibull law with shape k and scale s: survival(x) = exp(-(x/s)^k)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        shape = _as_float(self.shape, "shape")
        scale = _as_float(self.scale, "scale")
        if not 0.0 < shape < math.inf:
            raise DistributionError(f"shape must be positive and finite, got {shape}")
        if not 0.0 < scale < math.inf:
            raise DistributionError(f"scale must be positive and finite, got {scale}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "scale", scale)

    @property
    def support_lower(self) -> float:
        return 0.0

    def survival(self, x) -> float:
        x = _check_level(x, 0.0)
        return math.exp(-_pow(x / self.scale, self.shape)) if x > 0.0 else 1.0

    def inverse_survival(self, u) -> float:
        u = _check_survival_prob(u)
        value = self.scale * _pow(-math.log(u), 1.0 / self.shape)
        if math.isinf(value):
            raise DistributionError(f"quantile overflow at survival level {u}")
        return value

    # Powers go through the ** operator, in place where out is given: numpy
    # maps some exponents (2, 0.5, ...) to their own ufuncs there, not np.power.
    def hazard_transform_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):
            y = np.divide(x, self.scale, out=out)
            y **= self.shape
            return y

    def inverse_hazard_array(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):
            if out is None:
                y = h ** (1.0 / self.shape)
            else:
                y = _into(out, h)
                y **= 1.0 / self.shape
            return np.multiply(self.scale, y, out=out)

    def hazard_density(self, x) -> float:
        x = _check_level(x, 0.0)
        if x == 0.0:
            if self.shape < 1.0:
                raise DistributionError("hazard density diverges at 0 for shape < 1")
            return 0.0 if self.shape > 1.0 else 1.0 / self.scale
        return (self.shape / self.scale) * (x / self.scale) ** (self.shape - 1.0)

    def to_json(self) -> dict:
        return {"family": "weibull", "shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class Pareto(DistributionSpec):
    """Pareto law: survival(x) = (minimum / x)^index for x >= minimum."""

    minimum: float
    index: float

    def __post_init__(self) -> None:
        minimum = _as_float(self.minimum, "minimum")
        index = _as_float(self.index, "index")
        # minimum == 0 would force survival(x) == 0 everywhere above the
        # support edge, violating the positive-survival contract.
        if not 0.0 < minimum < math.inf:
            raise DistributionError(f"minimum must be positive and finite, got {minimum}")
        if not 0.0 < index < math.inf:
            raise DistributionError(f"index must be positive and finite, got {index}")
        object.__setattr__(self, "minimum", minimum)
        object.__setattr__(self, "index", index)

    @property
    def support_lower(self) -> float:
        return self.minimum

    def survival(self, x) -> float:
        x = _as_float(x, "x")
        if math.isinf(x):
            raise DistributionError("x must be finite")
        if x < 0.0:
            raise DistributionError(f"x must be non-negative, got {x}")
        if x <= self.minimum:
            return 1.0
        return (self.minimum / x) ** self.index

    def inverse_survival(self, u) -> float:
        u = _check_survival_prob(u)
        value = self.minimum * _pow(u, -1.0 / self.index)
        if math.isinf(value):
            raise DistributionError(f"quantile overflow at survival level {u}")
        return value

    def hazard_transform_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):
            y = np.maximum(x, self.minimum, out=out)
            y = np.divide(y, self.minimum, out=out)
            y = np.log(y, out=out)
            return np.multiply(self.index, y, out=out)

    def inverse_hazard_array(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):
            y = np.divide(h, self.index, out=out)
            y = np.exp(y, out=out)
            return np.multiply(self.minimum, y, out=out)

    def hazard_density(self, x) -> float:
        x = _as_float(x, "x")
        if math.isinf(x) or x < 0.0:
            raise DistributionError(f"x must be finite and non-negative, got {x}")
        if x <= self.minimum:
            return 0.0
        return self.index / x

    def to_json(self) -> dict:
        return {"family": "pareto", "minimum": self.minimum, "index": self.index}


@dataclass(frozen=True)
class TabulatedQuantile(DistributionSpec):
    """Law given by a monotone (survival, level) grid.

    Linear interpolation joins the grid nodes in (level, survival)
    coordinates.  Beyond the last node the survival tail is extrapolated
    log-linearly, which keeps it positive on the whole half-line; the
    extrapolation is flagged in to_json() output.  The grid must start at
    survival 1 so that survival(support_lower) == 1 holds exactly.
    """

    grid: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        try:
            pairs = [tuple(pair) for pair in self.grid]
        except TypeError:
            raise DistributionError("grid must be a sequence of (survival, level) pairs") from None
        rows = []
        for i, pair in enumerate(pairs):
            if len(pair) != 2:
                raise DistributionError(f"grid row {i} must be a (survival, level) pair")
            u = _as_float(pair[0], f"grid[{i}].survival")
            x = _as_float(pair[1], f"grid[{i}].level")
            if not 0.0 < u <= 1.0:
                raise DistributionError(f"grid survival values must lie in (0, 1], got {u}")
            if math.isinf(x) or x < 0.0:
                raise DistributionError(f"grid levels must be finite and >= 0, got {x}")
            rows.append((u, x))
        if len(rows) < 2:
            raise DistributionError("tabulated grid needs at least two rows")
        if rows[0][0] != 1.0:
            raise DistributionError("tabulated grid must start at survival 1.0")
        us = np.array([r[0] for r in rows], dtype=float)
        xs = np.array([r[1] for r in rows], dtype=float)
        if not np.all(np.diff(us) < 0.0):
            raise DistributionError("grid survival values must be strictly decreasing")
        if not np.all(np.diff(xs) > 0.0):
            raise DistributionError("grid levels must be strictly increasing")
        object.__setattr__(self, "grid", tuple(rows))
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_us", us)
        object.__setattr__(self, "_log_us", np.log(us))
        object.__setattr__(self, "_us_rev", us[::-1].copy())
        object.__setattr__(self, "_xs_rev", xs[::-1].copy())
        # Tail slope of log-survival per unit level, taken from the last segment.
        slope = (self._log_us[-1] - self._log_us[-2]) / (xs[-1] - xs[-2])
        object.__setattr__(self, "_tail_slope", float(slope))

    @property
    def support_lower(self) -> float:
        return float(self._xs[0])

    def survival(self, x) -> float:
        x = _as_float(x, "x")
        if math.isinf(x):
            raise DistributionError("x must be finite")
        if x < 0.0:
            raise DistributionError(f"x must be non-negative, got {x}")
        xs = self._xs
        if x <= xs[0]:
            return 1.0
        if x <= xs[-1]:
            return float(np.interp(x, xs, self._us))
        return math.exp(self._log_us[-1] + self._tail_slope * (x - xs[-1]))

    def inverse_survival(self, u) -> float:
        u = _check_survival_prob(u)
        us = self._us
        if u >= us[0]:
            return float(self._xs[0])
        if u >= us[-1]:
            return float(np.interp(u, self._us_rev, self._xs_rev))
        return float(self._xs[-1] + (math.log(u) - self._log_us[-1]) / self._tail_slope)

    def hazard_transform_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Below the grid interp clamps to survival 1, so the hazard is 0 there.
        xs, last = self._xs, self._log_us[-1]
        with np.errstate(over="ignore"):
            tail = -(last + self._tail_slope * (x - xs[-1]))
        return _into(out, np.where(x <= xs[-1], 0.0 - np.log(np.interp(x, xs, self._us)), tail))

    def inverse_hazard_array(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        last = self._log_us[-1]
        inside = np.interp(np.exp(-h), self._us_rev, self._xs_rev)
        with np.errstate(over="ignore"):
            tail = self._xs[-1] + (h + last) / -self._tail_slope
        return _into(out, np.where(h <= -last, inside, tail))

    def hazard_density(self, x) -> float:
        x = _as_float(x, "x")
        if math.isinf(x) or x < 0.0:
            raise DistributionError(f"x must be finite and non-negative, got {x}")
        xs, us = self._xs, self._us
        if x < xs[0]:
            return 0.0
        if x >= xs[-1]:
            return -self._tail_slope
        i = int(np.searchsorted(xs, x, side="right")) - 1
        i = max(i, 0)
        drop = (us[i] - us[i + 1]) / (xs[i + 1] - xs[i])
        return float(drop / self.survival(x))

    def kink_levels(self) -> np.ndarray:
        """Every grid node: interpolation and the log-linear tail join there."""
        return self._xs.copy()

    def to_json(self) -> dict:
        return {
            "family": "tabulated",
            "grid": [[u, x] for u, x in self.grid],
            "tail": "log-linear",
        }

    @classmethod
    def from_csv(cls, path) -> "TabulatedQuantile":
        """Load a (survival, level) grid from a two-column CSV file.

        A non-numeric first row is treated as a header and skipped.
        """
        return cls(grid=tuple(_read_numeric_csv(path, 2, DistributionError)))


# Each parametric family's class and the keys its JSON spec must carry.
_PARAMETRIC = {
    "exponential": (Exponential, ("rate",)),
    "weibull": (Weibull, ("shape", "scale")),
    "pareto": (Pareto, ("minimum", "index")),
}
_FAMILIES = {*_PARAMETRIC, "tabulated"}


def distribution_from_json(obj) -> DistributionSpec:
    """Build a distribution from its JSON description."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise DistributionError(f"distribution spec must be an object, got {type(obj)}")
    family = obj.get("family")
    if family not in _FAMILIES:
        raise DistributionError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    if family in _PARAMETRIC:
        cls, keys = _PARAMETRIC[family]
        for key in keys:
            if key not in obj:
                raise DistributionError(f"{family} spec requires {key!r}")
        return cls(**{key: obj[key] for key in keys})
    if "csv" in obj:
        if not isinstance(obj["csv"], str):
            raise DistributionError(f"tabulated 'csv' must be a file path, got {obj['csv']!r}")
        return TabulatedQuantile.from_csv(obj["csv"])
    if "grid" not in obj:
        raise DistributionError("tabulated spec requires 'grid' or 'csv'")
    return TabulatedQuantile(grid=obj["grid"])


def check_rates(lambda_birth, lambda_extinct) -> tuple[float, float]:
    """The birth and extinction rates as floats; DistributionError unless both are positive and finite."""
    lb = _as_float(lambda_birth, "lambda_birth")
    le = _as_float(lambda_extinct, "lambda_extinct")
    if not 0.0 < lb < math.inf:
        raise DistributionError(f"lambda_birth must be positive and finite, got {lb}")
    if not 0.0 < le < math.inf:
        raise DistributionError(f"lambda_extinct must be positive and finite, got {le}")
    return lb, le


@dataclass(frozen=True)
class ModelParams:
    """Birth/extinction rates and the two mark laws of the species process."""

    lambda_birth: float
    lambda_extinct: float
    fitness_dist: DistributionSpec
    threshold_dist: DistributionSpec

    def __post_init__(self) -> None:
        lb, le = check_rates(self.lambda_birth, self.lambda_extinct)
        if not isinstance(self.fitness_dist, DistributionSpec):
            raise DistributionError("fitness_dist must be a DistributionSpec")
        if not isinstance(self.threshold_dist, DistributionSpec):
            raise DistributionError("threshold_dist must be a DistributionSpec")
        object.__setattr__(self, "lambda_birth", lb)
        object.__setattr__(self, "lambda_extinct", le)

    def swapped(self) -> "ModelParams":
        """Role-swapped parameters: births and extinctions trade places."""
        return ModelParams(
            lambda_birth=self.lambda_extinct,
            lambda_extinct=self.lambda_birth,
            fitness_dist=self.threshold_dist,
            threshold_dist=self.fitness_dist,
        )

    def to_json(self) -> dict:
        return {
            "lambda_birth": self.lambda_birth,
            "lambda_extinct": self.lambda_extinct,
            "fitness_dist": self.fitness_dist.to_json(),
            "threshold_dist": self.threshold_dist.to_json(),
        }


def model_params_from_json(obj) -> ModelParams:
    """Build ModelParams from a JSON object or string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise DistributionError(f"params must be an object, got {type(obj)}")
    for key in ("lambda_birth", "lambda_extinct", "fitness_dist", "threshold_dist"):
        if key not in obj:
            raise DistributionError(f"params object requires {key!r}")
    return ModelParams(
        lambda_birth=obj["lambda_birth"],
        lambda_extinct=obj["lambda_extinct"],
        fitness_dist=distribution_from_json(obj["fitness_dist"]),
        threshold_dist=distribution_from_json(obj["threshold_dist"]),
    )

