"""Deterministic random-stream construction.

Every unit of sampling work (a block of Monte Carlo replications, a
simulated path, or one window or ladder pair of a validation check)
draws from its own counter-based generator derived from (base_seed,
index, salt).  A stream depends on nothing but those three numbers, so
a unit draws the same values however many others a run asks for, and
reruns reproduce each other bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def _as_int(value, name: str) -> int:
    """value as an int through operator.index; bools, floats and text are refused as a ValueError naming name."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(base_seed: int) -> int:
    """base_seed, refused unless it is an integer in [0, 2**128), the span of a Philox key."""
    seed = _as_int(base_seed, "seed")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {base_seed}")
    return seed


def replication_rng(base_seed: int, index: int = 0, salt: int = 0) -> np.random.Generator:
    """Generator for one replication.

    The 128-bit Philox key mixes the seed with the task salt; the
    replication index lands in the top counter word, which spaces
    replications 2**192 draws apart, far beyond any single run.  Key and
    counter go to Philox as uint64 words: numpy would turn a list mixing
    a word of 2**63 or more with a smaller one into float64.  An index
    or salt outside [0, 2**64) is refused rather than wrapped onto the
    stream of another.
    """
    seed = check_seed(base_seed)
    index, salt = _as_int(index, "replication index"), _as_int(salt, "salt")
    if not 0 <= index <= _MASK64:
        raise ValueError(f"replication index must lie in [0, 2**64), got {index}")
    if not 0 <= salt <= _MASK64:
        raise ValueError(f"salt must lie in [0, 2**64), got {salt}")
    key = np.array([seed & _MASK64, (seed >> 64) ^ salt], dtype=np.uint64)
    counter = np.array([0, 0, 0, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
