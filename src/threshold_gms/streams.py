"""Deterministic random-stream construction.

Every unit of sampling work (a block of Monte Carlo replications, a
simulated path, or one window or ladder pair of a validation check)
draws from its own counter-based generator derived from (base_seed,
index, salt).  A stream depends on nothing but those three numbers, so
a unit draws the same values however many others a run asks for, and
reruns reproduce each other bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def check_seed(base_seed: int) -> int:
    """base_seed, refused unless it lies in [0, 2**128), the span of a Philox key."""
    seed = int(base_seed)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {base_seed}")
    return seed


def replication_rng(base_seed: int, index: int = 0, salt: int = 0) -> np.random.Generator:
    """Generator for one replication.

    The 128-bit Philox key mixes the seed with the task salt; the
    replication index lands in the top counter word, which spaces
    replications 2**192 draws apart, far beyond any single run.  Key and
    counter go to Philox as uint64 words: numpy would turn a list mixing
    a word of 2**63 or more with a smaller one into float64.
    """
    seed = check_seed(base_seed)
    if index < 0:
        raise ValueError("replication index must be non-negative")
    key = np.array([seed & _MASK64, ((seed >> 64) ^ int(salt)) & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
