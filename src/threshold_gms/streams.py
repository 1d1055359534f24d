"""Deterministic random-stream construction.

Every unit of sampling work (a block of ladder replications, or one
forward replication) draws from its own counter-based generator derived
from (base_seed, index, salt).  A stream depends on nothing but those
three numbers, so a unit draws the same values however many others a
run asks for, and reruns reproduce each other bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def replication_rng(base_seed: int, index: int = 0, salt: int = 0) -> np.random.Generator:
    """Generator for one replication.

    The 128-bit Philox key mixes the seed with the task salt; the
    replication index lands in the top counter word, which spaces
    replications 2**192 draws apart, far beyond any single run.
    """
    if index < 0:
        raise ValueError("replication index must be non-negative")
    key = [
        int(base_seed) & _MASK64,
        ((int(base_seed) >> 64) ^ int(salt)) & _MASK64,
    ]
    counter = [0, 0, 0, int(index) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))

