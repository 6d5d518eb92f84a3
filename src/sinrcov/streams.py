"""Deterministic random substreams for reproducible parallel Monte Carlo.

Every trial owns a counter-based Philox generator keyed by
``(root seed, domain, trial index)``.  Because the key fully determines the
stream, results never depend on thread count, block partitioning, or on which
other estimation methods run in the same sweep.  Methods that must share
randomness (e.g. the hybrid and simulation estimators reuse one geometry draw
per trial) simply derive the same key.

Key layout: Philox takes a 128-bit key; word 0 is the root seed, word 1 packs
``domain`` into the top 16 bits and the trial index into the low 48 bits.
"""
from __future__ import annotations

import numpy as np

# Stream domains.  Values are part of the reproducibility contract: changing
# them changes every sampled result for a given seed.
GEOMETRY_WINDOW = 1
GEOMETRY_DIRECT = 2
FADING = 3

_INDEX_BITS = 48


def trial_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Return the generator for one (seed, domain, trial-index) substream."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= domain < 2**16:
        raise ValueError(f"stream domain out of range: {domain}")
    if not 0 <= index < 2**_INDEX_BITS:
        raise ValueError(f"trial index out of range: {index}")
    key = np.array([seed, (domain << _INDEX_BITS) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
