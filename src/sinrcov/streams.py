"""Deterministic random substreams for reproducible parallel Monte Carlo.

Every trial owns a counter-based Philox generator keyed by
``(root seed, domain, trial index)``.  Because the key fully determines the
stream, results never depend on thread count, block partitioning, or on which
other estimation methods run in the same sweep.  Methods that must share
randomness (e.g. the hybrid and simulation estimators reuse one geometry draw
per trial) simply derive the same key.

Key layout: Philox takes a 128-bit key; word 0 is the root seed, word 1 packs
``domain`` into the top 16 bits and the trial index into the low 48 bits.
The key is built unchecked: domains are the constants below, and
``EstimatorSettings`` bounds the seed to 64 bits and the trial count to
``2**48``.
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
    key = np.array([seed, (domain << _INDEX_BITS) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
