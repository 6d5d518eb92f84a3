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

A block of trials builds one Philox and re-keys it for each trial
(:func:`trial_streams`), which gives the same bits as a fresh
``Philox(key=...)`` per trial at a fraction of its construction cost
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
"""
from __future__ import annotations

import numpy as np

# Stream domains.  Values are part of the reproducibility contract: changing
# them changes every sampled result for a given seed.
GEOMETRY_WINDOW = 1
GEOMETRY_DIRECT = 2
FADING = 3

_INDEX_BITS = 48


def trial_streams(seed: int, domain: int, indices):
    """Yield the generator of each (seed, domain, index) substream in turn.

    One Philox serves the whole call: before each index it is set back to
    the state ``Philox(key=...)`` starts from, with that index's key, a
    zero counter, an empty buffer and no spare 32-bit word.  The same
    generator object is yielded every time, so a caller finishes its draws
    before it advances the iterator.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    key = [seed, 0]
    start = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for index in indices:
        key[1] = (domain << _INDEX_BITS) | index
        bit_generator.state = start
        yield rng


def trial_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Return the generator for one (seed, domain, trial-index) substream."""
    return next(trial_streams(seed, domain, (index,)))
