"""Re-keyed substreams give every trial the bits of a freshly built Philox.

A block builds one Philox and re-keys it for each trial index, so each
trial must start from exactly the state ``Philox(key=...)`` starts from,
whatever the trial before it drew, including a spare 32-bit word that a
32-bit draw leaves buffered.
"""
import numpy as np
import pytest

from sinrcov import streams
from sinrcov.estimators import _TRIAL_BLOCK

SEED = 2**64 - 12345  # fills every bit of key word 0
DOMAINS = [streams.GEOMETRY_WINDOW, streams.GEOMETRY_DIRECT, streams.FADING]


def _fresh(domain, index):
    key = np.array([SEED, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(rng):
    """Draws of each width the samplers use, ending on a 32-bit one."""
    return np.concatenate([
        rng.random(5), rng.standard_exponential(4), rng.poisson(6400.0, 2),
        rng.uniform(-40.0, 40.0, 3),
        rng.integers(0, 1000, size=3, dtype=np.uint32)])


def _assert_same_state(got, want):
    assert got.keys() == want.keys()
    for name in ("counter", "key"):
        np.testing.assert_array_equal(got["state"][name], want["state"][name])
    np.testing.assert_array_equal(got["buffer"], want["buffer"])
    for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert got[name] == want[name], name


# Three trials on each side of the first block boundary, and the kind of
# non-consecutive indices the simulation's fading stream visits when a
# window trial is skipped.
@pytest.mark.parametrize("indices", [
    list(range(_TRIAL_BLOCK - 3, _TRIAL_BLOCK + 3)), [0, 7, 2**48 - 1, 3]],
    ids=["block-boundary", "non-consecutive"])
@pytest.mark.parametrize("domain", DOMAINS)
def test_block_iterator_matches_fresh_philox(domain, indices):
    generators = set()
    for index, rng in zip(indices, streams.trial_streams(SEED, domain,
                                                         indices)):
        generators.add(id(rng))
        want = _fresh(domain, index)
        _assert_same_state(rng.bit_generator.state, want.bit_generator.state)
        np.testing.assert_array_equal(_draws(rng), _draws(want))
        # Three 32-bit draws leave half of a 64-bit word buffered, which
        # the next trial must not see.
        assert rng.bit_generator.state["has_uint32"] == 1
    assert len(generators) == 1


@pytest.mark.parametrize("domain", DOMAINS)
def test_trial_stream_matches_fresh_philox(domain):
    for index in range(_TRIAL_BLOCK - 3, _TRIAL_BLOCK + 3):
        got, want = streams.trial_stream(SEED, domain, index), _fresh(
            domain, index)
        np.testing.assert_array_equal(_draws(got), _draws(want))
