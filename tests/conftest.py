import sys

import numpy as np
import pytest

import sinrcov as sc
from sinrcov.geometry import (nearest_window_distances,
                              sample_ordered_distances_direct)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines where capture cannot hide them."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def window_prefix_draws():
    """10^4 window realizations at density 1, L=40: counts + first 5 distances.

    Shared by the distribution tests; drawing the realizations once keeps
    the suite fast while every consumer sees the same sample.
    """
    cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                           noise_power=0.1, half_width=40.0)
    rng = np.random.default_rng(20240817)
    n = 10_000
    counts = np.empty(n, dtype=int)
    first5 = np.full((n, 5), np.nan)
    for m in range(n):
        counts[m], d = nearest_window_distances(cfg, 5, rng)
        first5[m, :d.size] = d
    return counts, first5


@pytest.fixture(scope="session")
def direct_prefix_draws():
    """10^4 direct-sampler draws of the first 5 ordered distances."""
    rng = np.random.default_rng(915)
    n = 10_000
    first5 = np.empty((n, 5))
    for m in range(n):
        first5[m] = sample_ordered_distances_direct(5, rng).distances
    return first5
