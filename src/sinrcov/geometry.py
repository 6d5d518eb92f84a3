"""Homogeneous PPP geometry: window sampling and direct nearest-distance draws.

Base stations form a homogeneous Poisson point process of intensity
``bs_density`` (BS/km^2); the observer sits at the origin.  Two samplers are
provided: a square-window sampler (draw a Poisson count, scatter points
uniformly, sort distances) and a window-free direct sampler that draws the
first ``count`` ordered distances from their exact law, where squared
distances are cumulative sums of i.i.d. Exponential increments with mean
``1/(pi * bs_density)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkConfig:
    """Physical scenario: density, path loss, noise and window half-width.

    Distances are in km, ``bs_density`` in BS/km^2, ``noise_power`` in the
    same linear power units as the unit-mean fading gains.
    """

    bs_density: float = 1.0
    pathloss_exponent: float = 4.0
    noise_power: float = 0.1
    half_width: float = 40.0

    def __post_init__(self) -> None:
        if not 0 < self.bs_density < math.inf:
            raise ValueError(
                f"bs_density must be finite and > 0, got {self.bs_density}")
        if not 0 < self.pathloss_exponent < math.inf:
            raise ValueError(f"pathloss_exponent must be finite and > 0, "
                             f"got {self.pathloss_exponent}")
        if not 0 <= self.noise_power < math.inf:
            raise ValueError(
                f"noise_power must be finite and >= 0, got {self.noise_power}")
        if not 0 < self.half_width < math.inf:
            raise ValueError(
                f"half_width must be finite and > 0, got {self.half_width}")

    @property
    def expected_window_count(self) -> float:
        """Mean number of points in the (2L)^2 window."""
        return self.bs_density * (2.0 * self.half_width) ** 2


@dataclass(frozen=True)
class PppRealization:
    """One spatial draw: ascending distances from the origin to every BS."""

    distances: np.ndarray
    point_count: int


def nearest_window_distances(
    cfg: NetworkConfig, count: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Draw one realization on the [-L, L]^2 window.

    The point count is Poisson(bs_density * (2L)^2) and locations are uniform
    on the window.  Returns the total point count and the ``count`` nearest
    distances sorted ascending.  If the realization holds fewer than
    ``count`` points, all of them are returned and the caller sees the
    shortfall via the returned total.  The stream is consumed the same way
    for every ``count``, so the leading distances do not depend on it.
    """
    total = int(rng.poisson(cfg.expected_window_count))
    pts = rng.uniform(-cfg.half_width, cfg.half_width, size=(total, 2))
    sq = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    if total > count:
        sq = np.partition(sq, count - 1)[:count]
    sq.sort()
    return total, np.sqrt(sq)


def sample_ordered_distances_direct(
    bs_density: float, count: int, rng: np.random.Generator
) -> PppRealization:
    """Draw the first ``count`` ordered BS distances without a window.

    Squared distances are cumulative sums of i.i.d. Exponential increments
    with mean 1/(pi*bs_density), so the i-th squared distance is
    Gamma(i, 1/(pi*bs_density)) distributed and the draw is sorted by
    construction.  ``NetworkConfig`` and ``EstimatorSettings`` have already
    checked the density and the count.
    """
    sq = rng.exponential(1.0 / (math.pi * bs_density), size=count).cumsum()
    return PppRealization(distances=np.sqrt(sq), point_count=count)
