"""Homogeneous PPP geometry at unit density: window and direct draws.

Coverage is scale-free: measured in units of 1/sqrt(bs_density), every
network has unit density, and the density survives only in the noise
sigma^2 * bs_density**(-eta/2) and the window half-width
L * sqrt(bs_density).  ``NetworkConfig`` computes both once; the samplers
below draw unit-density distances.  The observer sits at the origin.  Two
samplers are provided: a square-window sampler (draw a Poisson count,
scatter points uniformly, sort distances) and a window-free direct sampler
that draws the first ``count`` ordered distances from their exact law, where
squared distances are cumulative sums of i.i.d. Exponential increments with
mean 1/pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# A window draw holds one float64 (x, y) pair per point; the cap keeps that
# buffer at 128 MiB (8.4 M points, against 6,400 at the default window).
_MAX_WINDOW_COUNT = (128 << 20) // (8 * 2)


@dataclass(frozen=True)
class NetworkConfig:
    """Physical scenario: density, path loss, noise and window half-width.

    Distances are in km, ``bs_density`` in BS/km^2, ``noise_power`` in the
    same linear power units as the unit-mean fading gains.  The estimators
    read only the unit-density normal form: ``unit_noise`` =
    noise_power * bs_density**(-eta/2) and ``unit_half_width`` =
    half_width * sqrt(bs_density), both exact at density 1.  A scenario
    whose ``unit_noise`` overflows is refused with ``ValueError``; zero
    noise stays zero at every density.
    """

    bs_density: float = 1.0
    pathloss_exponent: float = 4.0
    noise_power: float = 0.1
    half_width: float = 40.0
    unit_noise: float = field(init=False, repr=False, compare=False)
    unit_half_width: float = field(init=False, repr=False, compare=False)

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
        try:  # zero noise stays zero, never 0 * inf
            unit_noise = self.noise_power and self.noise_power * (
                self.bs_density ** (-0.5 * self.pathloss_exponent))
        except OverflowError:
            unit_noise = math.inf
        if not unit_noise < math.inf:
            raise ValueError(f"noise_power * bs_density**(-eta/2) overflows at "
                             f"bs_density {self.bs_density}")
        object.__setattr__(self, "unit_noise", unit_noise)
        object.__setattr__(self, "unit_half_width",
                           self.half_width * math.sqrt(self.bs_density))

    @property
    def expected_window_count(self) -> float:
        """Mean number of points in the window, (2 * unit_half_width)^2.

        A product, not a float power, so that a huge window reads inf
        instead of raising ``OverflowError``.
        """
        return 4.0 * self.unit_half_width * self.unit_half_width

    def check_window(self, count: int) -> None:
        """Raise ValueError unless ``count`` <= expected points <= the cap."""
        mean = self.expected_window_count
        if mean < count:
            raise ValueError(
                f"expected window point count {mean:.2f} is below "
                f"interferer_total {count}; increase half_width or bs_density")
        if not mean <= _MAX_WINDOW_COUNT:
            raise ValueError(
                f"expected window point count {mean:.4g} is above "
                f"{_MAX_WINDOW_COUNT}: its coordinates would take over 128 "
                f"MiB per draw; decrease half_width (--half-width) or "
                f"bs_density")


class PppRealization(NamedTuple):
    """One draw: its point count and the nearest distances, ascending."""

    point_count: int
    distances: np.ndarray


def nearest_window_distances(
    cfg: NetworkConfig, count: int, rng: np.random.Generator
) -> PppRealization:
    """Draw one unit-density realization on the [-L', L']^2 window.

    L' is ``cfg.unit_half_width``; the point count is Poisson((2L')^2) and
    locations are uniform on the window.  Returns the total point count and
    the ``count`` nearest distances sorted ascending.  If the realization
    holds fewer than ``count`` points, all of them are returned and the
    caller sees the shortfall via ``point_count``.  The stream is
    consumed the same way for every ``count``, so the leading distances do
    not depend on it.
    """
    total = int(rng.poisson(cfg.expected_window_count))
    pts = rng.uniform(-cfg.unit_half_width, cfg.unit_half_width,
                      size=(total, 2))
    sq = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    if total > count:
        sq = np.partition(sq, count - 1)[:count]
    sq.sort()
    return PppRealization(total, np.sqrt(sq))


def sample_ordered_distances_direct(count: int, rng: np.random.Generator
                                    ) -> PppRealization:
    """Draw the first ``count`` ordered unit-density distances, no window.

    Squared distances are cumulative sums of i.i.d. Exponential increments
    with mean 1/pi, so the i-th squared distance is Gamma(i, 1/pi)
    distributed and the draw is sorted by construction.
    ``EstimatorSettings`` has already checked the count.
    """
    sq = rng.exponential(1.0 / math.pi, size=count).cumsum()
    return PppRealization(count, np.sqrt(sq))
