"""Truncation-error diagnostics for the finite-interferer approximation.

Cutting the interference off at the N-th nearest base station perturbs the
coverage probability by at most the expected tail error
``1 - exp(-2*pi*lam * tail_integral(s, eta, R_N, inf))`` with s = T * r**eta,
jointly averaged over the serving distance r and the truncation radius R_N.
This module evaluates that error term, its elementary analytic upper bound,
Monte Carlo estimates of its expectation, and log-log convergence-rate fits
against the interferer count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .geometry import NetworkConfig
from .quadrature import DEFAULT_ABS_TOL, _pow_eta, tail_integral_batch


# exp(-z) underflows for large exponents; the error term is mathematically
# strictly below 1, so saturated values are pinned to the largest double < 1.
_ONE_BELOW = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class TailErrorReport:
    """Tail-error means, bounds and the fitted decay rate over N."""

    interferer_counts: tuple
    delta_means: np.ndarray
    delta_stderrs: np.ndarray
    analytic_bounds: np.ndarray
    fitted_slope: float


def _require_eta_above_2(eta: float) -> None:
    if eta <= 2.0:
        raise ValueError(
            f"tail error terms require pathloss_exponent > 2, got {eta}"
        )


def tail_truncation_error(s, boundary_radius, bs_density: float,
                          pathloss_exponent: float,
                          quad_abs_tol: float = DEFAULT_ABS_TOL):
    """Coverage error from ignoring interferers beyond ``boundary_radius``.

    Equals 1 - exp(-2*pi*lam * tail_integral(s, eta, R, inf)); always in
    [0, 1).  Elementwise over arrays of ``s`` and ``boundary_radius``.
    """
    _require_eta_above_2(pathloss_exponent)
    if not np.all(np.asarray(boundary_radius) > 0):
        raise ValueError(f"boundary_radius must be > 0, got {boundary_radius}")
    if not bs_density > 0:
        raise ValueError(f"bs_density must be > 0, got {bs_density}")
    tail = tail_integral_batch(s, pathloss_exponent, boundary_radius,
                               math.inf, quad_abs_tol)
    out = np.minimum(-np.expm1(-2.0 * math.pi * bs_density * tail),
                     _ONE_BELOW)
    return out if out.ndim else float(out)


def tail_truncation_error_bound(s, boundary_radius, bs_density: float,
                                pathloss_exponent: float):
    """Elementary bound 2*pi*lam*s / ((eta-2) * R**(eta-2)).

    Dominates :func:`tail_truncation_error` pointwise; it may exceed 1, in
    which case the trivial bound 1 is sharper.  Elementwise over arrays of
    ``s`` and ``boundary_radius``.
    """
    _require_eta_above_2(pathloss_exponent)
    if not np.all(np.asarray(s) >= 0):
        raise ValueError(f"s must be >= 0, got {s}")
    if not np.all(np.asarray(boundary_radius) > 0):
        raise ValueError(f"boundary_radius must be > 0, got {boundary_radius}")
    if not bs_density > 0:
        raise ValueError(f"bs_density must be > 0, got {bs_density}")
    eta = pathloss_exponent
    out = (2.0 * math.pi * bs_density * np.asarray(s, dtype=float)
           / ((eta - 2.0) * _pow_eta(np.asarray(boundary_radius, dtype=float),
                                     eta - 2.0)))
    return out if out.ndim else float(out)


def _tail_error_stats(cfg: NetworkConfig, interferer_total: int,
                      threshold: float, trials: int,
                      rng: np.random.Generator,
                      quad_abs_tol: float) -> tuple[float, float, float]:
    """Mean and stderr of the tail error over ``trials`` joint (r, R_N)
    draws, and the mean of its analytic bound over the same draws."""
    _require_eta_above_2(cfg.pathloss_exponent)
    if interferer_total < 2:
        raise ValueError(
            f"interferer_total must be >= 2, got {interferer_total}"
        )
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    eta = cfg.pathloss_exponent
    lam = cfg.bs_density
    sq = rng.exponential(1.0 / (math.pi * lam),
                         size=(trials, interferer_total)).cumsum(axis=1)
    r = np.sqrt(sq[:, 0])
    radius = np.sqrt(sq[:, -1])
    s = threshold * _pow_eta(r, eta)
    delta = tail_truncation_error(s, radius, lam, eta, quad_abs_tol)
    bound = tail_truncation_error_bound(s, radius, lam, eta)
    return (float(delta.mean()),
            float(delta.std(ddof=1) / math.sqrt(trials)),
            float(bound.mean()))


def expected_tail_truncation_error(cfg: NetworkConfig, interferer_total: int,
                                   threshold: float, trials: int,
                                   rng: np.random.Generator,
                                   quad_abs_tol: float = DEFAULT_ABS_TOL
                                   ) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the tail truncation error.

    The joint law of (r, R_N) comes from the direct order-statistics sampler
    (cumulative exponential squared-distance increments), i.e. the exact
    point-process law rather than a truncated window.
    """
    mean, stderr, _ = _tail_error_stats(cfg, interferer_total, threshold,
                                        trials, rng, quad_abs_tol)
    return mean, stderr


def convergence_slope(counts, means) -> float:
    """Ordinary least-squares slope of log(mean) against log(count).

    Applied to expected tail errors, the slope estimates the decay rate
    1 - eta/2 only where the means are small, so that 1 - exp(-z) ~ z. Where
    the errors saturate the fit flattens: at threshold 1 and eta=3 the means
    are 0.26-0.46 and the slope is about -0.27 rather than -0.5.
    """
    counts = np.asarray(counts, dtype=float)
    means = np.asarray(means, dtype=float)
    if counts.shape != means.shape or counts.ndim != 1:
        raise ValueError("counts and means must be equal-length 1-D arrays")
    if counts.size < 3:
        raise ValueError(f"need at least 3 points, got {counts.size}")
    if np.any(counts <= 0) or np.any(means <= 0):
        raise ValueError("counts and means must be positive for a log-log fit")
    x = np.log(counts)
    y = np.log(means)
    x_c = x - x.mean()
    return float((x_c * y).sum() / (x_c * x_c).sum())


def tail_error_report(cfg: NetworkConfig, threshold: float,
                      interferer_counts, trials: int, seed: int = 0,
                      quad_abs_tol: float = DEFAULT_ABS_TOL
                      ) -> TailErrorReport:
    """Tail-error summary over a ladder of interferer counts.

    Per count, one substream drives the joint draws; the analytic bound is
    averaged over the same draws, so pointwise dominance carries over to the
    reported means.

    Each mean E[delta_N] bounds P_N - P_inf from above, where P_N is the
    coverage of the network truncated at the N-th interferer and P_inf that
    of the infinite network; the bound is one-sided, since truncation only
    removes interference. ``fitted_slope`` estimates the decay rate
    1 - eta/2 only where the means are small (see
    :func:`convergence_slope`); at threshold 1 and eta=3 saturation
    flattens it to about -0.27.
    """
    counts = tuple(int(n) for n in interferer_counts)
    if len(counts) < 3:
        raise ValueError("need at least 3 interferer counts for a rate fit")
    stats = np.array([
        _tail_error_stats(cfg, n, threshold, trials,
                          streams.trial_stream(seed, streams.TAIL_ERROR, j),
                          quad_abs_tol)
        for j, n in enumerate(counts)
    ])
    means, stderrs, bounds = stats.T
    return TailErrorReport(
        interferer_counts=counts, delta_means=means, delta_stderrs=stderrs,
        analytic_bounds=bounds,
        fitted_slope=convergence_slope(counts, means),
    )
