"""Truncation-error diagnostics for the finite-interferer approximation.

Cutting the interference off at the N-th nearest base station perturbs the
coverage probability by at most the tail error
``delta_N(T) = 1 - exp(-2*pi*lam * tail(s, R_N, inf))``, where tail(s, a, b)
is the integral of s*t/(t**eta + s) over [a, b] and s = T * r**eta, jointly
averaged over the serving distance r and the truncation radius R_N.  This
module evaluates that expectation exactly as a 1-D integral, the mean of its
elementary analytic bound in closed form, and log-log convergence-rate fits
against the interferer count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkConfig
from .quadrature import DEFAULT_ABS_TOL, _adaptive_batch, tail_integral_batch


@dataclass(frozen=True)
class TailErrorReport:
    """Tail-error means, bounds and the fitted decay rate over N."""

    interferer_counts: tuple
    delta_means: np.ndarray
    delta_stderrs: np.ndarray
    analytic_bounds: np.ndarray
    fitted_slope: float


def _expected_tail_errors(eta: float, counts, threshold: float,
                          quad_abs_tol: float) -> np.ndarray:
    """E[delta_N(T)] for every N in ``counts`` by one batch of 1-D integrals.

    B = r**2/R_N**2 ~ Beta(1, N-1) is independent of pi*lam*R_N**2 ~ Gamma(N),
    and t = r*x turns the tail into r**2 * I_T(R_N/r) with
    I_T(x) = tail(T, x, inf) (Andrews, Baccelli and Ganti, IEEE TCOM 2011).
    The Gamma MGF then gives E[delta_N(T)] as the integral over
    b in [0, 1] of (N-1)(1-b)**(N-2) * (1 - (1 + 2b*I_T(b**-0.5))**-N), which
    does not depend on lam.  I_T gets ``quad_abs_tol``/4 and the b-integral
    ``quad_abs_tol``/2; the derivative in I_T integrates to at most 2, so the
    total stays within ``quad_abs_tol``.  For eta <= 2 the first integrand
    call raises ``ValueError``, since the tail to infinity diverges.
    """
    n = np.asarray(counts, dtype=float)
    if not np.all((n >= 2) & (n < math.inf) & (n == np.floor(n))):
        raise ValueError(f"interferer counts must be integers >= 2, got "
                         f"{counts}")
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")

    def integrand(b, owner):
        tail = tail_integral_batch(threshold, eta, 1.0 / np.sqrt(b), math.inf,
                                   0.25 * quad_abs_tol)
        m = n[owner][:, None]
        return ((m - 1.0) * np.power(1.0 - b, m - 2.0)
                * -np.expm1(-m * np.log1p(2.0 * b * tail)))

    values, _ = _adaptive_batch(integrand, np.zeros(n.size), np.ones(n.size),
                                0.5 * quad_abs_tol)
    return values


def expected_tail_truncation_error(cfg: NetworkConfig, interferer_total: int,
                                   threshold: float,
                                   quad_abs_tol: float = DEFAULT_ABS_TOL
                                   ) -> float:
    """Exact expectation of the tail truncation error over (r, R_N).

    Accurate to ``quad_abs_tol``; it depends on ``cfg`` only through the
    pathloss exponent, since the expectation does not depend on the density.
    """
    return float(_expected_tail_errors(cfg.pathloss_exponent,
                                       [interferer_total], threshold,
                                       quad_abs_tol)[0])


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
    if np.unique(counts).size < 3:
        raise ValueError(f"need at least 3 distinct counts, got {counts}")
    if not np.all(np.isfinite(counts) & np.isfinite(means) & (counts > 0)
                  & (means > 0)):
        raise ValueError(
            "counts and means must be finite and positive for a log-log fit")
    x = np.log(counts)
    y = np.log(means)
    x_c = x - x.mean()
    return float((x_c * y).sum() / (x_c * x_c).sum())


def tail_error_report(cfg: NetworkConfig, threshold: float,
                      interferer_counts, trials: int | None = None,
                      seed: int = 0,
                      quad_abs_tol: float = DEFAULT_ABS_TOL
                      ) -> TailErrorReport:
    """Tail-error summary over a ladder of interferer counts.

    The means are the exact expectations of
    :func:`expected_tail_truncation_error`, so ``delta_stderrs`` is all
    zeros; ``trials`` and ``seed`` are accepted for older callers and
    ignored.  ``analytic_bounds`` holds the exact means of the pointwise
    bound 2*pi*lam*s / ((eta-2) * R_N**(eta-2)), which are
    (2T/(eta-2)) * N * Gamma(1+eta/2) * Gamma(N) / Gamma(N+eta/2)
    (2T/(N+1) at eta=4) and dominate the means.

    Each mean E[delta_N] bounds P_N - P_inf from above, where P_N is the
    coverage of the network truncated at the N-th interferer and P_inf that
    of the infinite network; the bound is one-sided, since truncation only
    removes interference. ``fitted_slope`` estimates the decay rate
    1 - eta/2 only where the means are small (see
    :func:`convergence_slope`); at threshold 1 and eta=3 saturation
    flattens it to about -0.27.
    """
    counts = tuple(interferer_counts)
    eta = cfg.pathloss_exponent
    means = _expected_tail_errors(eta, counts, threshold, quad_abs_tol)
    counts = tuple(int(n) for n in counts)
    half = 0.5 * eta
    bounds = np.array([
        (2.0 * threshold / (eta - 2.0)) * n
        * math.exp(math.lgamma(1.0 + half) + math.lgamma(n)
                   - math.lgamma(n + half))
        for n in counts
    ])
    return TailErrorReport(
        interferer_counts=counts, delta_means=means,
        delta_stderrs=np.zeros(len(counts)), analytic_bounds=bounds,
        fitted_slope=convergence_slope(counts, means),
    )
