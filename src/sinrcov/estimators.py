"""Downlink SINR coverage estimators for Poisson cellular networks.

Four routes to the same curve of P(SINR > T) versus threshold:

* ``hybrid_coverage``  - Monte Carlo over geometry only; fading of the K-1
  strongest interferers is integrated out exactly and the remaining far-field
  annulus enters through the exponential functional of the point process.
* ``empirical_coverage`` - plain Monte Carlo over geometry and Rayleigh
  fading, counting threshold exceedances.
* ``sg_coverage`` - deterministic quadrature for the infinite-network limit:
  one far-field tail per threshold and one 1-D integral over the serving
  distance (requires pathloss exponent > 2).
* ``prob_model_coverage`` - closed-form Gaussian-moment approximation of the
  interference (pathloss exponent 4 only; moment inputs supplied by the
  caller).

With the window sampler the two Monte Carlo estimators draw geometry from
identical per-trial substreams, so their curves are positively correlated
and directly comparable, and per-threshold standard errors of the hybrid
route never exceed the empirical ones in expectation.  The direct sampler
draws the hybrid's geometry from its own substreams instead.

Every estimator works at unit density: it reads the network only through
``NetworkConfig.unit_noise``, ``unit_half_width`` and the path-loss
exponent.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import streams
from .geometry import (
    NetworkConfig,
    nearest_window_distances,
    sample_ordered_distances_direct,
)
from .quadrature import (
    DEFAULT_ABS_TOL,
    _TAIL_BLOCK,
    _adaptive_batch,
    _pow_eta,
    _unit_interval,
    tail_integral_batch,
)

SAMPLER_WINDOW = "window"
SAMPLER_DIRECT = "direct"

METHOD_HYBRID = "hybrid"
METHOD_SIMULATION = "simulation"
METHOD_SG = "sg"
METHOD_PROBABILISTIC = "probabilistic"

# Trials are processed in fixed-size blocks; partial sums are reduced in
# block order, so results are identical for any worker count.
_TRIAL_BLOCK = 1024
# A block holds one float64 array of _TRIAL_BLOCK x thresholds, filled a
# tail block of rows at a time, plus that chunk's temporaries: 1.26 block
# arrays for the hybrid at 2,001 thresholds (tracemalloc; a test holds it to
# 1.5).  The cap keeps the array at 128 MiB, so a block peaks a little above
# 128 MiB per thread (16,384 thresholds, against 401 in the densest grid of
# the tests and benchmarks), and makes an oversized grid a ValueError.
_MAX_THRESHOLDS = (128 << 20) // (8 * _TRIAL_BLOCK)
# A store of shared draws holds at most this many bytes of distance rows and
# trial indices; a curve that would go past it draws as if it had no store.
_MAX_DRAW_BYTES = 128 << 20


class EstimatorError(RuntimeError):
    """A Monte Carlo estimator could not produce an estimate."""


class ModelValidityError(ValueError):
    """The closed-form moment model is outside its validity region."""


def _require_integers(obj, *names: str) -> None:
    """Refuse counts and seeds that ``operator.index`` would not accept."""
    for name in names:
        value = getattr(obj, name)
        if not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EstimatorSettings:
    """Algorithmic knobs shared by the Monte Carlo estimators."""

    dominant_count: int = 4
    interferer_total: int = 10
    trials: int = 50_000
    quad_abs_tol: float = DEFAULT_ABS_TOL
    seed: int = 0

    def __post_init__(self) -> None:
        _require_integers(self, "dominant_count", "interferer_total",
                          "trials", "seed")
        if not 1 <= self.dominant_count <= self.interferer_total:
            raise ValueError(
                f"need 1 <= dominant_count <= interferer_total, got "
                f"K={self.dominant_count}, N={self.interferer_total}"
            )
        # Trial indices fill the low bits of each substream key.
        if not 1 <= self.trials <= 2**streams._INDEX_BITS:
            raise ValueError(f"trials must be in [1, 2**{streams._INDEX_BITS}],"
                             f" got {self.trials}")
        if not 0 < self.quad_abs_tol < math.inf:
            raise ValueError(
                f"quad_abs_tol must be finite and > 0, got {self.quad_abs_tol}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(
                f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly increasing SINR thresholds in dB; linear ones = 10**(db/10).

    Every linear value must be finite and > 0, which holds for dB values
    from about -3,233 to 3,082, and there are at most 16,384 of them.
    """

    thresholds_db: np.ndarray
    thresholds_linear: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        db = np.asarray(self.thresholds_db, dtype=float)
        if db.size > _MAX_THRESHOLDS:
            raise ValueError(f"the grid holds {db.size} thresholds; at most "
                             f"{_MAX_THRESHOLDS} are allowed")
        with np.errstate(over="ignore"):
            linear = 10.0 ** (db / 10.0)
        if db.ndim != 1 or db.size == 0 or not np.all(
                (linear > 0.0) & (linear < math.inf)):
            raise ValueError("thresholds must be a non-empty 1-D array of dB "
                             "values whose 10**(dB/10) is finite and > 0")
        if np.any(np.diff(db) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds_db", db)
        object.__setattr__(self, "thresholds_linear", linear)

    def __len__(self) -> int:
        return self.thresholds_db.size

    @classmethod
    def from_db_range(cls, tmin_db: float, tmax_db: float,
                      tstep_db: float) -> "ThresholdGrid":
        if not 0 < tstep_db < math.inf:
            raise ValueError(f"tstep_db must be finite and > 0, got {tstep_db}")
        if not -math.inf < tmin_db <= tmax_db < math.inf:
            raise ValueError(f"need finite tmin_db <= tmax_db, got "
                             f"{tmin_db} and {tmax_db}")
        span = (tmax_db - tmin_db) / tstep_db + 1e-9
        if not span < _MAX_THRESHOLDS:  # refused before np.arange allocates
            raise ValueError(f"the grid would hold {span:.4g} thresholds; at "
                             f"most {_MAX_THRESHOLDS} are allowed")
        return cls(tmin_db + tstep_db * np.arange(int(math.floor(span)) + 1))


@dataclass(frozen=True)
class CoverageCurve:
    """Per-threshold coverage estimates of one method at one (eta, N, K)."""

    method: str
    eta: float
    interferer_total: int
    dominant_count: int
    thresholds_db: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    trials_used: np.ndarray


@dataclass(frozen=True)
class ProbModelParams:
    """Caller-supplied moment inputs of the closed-form baseline.

    ``mu_s`` and ``sigma_s_sq`` are the mean and variance parameters of the
    interference-plus-signal moment model for ``interferer_total`` nearest
    interferers; ``sigma0_sq`` is the reference power of the serving link.
    All three come from an external moment computation and have no defaults.
    """

    mu_s: float
    sigma_s_sq: float
    sigma0_sq: float
    interferer_total: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu_s):
            raise ValueError(f"mu_s must be finite, got {self.mu_s}")
        if not 0 <= self.sigma_s_sq < math.inf:
            raise ValueError(
                f"sigma_s_sq must be finite and >= 0, got {self.sigma_s_sq}")
        if not 0 < self.sigma0_sq < math.inf:
            raise ValueError(
                f"sigma0_sq must be finite and > 0, got {self.sigma0_sq}")
        _require_integers(self, "interferer_total")
        if self.interferer_total < 2:
            raise ValueError(
                f"interferer_total must be >= 2, got {self.interferer_total}"
            )


def _map_blocks(fn, n_trials: int, threads: int):
    """Run ``fn(lo, hi)`` over fixed trial blocks, preserving block order.

    The block layout and per-trial substreams never depend on ``threads``.
    A block function creates every generator and buffer it uses, and blocks
    share nothing mutable (they may read shared read-only draws), so any
    worker count reproduces the single-threaded result bit for bit.  On
    the README K-ladder CLI run at 2,000 trials (2-core host, 5
    interleaved pairs, each curve drawing its own geometry) the median run
    took 2.69 s with 1 thread and 1.93 s with 2.  The pool never starts more
    threads than there are blocks or cores this process may run on; one
    worker runs in the caller.
    """
    blocks = [(lo, min(lo + _TRIAL_BLOCK, n_trials))
              for lo in range(0, n_trials, _TRIAL_BLOCK)]
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(threads, len(blocks), cores)
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


def _hybrid_trial_values(D: np.ndarray, s: np.ndarray, K: int, N: int,
                         sig2: float, eta: float, tol: float) -> np.ndarray:
    """Conditional coverage of unit-density distance rows D at s = T*r**eta.

    ``s`` has shape (trials, thresholds) and ``sig2`` is the unit-density
    noise.  Each value multiplies the noise factor exp(-s*sig2), the exact
    fading average 1/(1 + s*R_i**-eta) over interferers 2..K, and the
    far-field factor exp(-2*pi * tail(s, R_K, R_N)), with the tail integral
    from :func:`tail_integral_batch` to absolute tolerance ``tol``.  With
    K == N the tail factor is exactly 1; with K == 1 the dominant product
    is empty.
    """
    dominant = np.ones_like(s)
    for i in range(1, K):
        dominant /= 1.0 + s / _pow_eta(D[:, i], eta)[:, None]
    a = np.broadcast_to(D[:, K - 1][:, None], s.shape)
    b = np.broadcast_to(D[:, N - 1][:, None], s.shape)
    tails = tail_integral_batch(s, eta, a, b, tol)
    return np.exp(-s * sig2 - 2.0 * math.pi * tails) * dominant


def _curve(method: str, eta: float, grid: ThresholdGrid, estimates,
           stderrs=None, used: int = 0, interferer_total: int = 0,
           dominant_count: int = 0) -> CoverageCurve:
    return CoverageCurve(
        method=method, eta=eta, interferer_total=interferer_total,
        dominant_count=dominant_count, thresholds_db=grid.thresholds_db,
        estimates=estimates,
        stderrs=np.zeros(len(grid)) if stderrs is None else stderrs,
        trials_used=np.full(len(grid), used, dtype=int),
    )


def _monte_carlo_curve(method: str, cfg: NetworkConfig,
                       settings: EstimatorSettings, grid: ThresholdGrid,
                       sampler: str, threads: int, values,
                       stderr, draws=None) -> CoverageCurve:
    """The Monte Carlo engine shared by the hybrid and simulation routes.

    Trial m draws its geometry from the (seed, GEOMETRY_WINDOW, m) or
    (seed, GEOMETRY_DIRECT, m) substream, which each block re-keys from one
    generator, so methods on the same sampler see the same draws.  Both
    samplers return a ``PppRealization``; draws with fewer than
    ``interferer_total`` points, which only the window makes, are skipped.
    ``values(D, trials)`` maps stacked distance rows D, shape (rows, N), and
    their trial indices to an array of shape (rows, thresholds); a block
    fills one such array in chunks of rows.  The per-threshold sum and sum
    of squares are reduced in block order, and ``stderr(mean, sumsq,
    used)`` turns them into standard errors.

    ``draws``, a dict, stores each block's read-only ``(D, trial indices)``
    under (stream domain, N, seed, trials, unit half-width), so a later
    curve with the same key reads the draws it would make, bit for bit,
    instead of drawing.  A curve whose draws would take the store past
    ``_MAX_DRAW_BYTES`` draws and stores nothing.
    """
    N = settings.interferer_total
    # Looked up per curve, not at import, so a wrapped sampler is seen.
    if sampler == SAMPLER_WINDOW:
        cfg.check_window(N)
        domain, draw = (streams.GEOMETRY_WINDOW,
                        partial(nearest_window_distances, cfg))
    elif sampler == SAMPLER_DIRECT:
        domain, draw = streams.GEOMETRY_DIRECT, sample_ordered_distances_direct
    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    # Rows are independent, so filling one block array a tail block of rows
    # at a time keeps the chunk's temporaries small and every bit the same.
    step = max(1, _TAIL_BLOCK // len(grid))

    key = (domain, N, settings.seed, settings.trials, cfg.unit_half_width)
    stored = None if draws is None else draws.get(key)
    # Decided before drawing, from the most the curve can keep, so a curve
    # that stores nothing holds one block's draws at a time, as without one.
    keep = draws is not None and stored is None and (
        settings.trials * (N + 1) * 8 + sum(
            a.nbytes for blocks in draws.values() for pair in blocks
            for a in pair) <= _MAX_DRAW_BYTES)

    def block(lo: int, hi: int):
        if stored is not None:
            D, trials = stored[lo // _TRIAL_BLOCK]
        else:
            rows, trials = [], []
            for m, rng in zip(range(lo, hi), streams.trial_streams(
                    settings.seed, domain, range(lo, hi))):
                real = draw(N, rng)
                if real.point_count >= N:
                    rows.append(real.distances)
                    trials.append(m)
            D, trials = np.reshape(rows, (-1, N)), np.array(trials, np.int64)
            D.flags.writeable = trials.flags.writeable = False
        vals = np.empty((len(D), len(grid)))
        for c in range(0, len(D), step):
            vals[c:c + step] = values(D[c:c + step],
                                      trials[c:c + step].tolist())
        part_sum = vals.sum(axis=0)
        vals *= vals
        return (part_sum, vals.sum(axis=0), len(D),
                (D, trials) if keep else None)

    sums = np.zeros(len(grid))
    sumsq = np.zeros(len(grid))
    used = 0
    results = _map_blocks(block, settings.trials, threads)
    for part_sum, part_sq, part_n, _ in results:
        sums += part_sum
        sumsq += part_sq
        used += part_n
    if keep:
        draws[key] = tuple(pair for *_, pair in results)
    if used == 0:
        raise EstimatorError(
            f"no trial produced enough points for the {method} estimator"
        )
    mean = sums / used
    return _curve(method, cfg.pathloss_exponent, grid, mean,
                  stderr(mean, sumsq, used), used, N,
                  settings.dominant_count)


def hybrid_coverage(cfg: NetworkConfig, settings: EstimatorSettings,
                    grid: ThresholdGrid, sampler: str = SAMPLER_WINDOW,
                    threads: int = 1, draws=None) -> CoverageCurve:
    """Monte Carlo coverage curve of the dominant-plus-tail estimator.

    Each trial draws one geometry (window or direct sampler), shares it
    across every threshold, and accumulates the conditional coverage values.
    Window trials with fewer than ``interferer_total`` points are skipped and
    reported via ``trials_used``.  Curves given one ``draws`` dict draw each
    geometry once and reuse it bit for bit, up to 128 MiB of draws.
    """
    K, N = settings.dominant_count, settings.interferer_total
    t_linear = grid.thresholds_linear
    sig2, eta = cfg.unit_noise, cfg.pathloss_exponent

    def values(D, trials):
        s = t_linear[None, :] * _pow_eta(D[:, 0], eta)[:, None]
        return _hybrid_trial_values(D, s, K, N, sig2, eta,
                                    settings.quad_abs_tol)

    def stderr(mean, sumsq, used):  # exactly 0 at one trial
        var = np.maximum(0.0, (sumsq - used * mean * mean) / max(used - 1, 1))
        return np.sqrt(var / used)

    return _monte_carlo_curve(METHOD_HYBRID, cfg, settings, grid, sampler,
                              threads, values, stderr, draws)


def empirical_coverage(cfg: NetworkConfig, settings: EstimatorSettings,
                       grid: ThresholdGrid, threads: int = 1,
                       draws=None) -> CoverageCurve:
    """Empirical fraction of trials whose SINR exceeds each threshold.

    Geometry comes from the same window substreams as the hybrid estimator
    with its default window sampler; fading gains are unit-mean exponentials
    from an independent substream.  Exactly the ``interferer_total - 1``
    nearest interferers contribute.  ``draws`` is as in ``hybrid_coverage``.
    """
    t_linear = grid.thresholds_linear
    eta, sig2 = cfg.pathloss_exponent, cfg.unit_noise

    def values(D, trials):
        gains = np.vstack([
            rng.standard_exponential(D.shape[1]) for rng in
            streams.trial_streams(settings.seed, streams.FADING, trials)])
        power = gains / _pow_eta(D, eta)
        denom = power[:, 1:].sum(axis=1) + sig2
        with np.errstate(divide="ignore"):
            sinr = np.where(denom > 0.0, power[:, 0] / denom, math.inf)
        return (sinr[:, None] > t_linear).astype(float)

    def stderr(p, sumsq, used):
        return np.sqrt(p * (1.0 - p) / used)

    return _monte_carlo_curve(METHOD_SIMULATION, cfg, settings, grid,
                              SAMPLER_WINDOW, threads, values, stderr, draws)


def sg_coverage(cfg: NetworkConfig, grid: ThresholdGrid,
                quad_abs_tol: float = DEFAULT_ABS_TOL) -> CoverageCurve:
    """Infinite-network coverage: one tail per threshold and a 1-D integral.

    With t = r*x the far-field tail separates, tail(T*r**eta, r, inf) =
    r**2 * I(T) with I(T) = tail(T, 1, inf), so with v = pi*r**2 at unit
    density the coverage is the integral over v >= 0 of
    exp(-v*(1 + 2*I(T)) - T*unit_noise*r**eta) (Andrews, Baccelli and Ganti,
    IEEE TCOM 2011, Theorem 2).  I(T) gets ``quad_abs_tol``/4 and the
    v-integral ``quad_abs_tol``/2; |d sg / d I| <= 2 keeps the total within
    ``quad_abs_tol``.  Each threshold's value is the one it gets alone.
    Only defined for pathloss exponents above 2: below that the tail
    integral refuses its infinite upper limit with ``ValueError``.

    For T >= 1 the integrand of I(T) is at least t/2 on [1, T**(1/eta)],
    so I(T) >= (T**(2/eta) - 1)/4 and sg <= 2/(T**(2/eta) + 1).  Where that
    bound is at most ``quad_abs_tol``/4 the estimate is 0 and neither
    integral runs for the threshold: there I(T) is too large to meet an
    absolute tolerance, and far above it its series overflows.
    """
    eta = cfg.pathloss_exponent
    if not 0 < quad_abs_tol < math.inf:
        raise ValueError(f"quad_abs_tol must be finite and > 0, got "
                         f"{quad_abs_tol}")
    t_lin = grid.thresholds_linear
    n = len(grid)
    with np.errstate(over="ignore"):
        live = np.power(t_lin, 2.0 / eta) + 1.0 < 8.0 / quad_abs_tol
    # A tail with s = 0 and a zero-width outer interval cost nothing.
    t_live = np.where(live, t_lin, 0.0)
    rate = 1.0 + 2.0 * tail_integral_batch(t_live, eta, np.ones(n), math.inf,
                                           0.25 * quad_abs_tol)
    noise = t_live * cfg.unit_noise

    def integrand(v, owner):
        r = np.sqrt(v / math.pi)
        return np.exp(-v * rate[owner] - noise[owner] * _pow_eta(r, eta))

    values, _ = _adaptive_batch(_unit_interval(integrand, 0.0), np.zeros(n),
                                live.astype(float), 0.5 * quad_abs_tol)
    estimates = np.clip(values, 0.0, 1.0)
    return _curve(METHOD_SG, eta, grid, estimates)


_LN2 = math.log(2.0)


def interference_moment_coefficient(i: int) -> float:
    """Unit-density second-moment coefficient of the i-th nearest interferer.

    Defined for integer i >= 2; at density lam divide by lam**2, which is
    exact.  The i = 2 value is (67 - 96*ln 2)/pi**2; for i >= 3 the
    Gamma-ratio series is evaluated in log space.
    """
    if not (i >= 2 and i % 1 == 0):
        raise ValueError(f"coefficient defined for integer i >= 2, got {i}")
    pi_sq = math.pi * math.pi
    if i == 2:
        return (67.0 - 96.0 * _LN2) / pi_sq
    lg_i = math.lgamma(i)
    first = math.exp(math.log(24.0) + math.lgamma(i - 2) - lg_i)
    for k in range(5):
        first -= math.exp(math.log(24.0) + math.lgamma(i + k - 2)
                          - math.lgamma(k + 1) - (i + k - 2) * _LN2 - lg_i)
    # 1 - ln 2 is the sum over all k >= 0 of 1/((k+1)(k+2)2^(k+1)), so the
    # bracket is the positive tail k > i+1; summing it directly avoids
    # cancellation, and 58 terms shrink by 2^-58 below the first.
    tail = math.fsum(math.ldexp(1.0 / ((k + 1) * (k + 2)), -(k + 1))
                     for k in range(i + 2, i + 60))
    second = math.exp(math.lgamma(i + 4) - lg_i) * tail
    return (first + second) / pi_sq


def prob_model_coverage(params: ProbModelParams, cfg: NetworkConfig,
                        grid: ThresholdGrid) -> CoverageCurve:
    """Closed-form Gaussian-moment coverage baseline (pathloss exponent 4).

    Augments the supplied moments with the noise corrections, checks the
    validity condition mu >= sigma/sqrt(2) of the underlying Gaussian
    approximation, and evaluates the closed form per threshold.  At eta 4,
    sigma^2/(pi*lam)**2 = unit_noise/pi**2, so the corrections read only
    ``cfg.unit_noise`` and the unit-density coefficients.
    """
    if cfg.pathloss_exponent != 4.0:
        raise ValueError(
            f"the moment-based baseline is defined for pathloss_exponent 4, "
            f"got {cfg.pathloss_exponent}"
        )
    sig2, pl2 = cfg.unit_noise, math.pi ** 2
    beta = math.fsum(
        interference_moment_coefficient(i)
        for i in range(2, params.interferer_total + 1)
    )
    mu_t = params.mu_s + 2.0 * sig2 / pl2
    sigma_t_sq = (params.sigma_s_sq + 20.0 * sig2 * sig2 / (pl2 * pl2)
                  + 2.0 * sig2 * beta - 4.0 * sig2 * params.mu_s / pl2)
    if sigma_t_sq < 0.0:
        raise ModelValidityError(
            f"augmented variance is negative ({sigma_t_sq:.6g}); the moment "
            f"inputs are inconsistent"
        )
    if mu_t < math.sqrt(sigma_t_sq / 2.0):
        raise ModelValidityError(
            f"validity condition violated: mu_tilde={mu_t:.6g} < "
            f"sigma_tilde/sqrt(2)={math.sqrt(sigma_t_sq / 2.0):.6g}"
        )
    disc = mu_t * mu_t - sigma_t_sq / 2.0
    mu_u_sq = math.sqrt(disc)
    sigma_u_sq = mu_t - mu_u_sq
    t_lin = grid.thresholds_linear
    sigma0 = params.sigma0_sq
    estimates = (np.exp(-t_lin * mu_u_sq / (sigma0 + 2.0 * t_lin * sigma_u_sq))
                 / np.sqrt(1.0 + 2.0 * t_lin * sigma_u_sq / sigma0))
    return _curve(METHOD_PROBABILISTIC, cfg.pathloss_exponent, grid,
                  estimates, interferer_total=params.interferer_total)

