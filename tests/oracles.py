"""Closed-form oracles the tests check the library against."""
import math

import numpy as np
from scipy import integrate
from scipy.special import beta, betainc, gammaincinv, hyp2f1

from sinrcov.quadrature import (
    DEFAULT_ABS_TOL,
    _check_tail_args,
    _pow_eta,
    tail_integral_batch,
)


def tail_integral_closed_form(s, eta: float, a, b):
    """Antiderivative-based tail integral for eta in {2, 4} (test oracle).

    eta=4: (sqrt(s)/2) * [arctan(t^2/sqrt(s))] evaluated a..b, with
    arctan(inf) = pi/2.  eta=2: (s/2) * [ln(t^2 + s)] a..b, finite b only.
    Elementwise over scalars or arrays of (s, a, b).
    """
    if eta not in (2.0, 4.0):
        raise ValueError(f"closed form available only for eta in {{2, 4}}, "
                         f"got {eta}")
    _check_tail_args(s, eta, a, b)
    s, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                    for x in (s, a, b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        if eta == 4.0:
            rs = np.sqrt(s)
            hi = np.where(np.isinf(b), math.pi / 2.0, np.arctan(b * b / rs))
            out = 0.5 * rs * (hi - np.arctan(a * a / rs))
        else:
            out = 0.5 * s * (np.log(b * b + s) - np.log(a * a + s))
    out = np.where((s == 0.0) | (a == b), 0.0, out)
    return out if out.ndim else float(out)


def tail_integral_betainc(s, eta: float, a, b):
    """Tail integral for eta > 2 by the incomplete-beta reduction (test oracle).

    With p = 2/eta and y = t^eta/(t^eta + s) the integral over [a, b] is
    (s^p/eta) * B(p, 1-p) * [I_y(b)(p, 1-p) - I_y(a)(p, 1-p)].  Above
    y = 1/2, I_y(p, 1-p) is taken as 1 - I_{1-y}(1-p, p), so no difference
    cancels near 1.  Elementwise over arrays of (s, a, b); b may be +inf.
    """
    if not eta > 2.0:
        raise ValueError(f"defined for eta > 2, got {eta}")
    _check_tail_args(s, eta, a, b)
    s, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                    for x in (s, a, b)))
    p, q = 2.0 / eta, 1.0 - 2.0 / eta

    def y_pair(t):
        with np.errstate(invalid="ignore"):
            ta = np.power(t, eta)
            y, comp = ta / (ta + s), s / (ta + s)
        return np.where(np.isinf(t), 1.0, y), np.where(np.isinf(t), 0.0, comp)

    ya, ca = y_pair(a)
    yb, cb = y_pair(b)
    diff = np.where(ya > 0.5, betainc(q, p, ca) - betainc(q, p, cb),
                    np.where(yb <= 0.5,
                             betainc(p, q, yb) - betainc(p, q, ya),
                             (1.0 - betainc(q, p, cb)) - betainc(p, q, ya)))
    out = np.power(s, p) / eta * beta(p, q) * diff
    out = np.where((s == 0.0) | (a == b), 0.0, out)
    return out if out.ndim else float(out)


def _scipy_tail(s, eta: float, a, b):
    """The closed form at eta 2 and 4, the incomplete beta otherwise."""
    if eta in (2.0, 4.0):
        return tail_integral_closed_form(s, eta, a, b)
    return tail_integral_betainc(s, eta, a, b)


def hybrid_expectation(eta: float, N: int, K: int, lam: float, noise: float,
                       t_lin, nodes: int = 32) -> np.ndarray:
    """Exact E[hybrid_{N,K}(T)] for 1 <= K <= N (test oracle).

    u = pi*lam*r^2 ~ Exp(1), w1 = pi*lam*(R_K^2 - r^2) ~ Gamma(K-1) and
    w2 = pi*lam*(R_N^2 - R_K^2) ~ Gamma(N-K) are independent, so the
    expectation is an integral over their CDFs, taken by tensor
    Gauss-Legendre with u = -log1p(-p) and w = gammaincinv(shape, q).  With
    s = T*r^eta, g(t) = 1/(1 + s*t^-eta) and
    A(a, b) = 1 - 2*tail(s, a, b)/(b^2 - a^2), the mean of g over a point
    uniform on the annulus between a and b, the integrand is

    * K = 1: e^(-s*noise) * exp(-2*pi*lam*tail(s, r, R_N));
    * K = N: e^(-s*noise) * g(R_N) * A(r, R_N)^(N-2);
    * 1 < K < N: e^(-s*noise) * g(R_K) * A(r, R_K)^(K-2)
      * exp(-2*pi*lam*tail(s, R_K, R_N)), since the K-2 interferers
      between r and R_K lie i.i.d. uniform on their annulus.

    Under Rayleigh fading the K = N value is also the coverage P_N of the
    network cut off at the N-th interferer.  The tail comes from the closed
    form (eta 2 and 4) or the incomplete-beta reduction, never from the
    library.  The 2-D cases take 120 nodes per axis, which agree with 80 to
    2.5e-6 on the README grid at noise 0.1; the 3-D case takes ``nodes``.
    """
    if not 1 <= K <= N:
        raise ValueError(f"defined for 1 <= K <= N, got K={K}, N={N}")
    x, wx = np.polynomial.legendre.leggauss(120 if K in (1, N) else nodes)
    p, wx = 0.5 * (x + 1.0), 0.5 * wx

    def squared(axis, w):  # r^2 increments pi*lam*dr^2 = w along ``axis``
        return (w / (math.pi * lam)).reshape(
            [-1 if i == axis else 1 for i in range(4)])

    # Axes: r, then R_K (or R_N at K = 1), then R_N, then the thresholds.
    r_sq = squared(0, -np.log1p(-p))
    s = np.asarray(t_lin, dtype=float) * r_sq ** (0.5 * eta)
    value = np.exp(-s * noise)
    if K == 1:
        rn_sq = r_sq + squared(1, gammaincinv(N - 1, p))
        value = value * np.exp(-2.0 * math.pi * lam * _scipy_tail(
            s, eta, np.sqrt(r_sq), np.sqrt(rn_sq)))
        return np.einsum("i,j,ijkl->l", wx, wx, value)
    rk_sq = r_sq + squared(1, gammaincinv(K - 1, p))
    annulus = 1.0 - 2.0 * _scipy_tail(s, eta, np.sqrt(r_sq),
                                      np.sqrt(rk_sq)) / (rk_sq - r_sq)
    value = value / (1.0 + s / rk_sq ** (0.5 * eta)) * annulus ** (K - 2)
    if K == N:
        return np.einsum("i,j,ijkl->l", wx, wx, value)
    rn_sq = rk_sq + squared(2, gammaincinv(N - K, p))
    value = value * np.exp(-2.0 * math.pi * lam * _scipy_tail(
        s, eta, np.sqrt(rk_sq), np.sqrt(rn_sq)))
    return np.einsum("i,j,k,ijkl->l", wx, wx, wx, value)


def binomial_completion(D, s, K: int, N: int, noise: float,
                        eta: float) -> np.ndarray:
    """The hybrid's per-trial value with its exact far field (test oracle).

    Given R_K and R_N, the N-K-1 interferers between them lie i.i.d. uniform
    on the annulus, a binomial process, and the one at R_N is fixed; so the
    exact conditional mean of their fading product is
    A(R_K, R_N)^(N-K-1) * g(R_N), with g(t) = 1/(1 + s*t^-eta) and
    A(a, b) = 1 - 2*tail(s, a, b)/(b^2 - a^2).  The hybrid uses the Poisson
    functional exp(-2*pi*lam*tail(s, R_K, R_N)) in its place; with that one
    factor swapped back the value is unbiased for P_N at every K < N, and
    its mean is ``hybrid_expectation(eta, N, N, ...)``.  No density enters:
    given the distances, the binomial factor does not depend on it.

    D holds distance rows, shape (trials, N), and s = T*r^eta has shape
    (trials, thresholds).  The tails come from scipy, never the library.
    """
    if not 1 <= K < N:
        raise ValueError(f"defined for 1 <= K < N, got K={K}, N={N}")

    def g(t):
        return 1.0 / (1.0 + s / t[:, None] ** eta)

    value = np.exp(-s * noise)
    for i in range(1, K):
        value = value * g(D[:, i])
    a, b = D[:, K - 1][:, None], D[:, N - 1][:, None]
    annulus = 1.0 - 2.0 * _scipy_tail(s, eta, a, b) / (b * b - a * a)
    return value * annulus ** (N - K - 1) * g(D[:, N - 1])


def sg_eta4_coverage(t: float, lam: float, noise: float) -> float:
    """Infinite-network coverage at eta=4 by its 1-D reduction (test oracle).

    The tail exponent has the closed form pi*lam*r^2*rho(T) with
    rho(T) = sqrt(T)*(pi/2 - atan(1/sqrt(T))) (Andrews, Baccelli and Ganti,
    IEEE TCOM 2011), which leaves
    int 2*pi*lam*r * exp(-pi*lam*r^2*(1 + rho) - T*r^4*noise) dr over r >= 0,
    integrated here in u = r^2 by scipy's QUADPACK.
    """
    rt = math.sqrt(t)
    rate = math.pi * lam * (1.0 + rt * (math.pi / 2.0 - math.atan(1.0 / rt)))
    value, _ = integrate.quad(
        lambda u: math.pi * lam * math.exp(-rate * u - t * noise * u * u),
        0.0, math.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
    return value


def sg_noise_free_coverage(t: float, eta: float) -> float:
    """Noise-free infinite-network coverage for any eta > 2 (test oracle).

    1/(1 + rho) with rho = (2T/(eta-2)) * 2F1(1, 1-2/eta; 2-2/eta; -T)
    (Andrews, Baccelli and Ganti, IEEE TCOM 2011, Theorem 2), with the
    hypergeometric function from scipy.
    """
    if not eta > 2.0:
        raise ValueError(f"defined for eta > 2, got {eta}")
    delta = 2.0 / eta
    rho = (2.0 * t / (eta - 2.0)) * hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -t)
    return 1.0 / (1.0 + rho)


def serving_distance_density(r, bs_density: float):
    """Density of the nearest-BS distance, 2*pi*lam*r*exp(-pi*lam*r^2).

    Elementwise over scalars or arrays in ``r`` (test oracle).
    """
    r = np.asarray(r, dtype=float)
    lam = bs_density
    out = 2.0 * math.pi * lam * r * np.exp(-math.pi * lam * r * r)
    return out if out.ndim else float(out)


def expected_tail_error_exact(n: int, t: float, eta: float) -> float:
    """E[delta_N(T)] as a 1-D integral over B = r^2/R_N^2 (test oracle).

    B ~ Beta(1, N-1) is independent of G = pi*lam*R_N^2 ~ Gamma(N), and
    t = r*x turns the far-field tail into r^2 * I_T(R_N/r) with
    I_T(x) = int_x^inf T*t/(t^eta + T) dt (Andrews, Baccelli and Ganti, IEEE
    TCOM 2011).  The Gamma MGF then gives
    E[delta_N(T)] = 1 - int_0^1 (N-1)(1-b)^(N-2) (1 + 2b*I_T(b^-1/2))^-N db,
    which does not depend on lam.  Both integrals use scipy's QUADPACK.
    """
    if not eta > 2.0:
        raise ValueError(f"defined for eta > 2, got {eta}")

    def tail(x):
        value, _ = integrate.quad(lambda u: t * u / (u ** eta + t), x,
                                  math.inf, epsabs=1e-14, epsrel=1e-12,
                                  limit=200)
        return value

    def covered(b):
        if b == 0.0:
            return float(n - 1)
        return ((n - 1) * (1.0 - b) ** (n - 2)
                * (1.0 + 2.0 * b * tail(b ** -0.5)) ** -n)

    value, _ = integrate.quad(covered, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10,
                              limit=200)
    return 1.0 - value


def tail_truncation_error(s, boundary_radius, bs_density: float,
                          pathloss_exponent: float,
                          quad_abs_tol: float = DEFAULT_ABS_TOL):
    """Coverage error from ignoring interferers beyond ``boundary_radius``.

    1 - exp(-2*pi*lam * tail(s, R, inf)), pinned below 1 where
    exp underflows.  Elementwise over arrays of ``s`` and ``boundary_radius``
    (test oracle; the tail integral refuses eta <= 2).
    """
    tail = tail_integral_batch(s, pathloss_exponent, boundary_radius,
                               math.inf, quad_abs_tol)
    out = np.minimum(-np.expm1(-2.0 * math.pi * bs_density * tail),
                     math.nextafter(1.0, 0.0))
    return out if out.ndim else float(out)


def tail_truncation_error_bound(s, boundary_radius, bs_density: float,
                                pathloss_exponent: float):
    """Elementary bound 2*pi*lam*s / ((eta-2) * R**(eta-2)) (test oracle).

    Dominates :func:`tail_truncation_error` pointwise, since the tail
    integrand s*t/(t**eta + s) is at most s*t**(1-eta).  Elementwise over
    arrays of ``s`` and ``boundary_radius``.
    """
    eta = pathloss_exponent
    if not eta > 2.0:
        raise ValueError(f"defined for eta > 2, got {eta}")
    out = (2.0 * math.pi * bs_density * np.asarray(s, dtype=float)
           / ((eta - 2.0) * _pow_eta(np.asarray(boundary_radius, dtype=float),
                                     eta - 2.0)))
    return out if out.ndim else float(out)
