"""Adaptive 1-D quadrature and the far-field interference tail integral.

The integrator is a globally adaptive Gauss-Kronrod (7, 15) scheme: every
interval is estimated with the 15-point Kronrod rule, the error is gauged
against the embedded 7-point Gauss rule, and the worst intervals are bisected
until the summed error estimate meets the absolute tolerance.  A batched
engine integrates many independent integrals of one family in lock-step,
which keeps the per-trial tail factors of the Monte Carlo estimators cheap.
It hands the integrand fixed blocks of panels, so the temporaries of one
call stay in cache however large the batch is.

Integrals over [a, inf), such as the serving-distance average of the sg
benchmark, are mapped onto [0, 1) with t = a + v/(1-v); endpoints are never
evaluated, so integrable endpoint behaviour is handled by subdivision.  The
tail integral is integrated over v = log t instead, where its two power laws
become exponentials, and its ends below and far above the knee are summed
analytically, each by a fixed 27-term series that needs no stop rule (see
:func:`tail_integral_batch`).  Every integral of a batch is refined, stopped
and summed on its own, and holds its own subdivision budget, so neither its
value nor whether it converges depends on what shares its batch or panel
block.
"""
from __future__ import annotations

import numpy as np

DEFAULT_ABS_TOL = 1e-6

# Subintervals per integral (QUADPACK's ``limit``); sg at tol 1e-12, the
# truncation diagnostics at 1e-10 and the perfbench workloads need <= 30.
_MAX_PANELS = 1000
# Panels evaluated per integrand call: 2,048 x 15 nodes keep the integrand's
# temporaries in cache instead of in arrays of tens of megabytes.
_PANEL_BLOCK = 2048
# Integrals per block of ``tail_integral_batch``: each block prepares its
# arguments, refines and sums its ends on its own, so a call's temporaries
# stay in cache however large its batch is.  On fractional-dense (2-core
# Xeon, 4 MiB L2) 8,192 beat 4,096 and 16,384 in 3 of 3 interleaved runs.
_TAIL_BLOCK = 8192
_SERIES_TERMS = 27

# 15-point Kronrod nodes on [-1, 1]; the embedded 7-point Gauss rule lives at
# the odd indices.  Endpoints +-1 are not nodes.
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before the tolerance was met.

    Carries the best available estimate and its error bound, one array
    element per integral of the batch.
    """

    def __init__(self, message: str, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _panel(fun, lo, hi, owner):
    """Kronrod-15 estimates and |K15 - G7| error gauges for a set of panels.

    Panels go to ``fun`` in blocks of ``_PANEL_BLOCK``.  Both rules sum each
    row on its own, so a panel's values do not depend on its block.
    """
    k15 = np.empty(lo.size)
    err = np.empty(lo.size)
    for start in range(0, lo.size, _PANEL_BLOCK):
        blk = slice(start, start + _PANEL_BLOCK)
        c = 0.5 * (lo[blk] + hi[blk])
        h = 0.5 * (hi[blk] - lo[blk])
        fx = fun(c[:, None] + h[:, None] * _K15_NODES, owner[blk])
        k15[blk] = h * (fx * _K15_WEIGHTS).sum(axis=1)
        g7 = h * (fx[:, 1::2] * _G7_WEIGHTS).sum(axis=1)
        err[blk] = np.abs(k15[blk] - g7)
    # A NaN estimate must read as "not converged", never as small error.
    return k15, np.where(np.isnan(err), np.inf, err)


def _adaptive_batch(fun, lo, hi, abs_tol):
    """Integrate ``fun`` over [lo_i, hi_i] for every owner i.

    ``fun(x, owner)`` receives panel nodes of shape (nseg, 15) and the owning
    integral index per panel, and must return integrand values of the same
    shape.  Returns (values, error_bounds).  Zero-width intervals contribute
    zero.  An integral stops refining before it would hold more than
    ``_MAX_PANELS`` subintervals; when no integral can refine further, raises
    :class:`QuadratureError` if any is still short of ``abs_tol``.
    """
    n = lo.size
    values = np.zeros(n)
    banked_err = np.zeros(n)
    owner = np.nonzero(hi > lo)[0]
    if owner.size == 0:
        return values, banked_err
    seg_lo = lo[owner].astype(float)
    seg_hi = hi[owner].astype(float)
    seg_val, seg_err = _panel(fun, seg_lo, seg_hi, owner)

    while True:
        tot = np.bincount(owner, weights=seg_err, minlength=n)
        done = tot <= abs_tol
        fin = done[owner]
        if fin.any():
            values += np.bincount(owner[fin], weights=seg_val[fin], minlength=n)
            banked_err += np.where(done, tot, 0.0)
            keep = ~fin
            owner = owner[keep]
            seg_lo, seg_hi = seg_lo[keep], seg_hi[keep]
            seg_val, seg_err = seg_val[keep], seg_err[keep]
        if owner.size == 0:
            return values, banked_err

        # Bisect every segment carrying a sizable share of its owner's error.
        width = seg_hi - seg_lo
        splittable = width > 2.0 * np.spacing(np.maximum(np.abs(seg_lo),
                                                         np.abs(seg_hi)))
        gauge = np.where(splittable, seg_err, 0.0)
        omax = np.zeros(n)
        np.maximum.at(omax, owner, gauge)
        split = splittable & (seg_err >= 0.25 * omax[owner]) & (omax[owner] > 0)
        panels = (np.bincount(owner, minlength=n)
                  + np.bincount(owner[split], minlength=n))
        split &= panels[owner] <= _MAX_PANELS
        if not split.any():
            break  # nothing can be refined further

        mid = 0.5 * (seg_lo[split] + seg_hi[split])
        child_lo = np.concatenate([seg_lo[split], mid])
        child_hi = np.concatenate([mid, seg_hi[split]])
        child_owner = np.concatenate([owner[split], owner[split]])
        child_val, child_err = _panel(fun, child_lo, child_hi, child_owner)

        keep = ~split
        owner = np.concatenate([owner[keep], child_owner])
        seg_lo = np.concatenate([seg_lo[keep], child_lo])
        seg_hi = np.concatenate([seg_hi[keep], child_hi])
        seg_val = np.concatenate([seg_val[keep], child_val])
        seg_err = np.concatenate([seg_err[keep], child_err])

    best = values + np.bincount(owner, weights=seg_val, minlength=n)
    err = banked_err + np.bincount(owner, weights=seg_err, minlength=n)
    bad = int(np.count_nonzero(~(err <= abs_tol)))
    raise QuadratureError(
        f"adaptive quadrature did not reach abs_tol={abs_tol:g} for {bad} of "
        f"{n} integral(s) within {_MAX_PANELS} subintervals each",
        estimate=best,
        error_bound=err,
    )


def _unit_interval(fun, a: float):
    """Map ``fun(x, owner)`` on [a, inf) onto [0, 1) by t = a + v/(1-v)."""
    def mapped(v, owner):
        # v == 1.0 can be hit after deep subdivision; the node carries
        # vanishing measure, so its contribution is dropped.
        om = 1.0 - v
        safe = om > 0.0
        om = np.where(safe, om, 1.0)
        return np.where(safe, fun(a + v / om, owner) / (om * om), 0.0)
    return mapped


def _pow_eta(t, eta: float):
    """t**eta with fast paths for the common integer exponents."""
    if eta == 2.0:
        return t * t
    if eta == 3.0:
        return t * t * t
    if eta == 4.0:
        t2 = t * t
        return t2 * t2
    return np.power(t, eta)


def tail_integrand(s, eta: float, t):
    """Stable form s*t/(t**eta + s) of the tail exponent integrand.

    Algebraically identical to s*t**(1-eta)/(1 + s*t**(-eta)) for t > 0 but
    free of t**(-eta) overflow at small t.  Values lie in [0, t].
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = s * t / (_pow_eta(t, eta) + s)
        # 0/0 where t**eta + s vanishes (s = 0) reads as 0.
        return np.where(np.isfinite(out), out, 0.0)


def _check_tail_args(s, eta: float, a, b) -> None:
    """Owns the rule that a tail to infinity needs eta > 2.

    NaN fails every comparison; s, and b when eta > 2, may be +inf.
    """
    if not 0 < eta < np.inf:
        raise ValueError(
            f"pathloss exponent must be finite and > 0, got {eta}")
    if not np.all(np.asarray(s) >= 0):
        raise ValueError("s must be >= 0")
    if not np.all(np.asarray(a) >= 0):
        raise ValueError("lower limit must be >= 0")
    if not np.all(np.asarray(b) >= np.asarray(a)):
        raise ValueError("upper limit must be >= lower limit")
    if eta <= 2.0 and np.any(np.isinf(np.asarray(b, dtype=float))):
        raise ValueError(
            f"the tail integral to infinity diverges unless the pathloss "
            f"exponent is > 2, got {eta}")


def _end_series(first, ratio, alpha: float, eta: float):
    """first * sum_{k < 27} ratio**k / (alpha + eta*k), elementwise.

    Callers pass |ratio| <= 1/4, so the first omitted term is below
    4**-27 < eps/2 of the first kept one and no element needs a stop rule.
    """
    k = np.arange(_SERIES_TERMS - 1, -1, -1)
    return first * np.polyval(1.0 / (alpha + eta * k), ratio)


def tail_integral_batch(s, eta: float, a, b,
                        abs_tol: float = DEFAULT_ABS_TOL) -> np.ndarray:
    """Integral of s*t/(t**eta + s) over [a, b], elementwise over (s, a, b).

    All integrals share one path-loss exponent and tolerance; b may be +inf
    when eta > 2, a may be 0, and both kinds mix freely with finite limits.
    Each integral makes one Gauss-Kronrod pass with the whole ``abs_tol``
    over v = log t, integrating t * s*t/(t**eta + s) from log(lower) to
    log(upper).  In log t the rise as t below the knee at t = s**(1/eta) and
    the fall as s*t**(1-eta) above it are both exponentials, and the knee is
    a smooth bump, so one panel no longer straddles a kink that its
    |K15 - G7| gauge under-reports.  The two ends are summed analytically,
    both with ``_end_series``, first * sum_{k < 27} ratio**k / (alpha +
    eta*k), where |ratio| <= 1/4 puts every omitted term below rounding:

    * upper is b, or c = max(a, (4s)**(1/eta)) when b is infinite, and the
      far tail beyond c is added with first = s*c**(2-eta), ratio =
      -s*c**(-eta) and alpha = eta - 2;
    * lower is max(a, c0) with c0 = min(upper, (s/4)**(1/eta)), and where
      a < c0 the near part [a, c0] is added as the integral over [0, x] at
      x = c0 minus the one at x = a (0 at a = 0), each with first = x**2,
      ratio = -x**eta/s and alpha = 2.  A panel that starts just below the
      knee gauges its error conservatively; one that starts far below it
      can under-report it.

    Accuracy does not degrade as eta approaches 2 from above.  ``abs_tol``
    is absolute only, and each panel rounds at about eps times the tail's
    value, so a tail far above 1 may not meet a tight tolerance: at 1e-12,
    eta = 2 and a = 0, 111 of 4,000 tails with s log-uniform on [1e-2, 1e4]
    and b on [1e-2, 1e2] raised :class:`QuadratureError`, each above 300.

    The batch is integrated in consecutive blocks of ``_TAIL_BLOCK``
    elements, and each block's integrand in blocks of panels (see
    ``_panel``), so every element's value is the one it gets alone.  A
    :class:`QuadratureError` carries arrays of the batch's shape: the
    failing block's best values (0 with bound 0 where no integral is
    needed), the earlier blocks' values with bound NaN, and NaN for the
    blocks never reached.
    """
    s, a, b = np.broadcast_arrays(np.asarray(s, dtype=float),
                                  np.asarray(a, dtype=float),
                                  np.asarray(b, dtype=float))
    _check_tail_args(s, eta, a, b)
    if not 0 < abs_tol < np.inf:
        raise ValueError(f"abs_tol must be finite and > 0, got {abs_tol}")
    out = np.empty(s.size)
    if s.size:
        # A block copies only the rows of the last axis that it spans.
        width = s.shape[-1] if s.ndim else 1
        rows = [x.reshape(-1, width) for x in (s, a, b)]
        for lo in range(0, s.size, _TAIL_BLOCK):
            hi = min(lo + _TAIL_BLOCK, s.size)
            first = lo // width
            cut = slice(lo - first * width, hi - first * width)
            sb, ab, bb = (x[first:-(-hi // width)].reshape(-1)[cut]
                          for x in rows)
            out[lo:hi], bound = _tail_block(sb, eta, ab, bb, abs_tol)
            if bound is not None:
                out[hi:] = np.nan
                err = np.full(s.size, np.nan)
                err[lo:hi] = bound
                bad = int(np.count_nonzero(~(bound <= abs_tol)))
                raise QuadratureError(
                    f"adaptive quadrature did not reach abs_tol={abs_tol:g} "
                    f"for {bad} of {s.size} integral(s) within {_MAX_PANELS} "
                    f"subintervals each", estimate=out.reshape(s.shape),
                    error_bound=err.reshape(s.shape))
    return out.reshape(s.shape)


def _tail_block(s, eta: float, a, b, abs_tol: float):
    """:func:`tail_integral_batch` on one block of checked 1-D arguments.

    Returns the values and None, or, if the quadrature ran out of budget,
    its best values and every element's error bound.
    """
    out = np.zeros(s.size)
    idx = np.nonzero((b > a) & (s > 0))[0]
    s, a, b = s[idx], a[idx], b[idx]
    far = np.isinf(b)
    upper = b.copy()
    upper[far] = np.maximum(a[far], np.exp(np.log(4.0 * s[far]) / eta))
    lower = np.maximum(a, np.minimum(
        upper, np.exp((np.log(s) - np.log(4.0)) / eta)))
    near = a < lower
    # Where (s/4)**(1/eta) underflows at a = 0, the quadrature starts at the
    # smallest normal float instead; the piece it skips is below tiny**2.
    log_lower = np.log(np.maximum(lower, np.finfo(float).tiny))

    def fun(v, owner):
        t = np.exp(v)
        return t * tail_integrand(s[owner][:, None], eta, t)

    failed = None
    try:
        vals, _ = _adaptive_batch(fun, log_lower, np.log(upper), abs_tol)
    except QuadratureError as exc:  # the batch re-raises it in its shape
        vals, failed = exc.estimate, exc.error_bound
    if far.any():  # b = inf needs eta > 2; below, alpha + eta*k can be 0
        c, sf = upper[far], s[far]
        pc = _pow_eta(c, eta)
        vals[far] += _end_series(sf * c * c / pc, -sf / pc, eta - 2.0, eta)

    def below(x):  # the integral over [0, x], for x**eta <= s/4
        return _end_series(x * x, -_pow_eta(x, eta) / s[near], 2.0, eta)

    vals[near] += below(lower[near]) - below(a[near])
    out[idx] = vals
    if failed is None:
        return out, None
    bound = np.zeros(out.size)
    bound[idx] = failed
    return out, bound
