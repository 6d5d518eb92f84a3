"""Closed-form oracles the tests check the library against."""
import math

from sinrcov.quadrature import _check_tail_args


def tail_integral_closed_form(s: float, eta: float, a: float,
                              b: float) -> float:
    """Antiderivative-based tail integral for eta in {2, 4} (test oracle).

    eta=4: (sqrt(s)/2) * [arctan(t^2/sqrt(s))] evaluated a..b, with
    arctan(inf) = pi/2.  eta=2: (s/2) * [ln(t^2 + s)] a..b, finite b only.
    """
    if eta not in (2.0, 4.0):
        raise ValueError(f"closed form available only for eta in {{2, 4}}, "
                         f"got {eta}")
    _check_tail_args(s, eta, a, b)
    if s == 0.0 or a == b:
        return 0.0
    if eta == 4.0:
        rs = math.sqrt(s)
        hi = math.pi / 2.0 if math.isinf(b) else math.atan(b * b / rs)
        return 0.5 * rs * (hi - math.atan(a * a / rs))
    return 0.5 * s * (math.log(b * b + s) - math.log(a * a + s))
