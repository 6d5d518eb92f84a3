import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

import sinrcov as sc
from sinrcov import quadrature
from sinrcov.geometry import sample_ordered_distances_direct
from sinrcov.quadrature import (_PANEL_BLOCK, DEFAULT_ABS_TOL,
                                QuadratureError, _adaptive_batch,
                                _unit_interval)

from oracles import tail_integral_betainc, tail_integral_closed_form


def _tail(s, eta, a, b, abs_tol=DEFAULT_ABS_TOL):
    """One tail integral through the batched evaluator."""
    return float(sc.tail_integral_batch([s], eta, [a], [b], abs_tol)[0])


def _integrate(f, a, b, abs_tol):
    """One integral of elementwise ``f`` over [a, b] through the engine."""
    vals, errs = _adaptive_batch(lambda x, owner: f(x), np.array([a]),
                                 np.array([b]), abs_tol)
    return vals[0], errs[0]


class TestIntegrateAdaptive:
    """The Gauss-Kronrod engine, called through ``_adaptive_batch``."""

    def test_zero_function(self):
        value, err = _integrate(np.zeros_like, 0.0, 1.0, 1e-9)
        assert value == 0.0
        assert err <= 1e-9

    def test_linear_function(self):
        value, _ = _integrate(lambda t: t, 0.0, 1.0, 1e-9)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_high_degree_polynomial(self):
        value, _ = _integrate(lambda t: t ** 10, 0.0, 2.0, 1e-10)
        assert value == pytest.approx(2.0 ** 11 / 11.0, abs=1e-10)

    def test_infinite_upper_limit_gaussian_decay(self):
        fun = _unit_interval(
            lambda t, owner: 2 * math.pi * t * np.exp(-math.pi * t * t), 0.0)
        vals, _ = _adaptive_batch(fun, np.zeros(1), np.ones(1), 1e-10)
        assert vals[0] == pytest.approx(1.0, abs=1e-9)

    def test_empty_interval(self):
        # A zero-width interval gives 0 and does not hold up its batch.
        vals, errs = _adaptive_batch(lambda x, owner: x,
                                     np.array([2.0, 0.0]),
                                     np.array([2.0, 1.0]), 1e-9)
        assert vals[0] == 0.0 and errs[0] == 0.0
        assert vals[1] == pytest.approx(0.5, abs=1e-9)

    def test_est_error_reported_within_tolerance(self):
        _, err = _integrate(np.exp, -5.0, 0.0, 1e-8)
        assert 0.0 <= err <= 1e-8

    def test_nan_reads_as_not_converged(self, monkeypatch):
        # The NaN integral must raise, not pass with a NaN error estimate,
        # while its finite neighbour still converges.
        def fun(x, owner):
            return np.where(owner[:, None] == 0, np.nan, x)

        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        with pytest.raises(QuadratureError, match="1 of 2") as excinfo:
            _adaptive_batch(fun, np.zeros(2), np.ones(2), 1e-9)
        err = excinfo.value
        assert not err.error_bound[0] <= 1e-9
        assert err.error_bound[1] <= 1e-9
        assert err.estimate[1] == pytest.approx(0.5, abs=1e-9)

    def test_failure_carries_best_estimate(self, monkeypatch):
        # An oscillatory integrand cannot converge on 16 subintervals at a
        # tight tolerance; the failure must still expose the running estimate.
        f = lambda t: np.sin(50.0 * t * t)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        with pytest.raises(QuadratureError) as excinfo:
            _integrate(f, 0.0, 4.0, 1e-13)
        err = excinfo.value
        ref = scipy_integrate.quad(f, 0.0, 4.0, limit=400)[0]
        assert err.estimate.shape == err.error_bound.shape == (1,)
        assert err.error_bound[0] > 1e-13
        assert abs(err.estimate[0] - ref) <= err.error_bound[0]

    def test_integrand_failure_propagates_unchanged(self):
        inner = QuadratureError("inner", np.array([0.1, 0.2]),
                                np.array([1e-3, 1e-4]))

        def f(t):
            raise inner

        with pytest.raises(QuadratureError) as excinfo:
            _integrate(f, 0.0, 1.0, 1e-6)
        assert excinfo.value is inner


class TestTailIntegrand:
    def test_zero_s(self):
        assert quadrature.tail_integrand(0.0, 4.0, 2.0) == 0.0

    def test_unit_point(self):
        assert quadrature.tail_integrand(1.0, 4.0, 1.0) == pytest.approx(0.5)

    def test_far_field_asymptote(self):
        # beyond the cross-over radius the integrand follows s * t**(1-eta)
        t = 1e3
        value = quadrature.tail_integrand(1.0, 4.0, t)
        assert value == pytest.approx(t ** -3, rel=0.01)

    def test_bounded_by_t(self):
        rng = np.random.default_rng(3)
        s = 10 ** rng.uniform(-3, 3, 300)
        t = 10 ** rng.uniform(-3, 3, 300)
        for eta in (2.0, 3.0, 3.4142, 4.0):
            vals = quadrature.tail_integrand(s, eta, t)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= t * (1 + 1e-12))


class TestTailIntegral:
    def test_empty_interval(self):
        assert _tail(5.0, 4.0, 2.0, 2.0) == 0.0

    def test_zero_s(self):
        assert _tail(0.0, 3.0, 1.0, 9.0) == 0.0

    def test_eta4_infinite_upper(self):
        value = _tail(1.0, 4.0, 1.0, math.inf, 1e-10)
        assert value == pytest.approx(math.pi / 8.0, abs=1e-9)

    def test_eta2_finite(self):
        value = _tail(2.0, 2.0, 1.0, 3.0, 1e-10)
        assert value == pytest.approx(math.log(11.0 / 3.0), abs=1e-9)

    def test_rejects_infinite_upper_for_low_eta(self):
        for eta in (1.5, 2.0):
            with pytest.raises(ValueError, match="exponent is > 2"):
                _tail(1.0, eta, 1.0, math.inf)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            _tail(-1.0, 4.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            _tail(1.0, 4.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            _tail(1.0, 4.0, 2.0, 1.0)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 4.0])
    def test_zero_lower_limit_with_vanishing_s(self, eta):
        # (s/4)**(1/eta) underflows here; every tail is below 1e-149.
        s = np.array([1e-300, 1e-310, 5e-324])
        got = sc.tail_integral_batch(s, eta, 0.0, 1.0, 1e-9)
        assert np.all((got >= 0.0) & (got <= 1e-9))

    def test_oracle_agreement_random_sweep(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            s = 10 ** rng.uniform(-3, 3)
            a = rng.uniform(0.0, 5.0)
            b = a + rng.uniform(0.01, 10.0)
            for eta in (2.0, 4.0):
                got = _tail(s, eta, a, b, 1e-9)
                want = tail_integral_closed_form(s, eta, a, b)
                worst = max(worst, abs(got - want))
        assert worst <= 1e-8

    def test_oracle_agreement_infinite_upper(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = 10 ** rng.uniform(-3, 3)
            a = rng.uniform(0.05, 5.0)
            got = _tail(s, 4.0, a, math.inf, 1e-9)
            want = tail_integral_closed_form(s, 4.0, a, math.inf)
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("eta", [2.5, 3.0, 3.4142])
    def test_fractional_eta_against_scipy(self, eta):
        for s, a, b in ((1.3, 0.7, math.inf), (40.0, 0.2, 5.0),
                        (0.01, 1.0, math.inf)):
            got = _tail(s, eta, a, b, 1e-10)
            want = scipy_integrate.quad(lambda t: s * t / (t ** eta + s), a,
                                        b, epsabs=1e-13, limit=800)[0]
            assert got == pytest.approx(want, abs=1e-9)

    def test_additivity(self):
        rng = np.random.default_rng(5)
        tol = 1e-8
        for eta in (2.5, 3.0, 4.0):
            for _ in range(20):
                s = 10 ** rng.uniform(-2, 2)
                a, b, c = np.sort(rng.uniform(0.05, 8.0, 3))
                whole = _tail(s, eta, a, c, tol)
                parts = (_tail(s, eta, a, b, tol)
                         + _tail(s, eta, b, c, tol))
                assert whole == pytest.approx(parts, abs=2 * tol)

    def test_monotone_in_arguments(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = 10 ** rng.uniform(-2, 2)
            a, b = np.sort(rng.uniform(0.1, 6.0, 2))
            eta = rng.choice([2.5, 3.0, 4.0])
            base = _tail(s, eta, a, b, 1e-10)
            assert _tail(2 * s, eta, a, b, 1e-10) >= base - 1e-9
            assert _tail(s, eta, a, b + 1.0, 1e-10) >= base - 1e-9
            assert _tail(s, eta, a + 0.05, b, 1e-10) <= base + 1e-9
            assert base >= 0.0


def _mixed_batch(n=500):
    """``n`` tail integrals: finite, infinite, zero-s and zero-width ones."""
    rng = np.random.default_rng(42)
    s = 10 ** rng.uniform(-3, 3, n)
    a = rng.uniform(0.0, 5.0, n)
    b = a + rng.uniform(0.0, 10.0, n)
    b[::11] = np.inf
    s[::13] = 0.0
    b[::17] = a[::17]
    return s, a, b


class TestTailIntegralBatch:
    def test_matches_scalar_on_mixed_batch(self):
        s, a, b = _mixed_batch()
        batch = sc.tail_integral_batch(s, 4.0, a, b, 1e-9)
        for i in range(0, s.size, 7):
            scalar = _tail(s[i], 4.0, a[i], b[i], 1e-9)
            assert batch[i] == pytest.approx(scalar, abs=3e-9)

    @pytest.mark.parametrize("eta", [3.4142, 4.0])
    def test_value_does_not_depend_on_batch(self, eta):
        # Each element is refined and summed on its own, so sharing a batch
        # with other integrals must not move a single bit.
        s, a, b = _mixed_batch()
        batch = sc.tail_integral_batch(s, eta, a, b, 1e-9)
        alone = [_tail(si, eta, ai, bi, 1e-9)
                 for si, ai, bi in zip(s, a, b)]
        np.testing.assert_array_equal(batch, alone)

    def test_value_does_not_depend_on_panel_block(self):
        # About 7,100 non-empty integrals: three full panel blocks plus a
        # remainder in the first round.  Every element still equals its own
        # one-element call bit for bit.
        s, a, b = _mixed_batch(4 * _PANEL_BLOCK)
        batch = sc.tail_integral_batch(s, 3.4142, a, b, 1e-9)
        alone = [_tail(si, 3.4142, ai, bi, 1e-9)
                 for si, ai, bi in zip(s, a, b)]
        np.testing.assert_array_equal(batch, alone)

    def test_success_does_not_depend_on_batch(self):
        # 256 x 801 finite tails (eta 3.4142, K = 1, N = 20, a 0.05 dB grid)
        # hold over 200,000 subintervals at once.  Each integral refines on
        # its own budget, so the whole block converges to the bits that
        # blocks of 32 rows get.
        eta = 3.4142
        rng = np.random.default_rng(5)
        D = np.vstack([sample_ordered_distances_direct(20, rng)
                       .distances for _ in range(256)])
        grid = sc.ThresholdGrid.from_db_range(-20.0, 20.0, 0.05)
        s = grid.thresholds_linear[None, :] * D[:, :1] ** eta
        a = np.broadcast_to(D[:, :1], s.shape)
        b = np.broadcast_to(D[:, 19:], s.shape)
        whole = sc.tail_integral_batch(s, eta, a, b)
        chunks = [sc.tail_integral_batch(s[i:i + 32], eta, a[i:i + 32],
                                         b[i:i + 32])
                  for i in range(0, 256, 32)]
        np.testing.assert_array_equal(whole, np.vstack(chunks))

    def test_preserves_shape(self):
        s = np.full((3, 4), 2.0)
        out = sc.tail_integral_batch(s, 4.0, 1.0, 2.0, 1e-8)
        assert out.shape == (3, 4)
        assert np.allclose(out, _tail(2.0, 4.0, 1.0, 2.0, 1e-8),
                           atol=1e-7)

    def test_rejects_infinite_upper_for_low_eta(self):
        with pytest.raises(ValueError, match="exponent is > 2"):
            sc.tail_integral_batch(np.array([1.0]), 2.0, np.array([1.0]),
                                   np.array([np.inf]))

    @pytest.mark.parametrize("s, eta, a, b, tol", [
        (1.0, 4.0, 1.0, 10.0, math.inf), (math.nan, 4.0, 1.0, 10.0, 1e-6),
        (1.0, 4.0, math.nan, 10.0, 1e-6), (1.0, 4.0, 1.0, math.nan, 1e-6),
        (1.0, math.inf, 1.0, 10.0, 1e-6)],
        ids=["tol-inf", "s-nan", "a-nan", "b-nan", "eta-inf"])
    def test_rejects_nan_and_non_finite(self, s, eta, a, b, tol):
        with pytest.raises(ValueError):
            sc.tail_integral_batch([s], eta, [a], [b], tol)


@pytest.fixture(scope="module")
def hybrid_k1_n20_radii():
    """r and R_20 of 10,000 direct-sampler trials at density 1."""
    rng = np.random.default_rng(2)
    D = np.vstack([sample_ordered_distances_direct(20, rng).distances
                   for _ in range(10_000)])
    return D[:, 0], D[:, 19]


class TestHybridShapedTails:
    """The K = 1, N = 20 hybrid's tails: s = T*r**eta over [r, R_20].

    On the README grid s reaches below 1e-3 while R_20/r reaches 100 and
    more, so the integrand's knee at t = s**(1/eta) sits just above r.  One
    Kronrod panel over [r, R_20] in t passes its |K15 - G7| gauge there while
    up to 100 times over the tolerance.
    """

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("eta, oracle", [
        (4.0, tail_integral_closed_form), (3.4142, tail_integral_betainc)])
    def test_every_tail_within_tolerance(self, hybrid_k1_n20_radii, eta,
                                         oracle, tol):
        r, r_n = hybrid_k1_n20_radii
        T = sc.ThresholdGrid.from_db_range(-20.0, 20.0, 2.0).thresholds_linear
        s = T[None, :] * r[:, None] ** eta
        a = np.broadcast_to(r[:, None], s.shape)
        b = np.broadcast_to(r_n[:, None], s.shape)
        err = np.abs(sc.tail_integral_batch(s, eta, a, b, tol)
                     - oracle(s, eta, a, b))
        assert err.max() <= tol, (
            f"{np.count_nonzero(err > tol)} of {err.size} tails over tol, "
            f"worst {err.max() / tol:.2f} x tol")

    @pytest.mark.parametrize("eta", [2.0, 4.0])
    def test_zero_lower_limit(self, eta):
        rng = np.random.default_rng(8)
        n = 4000
        s = 10 ** rng.uniform(-8, 4, n)
        b = 10 ** rng.uniform(-3, 2, n)
        if eta > 2.0:
            b[::3] = np.inf
        tol = 1e-9
        err = np.abs(sc.tail_integral_batch(s, eta, 0.0, b, tol)
                     - tail_integral_closed_form(s, eta, 0.0, b))
        assert err.max() <= tol, f"worst {err.max() / tol:.2f} x tol"


class TestEndSeries:
    """Tails whose quadrature interval is empty: the end series alone."""

    RATIOS = np.array([1e-6, 1e-3, 0.1, 0.25])

    # Warnings fail: for eta <= 2 the far series must not even be set up,
    # since 1/(eta - 2 + eta*k) divides by 0 for some k.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 2.001, 3.0, 3.4142, 4.0,
                                     6.0])
    def test_matches_mpmath(self, monkeypatch, eta):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran on an empty interval")

        monkeypatch.setattr(quadrature, "_panel", no_quadrature)
        s = 2.0
        want = []
        # Near end: a = 0, b = (|ratio|*s)**(1/eta) <= (s/4)**(1/eta).  With
        # t = b*sqrt(w) the integral is b**2/2 times that of 1/(1 + rho*w**p).
        b = (self.RATIOS * s) ** (1.0 / eta) * (1.0 - 1e-14)
        got = list(sc.tail_integral_batch(s, eta, 0.0, b))
        with mp.workdps(30):
            for bi in b:
                rho, p = mp.mpf(bi) ** eta / s, mp.mpf(eta) / 2
                want.append(mp.mpf(bi) ** 2 / 2 * mp.quad(
                    lambda w: 1 / (1 + rho * w ** p), [0, 1]))
            if eta > 2.0:
                # Far end: a = (s/|ratio|)**(1/eta) >= (4s)**(1/eta), b = inf.
                # t = a*w**(-1/(eta-2)) maps it onto [0, 1] without a
                # singularity at w = 0.
                a = (s / self.RATIOS) ** (1.0 / eta) * (1.0 + 1e-14)
                got += list(sc.tail_integral_batch(s, eta, a, np.inf))
                for ai in a:
                    A = mp.mpf(ai)
                    rho, p = s / A ** eta, mp.mpf(eta) / (eta - 2)
                    want.append(s * A ** (2 - eta) / (eta - 2) * mp.quad(
                        lambda w: 1 / (1 + rho * w ** p), [0, 1]))
        rel = [float(abs(g - w) / w) for g, w in zip(got, want)]
        assert max(rel) <= 1e-14, rel


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(eta=st.sampled_from([2.5, 3.0, 3.4142, 4.0, 6.0]),
       log_s=st.floats(-8.0, 6.0),
       a=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       log_span=st.floats(-3.0, 3.0),
       infinite=st.booleans(),
       tol=st.sampled_from([1e-6, 1e-9]))
def test_tail_batch_matches_betainc(eta, log_s, a, log_span, infinite, tol):
    # The (s, a, b) range the estimators reach: b is a * 10**log_span with
    # span up to 1e3 when a > 0, 10**log_span itself when a = 0, or +inf.
    s = 10.0 ** log_s
    if infinite:
        b = math.inf
    elif a > 0.0:
        b = a * 10.0 ** abs(log_span)
    else:
        b = 10.0 ** log_span
    got = _tail(s, eta, a, b, tol)
    want = tail_integral_betainc(s, eta, a, b)
    assert abs(got - want) <= tol, (got, want, abs(got - want) / tol)


class TestTailIntegralClosedForm:
    def test_zero_s(self):
        assert tail_integral_closed_form(0.0, 4.0, 1.0, 2.0) == 0.0

    def test_eta4_value(self):
        got = tail_integral_closed_form(0.0625, 4.0, 1.0, 2.0)
        want = 0.125 * (math.atan(16.0) - math.atan(4.0))
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.0228200, abs=5e-8)

    def test_eta2_value(self):
        got = tail_integral_closed_form(1.0, 2.0, 0.0, 1.0)
        assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_rejects_unsupported_eta(self):
        with pytest.raises(ValueError):
            tail_integral_closed_form(1.0, 3.0, 0.0, 1.0)

    def test_rejects_eta2_infinite_upper(self):
        with pytest.raises(ValueError):
            tail_integral_closed_form(1.0, 2.0, 0.0, math.inf)
