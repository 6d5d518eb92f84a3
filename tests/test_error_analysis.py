import math

import numpy as np
import pytest

import sinrcov as sc

from oracles import (
    expected_tail_error_exact,
    tail_truncation_error,
    tail_truncation_error_bound,
)

CFG4 = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                        noise_power=0.1, half_width=40.0)
CFG3 = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.0,
                        noise_power=0.1, half_width=40.0)
ETAS = [3.0, 3.4142, 4.0]
COUNTS = [5, 10, 20, 40, 80]


def _cfg(eta):
    return sc.NetworkConfig(bs_density=1.0, pathloss_exponent=eta,
                            noise_power=0.1, half_width=40.0)


class TestTailTruncationError:
    def test_zero_s(self):
        assert tail_truncation_error(0.0, 5.0, 1.0, 4.0) == 0.0

    def test_worked_value(self):
        # s=1, boundary 1, eta=4: tail integral is pi/8, so the error is
        # 1 - exp(-pi^2/4).
        got = tail_truncation_error(1.0, 1.0, 1.0, 4.0, quad_abs_tol=1e-12)
        want = -math.expm1(-2.0 * math.pi * (math.pi / 8.0))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.9152, abs=5e-5)

    def test_far_boundary_vanishes(self):
        assert tail_truncation_error(1.0, 1e3, 1.0, 4.0) < 1e-4

    def test_rejects_low_eta(self):
        for eta in (1.0, 2.0):
            with pytest.raises(ValueError):
                tail_truncation_error(1.0, 1.0, 1.0, eta)

    def test_within_unit_interval_and_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            s = 10 ** rng.uniform(-2, 2)
            radius = rng.uniform(0.2, 8.0)
            eta = rng.choice([2.5, 3.0, 4.0])
            d = tail_truncation_error(s, radius, 1.0, eta)
            assert 0.0 <= d < 1.0
            assert tail_truncation_error(2 * s, radius, 1.0, eta) >= d
            assert tail_truncation_error(s, 2 * radius, 1.0, eta) <= d
            assert tail_truncation_error(s, radius, 2.0, eta) >= d

    def test_array_forms_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        s = 10 ** rng.uniform(-2, 2, 30)
        radius = rng.uniform(0.2, 8.0, 30)
        delta = tail_truncation_error(s, radius, 1.0, 3.0, 1e-10)
        bound = tail_truncation_error_bound(s, radius, 1.0, 3.0)
        assert delta.shape == bound.shape == (30,)
        for i in range(30):
            assert delta[i] == pytest.approx(
                tail_truncation_error(s[i], radius[i], 1.0, 3.0, 1e-10),
                abs=1e-9)
            assert bound[i] == tail_truncation_error_bound(
                s[i], radius[i], 1.0, 3.0)


class TestTailTruncationErrorBound:
    def test_zero_s(self):
        assert tail_truncation_error_bound(0.0, 1.0, 1.0, 4.0) == 0.0

    def test_unit_case_is_pi(self):
        got = tail_truncation_error_bound(1.0, 1.0, 1.0, 4.0)
        assert got == pytest.approx(math.pi, rel=1e-15)

    def test_rejects_low_eta(self):
        with pytest.raises(ValueError):
            tail_truncation_error_bound(1.0, 1.0, 1.0, 2.0)

    def test_dominates_error_term(self):
        rng = np.random.default_rng(99)
        n = 1000
        s = 10 ** rng.uniform(-2, 2, n)
        radius = rng.uniform(0.1, 10.0, n)
        for eta in (2.5, 3.0, 4.0):
            tails = sc.tail_integral_batch(s, eta, radius,
                                           np.full(n, np.inf), 1e-9)
            delta = -np.expm1(-2.0 * math.pi * tails)
            bound = np.array([
                tail_truncation_error_bound(s[i], radius[i], 1.0, eta)
                for i in range(n)
            ])
            assert np.all(delta <= np.minimum(1.0, bound) + 1e-9)


class TestExpectedTailTruncationError:
    def test_tiny_threshold_vanishes(self):
        mean = sc.expected_tail_truncation_error(CFG4, 10, 1e-12)
        assert 0.0 <= mean < 1e-9

    def test_decreases_with_interferer_count(self):
        m5 = sc.expected_tail_truncation_error(CFG4, 5, 1.0)
        m20 = sc.expected_tail_truncation_error(CFG4, 20, 1.0)
        assert 0.0 < m20 < m5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sc.expected_tail_truncation_error(CFG4, 1, 1.0)
        with pytest.raises(ValueError):
            sc.expected_tail_truncation_error(CFG4, 5, 0.0)
        cfg2 = sc.NetworkConfig(pathloss_exponent=2.0)
        with pytest.raises(ValueError):
            sc.expected_tail_truncation_error(cfg2, 5, 1.0)

    def test_matches_exact_expectation_off_unit_density(self):
        # The expected tail error does not depend on the BS density, so the
        # value is bit-equal across densities.
        values = {
            lam: sc.expected_tail_truncation_error(
                sc.NetworkConfig(bs_density=lam, pathloss_exponent=3.0), 10,
                1.0, quad_abs_tol=1e-10)
            for lam in (0.25, 1.0, 3.7)
        }
        assert values[0.25] == values[1.0] == values[3.7]
        assert values[3.7] == pytest.approx(
            expected_tail_error_exact(10, 1.0, 3.0), abs=1e-10)

    def test_monte_carlo_draw_agrees(self):
        # Joint (r, R_N) draws from cumulative exponential squared-distance
        # increments, averaged through the pointwise tail error and its
        # bound, against the exact mean and the report's Gamma-ratio mean.
        n, t, trials = 10, 1.0, 10_000
        rng = np.random.default_rng(0)
        sq = rng.exponential(1.0 / math.pi, size=(trials, n)).cumsum(axis=1)
        r, radius = np.sqrt(sq[:, 0]), np.sqrt(sq[:, -1])
        delta = tail_truncation_error(t * r ** 3, radius, 1.0, 3.0)
        bound = tail_truncation_error_bound(t * r ** 3, radius, 1.0, 3.0)
        exact = sc.expected_tail_truncation_error(CFG3, n, t)
        report = sc.tail_error_report(CFG3, t, [5, n, 20])
        bound_mean = report.analytic_bounds[1]
        for draws, want in ((delta, exact), (bound, bound_mean)):
            stderr = draws.std(ddof=1) / math.sqrt(trials)
            assert abs(draws.mean() - want) <= 4.0 * stderr


class TestConvergenceSlope:
    def test_exact_inverse_law(self):
        counts = np.array([5.0, 10.0, 20.0, 40.0])
        assert sc.convergence_slope(counts, 3.0 / counts) == pytest.approx(
            -1.0, abs=1e-12)

    def test_exact_inverse_sqrt_law(self):
        counts = np.array([5.0, 10.0, 20.0, 40.0])
        assert sc.convergence_slope(counts, 1.0 / np.sqrt(counts)) == (
            pytest.approx(-0.5, abs=1e-12))

    def test_constant_means(self):
        counts = np.array([5.0, 10.0, 20.0])
        assert sc.convergence_slope(counts, np.full(3, 0.7)) == (
            pytest.approx(0.0, abs=1e-12))

    def test_rejects_nonpositive_means(self):
        with pytest.raises(ValueError):
            sc.convergence_slope([5, 10, 20], [1.0, 0.0, 2.0])

    def test_rejects_too_few_points(self):
        # a fit needs 3 distinct counts; repeated ones would divide 0 by 0
        for counts, means in (([5, 10], [1.0, 0.5]),
                              ([5, 5, 5], [0.1, 0.2, 0.3]),
                              ([5, 10, 10, 5], [0.4, 0.3, 0.2, 0.1])):
            with pytest.raises(ValueError):
                sc.convergence_slope(counts, means)


class TestTailErrorReport:
    def test_structure_and_bound_dominance(self):
        report = sc.tail_error_report(CFG4, 1.0, [5, 10, 20])
        assert report.interferer_counts == (5, 10, 20)
        for eta in ETAS:
            for threshold in (0.01, 1.0, 100.0):
                report = sc.tail_error_report(_cfg(eta), threshold, COUNTS)
                assert np.all(report.delta_means > 0.0)
                assert np.all(report.delta_means < 1.0)
                assert np.all(report.analytic_bounds > report.delta_means)
                assert np.all(np.diff(report.delta_means) < 0.0)

    # The slope windows presume the unsaturated decay rate 1 - eta/2, so the
    # rate fits run at threshold 0.01 and first require every error mean to
    # be at most 0.05, where 1 - exp(-z) is within 2.5 % of z.
    def test_rate_fit_quartic_exponent(self):
        report = sc.tail_error_report(CFG4, 0.01, [5, 10, 20, 40])
        assert np.all(report.delta_means <= 0.05)
        assert -1.3 <= report.fitted_slope <= -0.7

    def test_rate_fit_cubic_exponent(self):
        # At threshold 1 the cubic-exponent error means sit at 0.26-0.46,
        # where 1 - exp(-z) saturates and flattens the fitted slope to about
        # -0.27; the [-0.8, -0.35] window needs the small-error regime.
        report = sc.tail_error_report(CFG3, 0.01, [5, 10, 20, 40])
        assert np.all(report.delta_means <= 0.05)
        assert -0.8 <= report.fitted_slope <= -0.35

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("threshold", [0.01, 1.0, 100.0])
    def test_means_match_exact_expectation(self, eta, threshold):
        report = sc.tail_error_report(_cfg(eta), threshold, COUNTS,
                                      quad_abs_tol=1e-10)
        for n, mean in zip(report.interferer_counts, report.delta_means):
            exact = expected_tail_error_exact(n, threshold, eta)
            assert abs(mean - exact) <= 1e-10, (n, mean, exact)

    @pytest.mark.parametrize("eta", ETAS)
    def test_bound_means_are_gamma_ratio(self, eta):
        report = sc.tail_error_report(_cfg(eta), 2.5, COUNTS)
        want = [(5.0 / (eta - 2.0)) * math.gamma(1.0 + eta / 2.0) * n
                * math.gamma(n) / math.gamma(n + eta / 2.0) for n in COUNTS]
        np.testing.assert_allclose(report.analytic_bounds, want, rtol=1e-12)

    def test_bound_means_at_quartic_exponent(self):
        n = np.array(COUNTS, dtype=float)
        for threshold in (0.01, 1.0):
            report = sc.tail_error_report(CFG4, threshold, COUNTS)
            np.testing.assert_allclose(report.analytic_bounds,
                                       2.0 * threshold / (n + 1.0),
                                       rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"interferer_counts": [1, 5, 10]},
        {"threshold": 0.0},
        {"interferer_counts": [5, 5, 5]},
    ], ids=["count-one", "zero-threshold", "repeated-counts"])
    def test_rejects_bad_arguments(self, kwargs):
        args = {"threshold": 1.0, "interferer_counts": [5, 10, 20], **kwargs}
        with pytest.raises(ValueError):
            sc.tail_error_report(CFG4, **args)

    def test_deterministic_given_seed(self):
        # The means are exact: ``trials`` and ``seed`` are ignored and the
        # stderrs are zero.
        base = sc.tail_error_report(CFG4, 1.0, [5, 10, 20])
        np.testing.assert_array_equal(base.delta_stderrs, np.zeros(3))
        for trials, seed in ((2000, 3), (10_000, 77)):
            other = sc.tail_error_report(CFG4, 1.0, [5, 10, 20], trials,
                                         seed=seed)
            np.testing.assert_array_equal(other.delta_means, base.delta_means)
            np.testing.assert_array_equal(other.analytic_bounds,
                                          base.analytic_bounds)
            np.testing.assert_array_equal(other.delta_stderrs, np.zeros(3))
            assert other.fitted_slope == base.fitted_slope
