import math

import numpy as np
import pytest

import sinrcov as sc

from oracles import expected_tail_error_exact

CFG4 = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                        noise_power=0.1, half_width=40.0)
CFG3 = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.0,
                        noise_power=0.1, half_width=40.0)


class TestTailTruncationError:
    def test_zero_s(self):
        assert sc.tail_truncation_error(0.0, 5.0, 1.0, 4.0) == 0.0

    def test_worked_value(self):
        # s=1, boundary 1, eta=4: tail integral is pi/8, so the error is
        # 1 - exp(-pi^2/4).
        got = sc.tail_truncation_error(1.0, 1.0, 1.0, 4.0, quad_abs_tol=1e-12)
        want = -math.expm1(-2.0 * math.pi * (math.pi / 8.0))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.9152, abs=5e-5)

    def test_far_boundary_vanishes(self):
        assert sc.tail_truncation_error(1.0, 1e3, 1.0, 4.0) < 1e-4

    def test_rejects_low_eta(self):
        for eta in (1.0, 2.0):
            with pytest.raises(ValueError):
                sc.tail_truncation_error(1.0, 1.0, 1.0, eta)

    def test_within_unit_interval_and_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            s = 10 ** rng.uniform(-2, 2)
            radius = rng.uniform(0.2, 8.0)
            eta = rng.choice([2.5, 3.0, 4.0])
            d = sc.tail_truncation_error(s, radius, 1.0, eta)
            assert 0.0 <= d < 1.0
            assert sc.tail_truncation_error(2 * s, radius, 1.0, eta) >= d
            assert sc.tail_truncation_error(s, 2 * radius, 1.0, eta) <= d
            assert sc.tail_truncation_error(s, radius, 2.0, eta) >= d

    def test_array_forms_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        s = 10 ** rng.uniform(-2, 2, 30)
        radius = rng.uniform(0.2, 8.0, 30)
        delta = sc.tail_truncation_error(s, radius, 1.0, 3.0, 1e-10)
        bound = sc.tail_truncation_error_bound(s, radius, 1.0, 3.0)
        assert delta.shape == bound.shape == (30,)
        for i in range(30):
            assert delta[i] == pytest.approx(
                sc.tail_truncation_error(s[i], radius[i], 1.0, 3.0, 1e-10),
                abs=1e-9)
            assert bound[i] == sc.tail_truncation_error_bound(
                s[i], radius[i], 1.0, 3.0)


class TestTailTruncationErrorBound:
    def test_zero_s(self):
        assert sc.tail_truncation_error_bound(0.0, 1.0, 1.0, 4.0) == 0.0

    def test_unit_case_is_pi(self):
        got = sc.tail_truncation_error_bound(1.0, 1.0, 1.0, 4.0)
        assert got == pytest.approx(math.pi, rel=1e-15)

    def test_rejects_low_eta(self):
        with pytest.raises(ValueError):
            sc.tail_truncation_error_bound(1.0, 1.0, 1.0, 2.0)

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
                sc.tail_truncation_error_bound(s[i], radius[i], 1.0, eta)
                for i in range(n)
            ])
            assert np.all(delta <= np.minimum(1.0, bound) + 1e-9)


class TestExpectedTailTruncationError:
    def test_tiny_threshold_vanishes(self):
        rng = sc.trial_stream(0, 4, 100)
        mean, stderr = sc.expected_tail_truncation_error(CFG4, 10, 1e-12,
                                                         2000, rng)
        assert mean < 1e-9
        assert stderr < 1e-9

    def test_decreases_with_interferer_count(self):
        m5, se5 = sc.expected_tail_truncation_error(
            CFG4, 5, 1.0, 10_000, sc.trial_stream(0, 4, 1))
        m20, se20 = sc.expected_tail_truncation_error(
            CFG4, 20, 1.0, 10_000, sc.trial_stream(0, 4, 2))
        assert m20 < m5 - 3.0 * (se5 + se20)

    def test_rejects_bad_arguments(self):
        rng = sc.trial_stream(0, 4, 0)
        with pytest.raises(ValueError):
            sc.expected_tail_truncation_error(CFG4, 1, 1.0, 100, rng)
        with pytest.raises(ValueError):
            sc.expected_tail_truncation_error(CFG4, 5, 0.0, 100, rng)
        cfg2 = sc.NetworkConfig(pathloss_exponent=2.0)
        with pytest.raises(ValueError):
            sc.expected_tail_truncation_error(cfg2, 5, 1.0, 100, rng)

    def test_matches_exact_expectation_off_unit_density(self):
        # The expected tail error does not depend on the BS density.
        cfg = sc.NetworkConfig(bs_density=3.7, pathloss_exponent=3.0)
        mean, stderr = sc.expected_tail_truncation_error(
            cfg, 10, 1.0, 10_000, sc.trial_stream(0, 4, 0))
        assert abs(mean - expected_tail_error_exact(10, 1.0, 3.0)) <= (
            4.0 * stderr)


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
        with pytest.raises(ValueError):
            sc.convergence_slope([5, 10], [1.0, 0.5])


class TestTailErrorReport:
    def test_structure_and_bound_dominance(self):
        report = sc.tail_error_report(CFG4, 1.0, [5, 10, 20], 4000, seed=0)
        assert report.interferer_counts == (5, 10, 20)
        assert np.all(report.delta_means > 0.0)
        assert np.all(report.delta_means < 1.0)
        assert np.all(report.analytic_bounds >= report.delta_means)
        assert np.all(np.diff(report.delta_means) < 0.0)

    # The slope windows presume the unsaturated decay rate 1 - eta/2, so the
    # rate fits run at threshold 0.01 and first require every error mean to
    # be at most 0.05, where 1 - exp(-z) is within 2.5 % of z.
    def test_rate_fit_quartic_exponent(self):
        report = sc.tail_error_report(CFG4, 0.01, [5, 10, 20, 40], 10_000,
                                      seed=0)
        assert np.all(report.delta_means <= 0.05)
        assert -1.3 <= report.fitted_slope <= -0.7

    def test_rate_fit_cubic_exponent(self):
        # At threshold 1 the cubic-exponent error means sit at 0.26-0.46,
        # where 1 - exp(-z) saturates and flattens the fitted slope to about
        # -0.27; the [-0.8, -0.35] window needs the small-error regime.
        report = sc.tail_error_report(CFG3, 0.01, [5, 10, 20, 40], 10_000,
                                      seed=0)
        assert np.all(report.delta_means <= 0.05)
        assert -0.8 <= report.fitted_slope <= -0.35

    @pytest.mark.parametrize("eta", [3.0, 3.4142, 4.0])
    @pytest.mark.parametrize("threshold", [0.01, 1.0])
    def test_means_match_exact_expectation(self, eta, threshold):
        cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=eta,
                               noise_power=0.1, half_width=40.0)
        report = sc.tail_error_report(cfg, threshold, [5, 10, 20], 10_000,
                                      seed=0)
        for n, mean, stderr in zip(report.interferer_counts,
                                   report.delta_means, report.delta_stderrs):
            exact = expected_tail_error_exact(n, threshold, eta)
            assert abs(mean - exact) <= 4.0 * stderr, (n, mean, exact)

    @pytest.mark.parametrize("kwargs", [
        {"trials": 1},
        {"interferer_counts": [1, 5, 10]},
        {"threshold": 0.0},
    ], ids=["one-trial", "count-one", "zero-threshold"])
    def test_rejects_bad_arguments(self, kwargs):
        args = {"threshold": 1.0, "interferer_counts": [5, 10, 20],
                "trials": 100, **kwargs}
        with pytest.raises(ValueError):
            sc.tail_error_report(CFG4, **args)

    def test_deterministic_given_seed(self):
        a = sc.tail_error_report(CFG4, 1.0, [5, 10, 20], 2000, seed=3)
        b = sc.tail_error_report(CFG4, 1.0, [5, 10, 20], 2000, seed=3)
        np.testing.assert_array_equal(a.delta_means, b.delta_means)
