import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import stats

import sinrcov as sc
from sinrcov import streams
from sinrcov.geometry import (PppRealization, nearest_window_distances,
                              sample_ordered_distances_direct)

from oracles import serving_distance_density


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        cfg = sc.NetworkConfig()
        assert cfg.expected_window_count == pytest.approx(6400.0)

    @pytest.mark.parametrize("kwargs", [
        {"bs_density": 0.0},
        {"bs_density": -1.0},
        {"pathloss_exponent": 0.0},
        {"noise_power": -0.1},
        {"half_width": 0.0},
        {"bs_density": math.inf},
        {"bs_density": math.nan},
        {"pathloss_exponent": math.inf},
        {"noise_power": math.inf},
        {"noise_power": math.nan},
        {"half_width": math.inf},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            sc.NetworkConfig(**kwargs)

    def test_unit_normal_form_is_exact_at_unit_density(self):
        cfg = sc.NetworkConfig(pathloss_exponent=3.4142, noise_power=0.37,
                               half_width=12.5)
        assert (cfg.unit_noise, cfg.unit_half_width) == (0.37, 12.5)

    @pytest.mark.parametrize("lam", [1e-306, 1e-30, 1e306])
    def test_zero_noise_stays_zero_at_every_density(self, lam):
        cfg = sc.NetworkConfig(bs_density=lam, noise_power=0.0)
        assert cfg.unit_noise == 0.0

    @pytest.mark.parametrize("lam, noise", [(1e-306, 0.1), (1e-200, 1e-10)])
    def test_rejects_overflowing_unit_noise(self, lam, noise):
        # sigma^2 * lam**(-eta/2) at eta 4 is 1e611 and 1e390.
        with pytest.raises(ValueError, match="overflows"):
            sc.NetworkConfig(bs_density=lam, noise_power=noise)

    def test_huge_window_count_is_inf(self):
        assert sc.NetworkConfig(bs_density=1e306).expected_window_count == (
            math.inf)


class TestRealization:
    def test_both_samplers_return_one_record(self):
        rng = np.random.default_rng(2)
        window = nearest_window_distances(sc.NetworkConfig(), 4, rng)
        direct = sample_ordered_distances_direct(4, rng)
        for real in (window, direct):
            assert type(real) is PppRealization
            count, distances = real
            assert (count, distances.size) == (real.point_count, 4)
            assert distances is real.distances
        assert window.point_count > 4 and direct.point_count == 4

    @pytest.mark.parametrize("lam, half_width, match", [
        (1.0, 1.0, "below interferer_total 5"),
        (1.0, 1e4, "above 8388608")])
    def test_check_window_refuses(self, lam, half_width, match):
        cfg = sc.NetworkConfig(bs_density=lam, half_width=half_width)
        with pytest.raises(ValueError, match=match):
            cfg.check_window(5)


class TestWindowSampler:
    def test_mean_point_count(self, window_prefix_draws):
        counts, _ = window_prefix_draws
        # Poisson(6400): the sample mean over 1e4 draws stays within
        # 3*sqrt(6400)/100 = 2.4 of the mean.
        assert abs(counts.mean() - 6400.0) <= 2.4

    def test_distances_strictly_ascending(self, window_prefix_draws):
        _, first5 = window_prefix_draws
        assert np.all(np.diff(first5, axis=1) > 0)

    def test_vanishing_density_yields_empty_draw(self):
        cfg = sc.NetworkConfig(bs_density=1e-12, half_width=1.0)
        rng = np.random.default_rng(1)
        total, distances = nearest_window_distances(cfg, 5, rng)
        assert total == 0
        assert distances.size == 0

    def test_prefix_path_matches_full_sampler(self):
        cfg = sc.NetworkConfig()
        for m in range(5):
            total_all, full = nearest_window_distances(
                cfg, 10**6, streams.trial_stream(7, streams.GEOMETRY_WINDOW, m))
            total, prefix = nearest_window_distances(
                cfg, 12, streams.trial_stream(7, streams.GEOMETRY_WINDOW, m))
            assert total == total_all == full.size
            np.testing.assert_array_equal(prefix, full[:12])

    def test_serving_sq_distance_is_exponential(self, window_prefix_draws):
        _, first5 = window_prefix_draws
        r_sq = first5[:, 0] ** 2
        pvalue = stats.kstest(r_sq, "expon", args=(0, 1 / math.pi)).pvalue
        assert pvalue > 0.001

    def test_second_sq_distance_is_gamma(self, window_prefix_draws):
        _, first5 = window_prefix_draws
        r2_sq = first5[:, 1] ** 2
        pvalue = stats.kstest(r2_sq, "gamma", args=(2, 0, 1 / math.pi)).pvalue
        assert pvalue > 0.001


class TestDirectSampler:
    def test_mean_squared_distances(self, direct_prefix_draws):
        sq = direct_prefix_draws ** 2
        # first squared distance ~ Exp(1/pi), second ~ Gamma(2, 1/pi)
        se1 = (1 / math.pi) / 100.0
        assert abs(sq[:, 0].mean() - 1 / math.pi) <= 3 * se1
        se2 = math.sqrt(2) * (1 / math.pi) / 100.0
        assert abs(sq[:, 1].mean() - 2 / math.pi) <= 3 * se2

    def test_single_count_matches_serving_law(self):
        rng = np.random.default_rng(77)
        draws = np.array([
            sample_ordered_distances_direct(1, rng).distances[0]
            for _ in range(4000)
        ])
        cdf = lambda r: 1.0 - np.exp(-math.pi * r * r)
        assert stats.kstest(draws, cdf).pvalue > 0.001

    def test_output_sorted(self):
        real = sample_ordered_distances_direct(50, np.random.default_rng(5))
        assert real.point_count == 50
        assert np.all(np.diff(real.distances) > 0)


class TestWindowDirectAgreement:
    @pytest.mark.parametrize("index", [0, 1, 4])
    def test_two_sample_ks(self, window_prefix_draws, direct_prefix_draws,
                           index):
        _, win = window_prefix_draws
        w = win[:, index] ** 2
        d = direct_prefix_draws[:, index] ** 2
        w = w[~np.isnan(w)]
        assert stats.ks_2samp(w, d).pvalue > 0.001


class TestServingDistanceDensity:
    def test_zero_radius(self):
        assert serving_distance_density(0.0, 1.0) == 0.0

    def test_point_value(self):
        expected = 2 * math.pi * math.exp(-math.pi)
        assert serving_distance_density(1.0, 1.0) == pytest.approx(
            expected, abs=1e-15)
        assert expected == pytest.approx(0.27152, abs=1e-5)

    def test_normalizes(self):
        value, _ = scipy_integrate.quad(
            lambda r: serving_distance_density(r, 1.0), 0.0, 20.0,
            epsabs=1e-12, limit=200)
        assert abs(value - 1.0) <= 1e-9
