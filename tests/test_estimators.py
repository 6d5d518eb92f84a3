import dataclasses
import functools
import math
import os
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import sinrcov as sc
from sinrcov import estimators, streams
from sinrcov.cli import main
from sinrcov.estimators import (_MAX_THRESHOLDS, _TRIAL_BLOCK,
                                ModelValidityError, _hybrid_trial_values,
                                _map_blocks)
from sinrcov.geometry import sample_ordered_distances_direct
from sinrcov.quadrature import _pow_eta

from oracles import (binomial_completion, hybrid_expectation,
                     sg_eta4_coverage, sg_noise_free_coverage,
                     tail_integral_closed_form)

CFG = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                       noise_power=0.1, half_width=40.0)
GRID = sc.ThresholdGrid.from_db_range(-20, 20, 2)


class TestThresholdGrid:
    def test_db_range_point_count(self):
        assert len(GRID) == 21
        assert GRID.thresholds_db[0] == -20.0
        assert GRID.thresholds_db[-1] == 20.0

    def test_db_linear_mapping(self):
        np.testing.assert_allclose(GRID.thresholds_linear,
                                   10.0 ** (GRID.thresholds_db / 10.0),
                                   rtol=1e-14)

    def test_from_linear_round_trip(self):
        grid = sc.ThresholdGrid(10.0 * np.log10([0.5, 1.0, 4.0]))
        np.testing.assert_allclose(grid.thresholds_db,
                                   [10 * math.log10(0.5), 0.0,
                                    10 * math.log10(4.0)])
        np.testing.assert_allclose(grid.thresholds_linear, [0.5, 1.0, 4.0],
                                   rtol=1e-15)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            sc.ThresholdGrid([0.0, 0.0, 2.0])

    @pytest.mark.parametrize("tmin, tmax, step", [
        (-20.0, 20.0, 1e-12), (-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)])
    def test_db_range_rejects_oversized_grid(self, tmin, tmax, step):
        # The cap applies before any array is allocated.
        with pytest.raises(ValueError, match="thresholds"):
            sc.ThresholdGrid.from_db_range(tmin, tmax, step)

    def test_every_grid_is_capped(self):
        # A grid built from dB values directly meets the same cap.
        grid = sc.ThresholdGrid(np.arange(_MAX_THRESHOLDS) * 1e-3)
        assert len(grid) == _MAX_THRESHOLDS
        with pytest.raises(ValueError, match="at most"):
            sc.ThresholdGrid(np.arange(_MAX_THRESHOLDS + 1) * 1e-3)

    # 3100 dB overflows 10**(dB/10) and -3300 dB underflows it to 0.
    @pytest.mark.parametrize("values", [[0.0, math.inf], [math.nan],
                                        [3100.0], [-3300.0, 0.0]])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError):
            sc.ThresholdGrid(values)


class TestEstimatorSettings:
    def test_rejects_dominant_above_total(self):
        with pytest.raises(ValueError):
            sc.EstimatorSettings(dominant_count=6, interferer_total=5)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sc.EstimatorSettings(trials=0)

    def test_rejects_trials_beyond_stream_index(self):
        # Trial indices must fit the 48 index bits of a substream key.
        with pytest.raises(ValueError):
            sc.EstimatorSettings(trials=2**48 + 1)
        sc.EstimatorSettings(trials=2**48)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"trials": 10.5}, {"dominant_count": 2.5},
        {"interferer_total": 10.0}], ids=lambda kw: next(iter(kw)))
    def test_rejects_non_integral(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            sc.EstimatorSettings(**{"trials": 10, **kwargs})

    def test_accepts_numpy_integers(self):
        st = sc.EstimatorSettings(dominant_count=np.int64(2),
                                  interferer_total=np.int32(5),
                                  trials=np.int64(10), seed=np.int64(3))
        assert st.trials == 10


def _sample_value(s, distances, K, N, quad_abs_tol=1e-6):
    """Hybrid value of one geometry draw at density 1, noise 0.1, eta 4."""
    d = np.asarray(distances, dtype=float)[None, :]
    vals = _hybrid_trial_values(d, np.array([[s]]), K, N, 0.1, 4.0,
                                quad_abs_tol)
    return float(vals[0, 0])


class TestHybridSampleValue:
    def test_zero_s_gives_one(self):
        v = _sample_value(0.0, [0.5, 1.0, 2.0], 2, 3)
        assert v == 1.0

    def test_worked_example(self):
        # distances [0.5, 1, 2], T=1, eta=4 -> s = 0.0625; compose the
        # expected value from the closed-form tail piece.
        s = 0.0625
        tail = tail_integral_closed_form(s, 4.0, 1.0, 2.0)
        expected = (math.exp(-s * 0.1) * (1.0 / (1.0 + s))
                    * math.exp(-2.0 * math.pi * tail))
        got = _sample_value(s, [0.5, 1.0, 2.0], 2, 3, quad_abs_tol=1e-10)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.8104, abs=5e-5)

    def test_k_equals_n_has_no_tail_factor(self):
        d = np.array([0.4, 0.9, 1.3, 2.2, 3.1])
        s = 0.7
        manual = math.exp(-s * 0.1)
        for i in range(1, 5):
            manual /= 1.0 + s / d[i] ** 4
        got = _sample_value(s, d, 5, 5)
        assert got == pytest.approx(manual, abs=1e-15)

    def test_k1_tail_spans_whole_annulus(self):
        d = np.array([0.6, 1.1, 1.9])
        s = 0.3
        tail = tail_integral_closed_form(s, 4.0, 0.6, 1.9)
        expected = math.exp(-s * 0.1) * math.exp(-2.0 * math.pi * tail)
        got = _sample_value(s, d, 1, 3, quad_abs_tol=1e-10)
        assert got == pytest.approx(expected, abs=1e-9)


# A seeded direct distance row, 1 <= K <= N <= 12, and the kernel's inputs.
_KERNEL_CASES = hst.fixed_dictionaries({
    "eta": hst.sampled_from([2.0, 3.0, 3.4142, 4.0]),
    "kn": hst.integers(1, 12).flatmap(
        lambda n: hst.tuples(hst.integers(1, n), hst.just(n))),
    "seed": hst.integers(0, 2**32 - 1),
    "noise": hst.sampled_from([0.0, 0.1]),
    "tol": hst.sampled_from([1e-6, 1e-9]),
})
_KERNEL_SETTINGS = settings(derandomize=True, max_examples=100,
                            deadline=None, database=None)
# T = 1e-12, then the README grid: increasing.
_KERNEL_T = np.concatenate([[1e-12], GRID.thresholds_linear])


def _kernel(case):
    """Row, s and hybrid values over _KERNEL_T for one drawn case."""
    K, N = case["kn"]
    eta = case["eta"]
    d = sample_ordered_distances_direct(
        N, np.random.default_rng(case["seed"])).distances
    s = _KERNEL_T * d[0] ** eta
    vals = _hybrid_trial_values(d[None, :], s[None, :], K, N, case["noise"],
                                eta, case["tol"])[0]
    return d, s, vals


def _noise_and_dominant(case, d, s):
    """exp(-s*noise) times 1/(1 + s*R_i**-eta) over i = 2..K.

    The powers and the order of operations are the kernel's, so at K = N
    the comparison is left with the tail factor alone, which must be 1.
    """
    dominant = np.ones_like(s)
    for r in d[1:case["kn"][0]]:
        dominant /= 1.0 + s / _pow_eta(r, case["eta"])
    return np.exp(-s * case["noise"]) * dominant


class TestHybridTrialValueProperties:
    """Properties of the hybrid kernel on one seeded direct distance row."""

    @_KERNEL_SETTINGS
    @given(case=_KERNEL_CASES)
    def test_within_unit_interval(self, case):
        _, _, vals = _kernel(case)
        assert np.all((vals >= 0.0) & (vals <= 1.0)), vals

    @_KERNEL_SETTINGS
    @given(case=_KERNEL_CASES)
    def test_non_increasing_in_threshold(self, case):
        # Each value carries at most 2*pi*tol from its tail.
        _, _, vals = _kernel(case)
        assert np.all(np.diff(vals) <= 4.0 * math.pi * case["tol"]), vals

    @_KERNEL_SETTINGS
    @given(case=_KERNEL_CASES)
    def test_all_dominant_is_exact_product(self, case):
        case = dict(case, kn=(case["kn"][1], case["kn"][1]))
        d, s, vals = _kernel(case)
        np.testing.assert_allclose(vals, _noise_and_dominant(case, d, s),
                                   rtol=1e-15, atol=0)

    @_KERNEL_SETTINGS
    @given(case=_KERNEL_CASES)
    def test_vanishing_threshold_covers(self, case):
        _, _, vals = _kernel(case)
        assert abs(vals[0] - 1.0) <= 1e-6, vals[0]

    @_KERNEL_SETTINGS
    @given(case=_KERNEL_CASES.filter(lambda c: c["eta"] in (2.0, 4.0)))
    def test_matches_closed_form_tail(self, case):
        K, N = case["kn"]
        d, s, vals = _kernel(case)
        tail = tail_integral_closed_form(s, case["eta"], d[K - 1], d[N - 1])
        want = _noise_and_dominant(case, d, s) * np.exp(-2.0 * math.pi * tail)
        np.testing.assert_allclose(vals, want, rtol=0,
                                   atol=2.0 * math.pi * case["tol"])


class TestHybridTrialValueMemory:
    def test_block_peak_is_a_few_block_arrays(self):
        # One full trial block on a 2,001-point grid.  The tail integral
        # runs over fixed blocks of its batch, so the call's temporaries
        # do not grow with the batch: about 4 block-sized arrays, against
        # 21 when the whole batch went through one pipeline.
        eta = 3.4142
        rng = np.random.default_rng(7)
        D = np.vstack([sample_ordered_distances_direct(20, rng).distances
                       for _ in range(_TRIAL_BLOCK)])
        grid = sc.ThresholdGrid.from_db_range(-20.0, 20.0, 0.02)
        s = grid.thresholds_linear[None, :] * _pow_eta(D[:, 0], eta)[:, None]
        assert s.shape == (1024, 2001)
        tracemalloc.start()
        try:
            _hybrid_trial_values(D, s, 4, 20, 0.1, eta, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * s.nbytes, peak / s.nbytes


class TestBlockMemory:
    @pytest.mark.parametrize("route, limit", [("hybrid", 1.5),
                                              ("simulation", 1.25)])
    def test_block_peak_is_one_block_array(self, route, limit):
        # A block fills one (rows, thresholds) array a tail block of rows at
        # a time and squares it in place: about 1.26 block arrays for the
        # hybrid and 1.04 for the simulation, against 5.08 and 2.02 when
        # the whole block went through ``values`` at once.
        cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.4142,
                               noise_power=0.1, half_width=40.0)
        st = sc.EstimatorSettings(dominant_count=4, interferer_total=20,
                                  trials=_TRIAL_BLOCK, seed=5)
        grid = sc.ThresholdGrid.from_db_range(-20.0, 20.0, 0.02)
        block_nbytes = 8 * _TRIAL_BLOCK * len(grid)
        tracemalloc.start()
        try:
            if route == "hybrid":
                sc.hybrid_coverage(cfg, st, grid, sampler="direct")
            else:
                sc.empirical_coverage(cfg, st, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * block_nbytes, peak / block_nbytes


class TestBlockRowChunks:
    # 13 thresholds: neither the tail block nor the 1,024-row block is a
    # whole number of 630-row chunks.  1,100 trials leave a short last
    # block, and the small window skips some trials.
    CFG = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.4142,
                           noise_power=0.1, half_width=2.0)
    GRID = sc.ThresholdGrid.from_db_range(-18.0, 18.0, 3.0)
    ST = sc.EstimatorSettings(dominant_count=4, interferer_total=10,
                              trials=1100, seed=21)

    def _curve(self, route, threads):
        if route == "simulation":
            return sc.empirical_coverage(self.CFG, self.ST, self.GRID,
                                         threads=threads)
        return sc.hybrid_coverage(self.CFG, self.ST, self.GRID,
                                  sampler=route, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("route", ["window", "direct", "simulation"])
    def test_chunk_size_does_not_change_bits(self, route, threads,
                                             monkeypatch):
        assert len(self.GRID) == 13
        base = self._curve(route, threads)
        if route != "direct":
            assert 0 < base.trials_used[0] < self.ST.trials
        # One row per chunk, then the whole block in one chunk.
        for tail_block in (1, _TRIAL_BLOCK * len(self.GRID)):
            monkeypatch.setattr(estimators, "_TAIL_BLOCK", tail_block)
            curve = self._curve(route, threads)
            assert np.array_equal(curve.estimates, base.estimates)
            assert np.array_equal(curve.stderrs, base.stderrs)
            assert np.array_equal(curve.trials_used, base.trials_used)


class TestSharedDraws:
    # 2,100 trials leave a short last block; at half-width 1.75 the window
    # holds about 12 points, so it skips many trials at N = 10.
    CFG = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.4142,
                           noise_power=0.1, half_width=1.75)
    GRID = sc.ThresholdGrid.from_db_range(-18.0, 18.0, 3.0)
    ST = sc.EstimatorSettings(dominant_count=4, interferer_total=10,
                              trials=2100, seed=21)

    def _curve(self, route, threads=1, draws=None, cfg=None, st=None):
        cfg, st = cfg or self.CFG, st or self.ST
        if route == "simulation":
            return sc.empirical_coverage(cfg, st, self.GRID, threads=threads,
                                         draws=draws)
        return sc.hybrid_coverage(cfg, st, self.GRID, sampler=route,
                                  threads=threads, draws=draws)

    @pytest.fixture
    def calls(self, monkeypatch):
        # Counts every draw of either sampler, as the curves look them up.
        counts = {"window": 0, "direct": 0}

        def counted(kind, fn):
            @functools.wraps(fn)
            def wrapper(*args):
                counts[kind] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(estimators, "nearest_window_distances", counted(
            "window", estimators.nearest_window_distances))
        monkeypatch.setattr(
            estimators, "sample_ordered_distances_direct",
            counted("direct", estimators.sample_ordered_distances_direct))
        return counts

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.stderrs, b.stderrs)
        assert np.array_equal(a.trials_used, b.trials_used)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("first, second", [
        ("window", "window"), ("window", "simulation"),
        ("simulation", "window"), ("direct", "direct")])
    def test_reuse_changes_no_bit(self, first, second, threads):
        draws = {}
        stored = self._curve(first, threads, draws)
        reused = self._curve(second, threads, draws)
        self._assert_same(stored, self._curve(first, threads))
        self._assert_same(reused, self._curve(second, threads))
        assert len(draws) == 1
        if first != "direct":
            assert 0 < stored.trials_used[0] < self.ST.trials

    @pytest.mark.parametrize("route, kind", [("window", "window"),
                                             ("simulation", "window"),
                                             ("direct", "direct")])
    def test_second_curve_makes_no_draw(self, route, kind, calls):
        draws = {}
        self._curve(route, draws=draws)
        assert calls[kind] == self.ST.trials
        self._curve(route, draws=draws)
        assert calls[kind] == self.ST.trials

    @pytest.mark.parametrize("change", ["seed", "N", "trials", "half_width",
                                        "sampler"])
    def test_another_key_draws_again(self, change, calls):
        draws = {}
        self._curve("window", draws=draws)
        cfg, st, route = self.CFG, self.ST, "window"
        if change == "half_width":
            cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.4142,
                                   noise_power=0.1, half_width=2.0)
        elif change == "sampler":
            route = "direct"
        else:
            value = {"seed": 22, "N": 9, "trials": 2000}[change]
            field = "interferer_total" if change == "N" else change
            st = dataclasses.replace(self.ST, **{field: value})
        curve = self._curve(route, draws=draws, cfg=cfg, st=st)
        self._assert_same(curve, self._curve(route, cfg=cfg, st=st))
        assert calls["window"] + calls["direct"] == (
            self.ST.trials + 2 * st.trials)
        assert len(draws) == 2

    def test_stored_arrays_are_read_only(self):
        draws = {}
        self._curve("window", draws=draws)
        (blocks,) = draws.values()
        assert len(blocks) == 3
        for D, trials in blocks:
            assert D.shape == (len(trials), self.ST.interferer_total)
            for a in (D, trials):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[:1] = 0

    def test_cap_counts_the_whole_store(self, calls, monkeypatch):
        # The most a curve can keep: one distance row and one index per
        # trial.  Below that nothing is stored and the bits stay the same.
        need = self.ST.trials * (self.ST.interferer_total + 1) * 8
        monkeypatch.setattr(estimators, "_MAX_DRAW_BYTES", need - 1)
        draws = {}
        for _ in range(2):
            self._assert_same(self._curve("window", draws=draws),
                              self._curve("window"))
        assert draws == {}
        assert calls["window"] == 4 * self.ST.trials
        # One curve fits, but not a second one beside it.
        monkeypatch.setattr(estimators, "_MAX_DRAW_BYTES", need)
        self._curve("window", draws=draws)
        self._curve("direct", draws=draws)
        assert len(draws) == 1

    def test_many_workers_read_shared_draws(self, monkeypatch):
        # Eight workers on however many cores, switching often, read one
        # stored draw; every block must still see its own rows.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        st = dataclasses.replace(self.ST, trials=9 * _TRIAL_BLOCK + 50)
        base = self._curve("simulation", st=st)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            draws = {}
            for _ in range(3):
                self._assert_same(self._curve("simulation", threads=8,
                                              draws=draws, st=st), base)
        finally:
            sys.setswitchinterval(interval)
        assert len(draws) == 1

    def test_cli_ladder_draws_each_geometry_once(self, calls, tmp_path):
        # Four hybrid curves and one simulation curve on one window draw.
        argv = ["--eta", "2", "--N", "5", "--K", "1", "2", "3", "4",
                "--methods", "hybrid,simulation", "--trials", "2100",
                "--tstep-db", "10", "--out", str(tmp_path / "k.csv")]
        assert main(argv) == 0
        assert calls == {"window": 2100, "direct": 0}


class TestMapBlocks:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # A recording stand-in for the pool runs the blocks in order and
        # starts no thread; the list holds the size of each pool built.
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(estimators, "ThreadPoolExecutor", SerialPool)
        return workers

    def test_pool_never_outgrows_the_cores(self, pool_sizes):
        n_trials = 10 * _TRIAL_BLOCK
        pooled = _map_blocks(lambda lo, hi: (lo, hi), n_trials, 10**6)
        assert pooled == _map_blocks(lambda lo, hi: (lo, hi), n_trials, 1)
        assert len(pooled) == 10
        assert all(w <= (os.cpu_count() or 1) for w in pool_sizes)

    def test_pool_counts_only_the_cores_it_may_use(self, pool_sizes,
                                                   monkeypatch):
        # Pinned to one CPU (taskset, a cpuset), the blocks run in the
        # caller: no pool is built and no thread is started.
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        n_trials = 10 * _TRIAL_BLOCK
        blocks = _map_blocks(lambda lo, hi: (lo, hi), n_trials, 8)
        assert blocks == [(lo, lo + _TRIAL_BLOCK)
                          for lo in range(0, n_trials, _TRIAL_BLOCK)]
        assert pool_sizes == []


class TestHybridCoverage:
    def test_rejects_unknown_sampler(self):
        st = sc.EstimatorSettings(trials=8)
        with pytest.raises(ValueError, match="unknown sampler"):
            sc.hybrid_coverage(CFG, st, GRID, sampler="grid")

    def test_single_trial_has_zero_stderr(self):
        st = sc.EstimatorSettings(trials=1, seed=3)
        curve = sc.hybrid_coverage(CFG, st, GRID, sampler="direct")
        assert np.all(curve.stderrs == 0.0)
        assert np.all(curve.trials_used == 1)

    def test_tiny_threshold_is_near_one(self):
        grid = sc.ThresholdGrid(10.0 * np.log10([1e-6]))
        st = sc.EstimatorSettings(dominant_count=4, interferer_total=10,
                                  trials=2000, seed=1)
        curve = sc.hybrid_coverage(CFG, st, grid)
        assert curve.estimates[0] >= 0.999

    def test_k_equals_n_matches_manual_recomputation(self):
        st = sc.EstimatorSettings(dominant_count=5, interferer_total=5,
                                  trials=256, seed=9)
        curve = sc.hybrid_coverage(CFG, st, GRID, sampler="direct")
        t_lin = GRID.thresholds_linear
        acc = np.zeros(len(GRID))
        for m in range(st.trials):
            rng = streams.trial_stream(9, streams.GEOMETRY_DIRECT, m)
            d = sample_ordered_distances_direct(5, rng).distances
            s = t_lin * d[0] ** 4
            vals = np.exp(-s * 0.1)
            for i in range(1, 5):
                vals /= 1.0 + s / d[i] ** 4
            acc += vals
        np.testing.assert_allclose(curve.estimates, acc / st.trials,
                                   rtol=1e-12)

    def test_estimates_within_unit_interval(self):
        st = sc.EstimatorSettings(trials=500, seed=2)
        curve = sc.hybrid_coverage(CFG, st, GRID)
        assert np.all(curve.estimates >= 0.0)
        assert np.all(curve.estimates <= 1.0)

    def test_curve_nonincreasing(self):
        st = sc.EstimatorSettings(trials=2000, seed=3)
        curve = sc.hybrid_coverage(CFG, st, GRID)
        assert np.all(np.diff(curve.estimates) <= 1e-10)

    def test_same_seed_bit_identical(self):
        st = sc.EstimatorSettings(trials=1500, seed=4)
        a = sc.hybrid_coverage(CFG, st, GRID)
        b = sc.hybrid_coverage(CFG, st, GRID)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.stderrs, b.stderrs)

    def test_thread_count_does_not_change_result(self):
        st = sc.EstimatorSettings(trials=3000, seed=5)
        a = sc.hybrid_coverage(CFG, st, GRID, threads=1)
        b = sc.hybrid_coverage(CFG, st, GRID, threads=8)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.stderrs, b.stderrs)

    def test_window_and_direct_samplers_agree(self):
        st = sc.EstimatorSettings(dominant_count=4, interferer_total=10,
                                  trials=10_000, seed=0)
        w = sc.hybrid_coverage(CFG, st, GRID)
        d = sc.hybrid_coverage(CFG, st, GRID, sampler="direct")
        diff = np.abs(w.estimates - d.estimates)
        limit = 3.0 * (w.stderrs + d.stderrs)
        assert np.all(diff <= limit)

    def test_infeasible_window_rejected(self):
        small = sc.NetworkConfig(bs_density=0.001, half_width=1.0)
        st = sc.EstimatorSettings(interferer_total=10, trials=10)
        with pytest.raises(ValueError, match="window"):
            sc.hybrid_coverage(small, st, GRID)

    def test_all_trials_skipped_raises(self):
        # expected count == N, so underpopulated draws are common; seed 0
        # makes all three trials come up short.
        sparse = sc.NetworkConfig(bs_density=0.0025, half_width=40.0)
        st = sc.EstimatorSettings(dominant_count=2, interferer_total=16,
                                  trials=3, seed=0)
        with pytest.raises(sc.EstimatorError):
            sc.hybrid_coverage(sparse, st, GRID)

    def test_skipped_trials_reported(self):
        sparse = sc.NetworkConfig(bs_density=0.0025, half_width=40.0)
        st = sc.EstimatorSettings(dominant_count=2, interferer_total=16,
                                  trials=64, seed=1)
        curve = sc.hybrid_coverage(sparse, st, GRID)
        assert 0 < curve.trials_used[0] < 64
        assert np.all(curve.trials_used == curve.trials_used[0])


class TestEmpiricalCoverage:
    def test_no_interferers_no_noise_gives_full_coverage(self):
        cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                               noise_power=0.0, half_width=40.0)
        st = sc.EstimatorSettings(dominant_count=1, interferer_total=1,
                                  trials=400, seed=6)
        curve = sc.empirical_coverage(cfg, st, GRID)
        assert np.all(curve.estimates == 1.0)

    def test_huge_threshold_gives_zero(self):
        grid = sc.ThresholdGrid(10.0 * np.log10([1e12]))
        st = sc.EstimatorSettings(trials=400, seed=7)
        curve = sc.empirical_coverage(CFG, st, grid)
        assert curve.estimates[0] == 0.0

    def test_stderr_is_binomial(self):
        st = sc.EstimatorSettings(trials=800, seed=8)
        curve = sc.empirical_coverage(CFG, st, GRID)
        p = curve.estimates
        np.testing.assert_allclose(curve.stderrs,
                                   np.sqrt(p * (1 - p) / curve.trials_used),
                                   atol=1e-15)

    def test_agrees_with_hybrid(self):
        st = sc.EstimatorSettings(dominant_count=4, interferer_total=10,
                                  trials=4000, seed=0)
        hyb = sc.hybrid_coverage(CFG, st, GRID)
        sim = sc.empirical_coverage(CFG, st, GRID)
        diff = np.abs(hyb.estimates - sim.estimates)
        assert np.all(diff <= 3.0 * (hyb.stderrs + sim.stderrs))

    def test_thread_count_does_not_change_result(self):
        st = sc.EstimatorSettings(trials=3000, seed=10)
        a = sc.empirical_coverage(CFG, st, GRID, threads=1)
        b = sc.empirical_coverage(CFG, st, GRID, threads=6)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_curve_nonincreasing(self):
        st = sc.EstimatorSettings(trials=2000, seed=11)
        curve = sc.empirical_coverage(CFG, st, GRID)
        assert np.all(np.diff(curve.estimates) <= 0.0)


class TestSgCoverage:
    def test_matches_interference_limited_closed_form(self):
        cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                               noise_power=0.0, half_width=40.0)
        grid = sc.ThresholdGrid(10.0 * np.log10([0.1, 1.0]))
        curve = sc.sg_coverage(cfg, grid)
        for value, t in zip(curve.estimates, (0.1, 1.0)):
            closed = 1.0 / (1.0 + math.sqrt(t) * math.atan(math.sqrt(t)))
            assert value == pytest.approx(closed, abs=1e-5)

    def test_reference_values_with_noise(self):
        # frozen from an independent nested-quadrature evaluation
        grid = sc.ThresholdGrid(10.0 * np.log10([1.0]))
        got4 = sc.sg_coverage(CFG, grid).estimates[0]
        assert got4 == pytest.approx(0.5566043768616691, abs=2e-6)
        cfg3 = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=3.0,
                                noise_power=0.1, half_width=40.0)
        got3 = sc.sg_coverage(cfg3, grid).estimates[0]
        assert got3 == pytest.approx(0.37232172496830057, abs=2e-6)

    def test_threshold_to_zero_limit(self):
        grid = sc.ThresholdGrid(10.0 * np.log10([1e-12]))
        curve = sc.sg_coverage(CFG, grid)
        assert curve.estimates[0] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_low_eta(self):
        for eta in (1.5, 2.0):
            cfg = sc.NetworkConfig(pathloss_exponent=eta)
            with pytest.raises(ValueError, match="exponent is > 2"):
                sc.sg_coverage(cfg, GRID)

    def test_rejects_infinite_tolerance(self):
        with pytest.raises(ValueError):
            sc.sg_coverage(CFG, GRID, quad_abs_tol=math.inf)

    def test_strictly_decreasing_and_in_range(self):
        curve = sc.sg_coverage(CFG, GRID)
        assert np.all(np.diff(curve.estimates) < 0.0)
        assert np.all(curve.estimates > 0.0)
        assert np.all(curve.estimates < 1.0)
        assert np.all(curve.stderrs == 0.0)
        assert np.all(curve.trials_used == 0)

    def test_deterministic(self):
        a = sc.sg_coverage(CFG, GRID)
        b = sc.sg_coverage(CFG, GRID)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    @pytest.mark.parametrize("eta", [3.0, 3.4142, 4.0])
    def test_tight_tolerance_reachable(self, eta):
        # Noise 0.1: one tail per threshold and one 1-D integral reach
        # tolerances far below the default for every exponent.
        cfg = sc.NetworkConfig(pathloss_exponent=eta)
        for tol in (1e-9, 1e-10):
            curve = sc.sg_coverage(cfg, GRID, quad_abs_tol=tol)
            assert np.all(np.diff(curve.estimates) < 0.0)

    @pytest.mark.parametrize("eta", [3.0, 3.4142, 4.0])
    def test_closed_form_at_tight_tolerance(self, eta):
        # Noise-free coverage has the hypergeometric closed form at every
        # exponent above 2.
        cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=eta,
                               noise_power=0.0)
        curve = sc.sg_coverage(cfg, GRID, quad_abs_tol=1e-10)
        closed = [sg_noise_free_coverage(t, eta)
                  for t in GRID.thresholds_linear]
        np.testing.assert_allclose(curve.estimates, closed, rtol=0,
                                   atol=1e-10)

    def test_noise_free_oracle_matches_eta4_closed_form(self):
        for t in GRID.thresholds_linear:
            closed = 1.0 / (1.0 + math.sqrt(t) * math.atan(math.sqrt(t)))
            assert sg_noise_free_coverage(t, 4.0) == pytest.approx(
                closed, rel=0, abs=1e-14)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10])
    def test_noisy_eta4_one_dimensional_reduction(self, tol):
        curve = sc.sg_coverage(CFG, GRID, quad_abs_tol=tol)
        exact = [sg_eta4_coverage(t, CFG.bs_density, CFG.noise_power)
                 for t in GRID.thresholds_linear]
        np.testing.assert_allclose(curve.estimates, exact, rtol=0, atol=tol)

    def test_value_does_not_depend_on_grid(self):
        curve = sc.sg_coverage(CFG, GRID)
        for j, t_db in enumerate(GRID.thresholds_db):
            single = sc.ThresholdGrid([t_db])
            alone = sc.sg_coverage(CFG, single)
            assert alone.estimates[0] == curve.estimates[j]


@pytest.fixture(scope="module")
def direct_rows_n20():
    """20,000 direct-sampler distance rows of 20 at density 1."""
    rng = np.random.default_rng(7411)
    return np.vstack([sample_ordered_distances_direct(20, rng)
                      .distances for _ in range(20_000)])


class TestPairedCompletion:
    """The hybrid completed with its far field beyond R_N averages to sg.

    g = hybrid value * exp(-2*pi * tail(s, R_N, inf)) is the coverage
    conditioned on the K nearest distances with every interferer beyond R_K
    averaged out, so E[g] = sg exactly; the check is two-sided.
    """

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("N", [5, 20])
    @pytest.mark.parametrize("eta", [3.0, 4.0])
    def test_mean_matches_sg(self, direct_rows_n20, eta, N, K):
        tol = 1e-9
        cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=eta,
                               noise_power=0.1)
        D = direct_rows_n20[:, :N]
        s = GRID.thresholds_linear[None, :] * D[:, :1] ** eta
        r_n = np.broadcast_to(D[:, N - 1:], s.shape)
        g = (_hybrid_trial_values(D, s, K, N, cfg.unit_noise, eta, tol)
             * np.exp(-2.0 * math.pi
                      * sc.tail_integral_batch(s, eta, r_n, np.inf, tol)))
        stderr = g.std(axis=0, ddof=1) / math.sqrt(g.shape[0])
        z = (g.mean(axis=0) - sc.sg_coverage(cfg, GRID, tol).estimates) / stderr
        assert np.all(np.abs(z) <= 4.0), np.round(z, 2)


class TestExactExpectation:
    """Monte Carlo curves against their exact expectations at density 1.

    ``hybrid_expectation`` integrates the hybrid's value over (r, R_N), and
    over R_K too when 1 < K < N, by deterministic quadrature; at K = N it is
    also the truncated network's coverage P_N, which the simulation
    estimates.  With seed 4242 the worst |z| over the 21 thresholds was 2.08
    for the hybrid (1.54 over the three K = 4 cases) and 2.07 for the
    simulation.
    """

    @pytest.mark.parametrize("eta,N,K", [(2.0, 5, 1), (4.0, 10, 10),
                                         (3.4142, 20, 1), (3.0, 5, 5),
                                         (2.0, 5, 5), (2.0, 5, 4),
                                         (3.4142, 20, 4), (4.0, 10, 4)])
    def test_direct_hybrid(self, eta, N, K):
        cfg = sc.NetworkConfig(pathloss_exponent=eta)
        st = sc.EstimatorSettings(dominant_count=K, interferer_total=N,
                                  trials=20_000, seed=4242)
        curve = sc.hybrid_coverage(cfg, st, GRID, sampler="direct")
        exact = hybrid_expectation(eta, N, K, cfg.bs_density,
                                   cfg.noise_power, GRID.thresholds_linear)
        if 1 < K < N:  # the 3-D rule has converged well below the noise
            coarse = hybrid_expectation(eta, N, K, cfg.bs_density,
                                        cfg.noise_power,
                                        GRID.thresholds_linear, nodes=24)
            assert np.all(np.abs(exact - coarse) < 0.25 * curve.stderrs)
        z = (curve.estimates - exact) / curve.stderrs
        assert np.all(np.abs(z) <= 4.0), np.round(z, 2)

    @pytest.mark.parametrize("eta,N", [(4.0, 10), (3.0, 5), (2.0, 5)])
    def test_window_simulation(self, eta, N):
        cfg = sc.NetworkConfig(pathloss_exponent=eta)
        st = sc.EstimatorSettings(dominant_count=N, interferer_total=N,
                                  trials=20_000, seed=4242)
        curve = sc.empirical_coverage(cfg, st, GRID)
        exact = hybrid_expectation(eta, N, N, cfg.bs_density,
                                   cfg.noise_power, GRID.thresholds_linear)
        stderr = np.sqrt(exact * (1.0 - exact) / curve.trials_used)
        z = (curve.estimates - exact) / stderr
        assert np.all(np.abs(z) <= 4.0), np.round(z, 2)


@functools.lru_cache(maxsize=None)
def _direct_rows(N: int) -> np.ndarray:
    """20,000 direct distance rows of N at density 1 (read-only)."""
    rng = np.random.default_rng(5113)
    rows = np.sqrt(rng.exponential(1.0 / math.pi, size=(20_000, N))
                   .cumsum(axis=1))
    rows.flags.writeable = False
    return rows


class TestBinomialCompletion:
    """Where the hybrid's K-error comes from (density 1, noise 0.1).

    Swapping the hybrid's Poisson far field between R_K and R_N for the
    exact binomial one gives a value unbiased for P_N at every K; so the
    paired difference hybrid - completion, on common draws, measures the
    hybrid's bias E[hybrid_{N,K}] - P_N alone.  With seed 5113 and 20,000
    draws the worst completion |z| is 2.16, and the smallest gated bias step
    clears 12.1 paired stderr.
    """

    @pytest.mark.parametrize("K", [1, 2, 4])
    @pytest.mark.parametrize("eta,N", [(2.0, 5), (3.0, 10), (4.0, 10)])
    def test_mean_is_truncated_coverage(self, eta, N, K):
        D = _direct_rows(N)
        s = GRID.thresholds_linear[None, :] * D[:, :1] ** eta
        f_bin = binomial_completion(D, s, K, N, 0.1, eta)
        exact = hybrid_expectation(eta, N, N, 1.0, 0.1,
                                   GRID.thresholds_linear)
        stderr = f_bin.std(axis=0, ddof=1) / math.sqrt(f_bin.shape[0])
        z = (f_bin.mean(axis=0) - exact) / stderr
        assert np.all(np.abs(z) <= 4.0), np.round(z, 2)

    @pytest.mark.parametrize("eta,N", [(2.0, 5), (3.0, 10)])
    def test_bias_falls_with_every_dominant_interferer(self, eta, N):
        # b_K = max_T mean(d_K) with d_K = hybrid - completion.  At the
        # threshold T* where b_(K+1) peaks, b_K >= mean(d_K(T*)), so the
        # paired mean of d_K(T*) - d_(K+1)(T*) bounds the step from below.
        D = _direct_rows(N)
        s = GRID.thresholds_linear[None, :] * D[:, :1] ** eta
        d = [_hybrid_trial_values(D, s, K, N, 0.1, eta, 1e-9)
             - binomial_completion(D, s, K, N, 0.1, eta)
             for K in (1, 2, 3, 4)]
        for upper, lower in zip(d, d[1:]):
            peak = lower.mean(axis=0).argmax()
            step = upper[:, peak] - lower[:, peak]
            stderr = step.std(ddof=1) / math.sqrt(step.size)
            assert step.mean() > 4.0 * stderr, (step.mean(), stderr)


class TestDensityScaling:
    """coverage(lam, sigma^2, L) == coverage(1, unit_noise, unit_half_width).

    ``NetworkConfig`` normalises every network to unit density once, and the
    estimators read only that normal form, so a scaled network and its
    unit-density twin give the same bits for every method and sampler.
    """

    @staticmethod
    def _pair(lam, eta):
        scaled = sc.NetworkConfig(bs_density=lam, pathloss_exponent=eta,
                                  noise_power=0.1, half_width=20.0)
        unit = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=eta,
                                noise_power=scaled.unit_noise,
                                half_width=scaled.unit_half_width)
        return scaled, unit

    @pytest.mark.parametrize("lam", [0.25, 4.0])
    @pytest.mark.parametrize("eta", [3.4142, 4.0])
    def test_normal_form(self, lam, eta):
        scaled, unit = self._pair(lam, eta)
        assert scaled.unit_noise == pytest.approx(0.1 * lam ** (-eta / 2.0),
                                                  rel=1e-15)
        assert scaled.unit_half_width == pytest.approx(20.0 * math.sqrt(lam),
                                                       rel=1e-15)
        assert (unit.unit_noise, unit.unit_half_width) == (
            scaled.unit_noise, scaled.unit_half_width)

    @pytest.mark.parametrize("lam", [0.25, 4.0])
    @pytest.mark.parametrize("eta", [3.4142, 4.0])
    def test_hybrid(self, lam, eta):
        scaled, unit = self._pair(lam, eta)
        for sampler, trials in (("direct", 3000), ("window", 1000)):
            st = sc.EstimatorSettings(dominant_count=3, interferer_total=8,
                                      trials=trials, seed=12)
            a = sc.hybrid_coverage(scaled, st, GRID, sampler=sampler)
            b = sc.hybrid_coverage(unit, st, GRID, sampler=sampler)
            np.testing.assert_array_equal(a.estimates, b.estimates)
            np.testing.assert_array_equal(a.stderrs, b.stderrs)

    @pytest.mark.parametrize("lam", [0.25, 4.0])
    def test_simulation(self, lam):
        scaled, unit = self._pair(lam, 4.0)
        st = sc.EstimatorSettings(interferer_total=8, trials=1000, seed=13)
        np.testing.assert_array_equal(
            sc.empirical_coverage(scaled, st, GRID).estimates,
            sc.empirical_coverage(unit, st, GRID).estimates)

    @pytest.mark.parametrize("lam", [0.25, 4.0])
    @pytest.mark.parametrize("eta", [3.4142, 4.0])
    def test_sg(self, lam, eta):
        scaled, unit = self._pair(lam, eta)
        np.testing.assert_array_equal(sc.sg_coverage(scaled, GRID).estimates,
                                      sc.sg_coverage(unit, GRID).estimates)

    @pytest.mark.parametrize("lam", [0.25, 4.0])
    def test_probabilistic(self, lam):
        scaled, unit = self._pair(lam, 4.0)
        params = sc.ProbModelParams(mu_s=1.0, sigma_s_sq=0.05, sigma0_sq=1.0,
                                    interferer_total=10)
        np.testing.assert_array_equal(
            sc.prob_model_coverage(params, scaled, GRID).estimates,
            sc.prob_model_coverage(params, unit, GRID).estimates)


def _moment_coefficient_reference(i: int) -> float:
    """50-digit evaluation of the printed coefficient series."""
    mp.mp.dps = 50
    ln2 = mp.log(2)
    if i == 2:
        return float((67 - 96 * ln2) / mp.pi ** 2)
    first = (mp.factorial(4) / mp.gamma(i)) * (
        mp.gamma(i - 2)
        - mp.fsum(mp.gamma(i + k - 2) / (mp.factorial(k)
                                         * mp.mpf(2) ** (i + k - 2))
                  for k in range(5)))
    second = (mp.gamma(i + 4) / mp.gamma(i)) * (
        1 - ln2 - mp.fsum(mp.factorial(k) / (mp.factorial(k + 2)
                                             * mp.mpf(2) ** (k + 1))
                          for k in range(i + 2)))
    return float((first + second) / mp.pi ** 2)


class TestMomentCoefficient:
    def test_base_case_value(self):
        got = sc.interference_moment_coefficient(2)
        want = (67.0 - 96.0 * math.log(2.0)) / math.pi ** 2
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("i", [3, 4, 5, 10, 20, 30, 45, 60, 1100])
    def test_matches_high_precision_series(self, i):
        got = sc.interference_moment_coefficient(i)
        want = _moment_coefficient_reference(i)
        assert got == pytest.approx(want, rel=1e-8)

    def test_relative_accuracy_over_index_range(self):
        worst = max(
            abs(sc.interference_moment_coefficient(i)
                / _moment_coefficient_reference(i) - 1.0)
            for i in range(3, 81))
        assert worst <= 1e-12

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            sc.interference_moment_coefficient(1)

    @pytest.mark.parametrize("i", [2.5, math.inf])
    def test_rejects_non_finite_or_fractional(self, i):
        with pytest.raises(ValueError):
            sc.interference_moment_coefficient(i)


class TestProbModelCoverage:
    PARAMS = sc.ProbModelParams(mu_s=1.0, sigma_s_sq=0.05, sigma0_sq=1.0,
                                interferer_total=10)

    def test_threshold_to_zero_is_one(self):
        grid = sc.ThresholdGrid(10.0 * np.log10([1e-15]))
        curve = sc.prob_model_coverage(self.PARAMS, CFG, grid)
        assert curve.estimates[0] == pytest.approx(1.0, abs=1e-12)

    def test_validity_guard_triggers(self):
        bad = sc.ProbModelParams(mu_s=0.1, sigma_s_sq=5.0, sigma0_sq=1.0,
                                 interferer_total=10)
        noiseless = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                                     noise_power=0.0, half_width=40.0)
        with pytest.raises(ModelValidityError):
            sc.prob_model_coverage(bad, noiseless, GRID)

    def test_zero_variance_reduces_to_exponential(self):
        noiseless = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                                     noise_power=0.0, half_width=40.0)
        params = sc.ProbModelParams(mu_s=2.0, sigma_s_sq=0.0, sigma0_sq=1.5,
                                    interferer_total=5)
        curve = sc.prob_model_coverage(params, noiseless, GRID)
        t = GRID.thresholds_linear
        np.testing.assert_allclose(curve.estimates, np.exp(-t * 2.0 / 1.5),
                                   rtol=1e-12)

    def test_rejects_non_integral_count(self):
        with pytest.raises(ValueError, match="must be an integer"):
            sc.ProbModelParams(mu_s=1.0, sigma_s_sq=0.05, sigma0_sq=1.0,
                               interferer_total=2.5)

    def test_rejects_wrong_exponent(self):
        cfg3 = sc.NetworkConfig(pathloss_exponent=3.0)
        with pytest.raises(ValueError):
            sc.prob_model_coverage(self.PARAMS, cfg3, GRID)

    def test_range_and_monotone(self):
        curve = sc.prob_model_coverage(self.PARAMS, CFG, GRID)
        assert np.all(curve.estimates > 0.0)
        assert np.all(curve.estimates <= 1.0)
        assert np.all(np.diff(curve.estimates) < 0.0)


class TestVarianceDominance:
    def test_hybrid_stderr_below_simulation(self):
        st = sc.EstimatorSettings(dominant_count=4, interferer_total=10,
                                  trials=4000, seed=0)
        hyb = sc.hybrid_coverage(CFG, st, GRID)
        sim = sc.empirical_coverage(CFG, st, GRID)
        dominated = int((hyb.stderrs <= sim.stderrs).sum())
        assert dominated >= 19
