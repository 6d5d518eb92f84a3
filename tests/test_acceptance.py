"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``).

The figure-matrix fixture is computed once and shared; with 5e4 trials per
curve the full module takes a few minutes.
"""
import math
import os
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import sinrcov as sc
from sinrcov.cli import main

from oracles import tail_integral_closed_form

TRIALS = 50_000
GRID = sc.ThresholdGrid.from_db_range(-20, 20, 2)

# one line per criterion; echoed in the terminal summary by conftest
ACCEPTANCE_LINES = []


def _cfg(eta):
    return sc.NetworkConfig(bs_density=1.0, pathloss_exponent=eta,
                            noise_power=0.1, half_width=40.0)


def _settings(n, k=4):
    return sc.EstimatorSettings(dominant_count=k, interferer_total=n,
                                trials=TRIALS, quad_abs_tol=1e-6, seed=0)


def _report(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def figure_curves():
    """Hybrid/simulation curves for the full experiment matrix, plus the
    deterministic benchmark per exponent above 2."""
    curves = {}
    # Any worker count gives the same bits (criterion 10).
    threads = os.cpu_count() or 1
    combos = [(eta, n) for eta in (2.0, 3.0, 4.0) for n in (5, 10, 20)]
    combos.append((3.4142, 10))
    for eta, n in combos:
        cfg = _cfg(eta)
        start = time.perf_counter()
        curves[("hyb", eta, n)] = sc.hybrid_coverage(cfg, _settings(n), GRID,
                                                     threads=threads)
        curves[("sim", eta, n)] = sc.empirical_coverage(cfg, _settings(n),
                                                        GRID, threads=threads)
        print(f"[acceptance] curves eta={eta} N={n}: "
              f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
    for eta in (3.0, 3.4142, 4.0):
        curves[("sg", eta)] = sc.sg_coverage(_cfg(eta), GRID)
    return curves


def test_criterion_1_quadrature_oracle():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = 10 ** rng.uniform(-3, 3)
        a = rng.uniform(0.0, 5.0)
        b = a + rng.uniform(0.01, 10.0)
        for eta in (2.0, 4.0):
            got = sc.tail_integral_batch([s], eta, [a], [b], 1e-9)[0]
            want = tail_integral_closed_form(s, eta, a, b)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _report("criterion 1 (quadrature oracle)",
            worst <= 1e-8 and elapsed < 1.0,
            f"max abs error {worst:.2e} <= 1e-8, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_sg_sanity():
    cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                           noise_power=0.0, half_width=40.0)
    start = time.perf_counter()
    curve = sc.sg_coverage(cfg,
                           sc.ThresholdGrid(10.0 * np.log10([0.1, 1.0])))
    elapsed = time.perf_counter() - start
    devs = []
    for value, t in zip(curve.estimates, (0.1, 1.0)):
        closed = 1.0 / (1.0 + math.sqrt(t) * math.atan(math.sqrt(t)))
        devs.append(abs(value - closed))
    _report("criterion 2 (benchmark closed form)",
            max(devs) <= 1e-4 and elapsed < 10.0,
            f"deviations {devs[0]:.2e}, {devs[1]:.2e} <= 1e-4, "
            f"runtime {elapsed:.2f}s < 10s")


def test_criterion_3_figure_matrix_eta_3_4(figure_curves):
    sim_devs = {}
    for eta in (3.0, 4.0):
        for n in (5, 10, 20):
            hyb = figure_curves[("hyb", eta, n)]
            sim = figure_curves[("sim", eta, n)]
            sim_devs[(eta, n)] = np.abs(hyb.estimates - sim.estimates).max()
    sim_ok = all(v <= 0.015 for v in sim_devs.values())
    sim_txt = ", ".join(f"eta={e} N={n}: {v:.4f}"
                        for (e, n), v in sim_devs.items())

    sg4 = figure_curves[("sg", 4.0)]
    sg4_dev = np.abs(figure_curves[("hyb", 4.0, 20)].estimates
                     - sg4.estimates).max()
    sg4_ok = sg4_dev <= 0.02

    # The hybrid at N models the network cut off at the N-th interferer and
    # sg the infinite one. At eta=3 the far field decays only like N^-1/2,
    # so the N=20 gap is judged by the truncation bound
    # 0 <= P_20 - P_inf <= E[delta_20(T)] at every threshold, not by a
    # fixed window. E[delta_20(T)] is exact, so only the hybrid's stderr
    # widens it.
    cfg3 = _cfg(3.0)
    sg3 = figure_curves[("sg", 3.0)]
    hyb20 = figure_curves[("hyb", 3.0, 20)]
    bound_fail, margins = [], []
    for j, t in enumerate(GRID.thresholds_linear):
        mean = sc.expected_tail_truncation_error(cfg3, 20, float(t))
        se_h = float(hyb20.stderrs[j])
        gap = float(hyb20.estimates[j] - sg3.estimates[j])
        lower = -4.0 * se_h
        upper = mean + 4.0 * se_h
        margins.append(f"{GRID.thresholds_db[j]:+.0f}dB: "
                       f"{gap - lower:.5f}/{upper - gap:.5f}")
        if not lower <= gap <= upper:
            bound_fail.append(f"{GRID.thresholds_db[j]:+.0f}dB")

    # the gap must also close as interferers are added
    peaks = {}
    for n in (5, 10, 20):
        hyb = figure_curves[("hyb", 3.0, n)]
        gaps = hyb.estimates - sg3.estimates
        j = int(np.argmax(gaps))
        peaks[n] = (float(gaps[j]), float(hyb.stderrs[j]))
    shrink_ok = all(
        peaks[a][0] - peaks[b][0] > 4.0 * (peaks[a][1] + peaks[b][1])
        for a, b in ((5, 10), (10, 20)))
    peak_txt = ", ".join(f"N={n}: {g:.4f} (se {s:.4f})"
                         for n, (g, s) in peaks.items())

    _report("criterion 3 (figure matrix, eta 3 and 4)",
            sim_ok and sg4_ok and not bound_fail and shrink_ok,
            f"max|hybrid-simulation| <= 0.015 [{sim_txt}]; "
            f"eta=4 N=20 max|hybrid-sg| {sg4_dev:.4f} <= 0.02; "
            f"eta=3 N=20 -4se_h <= hybrid-sg <= E[delta_20]+4se_h, "
            f"margins lower/upper [{'; '.join(margins)}]"
            f"{', VIOLATED at ' + ', '.join(bound_fail) if bound_fail else ''}"
            f"; eta=3 max(hybrid-sg) shrinks by > 4 combined se per step "
            f"[{peak_txt}]: {'ok' if shrink_ok else 'VIOLATION'}")


def test_criterion_4_eta_2_finite_network(figure_curves):
    devs = {}
    for n in (5, 10, 20):
        hyb = figure_curves[("hyb", 2.0, n)]
        sim = figure_curves[("sim", 2.0, n)]
        devs[n] = np.abs(hyb.estimates - sim.estimates).max()
    refused = False
    try:
        sc.sg_coverage(_cfg(2.0), GRID)
    except ValueError:
        refused = True
    txt = ", ".join(f"N={n}: {v:.4f}" for n, v in devs.items())
    _report("criterion 4 (eta=2 finite network)",
            all(v <= 0.015 for v in devs.values()) and refused,
            f"max|hybrid-simulation| <= 0.015 [{txt}]; benchmark refuses "
            f"eta=2: {refused}")


def test_criterion_5_fractional_exponent(figure_curves):
    hyb = figure_curves[("hyb", 3.4142, 10)]
    sim = figure_curves[("sim", 3.4142, 10)]
    dev = np.abs(hyb.estimates - sim.estimates).max()
    _report("criterion 5 (fractional exponent)", dev <= 0.015,
            f"eta=3.4142 N=10 max|hybrid-simulation| {dev:.4f} <= 0.015")


def test_criterion_6_truncation_error_bound(figure_curves):
    cfg = _cfg(4.0)
    sg = figure_curves[("sg", 4.0)]
    t_indices = {-10.0: 5, 0.0: 10, 10.0: 15}
    violations = []
    details = []
    for n in (5, 10, 20):
        hyb = figure_curves[("hyb", 4.0, n)]
        for t_db, j in t_indices.items():
            assert GRID.thresholds_db[j] == t_db
            mean = sc.expected_tail_truncation_error(
                cfg, n, float(GRID.thresholds_linear[j]))
            gap = abs(float(hyb.estimates[j] - sg.estimates[j]))
            limit = mean + 4.0 * float(hyb.stderrs[j])
            details.append(f"N={n} T={t_db:+.0f}dB: {gap:.4f} <= {limit:.4f}")
            if gap > limit:
                violations.append(details[-1])
    _report("criterion 6 (truncation error bound)", not violations,
            "; ".join(details))


def test_criterion_7_convergence_rates():
    # The windows state the unsaturated decay rate 1 - eta/2 of E[delta_N].
    # That rate is only visible where 1 - exp(-z) ~ z, i.e. where every
    # error mean is small; at T=1 the eta=3 means sit at 0.26-0.46 and the
    # saturated fit flattens to about -0.27. Fit at the grid's lowest
    # threshold (-20 dB) and assert the small-error regime first.
    threshold = 0.01
    slopes, means = {}, {}
    for eta in (3.0, 4.0):
        report = sc.tail_error_report(_cfg(eta), threshold, [5, 10, 20, 40])
        slopes[eta] = report.fitted_slope
        means[eta] = report.delta_means
    small = all(float(m.max()) <= 0.05 for m in means.values())
    ok3 = -0.8 <= slopes[3.0] <= -0.35
    ok4 = -1.3 <= slopes[4.0] <= -0.7
    means_txt = "; ".join(
        f"eta={e} means [{', '.join(f'{v:.4f}' for v in m)}]"
        for e, m in means.items())
    _report("criterion 7 (convergence rates)", small and ok3 and ok4,
            f"T={threshold}: {means_txt} all <= 0.05: "
            f"{'ok' if small else 'VIOLATION'}; "
            f"eta=3 slope {slopes[3.0]:.3f} in [-0.8, -0.35]: "
            f"{'ok' if ok3 else 'VIOLATION'}; "
            f"eta=4 slope {slopes[4.0]:.3f} in [-1.3, -0.7]: "
            f"{'ok' if ok4 else 'VIOLATION'}")


def test_criterion_8_distribution_oracles(window_prefix_draws):
    _, first5 = window_prefix_draws
    p1 = stats.kstest(first5[:, 0] ** 2, "expon",
                      args=(0, 1 / math.pi)).pvalue
    p2 = stats.kstest(first5[:, 1] ** 2, "gamma",
                      args=(2, 0, 1 / math.pi)).pvalue
    _report("criterion 8 (distance distribution oracles)",
            p1 > 0.001 and p2 > 0.001,
            f"KS p-values: nearest {p1:.3f}, second {p2:.3f} > 0.001")


def test_criterion_9_variance_dominance(figure_curves):
    hyb = figure_curves[("hyb", 4.0, 10)]
    sim = figure_curves[("sim", 4.0, 10)]
    dominated = int((hyb.stderrs <= sim.stderrs).sum())
    _report("criterion 9 (variance dominance)", dominated >= 19,
            f"hybrid stderr <= simulation stderr at {dominated}/21 grid "
            f"points (need >= 19)")


def test_criterion_10_worker_determinism(tmp_path):
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    base = ["--methods", "hybrid,simulation", "--trials", "2000", "--N",
            "10", "--K", "4", "--seed", "123"]
    rc1 = main(base + ["--threads", "1", "--out", str(out1)])
    rc8 = main(base + ["--threads", "8", "--out", str(out8)])
    identical = out1.read_bytes() == out8.read_bytes()
    _report("criterion 10 (worker determinism)",
            rc1 == 0 and rc8 == 0 and identical,
            f"1-thread vs 8-thread CSV byte-identical: {identical}")


def test_criterion_11_moment_baseline_mechanics():
    cfg = _cfg(4.0)
    params = sc.ProbModelParams(mu_s=1.0, sigma_s_sq=0.05, sigma0_sq=1.0,
                                interferer_total=10)
    tiny = sc.prob_model_coverage(
        params, cfg, sc.ThresholdGrid(10.0 * np.log10([1e-15])))
    limit_ok = abs(tiny.estimates[0] - 1.0) <= 1e-9

    guard_ok = False
    try:
        sc.prob_model_coverage(
            sc.ProbModelParams(mu_s=0.1, sigma_s_sq=5.0, sigma0_sq=1.0,
                               interferer_total=10),
            sc.NetworkConfig(bs_density=1.0, pathloss_exponent=4.0,
                             noise_power=0.0, half_width=40.0), GRID)
    except sc.ModelValidityError:
        guard_ok = True

    mp.mp.dps = 50
    reference = float((67 - 96 * mp.log(2)) / mp.pi ** 2)
    alpha2 = sc.interference_moment_coefficient(2, 1.0)
    alpha_ok = abs(alpha2 - reference) <= 1e-5

    _report("criterion 11 (moment baseline mechanics)",
            limit_ok and guard_ok and alpha_ok,
            f"zero-threshold limit 1 ({limit_ok}); validity guard raises "
            f"({guard_ok}); alpha_2 {alpha2:.6f} within 1e-5 of "
            f"high-precision {reference:.6f} ({alpha_ok})")
