"""Regenerate reference.json, the curves the benchmark checks runs against.

Run once from the repository root (needs mpmath, from the test extra):

    python3 perfbench/make_reference.py

Monte Carlo curves come from sinrcov itself at REFERENCE_TRIALS trials under
REFERENCE_SEED, a seed the benchmark never derives.  The sg curves do not come
from sinrcov: ``sg_coverage`` raises QuadratureError for tolerances below
about 3e-7, so mpmath evaluates the infinite-network coverage on its
one-dimensional form instead,

    P(SINR > T) = pi*lam * int_0^inf exp(-pi*lam*(1 + 2*rho)*x - T*sig2*x**(eta/2)) dx,
    rho = int_1^inf T*u / (u**eta + T) du,

and at eta = 4 the result is checked against the Andrews-Baccelli-Ganti
closed form (IEEE TCOM 2011).  Monte Carlo curves are run with two threads;
the output does not depend on the thread count.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

REFERENCE_TRIALS = 200_000
REFERENCE_SEED = 2_718_281_828
REPORT_CHUNKS = 10  # tail_error_report draws all trials at once; chunk them
COMMAND = "python3 perfbench/make_reference.py"


def sg_reference(thresholds, eta, lam, sig2):
    mp.mp.dps = 30
    out = []
    for t in thresholds:
        t, e = mp.mpf(float(t)), mp.mpf(eta)
        rho = mp.quad(lambda u: t * u / (u**e + t), [1, 2, 10, mp.inf])
        a = mp.pi * lam * (1 + 2 * rho)
        value = mp.quad(lambda x: mp.pi * lam * mp.exp(-a * x - t * sig2
                                                       * x**(e / 2)),
                        [0, 1 / a, 10 / a, mp.inf])
        out.append(float(value))
    return out


def _erfcx(z):
    """exp(z*z) * erfc(z), by continued fraction for the large z used here."""
    if z < 3.0:
        return math.exp(z * z) * math.erfc(z)
    frac = 0.0
    for k in range(400, 0, -1):
        frac = (k / 2.0) / (z + frac)
    return 1.0 / (math.sqrt(math.pi) * (z + frac))


def abg_eta4(thresholds, lam, sig2):
    """Andrews-Baccelli-Ganti coverage at eta = 4 with noise."""
    out = []
    for t in thresholds:
        rho = math.sqrt(t) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(t)))
        a, b = math.pi * lam * (1.0 + rho), t * sig2
        out.append(math.pi * lam * 0.5 * math.sqrt(math.pi / b)
                   * _erfcx(a / (2.0 * math.sqrt(b))))
    return out


def mc_entry(curve):
    return {"estimates": curve.estimates.tolist(),
            "stderrs": curve.stderrs.tolist(),
            "trials": int(curve.trials_used[0])}


def sg_entry(cfg, grid):
    lam, sig2, eta = cfg.bs_density, cfg.noise_power, cfg.pathloss_exponent
    values = sg_reference(grid.thresholds_linear, eta, lam, sig2)
    if eta == 4.0:
        gap = np.abs(np.array(values)
                     - abg_eta4(grid.thresholds_linear, lam, sig2)).max()
        if not gap < 1e-10:
            raise SystemExit(f"sg reference disagrees with ABG by {gap:g}")
    return {"estimates": values, "stderrs": [0.0] * len(values), "trials": 0}


def cli_reference(sc, workload):
    spec = sc.cli.parse_args(bench.cli_argv(workload, REFERENCE_SEED))
    curves, reported = {}, []
    for method in spec.methods:
        for n in spec.n_list:
            for k in spec.k_list:
                reported.append([method, n, k])
                key = bench.curve_key(method, n, k)
                if key in curves:
                    continue
                settings = sc.EstimatorSettings(
                    dominant_count=k, interferer_total=n,
                    trials=REFERENCE_TRIALS, quad_abs_tol=spec.quad_abs_tol,
                    seed=REFERENCE_SEED)
                if method == "hybrid":
                    curves[key] = mc_entry(sc.hybrid_coverage(
                        spec.network, settings, spec.grid,
                        sampler=spec.sampler, threads=2))
                elif method == "simulation":
                    curves[key] = mc_entry(sc.empirical_coverage(
                        spec.network, settings, spec.grid, threads=2))
                else:
                    curves[key] = sg_entry(spec.network, spec.grid)
                print(f"{workload} {key} done", file=sys.stderr)
    return {"thresholds_db": spec.grid.thresholds_db.tolist(),
            "reported": reported, "curves": curves}


def fractional_reference(sc):
    cfg, grid = bench.fractional_inputs(sc)
    curves = {}
    for n, k in bench.FRACTIONAL_COMBOS:
        settings = sc.EstimatorSettings(
            dominant_count=k, interferer_total=n, trials=REFERENCE_TRIALS,
            quad_abs_tol=bench.QUAD_TOL, seed=REFERENCE_SEED)
        curves[bench.curve_key("hybrid", n, k)] = mc_entry(sc.hybrid_coverage(
            cfg, settings, grid, sampler="direct", threads=2))
        print(f"fractional-dense hybrid N{n} K{k} done", file=sys.stderr)
    curves["sg"] = sg_entry(cfg, grid)
    # Equal-size chunks under distinct seeds: the mean of the chunk means is
    # the overall mean, and its stderr is the root sum of squares / chunks.
    chunks = [sc.tail_error_report(cfg, bench.REPORT_THRESHOLD,
                                   bench.REPORT_COUNTS,
                                   REFERENCE_TRIALS // REPORT_CHUNKS,
                                   seed=REFERENCE_SEED + j,
                                   quad_abs_tol=bench.QUAD_TOL)
              for j in range(REPORT_CHUNKS)]
    means = np.mean([c.delta_means for c in chunks], axis=0)
    stderrs = np.sqrt(np.sum([c.delta_stderrs ** 2 for c in chunks],
                             axis=0)) / REPORT_CHUNKS
    return {"thresholds_db": grid.thresholds_db.tolist(), "curves": curves,
            "report": {"interferer_counts": list(bench.REPORT_COUNTS),
                       "delta_means": means.tolist(),
                       "delta_stderrs": stderrs.tolist(),
                       "trials": REFERENCE_TRIALS}}


def main() -> int:
    sc = bench.load_library()
    commit = subprocess.run(["git", "-C", bench.ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    workloads = {w: cli_reference(sc, w) for w in bench.CLI_ARGS}
    workloads["fractional-dense"] = fractional_reference(sc)
    out = {"command": COMMAND, "commit": commit, "seed": REFERENCE_SEED,
           "trials": REFERENCE_TRIALS, "workloads": workloads}
    with open(bench.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
