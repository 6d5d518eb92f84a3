"""Batch sweep front-end: parse flags, run method sweeps, emit CSV.

The CSV schema is fixed: header ``method,eta,N,K,T_db,coverage,stderr,
trials_used``, one row per grid point, floats printed with 9 significant
digits.  ``run_sweep`` fixes the row order, (method, N, K, T_db), and
``write_csv`` keeps it.  Progress goes to stderr so piped CSV stays clean.
Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace

from .estimators import (
    METHOD_HYBRID,
    METHOD_PROBABILISTIC,
    METHOD_SG,
    METHOD_SIMULATION,
    SAMPLER_DIRECT,
    SAMPLER_WINDOW,
    CoverageCurve,
    EstimatorSettings,
    ProbModelParams,
    ThresholdGrid,
    empirical_coverage,
    hybrid_coverage,
    prob_model_coverage,
    sg_coverage,
)
from .geometry import NetworkConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_ALL_METHODS = (METHOD_HYBRID, METHOD_SIMULATION, METHOD_SG,
                METHOD_PROBABILISTIC)

CSV_HEADER = "method,eta,N,K,T_db,coverage,stderr,trials_used"


@dataclass(frozen=True)
class SweepSpec:
    """Fully validated description of one sweep run.

    ``settings[(n, k)]`` and ``moments[n]`` (probabilistic runs only) hold
    the validated inputs of every curve.
    """

    network: NetworkConfig
    grid: ThresholdGrid
    methods: tuple
    n_list: tuple
    k_list: tuple
    trials: int
    quad_abs_tol: float
    seed: int
    sampler: str
    threads: int
    output_path: str
    settings: dict
    moments: dict


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sinrcov",
        description="Sweep downlink SINR coverage probability estimators "
                    "over a threshold grid and write the curves as CSV.",
    )
    p.add_argument("--lambda", dest="bs_density", type=float, default=1.0,
                   help="BS density in BS/km^2 (default 1)")
    p.add_argument("--eta", type=float, default=4.0,
                   help="path-loss exponent (default 4)")
    p.add_argument("--noise", type=float, default=0.1,
                   help="noise power sigma^2 in linear units (default 0.1)")
    p.add_argument("--K", type=int, nargs="+", default=[4],
                   help="dominant interferer count(s) (default 4)")
    p.add_argument("--N", type=int, nargs="+", default=[10],
                   help="total interferer count(s) (default 10)")
    p.add_argument("--trials", type=int, default=50_000,
                   help="Monte Carlo trials per curve (default 50000)")
    p.add_argument("--half-width", type=float, default=40.0,
                   help="simulation window half-width L in km (default 40)")
    p.add_argument("--tmin-db", type=float, default=-20.0,
                   help="lowest SINR threshold in dB (default -20)")
    p.add_argument("--tmax-db", type=float, default=20.0,
                   help="highest SINR threshold in dB (default 20)")
    p.add_argument("--tstep-db", type=float, default=2.0,
                   help="threshold step in dB (default 2)")
    p.add_argument("--methods", type=str, default="hybrid,simulation",
                   help="comma-separated subset of hybrid,simulation,sg,"
                        "probabilistic (default hybrid,simulation)")
    p.add_argument("--quad-tol", type=float, default=1e-6,
                   help="absolute quadrature tolerance (default 1e-6)")
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit root seed (default 0)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; output is identical for any count")
    p.add_argument("--out", type=str, default="-",
                   help="output CSV path, '-' for stdout (default '-')")
    p.add_argument("--sampler", choices=[SAMPLER_WINDOW, SAMPLER_DIRECT],
                   default=SAMPLER_WINDOW,
                   help="geometry sampler for the hybrid method "
                        "(default window)")
    p.add_argument("--mu-S", dest="mu_s", type=float, default=None,
                   help="moment-model mean input (probabilistic method)")
    p.add_argument("--sigma-S-sq", dest="sigma_s_sq", type=float,
                   default=None,
                   help="moment-model variance input (probabilistic method)")
    p.add_argument("--sigma0-sq", dest="sigma0_sq", type=float, default=None,
                   help="moment-model reference power (probabilistic method)")
    return p


def parse_args(argv=None) -> SweepSpec:
    """Parse and validate CLI flags into a SweepSpec; exits 2 on violation."""
    parser = build_parser()
    args = parser.parse_args(argv)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        parser.error("--methods must name at least one method")
    for m in methods:
        if m not in _ALL_METHODS:
            parser.error(f"unknown method {m!r}; choose from "
                         f"{', '.join(_ALL_METHODS)}")
    methods = tuple(sorted(set(methods)))

    # Methods run in sorted order, so sg's own eta check would fire only
    # after the hybrid curves were computed, and exit 3.
    if METHOD_SG in methods and args.eta <= 2.0:
        parser.error(
            f"method 'sg' requires --eta > 2 (infinite-network integral "
            f"diverges otherwise); got eta={args.eta}"
        )
    probabilistic = METHOD_PROBABILISTIC in methods
    if probabilistic:
        missing = [flag for flag, val in (("--mu-S", args.mu_s),
                                          ("--sigma-S-sq", args.sigma_s_sq),
                                          ("--sigma0-sq", args.sigma0_sq))
                   if val is None]
        if missing:
            parser.error(
                f"method 'probabilistic' requires {', '.join(missing)}"
            )
        if args.eta != 4.0:
            parser.error(
                f"method 'probabilistic' is defined only for --eta 4; got "
                f"eta={args.eta}"
            )
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    # Checked, not opened: an existing CSV survives a run that exits 3.
    if args.out != "-" and (os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(os.path.abspath(args.out)))):
        parser.error(f"--out {args.out!r} is a directory or lies in a "
                     f"directory that does not exist")

    n_list = tuple(sorted(set(args.N)))
    k_list = tuple(sorted(set(args.K)))
    # The estimators' own input rules decide what is a usage error.
    try:
        network = NetworkConfig(
            bs_density=args.bs_density,
            pathloss_exponent=args.eta,
            noise_power=args.noise,
            half_width=args.half_width,
        )
        grid = ThresholdGrid.from_db_range(args.tmin_db, args.tmax_db,
                                           args.tstep_db)
        settings = {
            (n, k): EstimatorSettings(dominant_count=k, interferer_total=n,
                                      trials=args.trials,
                                      quad_abs_tol=args.quad_tol,
                                      seed=args.seed)
            for n in n_list for k in k_list}
        moments = {n: ProbModelParams(mu_s=args.mu_s,
                                      sigma_s_sq=args.sigma_s_sq,
                                      sigma0_sq=args.sigma0_sq,
                                      interferer_total=n)
                   for n in n_list if probabilistic}
        if METHOD_SIMULATION in methods or (
                METHOD_HYBRID in methods and args.sampler == SAMPLER_WINDOW):
            network.check_window(max(n_list))
    except ValueError as exc:
        parser.error(str(exc))

    return SweepSpec(
        network=network, grid=grid, methods=methods, n_list=n_list,
        k_list=k_list, trials=args.trials, quad_abs_tol=args.quad_tol,
        seed=args.seed, sampler=args.sampler, threads=args.threads,
        output_path=args.out, settings=settings, moments=moments,
    )


def _compute(method: str, spec: SweepSpec, n: int, k: int) -> CoverageCurve:
    settings = spec.settings[(n, k)]
    if method == METHOD_HYBRID:
        return hybrid_coverage(spec.network, settings, spec.grid,
                               sampler=spec.sampler, threads=spec.threads)
    if method == METHOD_SIMULATION:
        return empirical_coverage(spec.network, settings, spec.grid,
                                  threads=spec.threads)
    if method == METHOD_SG:
        return sg_coverage(spec.network, spec.grid, spec.quad_abs_tol)
    return prob_model_coverage(spec.moments[n], spec.network, spec.grid)


def _cache_key(method: str, n: int, k: int):
    # sg ignores (N, K); simulation and probabilistic ignore K.
    if method == METHOD_SG:
        return (method,)
    if method in (METHOD_SIMULATION, METHOD_PROBABILISTIC):
        return (method, n)
    return (method, n, k)


def run_sweep(spec: SweepSpec) -> list[CoverageCurve]:
    """One CoverageCurve per (method, N, K) combination, deterministically.

    Curves come in sorted (method, N, K) order over strictly increasing
    thresholds, so their rows are in (method, N, K, T_db) order.

    An estimator failure is re-raised as the same exception, with its type
    and payload, and the failing combination appended to its message.
    """
    curves: list[CoverageCurve] = []
    cache: dict = {}
    for method in spec.methods:
        for n in spec.n_list:
            for k in spec.k_list:
                key = _cache_key(method, n, k)
                if key not in cache:
                    start = time.perf_counter()
                    try:
                        cache[key] = _compute(method, spec, n, k)
                    except Exception as exc:
                        exc.args = (f"{exc} [method={method}, N={n}, K={k}]",
                                    *exc.args[1:])
                        raise
                    print(f"[sinrcov] {method} N={n} K={k}: done in "
                          f"{time.perf_counter() - start:.1f}s",
                          file=sys.stderr)
                curves.append(replace(cache[key], interferer_total=n,
                                      dominant_count=k))
    return curves


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_csv(curves, path: str) -> None:
    """Write curves at 9 significant digits, rows in the order given."""
    lines = [CSV_HEADER + "\n"]
    for c in curves:
        head = (f"{c.method},{_fmt(c.eta)},{c.interferer_total},"
                f"{c.dominant_count}")
        for t_db, est, se, used in zip(c.thresholds_db, c.estimates,
                                       c.stderrs, c.trials_used):
            lines.append(f"{head},{_fmt(t_db)},{_fmt(est)},{_fmt(se)},"
                         f"{int(used)}\n")
    text = "".join(lines)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path!r}: {exc}") from exc


def main(argv=None) -> int:
    try:
        spec = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        curves = run_sweep(spec)
        write_csv(curves, spec.output_path)
    except Exception as exc:  # numerical or I/O failure
        print(f"sinrcov: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
