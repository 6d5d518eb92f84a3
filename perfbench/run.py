"""sinrcov benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root, e.g.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics; the
trace wraps the library's public names from outside and restores them after
every pass.  ``--workload all`` runs every workload in turn.  Every run checks
the program's curves against ``reference.json``.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a human-readable table and the run context.  README.md in
this directory defines every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Trial counts are sized so one pass takes 1-2 s on a 2-core host, which
# leaves room for about fifteen passes per median in a 30 s run.
TRIALS = {"cli-default": 3000, "kladder-eta2": 2000, "fractional-dense": 2000}
REPORT_TRIALS = 10_000
QUAD_TOL = 1e-6  # the CLI and library default

CLI_ARGS = {
    # README default scenario: lambda 1, eta 4, noise 0.1, N 10, K 4,
    # -20..20 dB in 2 dB steps, window sampler.
    "cli-default": ["--methods", "hybrid,simulation,sg", "--threads", "1"],
    # README K-ladder; the only workload where the block thread pool runs.
    "kladder-eta2": ["--eta", "2", "--N", "5", "--K", "1", "2", "3", "4",
                     "--methods", "hybrid,simulation", "--threads", "2"],
}
FRACTIONAL_ETA = 3.4142
FRACTIONAL_GRID_DB = (-20.0, 20.0, 0.25)  # 161 thresholds
FRACTIONAL_COMBOS = ((10, 1), (10, 4), (20, 1), (20, 4))
REPORT_THRESHOLD = 1.0
REPORT_COUNTS = (5, 10, 20, 40, 80)
WORKLOADS = ("cli-default", "kladder-eta2", "fractional-dense")

MIN_PASSES = 3        # measured passes per run, after one warm-up pass
CHECK_SIGMAS = 5.0    # Monte Carlo curves must agree within 5 combined stderr
SE_TARGET = 1e-3      # accuracy behind hybrid_s_to_se1e-3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("hybrid_curve_s", "s"),
              ("hybrid_s_to_se1e-3", "s"), ("peak_rss_mb", "MB"))
# Printed, but not in the JSON line: a workload that does not run the method
# would report 0, and fail_frac is failed / attempted of the JSON line.
END_TO_END_PRINTED = (("simulation_curve_s", "s"), ("sg_curve_s", "s"),
                      ("fail_frac", "ratio"))
EXACT_COUNTERS = (
    ("cli.curves_computed", "count"), ("cli.curves_reported", "count"),
    ("estimators.trial_yield", "ratio"),
    ("streams.calls.geometry", "count"), ("streams.calls.fading", "count"),
    ("streams.calls.tail_error", "count"),
    ("geometry.window_calls", "count"), ("geometry.direct_calls", "count"),
    ("geometry.points_drawn", "count"),
    ("geometry.points_kept_ratio", "ratio"),
    ("geometry.draws_per_trial", "draws/trial"),
    ("quadrature.tail_batch_calls", "count"),
    ("quadrature.tail_integrals", "count"),
    ("quadrature.integrand_calls", "count"), ("quadrature.panels", "count"),
    ("quadrature.panels_per_integral", "panels/integral"),
    ("quadrature.adaptive_calls", "count"),
)
LAYER_TIMES = (("estimators.hybrid_self_s", "s"),
               ("streams.trial_stream_s", "s"), ("geometry.draw_s", "s"),
               ("quadrature.tail_batch_s", "s"), ("trace.overhead_s", "s"))
# Printed, but not in the JSON line: each is exactly 0 on some workload.
LAYER_TIMES_PRINTED = (
    ("cli.parse_s", "s"), ("cli.write_csv_s", "s"),
    ("estimators.simulation_self_s", "s"), ("estimators.sg_self_s", "s"),
    ("geometry.window_s", "s"), ("geometry.direct_s", "s"),
    ("quadrature.adaptive_s", "s"), ("error_analysis.report_s", "s"),
)


def load_library():
    """Import sinrcov from this checkout's src/; exit 1 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "sinrcov", "__init__.py")):
        sys.exit(f"perfbench: no sinrcov package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sinrcov.cli
    return sinrcov


def program_seed(seed: int, replicate: int) -> int:
    """The 64-bit seed sinrcov gets for one replicate of the bench seed."""
    return int(np.random.SeedSequence([seed, replicate])
               .generate_state(1, np.uint64)[0])


def cli_argv(workload: str, pseed: int, out: str = "-") -> list:
    return CLI_ARGS[workload] + ["--trials", str(TRIALS[workload]),
                                 "--seed", str(pseed), "--out", out]


def fractional_inputs(sc):
    cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent=FRACTIONAL_ETA,
                           noise_power=0.1, half_width=40.0)
    return cfg, sc.ThresholdGrid.from_db_range(*FRACTIONAL_GRID_DB)


def curve_key(method: str, n: int, k: int) -> str:
    """Reference key: sg ignores (N, K) and simulation ignores K."""
    if method == "sg":
        return "sg"
    if method == "simulation":
        return f"simulation/N{n}"
    return f"{method}/N{n}/K{k}"


# --------------------------------------------------------------------------
# Spans and counters

class Trace:
    """Spans and counters recorded around library names, kept in memory.

    A span's self time is its duration minus the spans it caused in the same
    thread.  Spans in pool worker threads are summed, so layer times are busy
    time across threads, not wall time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.trial_indices = set()
        self.curves = []  # (method, seconds, CoverageCurve) per curve span
        self.unwrapped = []  # names the library no longer has

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def caller(self):
        """Name of the span that opened the innermost open span."""
        stack = self._stack()
        return stack[-2][0] if len(stack) > 1 else None

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - frame[1]
            if observe is not None:
                with self._lock:
                    observe(args, kwargs, out, elapsed)
            return out
        return traced


class Patch:
    """Replace module attributes for one pass, restoring them on exit."""

    def __init__(self):
        self._saved = []
        self.missing = []

    def set(self, module, attr, make):
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def curve_observer(trace, method, via_cli):
    def observe(args, kwargs, out, elapsed):
        trace.curves.append((method, elapsed, out))
        if via_cli:
            trace.counts["cli.curves_computed"] += 1
        if method != "sg":
            trace.counts["trials_used"] += int(out.trials_used[0])
            trace.counts["trials_requested"] += _arg(args, kwargs, 1,
                                                     "settings").trials
    return observe


def instrument(patch, trace, sc, full):
    """Time every curve; with ``full``, wrap every layer boundary too."""
    cli, est = sc.cli, sc.estimators
    methods = {"hybrid_coverage": "hybrid", "empirical_coverage": "simulation",
               "sg_coverage": "sg"}
    for attr, method in methods.items():
        patch.set(cli, attr, lambda fn, m=method: trace.wrap(
            f"estimators.{m}", fn, curve_observer(trace, m, via_cli=True)))
    if not full:
        return
    counts = trace.counts
    stream_domains = {}
    for const, label in (("GEOMETRY_WINDOW", "geometry"),
                         ("GEOMETRY_DIRECT", "geometry"),
                         ("FADING", "fading"), ("TAIL_ERROR", "tail_error")):
        if hasattr(sc.streams, const):
            stream_domains[getattr(sc.streams, const)] = label

    def on_stream(args, kwargs, out, elapsed):
        label = stream_domains.get(_arg(args, kwargs, 1, "domain"), "other")
        counts[f"streams.calls.{label}"] += 1
        if label == "geometry":
            trace.trial_indices.add(_arg(args, kwargs, 2, "index"))

    def on_nearest(args, kwargs, out, elapsed):
        counts["geometry.window_calls"] += 1
        counts["points_drawn"] += int(out[0])
        counts["points_kept"] += len(out[1])

    def on_realization(kind):
        def observe(args, kwargs, out, elapsed):
            counts[f"geometry.{kind}_calls"] += 1
            counts["points_drawn"] += int(out.point_count)
            counts["points_kept"] += len(out.distances)
        return observe

    def on_tail_batch(args, kwargs, out, elapsed):
        counts["quadrature.tail_batch_calls"] += 1
        counts["quadrature.tail_integrals"] += int(np.size(out))

    def on_integrand(args, kwargs, out, elapsed):
        counts["quadrature.integrand_calls"] += 1
        counts["nodes"] += int(np.size(_arg(args, kwargs, 2, "t")))

    def on_adaptive(args, kwargs, out, elapsed):
        counts["quadrature.adaptive_calls"] += 1

    def on_write_csv(args, kwargs, out, elapsed):
        counts["cli.curves_reported"] += len(_arg(args, kwargs, 0, "curves"))

    def on_map_blocks(fn):
        # Worker threads inherit no span stack, so each block becomes its
        # own span named after the curve that scheduled it.
        def map_blocks(block, *args, **kwargs):
            name = f"{trace.caller()}.block"
            return fn(trace.wrap(name, block), *args, **kwargs)
        return trace.wrap("estimators.map_blocks", map_blocks)

    patch.set(sc.streams, "trial_stream",
              lambda fn: trace.wrap("streams.trial_stream", fn, on_stream))
    patch.set(est, "nearest_window_distances",
              lambda fn: trace.wrap("geometry.window", fn, on_nearest))
    patch.set(est, "sample_window_realization",
              lambda fn: trace.wrap("geometry.window", fn,
                                    on_realization("window")))
    patch.set(est, "sample_ordered_distances_direct",
              lambda fn: trace.wrap("geometry.direct", fn,
                                    on_realization("direct")))
    for module in (est, sc.error_analysis):
        patch.set(module, "tail_integral_batch",
                  lambda fn: trace.wrap("quadrature.tail_batch", fn,
                                        on_tail_batch))
    patch.set(est, "integrate_adaptive",
              lambda fn: trace.wrap("quadrature.adaptive", fn, on_adaptive))
    patch.set(sc.quadrature, "tail_integrand",
              lambda fn: trace.wrap("quadrature.integrand", fn, on_integrand))
    patch.set(est, "_map_blocks", on_map_blocks)
    patch.set(cli, "parse_args", lambda fn: trace.wrap("cli.parse", fn))
    patch.set(cli, "write_csv",
              lambda fn: trace.wrap("cli.write_csv", fn, on_write_csv))
    trace.unwrapped = patch.missing


def layer_metrics(trace: Trace) -> dict:
    """Per-layer times and the exact counters of one traced pass."""
    c, tot, own = trace.counts, trace.total, trace.self_time

    def self_s(method):
        return own[f"estimators.{method}"] + own[f"estimators.{method}.block"]

    out = {
        "cli.parse_s": tot["cli.parse"],
        "cli.write_csv_s": tot["cli.write_csv"],
        "estimators.hybrid_self_s": self_s("hybrid"),
        "estimators.simulation_self_s": self_s("simulation"),
        "estimators.sg_self_s": self_s("sg"),
        "streams.trial_stream_s": tot["streams.trial_stream"],
        "geometry.window_s": tot["geometry.window"],
        "geometry.direct_s": tot["geometry.direct"],
        "geometry.draw_s": tot["geometry.window"] + tot["geometry.direct"],
        "quadrature.tail_batch_s": tot["quadrature.tail_batch"],
        "quadrature.adaptive_s": tot["quadrature.adaptive"],
        "error_analysis.report_s": tot["error_analysis.report"],
    }
    for name, _ in EXACT_COUNTERS:
        out[name] = c[name]
    out["estimators.trial_yield"] = (c["trials_used"] / c["trials_requested"]
                                     if c["trials_requested"] else 0.0)
    out["geometry.points_drawn"] = c["points_drawn"]
    out["geometry.points_kept_ratio"] = (c["points_kept"] / c["points_drawn"]
                                         if c["points_drawn"] else 0.0)
    geometry_calls = c["geometry.window_calls"] + c["geometry.direct_calls"]
    trials = len(trace.trial_indices)
    out["geometry.draws_per_trial"] = (geometry_calls / trials if trials
                                       else 0.0)
    out["quadrature.panels"] = c["nodes"] / 15
    out["quadrature.panels_per_integral"] = (
        out["quadrature.panels"] / c["quadrature.tail_integrals"]
        if c["quadrature.tail_integrals"] else 0.0)
    return out


# --------------------------------------------------------------------------
# Workload passes and reference checks

def read_csv(path: str) -> dict:
    """Reported curves of a sinrcov CSV, keyed by (method, N, K)."""
    curves = defaultdict(lambda: defaultdict(list))
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            c = curves[(row["method"], int(row["N"]), int(row["K"]))]
            for col in ("T_db", "coverage", "stderr", "trials_used"):
                c[col].append(float(row[col]))
    return {key: {col: np.array(v) for col, v in c.items()}
            for key, c in curves.items()}


def curve_ok(method, est, se, used, ref) -> bool:
    """Check one curve against its reference entry."""
    target = np.asarray(ref["estimates"])
    est = np.asarray(est, dtype=float)
    if est.shape != target.shape or not np.all(np.isfinite(est)):
        return False
    if method == "sg":
        return bool(np.all(np.abs(est - target) <= QUAD_TOL))
    if method == "simulation":
        # A proportion of 0 or 1 reports stderr 0; use the binomial stderr
        # at the reference coverage instead.
        se = np.sqrt(target * (1.0 - target) / used)
    combined = np.hypot(se, np.asarray(ref["stderrs"]))
    return bool(np.all(np.abs(est - target) <= CHECK_SIGMAS * combined))


class Pass:
    """Outcome of one workload pass: wall time, per-curve times, checks."""

    def __init__(self, wall, trace, attempted, failed, hybrid_se):
        self.wall = wall
        self.trace = trace
        self.attempted = attempted
        self.failed = failed
        self.hybrid_se = hybrid_se  # max stderr of each hybrid curve

    def curve_s(self, method):
        times = [s for m, s, _ in self.trace.curves if m == method]
        return sum(times) / len(times) if times else None

    def hybrid_s_to_se(self):
        times = [s for m, s, _ in self.trace.curves if m == "hybrid"]
        if not self.hybrid_se or len(times) != len(self.hybrid_se):
            return None
        return sum(s * (se / SE_TARGET) ** 2
                   for s, se in zip(times, self.hybrid_se))


def run_cli_pass(sc, workload, pseed, ref, tmpdir, full):
    out_path = os.path.join(tmpdir, f"{workload}.csv")
    argv = cli_argv(workload, pseed, out_path)
    expected = ref["reported"]
    trace = Trace()
    log = io.StringIO()
    with Patch() as patch, contextlib.redirect_stderr(log):
        instrument(patch, trace, sc, full)
        start = time.perf_counter()
        code = sc.cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        print(f"perfbench: {workload} exited {code}: {log.getvalue()}",
              file=sys.stderr)
        return Pass(wall, trace, len(expected), len(expected), [])
    try:
        got = read_csv(out_path)
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {workload}: unreadable CSV: {exc}", file=sys.stderr)
        return Pass(wall, trace, len(expected), len(expected), [])
    failed = 0
    for method, n, k in expected:
        c = got.get((method, n, k))
        r = ref["curves"][curve_key(method, n, k)]
        if c is None or not np.array_equal(c["T_db"], ref["thresholds_db"]):
            failed += 1
        elif not curve_ok(method, c["coverage"], c["stderr"],
                          c["trials_used"], r):
            failed += 1
    failed += len(set(got) - {tuple(e) for e in expected})
    hybrid_se = [float(c.stderrs.max()) for m, _, c in trace.curves
                 if m == "hybrid"]
    return Pass(wall, trace, len(expected), failed, hybrid_se)


def run_fractional_pass(sc, pseed, ref, full):
    cfg, grid = fractional_inputs(sc)
    trace = Trace()
    attempted = failed = 0
    hybrid_se = []

    def attempt(key, call):
        nonlocal attempted, failed
        attempted += 1
        try:
            out = call()
        except Exception as exc:  # a failed operation must not end the run
            print(f"perfbench: {key}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += 1
            return None
        return out

    hybrid = trace.wrap("estimators.hybrid", sc.hybrid_coverage,
                        curve_observer(trace, "hybrid", via_cli=False))
    sg = trace.wrap("estimators.sg", sc.sg_coverage,
                    curve_observer(trace, "sg", via_cli=False))
    report = trace.wrap("error_analysis.report", sc.tail_error_report)
    with Patch() as patch:
        instrument(patch, trace, sc, full)
        start = time.perf_counter()
        results = []
        for n, k in FRACTIONAL_COMBOS:
            settings = sc.EstimatorSettings(
                dominant_count=k, interferer_total=n,
                trials=TRIALS["fractional-dense"], quad_abs_tol=QUAD_TOL,
                seed=pseed)
            key = curve_key("hybrid", n, k)
            results.append((key, attempt(key, lambda: hybrid(
                cfg, settings, grid, sampler="direct"))))
        results.append(("sg", attempt("sg", lambda: sg(cfg, grid, QUAD_TOL))))
        rep = attempt("report", lambda: report(
            cfg, REPORT_THRESHOLD, REPORT_COUNTS, REPORT_TRIALS, seed=pseed,
            quad_abs_tol=QUAD_TOL))
        wall = time.perf_counter() - start
    for key, curve in results:
        if curve is None:
            continue
        method = key.split("/")[0]
        if not curve_ok(method, curve.estimates, curve.stderrs,
                        curve.trials_used, ref["curves"][key]):
            failed += 1
        if method == "hybrid":
            hybrid_se.append(float(curve.stderrs.max()))
    if rep is not None:
        r = ref["report"]
        combined = np.hypot(rep.delta_stderrs, r["delta_stderrs"])
        if not np.all(np.abs(rep.delta_means - np.asarray(r["delta_means"]))
                      <= CHECK_SIGMAS * combined):
            failed += 1
    return Pass(wall, trace, attempted, failed, hybrid_se)


def run_pass(sc, workload, pseed, ref, tmpdir, full):
    if workload == "fractional-dense":
        return run_fractional_pass(sc, pseed, ref, full)
    return run_cli_pass(sc, workload, pseed, ref, tmpdir, full)


# --------------------------------------------------------------------------
# Set-up time in fresh interpreters

_SETUP_CLI = """\
import sys, time
start = time.perf_counter()
import sinrcov
from sinrcov import cli
spec = cli.parse_args(sys.argv[1:])
sinrcov.EstimatorSettings(dominant_count=spec.k_list[0],
                          interferer_total=spec.n_list[0], trials=spec.trials,
                          quad_abs_tol=spec.quad_abs_tol, seed=spec.seed)
print(time.perf_counter() - start)
"""

_SETUP_LIBRARY = """\
import sys, time
start = time.perf_counter()
import sinrcov as sc
cfg = sc.NetworkConfig(bs_density=1.0, pathloss_exponent={eta!r},
                       noise_power=0.1, half_width=40.0)
grid = sc.ThresholdGrid.from_db_range(*{grid!r})
sc.EstimatorSettings(dominant_count={k}, interferer_total={n},
                     trials={trials}, quad_abs_tol={tol!r}, seed={seed})
print(time.perf_counter() - start)
"""


def setup_probe(workload, pseed):
    """A callable that starts a fresh interpreter and returns its seconds from
    ``import sinrcov`` to just before the first estimator call."""
    if workload == "fractional-dense":
        n, k = FRACTIONAL_COMBOS[0]
        code = _SETUP_LIBRARY.format(
            eta=FRACTIONAL_ETA, grid=FRACTIONAL_GRID_DB, k=k, n=n,
            trials=TRIALS[workload], tol=QUAD_TOL, seed=pseed)
        argv = []
    else:
        code, argv = _SETUP_CLI, cli_argv(workload, pseed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)

    def probe():
        done = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout.strip().splitlines()[-1])
    return probe


# --------------------------------------------------------------------------
# Runs

def run_context(workload, seed, pseeds, samples):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    trials = {"curve_trials": TRIALS[workload]}
    if workload == "fractional-dense":
        trials["report_trials"] = REPORT_TRIALS
    return {"workload": workload, "seed": seed,
            "program_seeds": list(dict.fromkeys(pseeds)),
            "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, **trials,
            "samples": samples}


def measure(sc, workload, seed, seconds, traced, ref, tmpdir):
    """One warm-up pass, then passes until ``seconds`` have gone by.

    Untraced runs give every pass its own replicate seed, so medians also
    average over inputs, and follow each pass with one set-up sample, so set-up
    is sampled across the run.  Traced runs alternate an untraced and a traced
    pass, all on replicate 0, so the exact counters must repeat.
    """
    passes = {False: [], True: []}
    pseeds, setup = [], []
    probe = setup_probe(workload, program_seed(seed, 0))
    run_pass(sc, workload, program_seed(seed, 0), ref, tmpdir, False)
    if not traced:
        probe()  # warm-up interpreter; writes the bytecode cache
    start = time.perf_counter()
    while (len(passes[traced]) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        pseed = program_seed(seed, 0 if traced else len(pseeds) + 1)
        pseeds.append(pseed)
        passes[False].append(run_pass(sc, workload, pseed, ref, tmpdir, False))
        if traced:
            passes[True].append(run_pass(sc, workload, pseed, ref, tmpdir,
                                         True))
        else:
            setup.append(probe())
    return passes, pseeds, setup


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(passes, setup):
    return {
        "wall_s": median_of(p.wall for p in passes),
        "setup_s": statistics.median(setup),
        "hybrid_curve_s": median_of(p.curve_s("hybrid") for p in passes),
        "hybrid_s_to_se1e-3": median_of(p.hybrid_s_to_se() for p in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "simulation_curve_s": median_of(p.curve_s("simulation")
                                        for p in passes),
        "sg_curve_s": median_of(p.curve_s("sg") for p in passes),
    }


def per_layer_metrics(untraced, traced):
    layers = [layer_metrics(p.trace) for p in traced]
    out = {name: median_of(m[name] for m in layers)
           for name, _ in LAYER_TIMES + LAYER_TIMES_PRINTED
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (median_of(p.wall for p in traced)
                               - median_of(p.wall for p in untraced))
    exact = {name: layers[0][name] for name, _ in EXACT_COUNTERS}
    repeat = all({name: m[name] for name, _ in EXACT_COUNTERS} == exact
                 for m in layers[1:])
    out.update(exact)
    return out, repeat


def run_workload(sc, workload, seed, seconds, traced, ref, tmpdir):
    passes, pseeds, setup = measure(sc, workload, seed, seconds, traced, ref,
                                    tmpdir)
    everything = passes[False] + passes[True]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    if traced:
        metrics, repeat = per_layer_metrics(passes[False], passes[True])
        unwrapped = passes[True][0].trace.unwrapped
        if unwrapped:
            print("perfbench: not traced, missing from sinrcov: "
                  + ", ".join(unwrapped), file=sys.stderr)
        shown = LAYER_TIMES + LAYER_TIMES_PRINTED + EXACT_COUNTERS
        reported = LAYER_TIMES + EXACT_COUNTERS
        samples = {"untraced_passes": len(passes[False]),
                   "traced_passes": len(passes[True])}
    else:
        metrics = end_to_end_metrics(passes[False], setup)
        metrics["fail_frac"] = failed / attempted
        repeat = True
        shown = END_TO_END + END_TO_END_PRINTED
        reported = END_TO_END
        samples = {"passes": len(passes[False]), "setup_s": len(setup)}
    samples["warm_up_passes"] = 1
    units = dict(shown)
    for name, unit in shown:
        value = metrics[name]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload:17s} {name:32s} {text:>14s} {unit}")
    if not repeat:
        print(f"{workload}: exact counters differ between traced passes",
              file=sys.stderr)
    print("context " + json.dumps(run_context(workload, seed, pseeds,
                                              samples)))
    return {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in reported},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sc = load_library()
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)["workloads"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for w in workloads:
            results[w] = run_workload(sc, w, args.seed, args.seconds,
                                      bool(args.trace), reference[w], tmp)
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
