"""The benchmark script's calls into sinrcov keep working and measuring.

``perfbench/run.py`` wraps library names from outside and reads the shapes
they return; a renamed name is skipped, but a changed shape makes traced
passes fail operations.  A curve computed without going through the wrapped
``*_coverage`` names leaves the per-curve timings with no samples, and work
kept between passes makes the exact counters of two traced passes differ.
This runs a traced, an untraced and a second traced pass per workload and
requires that none fails, that every hybrid curve is timed, that the traced
counters repeat and that only known stale names go unwrapped.  The tail
integrand must go through the wrapped ``quadrature.tail_integrand``, or the
quadrature counters silently read 0.
"""
import importlib.util
import json
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# Names the benchmark still patches although the library no longer has them.
STALE_NAMES = {"sinrcov.estimators.sample_window_realization",
               "sinrcov.estimators.integrate_adaptive"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.TRIALS = {w: 300 for w in module.WORKLOADS}
    # Two trial blocks, so kladder-eta2 runs the block thread pool here too.
    module.TRIALS["kladder-eta2"] = 1100
    module.REPORT_TRIALS = 2000
    return module


@pytest.mark.parametrize("workload", ["cli-default", "kladder-eta2",
                                      "fractional-dense"])
def test_passes_do_not_fail(bench, workload, tmp_path):
    sc = bench.load_library()
    with open(bench.REFERENCE_PATH) as fh:
        ref = json.load(fh)["workloads"][workload]
    pseed = bench.program_seed(4099, 0)
    counters = []
    for traced in (True, False, True):
        result = bench.run_pass(sc, workload, pseed, ref, str(tmp_path),
                                traced)
        assert result.attempted > 0
        assert result.failed == 0, (workload, traced)
        assert result.hybrid_s_to_se() is not None, (workload, traced)
        if traced:
            assert set(result.trace.unwrapped) <= STALE_NAMES
            layers = bench.layer_metrics(result.trace)
            assert layers["quadrature.panels"] > 0, (workload, traced)
            counters.append({name: layers[name]
                             for name, _ in bench.EXACT_COUNTERS})
    assert counters[0] == counters[1]
