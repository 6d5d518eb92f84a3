"""The benchmark script's calls into sinrcov keep working.

``perfbench/run.py`` wraps library names from outside and reads the shapes
they return; a renamed name is skipped, but a changed shape makes traced
passes fail operations.  This runs one small untraced and one traced pass
per workload and requires that none of them fails.
"""
import importlib.util
import json
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.TRIALS = {w: 300 for w in module.WORKLOADS}
    module.REPORT_TRIALS = 2000
    return module


@pytest.mark.parametrize("workload", ["cli-default", "kladder-eta2",
                                      "fractional-dense"])
def test_passes_do_not_fail(bench, workload, tmp_path):
    sc = bench.load_library()
    with open(bench.REFERENCE_PATH) as fh:
        ref = json.load(fh)["workloads"][workload]
    pseed = bench.program_seed(4099, 0)
    for traced in (False, True):
        result = bench.run_pass(sc, workload, pseed, ref, str(tmp_path),
                                traced)
        assert result.attempted > 0
        assert result.failed == 0, (workload, traced)
