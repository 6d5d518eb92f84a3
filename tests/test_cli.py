import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sinrcov as sc
from sinrcov.cli import (
    CSV_HEADER,
    build_parser,
    main,
    parse_args,
    run_sweep,
    write_csv,
)


def _tiny_args(out, extra=()):
    return ["--trials", "64", "--N", "4", "--K", "2", "--tmin-db", "-10",
            "--tmax-db", "10", "--tstep-db", "10", "--seed", "42",
            "--out", str(out), *extra]


# Runs the CLI with the test-only packages made unimportable: a finder at
# the head of sys.meta_path raises ImportError for any of them.
_WITHOUT_TEST_ONLY_PACKAGES = """
import sys

class BlockTestOnly:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "mpmath", "hypothesis"):
            raise ImportError(f"{name} is a test-only package")
        return None

sys.meta_path.insert(0, BlockTestOnly())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the import blocker did not block scipy")

import sinrcov
from sinrcov.cli import main

cfg = sinrcov.NetworkConfig(pathloss_exponent=3.0)
report = sinrcov.tail_error_report(cfg, 1.0, [5, 10, 20])
mean = sinrcov.expected_tail_truncation_error(cfg, 10, 1.0)
if not 0.0 < report.delta_means[1] == mean < 1.0:
    sys.exit(f"tail-error diagnostics disagree: {report} vs {mean}")
sys.exit(main(sys.argv[1:]))
"""


class TestParseArgs:
    def test_empty_argv_gives_baseline_defaults(self):
        spec = parse_args([])
        assert spec.network.bs_density == 1.0
        assert spec.network.pathloss_exponent == 4.0
        assert spec.network.noise_power == 0.1
        assert spec.network.half_width == 40.0
        assert spec.n_list == (10,)
        assert spec.k_list == (4,)
        assert spec.trials == 50_000
        assert spec.quad_abs_tol == 1e-6
        assert spec.seed == 0
        assert spec.sampler == "window"
        assert len(spec.grid) == 21
        assert spec.grid.thresholds_db[0] == -20.0
        assert spec.grid.thresholds_db[-1] == 20.0

    def test_grid_point_count(self):
        spec = parse_args(["--tmin-db", "-20", "--tmax-db", "20",
                           "--tstep-db", "2"])
        assert len(spec.grid) == 21

    @pytest.mark.parametrize("argv", [
        ["--eta", "2", "--methods", "sg"],
        ["--eta", "1.5", "--methods", "sg,hybrid"],
        ["--methods", "probabilistic"],                      # missing moments
        ["--methods", "probabilistic", "--mu-S", "1.0"],     # still missing
        ["--methods", "probabilistic", "--eta", "3", "--mu-S", "1",
         "--sigma-S-sq", "0.1", "--sigma0-sq", "1"],          # wrong eta
        ["--methods", "probabilistic", "--mu-S", "1", "--sigma-S-sq",
         "0.05", "--sigma0-sq", "-1"],                        # sigma0 < 0
        ["--methods", "probabilistic", "--mu-S", "1", "--sigma-S-sq",
         "0.05", "--sigma0-sq", "0"],                         # sigma0 = 0
        ["--methods", "probabilistic", "--mu-S", "1", "--sigma-S-sq",
         "-0.5", "--sigma0-sq", "1"],                         # sigma-S < 0
        ["--methods", ""],
        ["--methods", "hybrid,unknown"],
        ["--N", "5", "--K", "8"],                             # K above N
        ["--trials", "0"],
        ["--quad-tol", "0"],
        ["--threads", "0"],
        ["--lambda", "-1"],
        ["--tstep-db", "0"],
        ["--no-such-flag"],
        ["--lambda", "0.001", "--half-width", "1", "--N", "10"],  # tiny window
        ["--tmax-db", "inf"],                                 # non-finite
        ["--tmin-db", "nan"],
        ["--tstep-db", "inf"],
        ["--quad-tol", "inf"],
        ["--eta", "inf"],
        ["--lambda", "inf"],
        ["--noise", "nan"],
        ["--half-width", "inf"],
        ["--methods", "probabilistic", "--mu-S", "nan", "--sigma-S-sq",
         "0.05", "--sigma0-sq", "1"],
        ["--methods", "probabilistic", "--mu-S", "inf", "--sigma-S-sq",
         "0.05", "--sigma0-sq", "1"],
        ["--methods", "probabilistic", "--mu-S", "1", "--sigma-S-sq",
         "inf", "--sigma0-sq", "1"],
        ["--methods", "probabilistic", "--mu-S", "1", "--sigma-S-sq",
         "0.05", "--sigma0-sq", "inf"],
        ["--seed", "-1"],
        ["--seed", "18446744073709551616"],                   # 2**64
        ["--methods", "probabilistic", "--N", "1", "--K", "1", "--mu-S",
         "1", "--sigma-S-sq", "0.05", "--sigma0-sq", "1"],    # N below 2
        ["--tstep-db", "1e-12"],                              # 4e13 points
        ["--tmin-db", "3100", "--tmax-db", "3100", "--methods", "sg"],
        ["--lambda", "1e-306", "--sampler", "direct", "--methods",
         "hybrid,sg"],                          # noise * lam**-2 overflows
        ["--lambda", "1e306", "--methods", "simulation", "--trials", "2",
         "--N", "4", "--K", "2"],               # window count is inf
        ["--lambda", "1e6", "--trials", "2", "--N", "4", "--K", "2",
         "--methods", "hybrid"],                # 6.4e9 window points
        ["--trials", "3000", "--out", "/no/such/dir/x.csv"],
        ["--trials", "3000", "--out", "."],     # a directory
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2
        assert "[sinrcov]" not in capsys.readouterr().err

    def test_methods_parsed_and_sorted(self):
        spec = parse_args(["--methods", "sg,hybrid", "--eta", "4"])
        assert spec.methods == ("hybrid", "sg")

    def test_direct_sampler_accepted(self):
        spec = parse_args(["--sampler", "direct"])
        assert spec.sampler == "direct"

    def test_help_mentions_every_flag(self):
        text = build_parser().format_help()
        for flag in ("--lambda", "--eta", "--noise", "--K", "--N",
                     "--trials", "--half-width", "--tmin-db", "--tmax-db",
                     "--tstep-db", "--methods", "--quad-tol", "--seed",
                     "--threads", "--out", "--sampler", "--mu-S",
                     "--sigma-S-sq", "--sigma0-sq"):
            assert flag in text


class TestRunSweep:
    def test_single_combination_single_curve(self):
        spec = parse_args(["--methods", "hybrid", "--N", "5", "--K", "4",
                           "--trials", "50"])
        curves = run_sweep(spec)
        assert len(curves) == 1
        assert len(curves[0].estimates) == 21
        assert curves[0].method == "hybrid"

    def test_one_curve_per_method_n_k(self):
        spec = parse_args(["--methods", "hybrid,simulation,sg", "--N", "4",
                           "6", "--K", "2", "3", "--trials", "30",
                           "--tmin-db", "0", "--tmax-db", "4",
                           "--tstep-db", "2"])
        curves = run_sweep(spec)
        assert len(curves) == 3 * 2 * 2
        combos = {(c.method, c.interferer_total, c.dominant_count)
                  for c in curves}
        assert len(combos) == 12

    def test_sg_duplicates_are_identical(self):
        spec = parse_args(["--methods", "sg", "--N", "4", "6", "--K", "2",
                           "--trials", "10", "--tmin-db", "0",
                           "--tmax-db", "2", "--tstep-db", "2"])
        curves = run_sweep(spec)
        assert len(curves) == 2
        np.testing.assert_array_equal(curves[0].estimates,
                                      curves[1].estimates)

    def test_failure_names_the_combination(self):
        spec = parse_args(["--methods", "probabilistic", "--noise", "0",
                           "--mu-S", "0.1", "--sigma-S-sq", "5.0",
                           "--sigma0-sq", "1.0", "--N", "10"])
        with pytest.raises(sc.ModelValidityError,
                           match=r"method=probabilistic, N=10"):
            run_sweep(spec)

    def test_failure_keeps_type_and_payload(self, monkeypatch):
        estimate, bound = np.array([0.5, 0.6]), np.array([1e-3, 2e-3])

        def failing_sg(*args, **kwargs):
            raise sc.QuadratureError("budget", estimate, bound)

        monkeypatch.setattr("sinrcov.cli.sg_coverage", failing_sg)
        spec = parse_args(["--methods", "sg", "--N", "10", "--K", "4"])
        with pytest.raises(sc.QuadratureError,
                           match=r"budget \[method=sg, N=10, K=4\]") as info:
            run_sweep(spec)
        assert info.value.estimate is estimate
        assert info.value.error_bound is bound


class TestWriteCsv:
    HEADER = CSV_HEADER

    def test_empty_curve_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        assert path.read_text() == self.HEADER + "\n"

    def test_line_count(self, tmp_path):
        spec = parse_args(["--methods", "hybrid", "--N", "5", "--trials",
                           "40", "--K", "2"])
        curves = run_sweep(spec)
        path = tmp_path / "one.csv"
        write_csv(curves, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 22
        assert lines[0] == self.HEADER

    def test_round_trip_to_nine_significant_digits(self, tmp_path):
        spec = parse_args(["--methods", "hybrid,simulation", "--N", "4",
                           "--K", "2", "--trials", "80"])
        curves = run_sweep(spec)
        path = tmp_path / "rt.csv"
        write_csv(curves, str(path))
        by_key = {}
        for line in path.read_text().splitlines()[1:]:
            method, eta, n, k, t_db, cov, se, used = line.split(",")
            by_key[(method, float(t_db))] = (float(cov), float(se),
                                             int(used))
        for c in curves:
            for j, t_db in enumerate(c.thresholds_db):
                cov, se, used = by_key[(c.method, float(t_db))]
                assert cov == pytest.approx(c.estimates[j], rel=1e-8)
                assert se == pytest.approx(c.stderrs[j], rel=1e-8, abs=1e-12)
                assert used == c.trials_used[j]

    def test_rows_sorted_by_method_n_k_threshold(self, tmp_path):
        spec = parse_args(["--methods", "simulation,hybrid", "--N", "6", "4",
                           "--K", "3", "2", "--trials", "30", "--tmin-db",
                           "0", "--tmax-db", "4", "--tstep-db", "2"])
        curves = run_sweep(spec)
        path = tmp_path / "sorted.csv"
        write_csv(curves, str(path))
        keys = []
        for line in path.read_text().splitlines()[1:]:
            method, eta, n, k, t_db, *_ = line.split(",")
            keys.append((method, int(n), int(k), float(t_db)))
        assert keys == sorted(keys)

    def test_stdout_target(self, capsys):
        write_csv([], "-")
        assert capsys.readouterr().out == self.HEADER + "\n"

    def test_unwritable_path_raises_oserror(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv([], "/no/such/dir/out.csv")


class TestMain:
    @pytest.mark.parametrize("shape", [
        ["--N", "5", "--K", "2", "--tstep-db", "5", "--seed", "7"],
        ["--eta", "2", "--N", "5", "--K", "1", "2", "3", "4",
         "--tstep-db", "10", "--seed", "3"],
    ], ids=["default", "kladder-eta2"])
    def test_worker_count_does_not_change_bytes(self, shape, tmp_path):
        # 2,100 trials make three blocks, so every threads > 1 run pools.
        base = ["--methods", "hybrid,simulation", "--trials", "2100",
                "--tmin-db", "-10", "--tmax-db", "10", *shape]
        outputs = []
        for i, threads in enumerate(("1", "2", "2", "8")):
            out = tmp_path / f"run{i}.csv"
            assert main(base + ["--threads", threads, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 4

    def test_repeat_run_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(_tiny_args(out1)) == 0
        assert main(_tiny_args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # golden_small pins the window sampler at eta 4, whose _pow_eta fast
    # path never calls np.power; golden_direct pins the direct sampler and a
    # fractional eta.  Both also run as cmp steps in CI.
    @pytest.mark.parametrize("name, argv", [
        ("golden_small.csv",
         ["--trials", "64", "--N", "4", "--K", "2", "--tmin-db", "-10",
          "--tmax-db", "10", "--tstep-db", "10", "--seed", "42",
          "--methods", "hybrid,simulation,sg"]),
        ("golden_direct.csv",
         ["--sampler", "direct", "--eta", "3.4142", "--N", "10",
          "--K", "1", "4", "--trials", "64", "--tmin-db", "-10",
          "--tmax-db", "10", "--tstep-db", "5", "--seed", "42",
          "--methods", "hybrid,sg"]),
    ], ids=["small", "direct"])
    def test_golden_csv(self, name, argv, tmp_path):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / name
        assert out.read_bytes() == golden.read_bytes()

    def test_runtime_needs_only_numpy(self, tmp_path):
        out = tmp_path / "numpy_only.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        argv = _tiny_args(out, extra=["--methods", "hybrid,simulation,sg"])
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_TEST_ONLY_PACKAGES, *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 3 * 3

    @pytest.mark.parametrize("lam, noise", [("1e306", "0.1"),
                                            ("1e-30", "0.1"),
                                            ("1e-306", "0")])
    def test_extreme_density_writes_finite_rows(self, lam, noise, tmp_path):
        out = tmp_path / "extreme.csv"
        rc = main(["--lambda", lam, "--noise", noise, "--sampler", "direct",
                   "--methods", "hybrid,sg", "--trials", "64", "--N", "4",
                   "--K", "2", "--tmin-db", "-10", "--tmax-db", "10",
                   "--tstep-db", "10", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        coverage = np.array([float(row[5]) for row in rows])
        stderr = np.array([float(row[6]) for row in rows])
        assert np.all(np.isfinite(stderr))
        assert np.all((coverage >= 0.0) & (coverage <= 1.0))
        if lam == "1e-30":
            # A unit-density noise of 1e59 leaves no coverage.
            assert np.all(coverage == 0.0)
        else:
            # Noise-free at unit density: sg is 1/(1 + pi/4) at 0 dB, eta 4.
            sg_0db = [float(row[5]) for row in rows
                      if row[0] == "sg" and float(row[4]) == 0.0]
            assert sg_0db == [pytest.approx(1.0 / (1.0 + math.pi / 4.0),
                                            abs=1e-6)]

    def test_usage_error_exit_code(self):
        assert main(["--eta", "2", "--methods", "sg"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        rc = main(["--methods", "probabilistic", "--noise", "0", "--mu-S",
                   "0.1", "--sigma-S-sq", "5.0", "--sigma0-sq", "1.0",
                   "--N", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_existing_csv_survives_exit_3(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("kept\n")
        rc = main(["--methods", "probabilistic", "--mu-S", "100",
                   "--sigma-S-sq", "0", "--sigma0-sq", "1", "--out", str(out)])
        assert rc == 3
        assert out.read_text() == "kept\n"

    def test_negative_augmented_variance_exits_3(self, tmp_path, capsys):
        rc = main(["--methods", "probabilistic", "--mu-S", "100",
                   "--sigma-S-sq", "0", "--sigma0-sq", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "augmented variance is negative" in capsys.readouterr().err

    def test_figure_matrix_plumbing(self, tmp_path):
        # full exponent/interferer matrix, the fractional exponent case and
        # the dominant-count ladder all produce the expected curve counts
        cases = [
            (["--eta", "2", "--N", "5", "10", "20", "--K", "4",
              "--methods", "hybrid,simulation"], 6),
            (["--eta", "3", "--N", "5", "10", "20", "--K", "4",
              "--methods", "hybrid,simulation,sg"], 9),
            (["--eta", "4", "--N", "5", "10", "20", "--K", "4",
              "--methods", "hybrid,simulation,sg"], 9),
            (["--eta", "3.4142", "--N", "10", "--K", "4",
              "--methods", "hybrid,simulation,sg"], 3),
            (["--eta", "2", "--N", "5", "--K", "1", "2", "3", "4",
              "--methods", "hybrid,simulation"], 8),
        ]
        for extra, expected_curves in cases:
            out = tmp_path / "m.csv"
            rc = main(["--trials", "24", "--tmin-db", "0", "--tmax-db", "4",
                       "--tstep-db", "2", "--out", str(out)] + extra)
            assert rc == 0
            lines = out.read_text().splitlines()
            assert len(lines) == 1 + 3 * expected_curves
