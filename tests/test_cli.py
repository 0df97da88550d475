"""End-to-end command runs: flag merging, artifacts, determinism.

Library results are the oracle: a command's artifact must match the
same computation done directly through the module functions with the
same seed.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import platform
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import betti_thermo
from betti_thermo import cech, cli, limits
from betti_thermo.cech import build_cech
from betti_thermo.cli import (
    _CHECKS,
    _COMMANDS,
    CliError,
    ExperimentConfig,
    _excluded,
    _flag_name,
    _flags,
    _scalar_type,
    build_parser,
    emit_plot_data,
    main,
    resolve_config,
    run,
)
from betti_thermo.homology import betti_numbers
from betti_thermo.limits import (
    CSV_HEADER,
    ConvergenceTable,
    EstimateRecord,
    GapTable,
    LimitCurve,
)
from betti_thermo.pointproc import (
    DensityGrid,
    RngStream,
    Window,
    sample_binomial,
    sample_poisson_homogeneous,
)


@pytest.fixture(autouse=True)
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BETTI_THERMO_CACHE", str(tmp_path / "cache"))


class TestBettiCommand:
    def test_square_fixture(self, tmp_path, capsys):
        out = str(tmp_path / "sq")
        code = main(["betti", "--fixture", "square4", "--r", "1.05", "--out", out])
        assert code == 0
        assert capsys.readouterr().out == "beta: 1 1\n"
        doc = json.loads((tmp_path / "sq.betti.json").read_text())
        assert doc["betti"] == [1, 1]
        assert doc["n_points"] == 4

    def test_fixture_via_module_invocation(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "betti_thermo.cli", "betti",
             "--fixture", "square4", "--r", "1.05", "--out", str(tmp_path / "sq")],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout == "beta: 1 1\n"

    def test_matches_library_on_sampled_cloud(self, tmp_path, capsys):
        out = str(tmp_path / "b")
        code = main(["betti", "--lambda", "1", "--L", "25", "--seed", "5",
                     "--r", "1", "--boundary", "torus", "--out", out])
        assert code == 0
        cloud = sample_poisson_homogeneous(1.0, Window.centered(25.0, 2), RngStream(5))
        cx = build_cech(cloud, 1.0, 2, period=5.0)
        expected = list(betti_numbers(cx, 1))
        doc = json.loads((tmp_path / "b.betti.json").read_text())
        assert doc["betti"] == expected
        assert capsys.readouterr().out == "beta: " + " ".join(map(str, expected)) + "\n"

    def test_torus_fixture_rejected(self, tmp_path, capsys):
        code = main(["betti", "--fixture", "square4", "--boundary", "torus",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFixture:
    def test_complex_counts_the_square(self, tmp_path, capsys):
        assert main(["complex", "--fixture", "square4", "--r", "1.05",
                     "--out", str(tmp_path / "sq")]) == 0
        assert capsys.readouterr().out == "complex: counts 4 4\n"
        doc = json.loads((tmp_path / "sq.complex.json").read_text())
        assert doc["n_points"] == 4 and doc["seed"] is None

    def test_sample_writes_the_square(self, tmp_path, capsys):
        assert main(["sample", "--fixture", "square4", "--out", str(tmp_path / "sq")]) == 0
        lines = (tmp_path / "sq.sample.csv").read_text().splitlines()
        assert lines == ["x0,x1", "0.0,0.0", "1.0,0.0", "0.0,1.0", "1.0,1.0"]
        assert capsys.readouterr().out == "sample: 4 points (d=2)\n"

    @pytest.mark.parametrize("command", ["sample", "complex", "betti"])
    @pytest.mark.parametrize("extra, named", [
        (["--n", "5"], "--n"),
        (["--density", "nonexist.json"], "--density"),
        (["--n", "5", "--density", "nonexist.json"], "--n and --density"),
    ], ids=["n", "density", "both"])
    def test_conflicting_source_rejected(self, tmp_path, capsys, command, extra, named):
        code = main([command, "--fixture", "square4", *extra, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: --fixture cannot be combined with {named}\n" == capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestSampleCommand:
    def test_binomial_count_and_header(self, tmp_path, capsys):
        out = str(tmp_path / "s")
        assert main(["sample", "--n", "10", "--seed", "1", "--out", out]) == 0
        lines = (tmp_path / "s.sample.csv").read_text().splitlines()
        assert lines[0] == "x0,x1"
        assert len(lines) == 11
        assert capsys.readouterr().out == "sample: 10 points (d=2)\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["sample", "--lambda", "2", "--L", "25", "--seed", "3", "--out", a])
        main(["sample", "--lambda", "2", "--L", "25", "--seed", "3", "--out", b])
        assert ((tmp_path / "a.sample.csv").read_bytes()
                == (tmp_path / "b.sample.csv").read_bytes())

    def test_density_file_sampling(self, tmp_path):
        density = tmp_path / "d.json"
        density.write_text(json.dumps({"dim": 3, "lower": [0, 0, 0], "upper": [1, 1, 1],
                                       "cells_per_axis": [1, 1, 1], "values": [1]}))
        out = str(tmp_path / "s3")
        assert main(["sample", "--density", str(density), "--n", "7",
                     "--out", out]) == 0
        lines = (tmp_path / "s3.sample.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,x2"
        assert len(lines) == 8

    def test_density_needs_n(self, tmp_path, capsys):
        density = tmp_path / "d.json"
        density.write_text(json.dumps({"dim": 2, "lower": [0, 0], "upper": [1, 1],
                                       "cells_per_axis": [1, 1], "values": [1]}))
        code = main(["sample", "--density", str(density), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "needs --n" in capsys.readouterr().err

    def test_missing_density_file(self, tmp_path, capsys):
        code = main(["sample", "--density", str(tmp_path / "nope.json"),
                     "--n", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("text, message", [
        ('{"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1]}',
         "is missing 'values'"),
        ('{"lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1], "values": [1]}',
         "is missing 'dim'"),
        ("[1, 2]", "is not a JSON object"),
        ('{"dim": [2], "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1], '
         '"values": [1]}', "key 'dim' has invalid value [2]"),
        ('{"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1], '
         '"values": {"a": 1}}', "key 'values' has invalid value {'a': 1}"),
        ('{"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": "x", '
         '"values": [1]}', "key 'cells_per_axis' has invalid value 'x'"),
    ])
    def test_malformed_density_file(self, tmp_path, capsys, text, message):
        density = tmp_path / "d.json"
        density.write_text(text)
        code = main(["sample", "--density", str(density), "--n", "5",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert f"density file {density}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


class TestComplexCommand:
    def test_counts_match_library(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        code = main(["complex", "--n", "25", "--r", "0.5", "--seed", "11",
                     "--k", "2", "--out", out])
        assert code == 0
        cloud = sample_binomial(DensityGrid.uniform(Window.unit(2)), 25, RngStream(11))
        expected = build_cech(cloud, 0.5, 3).simplex_counts()
        doc = json.loads((tmp_path / "c.complex.json").read_text())
        assert doc["simplex_counts"] == expected
        assert (capsys.readouterr().out
                == "complex: counts " + " ".join(map(str, expected)) + "\n")

    def test_torus_needs_wide_window(self, tmp_path, capsys):
        code = main(["complex", "--boundary", "torus", "--L", "4", "--r", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "must exceed 3r" in capsys.readouterr().err


class TestRateCommand:
    def test_zero_intensity_rate(self, tmp_path, capsys):
        out = str(tmp_path / "z")
        assert main(["rate", "--lambda", "0", "--r", "1", "--L", "50",
                     "--reps", "5", "--out", out]) == 0
        assert capsys.readouterr().out == "betti_rate: 0 +/- 0\n"
        lines = (tmp_path / "z.rate.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "betti_rate,1,0.0,1.0,50.0,0.0,0.0,5,0,plain"

    def test_simplex_rate_via_j(self, tmp_path, capsys):
        out = str(tmp_path / "j")
        assert main(["rate", "--dim", "1", "--j", "1", "--lambda", "1",
                     "--r", "0.5", "--L", "20", "--reps", "4", "--seed", "2",
                     "--out", out]) == 0
        assert capsys.readouterr().out.startswith("simplex_rate:")
        row = (tmp_path / "j.rate.csv").read_text().splitlines()[1]
        assert row.startswith("simplex_rate,1,")

    def test_negative_radius_rejected(self, tmp_path, capsys):
        code = main(["rate", "--r", "-1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "radius" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        code = main(["rate", "--workers", workers, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"workers must lie in 1..256, got {workers}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_worker_count_does_not_change_artifact(self, tmp_path):
        a, b = str(tmp_path / "w1"), str(tmp_path / "w2")
        args = ["rate", "--lambda", "0.5", "--r", "1", "--L", "25",
                "--reps", "4", "--seed", "8"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b, "--workers", "2"]) == 0
        assert ((tmp_path / "w1.rate.csv").read_bytes()
                == (tmp_path / "w2.rate.csv").read_bytes())


class TestCurveCommand:
    def test_artifacts_and_cache_hit(self, tmp_path):
        args = ["curve", "--k", "1", "--L", "16", "--reps", "3", "--s-max", "0.4",
                "--s-step", "0.2", "--seed", "2"]
        assert main(args + ["--out", str(tmp_path / "c")]) == 0
        dat = (tmp_path / "c.curve.dat").read_text().splitlines()
        assert len(dat) == 3
        assert dat[0] == "0 0 0"
        cache = list((tmp_path / "cache").glob("curve_*.json"))
        assert len(cache) == 1
        stamp = cache[0].stat().st_mtime_ns
        assert main(args + ["--out", str(tmp_path / "c2")]) == 0
        assert cache[0].stat().st_mtime_ns == stamp  # reused, not rebuilt
        assert ((tmp_path / "c.curve.json").read_bytes()
                == (tmp_path / "c2.curve.json").read_bytes())

    def test_workers_below_one_rejected_on_cache_hit(self, tmp_path, capsys):
        args = ["curve", "--k", "1", "--L", "16", "--reps", "2", "--s-max", "0.2",
                "--s-step", "0.2", "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "first")]) == 0
        capsys.readouterr()
        code = main(args + ["--workers", "0", "--out", str(tmp_path / "second")])
        assert code == 1
        assert "workers must lie in 1..256, got 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("second*"))

    def test_ragged_endpoint_included(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["curve", "--L", "16", "--reps", "2", "--s-max", "0.25",
                     "--s-step", "0.1", "--seed", "1", "--out", out]) == 0
        doc = json.loads((tmp_path / "r.curve.json").read_text())
        assert doc["s_grid"] == [0.0, 0.1, 0.2, 0.25]

    def test_bad_grid_rejected(self, tmp_path, capsys):
        code = main(["curve", "--s-step", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "s-step" in capsys.readouterr().err


class TestConvergeCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "cv")
        code = main(["converge", "--n-schedule", "20,40", "--reps", "4",
                     "--r", "0.6", "--s-max", "0.8", "--curve-L", "16",
                     "--curve-reps", "4", "--seed", "3", "--out", out])
        assert code in (0, 1)
        assert capsys.readouterr().out.startswith("converge: gap(n=40)")
        lines = (tmp_path / "cv.converge.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        doc = json.loads((tmp_path / "cv.converge.json").read_text())
        assert doc["n_schedule"] == [20, 40]
        assert "tolerance" in doc and "passed" in doc
        dat = (tmp_path / "cv.converge.dat").read_text().splitlines()
        assert len(dat) == 2
        assert dat[0].split()[0] == "20"

    def test_curve_coverage_validated_before_sampling(self, tmp_path, capsys):
        code = main(["converge", "--r", "2.0", "--s-max", "1.0",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "raise --s-max" in capsys.readouterr().err

    # the pre-check and the curve's own evaluation share one coverage rule,
    # so a shortfall past its slack fails before the curve is built and cached
    CURVE_ARGS = ["converge", "--s-max", "1.3", "--n-schedule", "20,40", "--reps", "2",
                  "--curve-L", "16", "--curve-reps", "2"]

    def test_coverage_shortfall_rejected_before_the_curve(self, tmp_path, capsys):
        r = 1.3 + 5e-10
        code = main(self.CURVE_ARGS + ["--r", repr(r), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"limit curve must cover s = {r!r}; raise --s-max (now 1.3)" in err
        assert not list(tmp_path.glob("cache/*"))
        assert not list(tmp_path.glob("x*"))

    def test_coverage_within_the_slack_runs(self, tmp_path, capsys):
        code = main(self.CURVE_ARGS + ["--r", repr(1.3 + 5e-13),
                                       "--out", str(tmp_path / "x")])
        assert code in (0, 1)
        assert capsys.readouterr().out.startswith("converge: gap(n=40)")
        assert len(list((tmp_path / "cache").glob("curve_*.json"))) == 1


class TestFileModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_artifact_and_cache_follow_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            code = main(["curve", "--L", "16", "--reps", "2", "--s-max", "0.2",
                         "--s-step", "0.2", "--out", str(tmp_path / "c")])
        finally:
            os.umask(old)
        assert code == 0
        cache = list((tmp_path / "cache").iterdir())
        assert len(cache) == 1 and cache[0].name.startswith("curve_")
        files = [tmp_path / "c.curve.json", tmp_path / "c.curve.dat", cache[0]]
        assert [oct(f.stat().st_mode & 0o777) for f in files] == [oct(mode)] * 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.curve.dat", "c.curve.json", "cache"]


class TestGapCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        code = main(["gap", "--n-schedule", "20,40", "--reps", "4", "--r", "0.6",
                     "--seed", "5", "--out", out])
        assert code in (0, 1)
        assert capsys.readouterr().out.startswith("gap: scaled gap(n=40)")
        lines = (tmp_path / "g.gap.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1].startswith("gap,")
        dat = (tmp_path / "g.gap.dat").read_text().splitlines()
        assert len(dat) == 2 and len(dat[0].split()) == 3

    def test_schedule_parsing_rejects_garbage(self, tmp_path, capsys):
        code = main(["gap", "--n-schedule", "20,x", "--out", str(tmp_path / "g")])
        assert code == 1
        assert "n-schedule" in capsys.readouterr().err


class TestChecksCommand:
    def test_strips_only(self, tmp_path, capsys):
        out = str(tmp_path / "ck")
        code = main(["checks", "--only", "strips", "--L", "64", "--reps", "3",
                     "--seed", "4", "--out", out])
        assert code == 0
        assert capsys.readouterr().out == "strips: pass (0 violations in 3 realizations)\n"
        doc = json.loads((tmp_path / "ck.checks.json").read_text())
        assert doc["strips"]["passed"] is True
        assert set(doc) == {"strips"}

    def test_perturbation_only(self, tmp_path, capsys):
        code = main(["checks", "--only", "perturbation", "--L", "25", "--reps", "3",
                     "--seed", "6", "--out", str(tmp_path / "p")])
        assert code == 0
        assert capsys.readouterr().out.startswith("perturbation: pass")

    def test_scaling_only(self, tmp_path, capsys):
        code = main(["checks", "--only", "scaling", "--L", "64", "--reps", "6",
                     "--seed", "7", "--out", str(tmp_path / "s")])
        assert code == 0
        assert capsys.readouterr().out.startswith("scaling: pass")

    @pytest.mark.parametrize("boxes", ["-4", "0"])
    def test_box_count_below_one_rejected(self, tmp_path, capsys, boxes):
        code = main(["checks", "--only", "strips", "--boxes", boxes, "--L", "25",
                     "--reps", "2", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: cannot split a cube into {boxes} congruent boxes in d=2\n"
        assert not list(tmp_path.iterdir())


class TestVerdicts:
    """A Monte Carlo command with a verdict exits 0 exactly when every
    "passed" in its JSON is true; the reports hold the verdicts."""

    CASES = {
        "converge": ["converge", "--n-schedule", "20,40", "--reps", "4", "--r", "0.6",
                     "--s-max", "0.8", "--curve-L", "16", "--curve-reps", "4", "--seed", "3"],
        "gap": ["gap", "--n-schedule", "20,40", "--reps", "4", "--r", "0.6", "--seed", "5"],
        "checks": ["checks", "--L", "25", "--reps", "2", "--seed", "4"],
    }

    @staticmethod
    def run(tmp_path, argv):
        code = main(argv + ["--out", str(tmp_path / "v")])
        doc = json.loads((tmp_path / f"v.{argv[0]}.json").read_text())
        entries = doc.values() if argv[0] == "checks" else [doc]
        return code, doc, [entry["passed"] for entry in entries]

    @pytest.mark.parametrize("command", list(CASES))
    def test_exit_status_is_the_verdict(self, tmp_path, capsys, command):
        code, doc, verdicts = self.run(tmp_path, self.CASES[command])
        assert len(verdicts) == (3 if command == "checks" else 1)
        assert code == (0 if all(verdicts) else 1)
        if command == "gap":
            assert doc["passed"] == (doc["scaled_bounded"] and doc["declines"])
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[-1].split()[0] for line in printed] == [
            "pass" if ok else "fail" for ok in verdicts]

    def test_converge_far_from_its_target_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "thermodynamic_integral",
                            lambda *args: limits.IntegralEstimate(value=100.0, stderr=0.0))
        code, doc, verdicts = self.run(tmp_path, self.CASES["converge"])
        assert (code, verdicts) == (1, [False])
        assert doc["gaps"][-1] > doc["tolerance"] >= 10.0
        assert capsys.readouterr().out.endswith(": fail\n")

    def test_one_failing_check_fails_the_command(self, tmp_path, capsys, monkeypatch):
        check = cli.intensity_perturbation_check
        monkeypatch.setattr(cli, "intensity_perturbation_check",
                            lambda *args, **kwargs: dataclasses.replace(
                                check(*args, **kwargs), passed=False))
        code, doc, verdicts = self.run(tmp_path, self.CASES["checks"])
        assert code == 1
        assert doc["perturbation"]["passed"] is False
        assert "perturbation: fail" in capsys.readouterr().out


class TestRejectedBeforeAnyPool:
    """Arguments the estimators cannot use fail with a message naming the
    value, before any sampling, artifact or worker pool."""

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--seed", "-3", "--n", "4"],
         "seed and stream path must be non-negative integers, got -3"),
        (["rate", "--seed", "-3", "--L", "16", "--reps", "2", "--workers", "2"],
         "seed and stream path must be non-negative integers, got -3"),
        (["checks", "--only", "perturbation", "--dim", "2", "--k", "4", "--L", "100",
          "--reps", "3", "--workers", "2"], "k must lie in 1..d-1, got k=4 in d=2"),
        (["rate", "--dim", "3", "--k", "2", "--r", "1.2", "--L", "46.656",
          "--boundary", "torus", "--reps", "2", "--workers", "2"],
         "window volume 46.656 too small for radius 1.2"),
        # two replicates would fork at most one process, were the cap missing
        (["rate", "--L", "16", "--reps", "2", "--workers", str(limits.MAX_WORKERS + 1)],
         f"workers must lie in 1..{limits.MAX_WORKERS}, got {limits.MAX_WORKERS + 1}"),
    ], ids=["sample-seed", "rate-seed", "perturbation-k", "torus-side", "workers-cap"])
    def test_rejected(self, tmp_path, capsys, pool_starts, argv, message):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())
        assert pool_starts == []

    @pytest.mark.parametrize("fields, named", [
        (dict(values=[1.5, -0.5]), "finite and non-negative, got -0.5"),
        (dict(values=[float("nan"), 1.0]), "finite and non-negative, got nan"),
        (dict(cells_per_axis=[0, 1]), "positive count per axis, got [0, 1] in d=2"),
        (dict(lower=[0, 0, 0]), "equal-length vectors, got [0.0, 0.0, 0.0] / [1.0, 1.0]"),
    ], ids=["negative", "nan", "cells", "bounds"])
    def test_density_file_value_named(self, tmp_path, capsys, fields, named):
        doc = {"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [2, 1],
               "values": [1, 1], **fields}
        density = tmp_path / "d.json"
        density.write_text(json.dumps(doc))
        code = main(["sample", "--density", str(density), "--n", "5",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert named in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


class TestWorkerPool:
    """A command forks its workers once, when its first replicate map asks
    for them, and none are left when main returns. At --workers w the pool
    holds w - 1 processes: the command's own process runs one share of
    each map."""

    CONVERGE = ["converge", "--n-schedule", "20,40", "--reps", "4", "--r", "0.6",
                "--s-max", "0.8", "--curve-L", "16", "--curve-reps", "3",
                "--seed", "3"]
    GAP = ["gap", "--n-schedule", "20,40,60", "--reps", "4", "--r", "0.6",
           "--seed", "5"]
    CHECKS = ["checks", "--L", "64", "--reps", "3", "--seed", "4"]
    CURVE = ["curve", "--k", "1", "--L", "16", "--reps", "3", "--s-max", "0.6",
             "--s-step", "0.2", "--seed", "2"]

    @pytest.mark.parametrize("argv", [CONVERGE, CHECKS], ids=["converge", "checks"])
    def test_one_pool_per_command(self, tmp_path, pool_starts, argv):
        main(argv + ["--workers", "2", "--out", str(tmp_path / "w2")])
        assert pool_starts == [1]
        assert not multiprocessing.active_children()

    def test_serial_command_forks_nothing(self, tmp_path, pool_starts):
        main(self.CHECKS + ["--out", str(tmp_path / "w1")])
        assert pool_starts == []

    def test_curve_cache_hit_forks_nothing(self, tmp_path, pool_starts):
        assert main(self.CURVE + ["--out", str(tmp_path / "miss")]) == 0
        assert main(self.CURVE + ["--workers", "2", "--out", str(tmp_path / "hit")]) == 0
        assert pool_starts == []

    # replicate i of grid point t has map index 4t + i, so at --workers 2
    # odd i fall in the worker's share and even i in the command's own
    CURVE_EVEN = ["curve", "--k", "1", "--L", "16", "--reps", "4", "--s-max", "0.6",
                  "--s-step", "0.2", "--seed", "2", "--workers", "2"]

    def failing_run(self, tmp_path, capsys, monkeypatch, fails):
        def replicate(task, i):
            if fails(i):
                raise limits.LimitsError(f"replicate {i} failed in pid {os.getpid()}")
            return 0

        monkeypatch.setitem(limits._REPLICATE_KINDS, "betti_rate", replicate)
        code = main(self.CURVE_EVEN + ["--out", str(tmp_path / "x")])
        assert code == 1
        assert not multiprocessing.active_children()
        assert not list(tmp_path.glob("x*"))
        return capsys.readouterr().err

    def test_replicate_error_in_worker(self, tmp_path, capsys, monkeypatch):
        err = self.failing_run(tmp_path, capsys, monkeypatch, lambda i: i % 2 == 1)
        assert "replicate 1 failed in pid" in err
        assert f"pid {os.getpid()}" not in err

    def test_replicate_error_in_caller(self, tmp_path, capsys, monkeypatch):
        err = self.failing_run(tmp_path, capsys, monkeypatch, lambda i: i == 0)
        assert f"replicate 0 failed in pid {os.getpid()}" in err

    @pytest.mark.parametrize("argv", [CONVERGE, GAP, CHECKS],
                             ids=["converge", "gap", "checks"])
    def test_artifacts_match_across_worker_counts(self, tmp_path, capsys,
                                                  monkeypatch, argv):
        # each run builds its own curve, in its own cache
        outputs = []
        for workers in ("1", "2", "3"):
            run = tmp_path / f"w{workers}"
            monkeypatch.setenv("BETTI_THERMO_CACHE", str(run / "cache"))
            main(argv + ["--workers", workers, "--out", str(run / "out")])
            files = {p.relative_to(run).as_posix(): p.read_bytes()
                     for p in run.rglob("*") if p.is_file()}
            outputs.append((files, capsys.readouterr().out))
        assert outputs[0][0] and outputs[0] == outputs[1] == outputs[2]


class TestConfig:
    @staticmethod
    def write_config(tmp_path, out, **extra):
        doc = {"command": "rate", "lambda": 0.0, "r": 1.0, "L": 50,
               "reps": 5, "seed": 9, "out": out}
        doc.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_config_supplies_command_and_flags(self, tmp_path, capsys):
        out = str(tmp_path / "fromcfg")
        path = self.write_config(tmp_path, out)
        assert main(["--config", str(path)]) == 0
        assert (tmp_path / "fromcfg.rate.csv").exists()
        assert capsys.readouterr().out == "betti_rate: 0 +/- 0\n"

    def test_command_line_wins(self, tmp_path):
        path = self.write_config(tmp_path, str(tmp_path / "ignored"))
        out = str(tmp_path / "won")
        assert main(["rate", "--config", str(path), "--lambda", "0.5",
                     "--out", out]) == 0
        row = (tmp_path / "won.rate.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "0.5"  # lambda from the command line
        assert row.split(",")[8] == "9"  # seed still from the config
        assert not (tmp_path / "ignored.rate.csv").exists()

    def test_config_not_an_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('["rate"]')
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object of flag values\n"

    def test_cache_dir_defaults_to_the_home_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BETTI_THERMO_CACHE")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert cli._cache_dir() == tmp_path / ".cache" / "betti-thermo"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "rate", "radius": 1.0}')
        assert main(["--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"command": "rate", "boxes": 9}, "unknown config keys for rate: ['boxes']"),
        ({"command": "gap", "j": None, "L": 50},
         "unknown config keys for gap: ['L', 'j']"),
    ], ids=["rate-boxes", "gap-null"])
    def test_key_the_command_does_not_read_rejected(self, tmp_path, capsys, doc,
                                                     message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "out": str(tmp_path / "x")}))
        assert main(["--config", str(path)]) == 1
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("doc, message", [
        ({"command": "checks", "only": "bogus"},
         "config key 'only': invalid choice 'bogus'"),
        ({"command": "rate", "reps": 2.7}, "config key 'reps': invalid int value '2.7'"),
        ({"command": "rate", "lambda": "lots"},
         "config key 'lambda': invalid float value 'lots'"),
        ({"command": "rate", "boundary": "klein"},
         "config key 'boundary': invalid choice 'klein'"),
        ({"command": "rate", "seed": True}, "config key 'seed': invalid int value 'True'"),
        ({"command": "gap", "n_schedule": [20, 40.5]},
         "config key 'n_schedule': invalid int value '20,40.5'"),
        ({"command": ["rate"]}, "unknown command ['rate']"),
    ], ids=["only", "reps", "lambda", "boundary", "seed", "n_schedule", "command"])
    def test_bad_config_value_rejected(self, tmp_path, capsys, doc, message):
        # config values get the flags' type and choice checks before any work
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "out": str(tmp_path / "x")}))
        assert main(["--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("argv, config, message", [
        (["betti", "--r", "nan"], None, "--r: value must be finite, got 'nan'"),
        (["checks", "--eps", "nan"], None, "--eps: value must be finite, got 'nan'"),
        (["complex", "--L", "1e400"], None, "--L: value must be finite, got '1e400'"),
        (["rate", "--lambda=-inf"], None, "--lambda: value must be finite, got '-inf'"),
        (["rate"], '{"r": NaN}', "config key 'r': value must be finite, got 'nan'"),
        (["complex"], '{"L": 1e400}', "config key 'L': value must be finite, got 'inf'"),
    ], ids=["r", "eps", "L", "lambda", "config-r", "config-L"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, argv, config, message):
        # nan, inf and values that overflow to inf fail before any work
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("attached", [False, True], ids=["spaced", "attached"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda", "-1e3", "intensity must be non-negative, got -1000.0"),
        ("--r", "-inf", "--r: value must be finite, got '-inf'"),
        ("--r", "-.5e1", "radius must be positive, got -5.0"),
        ("--n-schedule", "-1,2", "n must be at least 1, got -1"),
    ], ids=["lambda", "r-inf", "r", "n-schedule"])
    def test_value_starting_with_a_dash(self, tmp_path, capsys, flag, value,
                                        message, attached):
        # argparse reads '-1e3' or '-inf' after a flag as an option of its
        # own unless it is attached with '='; both spellings reach _parse
        args = [f"{flag}={value}"] if attached else [flag, value]
        command = "gap" if flag == "--n-schedule" else "rate"
        assert main([command, *args, "--out", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("argv, message", [
        (["checks", "--theta", "0"], "theta must be positive, got 0.0"),
        (["checks", "--eps", "-1"], "eps must be non-negative, got -1.0"),
        (["complex", "--r", "0"], "radius must be positive, got 0.0"),
        (["betti", "--k", "-2"], "k must be non-negative, got -2"),
        (["curve", "--s-step", "0"], "s-step must be positive, got 0.0"),
        (["curve", "--s-max", "0.05"],
         "s-max must be at least one step, got 0.05 with step 0.1"),
        (["sample", "--n", "-3"], "n must be non-negative, got -3"),
        (["sample", "--L", "-5"], "window volume must be positive, got -5.0"),
    ], ids=["theta", "eps", "r", "k", "s-step", "s-max", "sample-n", "sample-L"])
    def test_argument_error_names_the_value(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("argv", [
        ["sample", "--dim", "0"], ["complex", "--dim", "0"], ["converge", "--dim", "0"],
        ["sample", "--dim", "0", "--n", "5"], ["sample", "--dim", "-1"],
        ["sample", "--dim", "-1", "--n", "5"], ["gap", "--dim", "-1"],
    ], ids=["sample", "complex", "converge", "sample-n", "sample-neg", "sample-n-neg", "gap-neg"])
    def test_dimension_below_one_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"window dimension must be at least 1, got {argv[2]}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("x.*"))

    def test_config_values_parse_like_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_schedule": [20, 40], "r": 2, "reps": 6,
                                    "k": 2, "density": None}))
        from_config = resolve_config(build_parser().parse_args(
            ["gap", "--config", str(path)]))
        from_flags = resolve_config(build_parser().parse_args(
            ["gap", "--n-schedule", "20,40", "--r", "2", "--reps", "6", "--k", "2"]))
        assert from_config == from_flags
        assert from_config.n_schedule == (20, 40) and from_config.r == 2.0

    def test_config_for_another_command_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "rate", "seed": 3}')
        assert main(["gap", "--config", str(path), "--n-schedule", "10,20", "--reps", "2",
                     "--out", str(tmp_path / "x")]) == 1
        assert (capsys.readouterr().err
                == "error: config command 'rate' does not match the subcommand 'gap'\n")
        assert not list(tmp_path.glob("x.*"))

    def test_unknown_command_in_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "frobnicate"}')
        assert main(["--config", str(path)]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_no_command_anywhere(self, capsys):
        assert main([]) == 1
        assert "no command" in capsys.readouterr().err


class _RecordingConfig(ExperimentConfig):
    """An ExperimentConfig that notes every flag field a command reads."""

    def __getattribute__(self, name):
        if name in _FLAG_FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


_FLAG_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"command", "cache_dir"}


class TestFlagsPerCommand:
    """Each command declares, and so accepts, exactly the flags it reads;
    each branch of it reads them all but those its selectors exclude."""

    CONVERGE = ["--n-schedule", "5,10", "--reps", "2", "--r", "0.2", "--s-max", "0.2",
                "--s-step", "0.2", "--curve-L", "16", "--curve-reps", "2"]
    # one tiny run per branch: the cloud commands' four sources, rate with
    # and without --j, converge and gap with and without --density, and
    # checks in full and by each --only
    RUNS = {
        **{command: [["--L", "4"], ["--n", "3"], ["--density", "{density}", "--n", "3"],
                     ["--fixture", "square4"]]
           for command in ("sample", "complex", "betti")},
        "rate": [["--L", "16", "--reps", "2"], ["--j", "1", "--L", "16", "--reps", "2"]],
        "curve": [["--L", "16", "--reps", "2", "--s-max", "0.2", "--s-step", "0.2"]],
        "converge": [CONVERGE, ["--density", "{density}", *CONVERGE]],
        "gap": [["--n-schedule", "5,10", "--reps", "2"],
                ["--density", "{density}", "--n-schedule", "5,10", "--reps", "2"]],
        "checks": [["--L", "25", "--reps", "2"],
                   *(["--only", name, "--L", "25", "--reps", "2"] for name in _CHECKS)],
    }

    @pytest.fixture
    def density(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dim": 2, "lower": [0, 0], "upper": [1, 1],
                                    "cells_per_axis": [1, 1], "values": [1]}))
        return path

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_declared_flags_are_the_flags_read(self, tmp_path, capsys, density, command):
        # every command has a run with no selector, so together the runs
        # read every declared flag
        declared = _flags(command)
        for args in self.RUNS[command]:
            argv = [command, *(a.format(density=density) for a in args),
                    "--out", str(tmp_path / "x")]
            parsed = build_parser().parse_args(argv)
            cfg = resolve_config(parsed)
            recording = _RecordingConfig(**{f.name: getattr(cfg, f.name)
                                            for f in fields(cfg)})
            object.__setattr__(recording, "read", set())
            assert run(recording) in (0, 1)
            excluded = set().union(*(_excluded(f, getattr(cfg, f.name))[1]
                                     for f in declared if f.name in vars(parsed)))
            assert recording.read == {f.name for f in declared} - excluded, argv

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--density", "{density}", "--n", "5", "--dim", "3"],
         "--density cannot be combined with --dim"),
        (["gap", "--density", "{density}", "--dim", "3"],
         "--density cannot be combined with --dim"),
        (["converge", "--density", "{density}", "--dim", "5"],
         "--density cannot be combined with --dim"),
        (["betti", "--fixture", "square4", "--r", "1.05", "--L", "50", "--lambda", "3",
          "--seed", "4"], "--fixture cannot be combined with --L and --lambda and --seed"),
        (["complex", "--n", "20", "--lambda", "9", "--L", "3", "--boundary", "plain"],
         "--n cannot be combined with --lambda and --L and --boundary"),
        (["rate", "--j", "1", "--k", "5"], "--j cannot be combined with --k"),
        (["checks", "--only", "strips", "--theta", "7", "--eps", "3", "--boundary", "plain"],
         "--only strips cannot be combined with --theta and --eps and --boundary"),
        (["checks", "--boxes", "2", "--only", "scaling"],
         "--only scaling cannot be combined with --boxes"),
        (["checks", "--only", "perturbation", "--theta", "3"],
         "--only perturbation cannot be combined with --theta"),
        (["sample", "--fixture", "square4", "--dim", "3"],
         "--fixture cannot be combined with --dim"),
    ], ids=["sample-density-dim", "gap-density-dim", "converge-density-dim",
            "betti-fixture", "complex-n", "rate-j-k", "checks-strips", "checks-scaling",
            "checks-perturbation", "sample-fixture-dim"])
    def test_flag_the_branch_ignores_rejected(self, tmp_path, capsys, density, argv,
                                              message):
        argv = [a.format(density=density) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]

    @pytest.mark.parametrize("doc, message", [
        ({"command": "betti", "fixture": "square4", "seed": 4},
         "--fixture cannot be combined with --seed"),
        ({"command": "rate", "k": 2, "j": 1}, "--j cannot be combined with --k"),
        ({"command": "checks", "only": "scaling", "eps": 0.2},
         "--only scaling cannot be combined with --eps"),
    ], ids=["betti-fixture-seed", "rate-j-k", "checks-only-eps"])
    def test_config_key_the_branch_ignores_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "out": str(tmp_path / "x")}))
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("x.*"))

    def test_null_config_key_beside_a_selector_accepted(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": None, "L": None}))
        assert main(["betti", "--config", str(path), "--fixture", "square4", "--r", "1.05",
                     "--out", str(tmp_path / "sq")]) == 0
        assert capsys.readouterr().out == "beta: 1 1\n"

    @pytest.mark.parametrize("argv", [
        ["rate", "--theta", "7"],
        ["curve", "--density", "x.json"],
        ["gap", "--n", "300"],  # not --n-schedule by its prefix
        ["curve", "--r", "2"],  # not --reps by its prefix
        ["sample", "--workers", "2"],
    ], ids=["rate-theta", "curve-density", "gap-n", "curve-r", "sample-workers"])
    def test_stray_flag_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_help_lists_only_the_flags_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
        assert listed == {"--config", "--dim", "--k", "--j", "--r", "--lambda",
                          "--L", "--reps", "--seed", "--boundary", "--workers", "--out"}


class TestReadme:
    """Every `$ betti-thermo ...` line of README's example blocks prints
    what the README shows under it."""

    README = Path(__file__).resolve().parents[1] / "README.md"
    BLOCKS = [block for block in re.findall(r"^```\w*\n(.*?)^```$", README.read_text(),
                                            re.M | re.S)
              if block.startswith("$ ")]

    @pytest.mark.parametrize("block", BLOCKS,
                             ids=[f"block{i}" for i in range(len(BLOCKS))])
    def test_examples_print_what_they_show(self, tmp_path, capsys, monkeypatch, block):
        monkeypatch.chdir(tmp_path)
        for session in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, shown = session.partition("\n")
            shown = shown.strip("\n")
            command, *args = shlex.split(line)
            if command == "cat":
                Path(args[0]).write_text(shown + "\n")
                continue
            assert command == "betti-thermo"
            assert main(args) == 0, line
            assert capsys.readouterr().out == shown + "\n", line


class TestPlotData:
    def test_single_row_table(self, tmp_path):
        rec = EstimateRecord("expectation_per_n", 1, None, 1.0, 100, 0.25, 0.01,
                             4, 0, "plain")
        table = ConvergenceTable((100,), (rec,), 0.2, 0.0)
        path = tmp_path / "t.dat"
        emit_plot_data(table, path)
        assert path.read_text() == "100 0.05\n"

    def test_curve_rows_strictly_increasing_x(self, tmp_path):
        curve = LimitCurve(k=1, dim=2, L=16.0, reps=2, master_seed=0,
                           boundary_mode="torus", s_grid=(0.0, 0.5, 1.0),
                           values=(0.0, 0.125, 0.0625),
                           stderrs=(0.0, 0.5 ** 20, 0.0))
        path = tmp_path / "c.dat"
        emit_plot_data(curve, path)
        lines = path.read_text().splitlines()
        xs = [float(line.split()[0]) for line in lines]
        assert xs == sorted(xs) and len(xs) == 3
        assert lines[1] == "0.5 0.125 9.53674316406e-07"  # 12 significant digits

    def test_reemit_byte_identical(self, tmp_path):
        curve = LimitCurve(k=1, dim=2, L=16.0, reps=2, master_seed=0,
                           boundary_mode="torus", s_grid=(0.0, 1.0),
                           values=(0.0, 1.0 / 3.0), stderrs=(0.0, 0.01))
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        emit_plot_data(curve, a)
        emit_plot_data(curve, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rejected(self, tmp_path):
        table = GapTable(rows=(), k=1, r=1.0, reps=2, master_seed=0)
        with pytest.raises(CliError):
            emit_plot_data(table, tmp_path / "x.dat")


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="digests recorded with numpy 2.4.6; streams differ by version")
class TestGoldenArtifacts:
    """One command line per command and cloud source, each passing only
    flags its branch reads: the SHA-256 of its exit status, stdout,
    artifacts (.csv, .json, .dat) and curve cache files must equal the
    digest recorded before the per-branch flag checks existed."""

    DENSITY = ('{"dim": 2, "lower": [0, 0], "upper": [1, 1], '
               '"cells_per_axis": [2, 1], "values": [1.5, 0.5]}\n')
    SCHEDULE = ["--n-schedule", "20,40", "--reps", "3", "--r", "0.6"]
    TARGET = ["--s-max", "0.8", "--s-step", "0.4", "--curve-L", "16", "--curve-reps", "2"]
    CASES = {
        "sample-poisson": (["sample", "--lambda", "2", "--L", "9", "--dim", "3", "--seed", "3"],
            "33091b06066767715eff81533a44a5f1b59d110917fde7c098bbe1f5809bb785"),
        "sample-n": (["sample", "--n", "6", "--dim", "3", "--seed", "4"],
            "6fb2320cbaf78b030e1a89574893fbf8eee7f7af2d3bc7a98afa1eac502f82a1"),
        "sample-density": (["sample", "--density", "{density}", "--n", "5", "--seed", "5"],
            "e462e90f9d337464e9f137787cf57d724c302eb3790ca90f06b92b0521d356e9"),
        "sample-fixture": (["sample", "--fixture", "square4"],
            "3df52ad778ab51d1b4b092ac5fb227fcf21996f022b7bb36343e55b263e81492"),
        "complex-poisson": (["complex", "--lambda", "1", "--L", "25", "--r", "1", "--k", "2",
                             "--boundary", "torus", "--seed", "6"],
            "214d9333bd93b53af645a662a6ee80c3b2735a2e4499a0cd40a37aa558e8bf8d"),
        "complex-n": (["complex", "--n", "20", "--r", "0.3", "--seed", "7"],
            "ea6586ffba5ef0b1ed7ee0ed15f159b24ee1db6f3d94687ecf2c8b09a01850d0"),
        "complex-density": (["complex", "--density", "{density}", "--n", "15", "--r", "0.3",
                             "--seed", "8"],
            "05a481c824f2f1027c8be7d068c1034d6750615fcb6770b1937d8dd0a898ee6b"),
        "complex-fixture": (["complex", "--fixture", "square4", "--r", "1.05", "--k", "0"],
            "b7e9ac21ddbf78ec62785c990904e80fa78da847c4b899ec127345b72c4d985a"),
        "betti-poisson": (["betti", "--lambda", "1", "--L", "25", "--r", "1", "--seed", "5"],
            "3324376592be4cef7565f733558f5b4602e142cd7428d4752361ea19e8fa2210"),
        "betti-n": (["betti", "--n", "20", "--r", "0.3", "--dim", "3", "--seed", "2"],
            "a68b1b50162726f2f0ecdc541f0d70eca309626347c9f5a4a31fdc9450928684"),
        "betti-density": (["betti", "--density", "{density}", "--n", "20", "--r", "0.3",
                           "--seed", "3"],
            "9a897cc9f78254cab8b7b3db0ce4962d150fbe9c7f8ca08b439bb102b79afac0"),
        "betti-fixture": (["betti", "--fixture", "square4", "--r", "1.05"],
            "6d00181dde04d54bf45863a7b61ee193a4a487f1869fca6698cf7df2d0b742ce"),
        "rate-betti": (["rate", "--lambda", "1", "--L", "16", "--r", "1", "--reps", "3",
                        "--boundary", "torus", "--seed", "2"],
            "1a6d0b88d3be3d85c3eb7f426ec0ca58dbf15410f54988f9fa1f6709736f60ba"),
        "rate-j": (["rate", "--j", "2", "--lambda", "1", "--L", "16", "--r", "1", "--reps", "3",
                    "--seed", "2"],
            "a9496942b922e56530b5476b3c32c4cdbad181d08aa54a90574462364fddf467"),
        "curve": (["curve", "--k", "1", "--L", "16", "--reps", "2", "--s-max", "0.4",
                   "--s-step", "0.2", "--seed", "2"],
            "3db3b6e170cee9db1c0ec326bfd7cb64601a8e55382ba1644ce0024e82bbe5f8"),
        "converge-uniform": (["converge", *SCHEDULE, *TARGET, "--seed", "3"],
            "de2a5c7c0d883bd1ac945d090f105e0cfeb3ad9368556a7d022f066cc6a0e5c4"),
        "converge-density": (["converge", "--density", "{density}", *SCHEDULE, *TARGET,
                              "--seed", "3"],
            "5d351302ebaa29625313c8eda51235ad7bb9e2e7f6d4b1dacc56156dcaa05242"),
        "gap-uniform": (["gap", *SCHEDULE, "--seed", "5"],
            "08fc4f1d46ac4427f8e81ade9761b30da8c1ed3347f981912afc353668485a61"),
        "gap-density": (["gap", "--density", "{density}", *SCHEDULE, "--seed", "5"],
            "233db4933a2dd457a7101dd2742b334adf1ffcdfb625fe6fd8ea76c8999f0ac4"),
        "checks-all": (["checks", "--L", "25", "--reps", "2", "--seed", "4"],
            "91352a6576dce7dd7c89592c7fb9ae6cb76b495a69f402b95e5fccfa32fc68ca"),
    }

    @pytest.mark.parametrize("label", list(CASES))
    def test_digest(self, tmp_path, capsys, label):
        argv, expected = self.CASES[label]
        density = tmp_path / "d.json"
        density.write_text(self.DENSITY)
        code = main([a.format(density=density) for a in argv]
                    + ["--out", str(tmp_path / label)])
        digest = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode())
        for path in sorted([*tmp_path.glob(f"{label}.*"), *(tmp_path / "cache").glob("*")]):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
        assert digest.hexdigest() == expected


class TestWorkCap:
    """A run whose replicate would expect more than MAX_EXPECTED_POINTS
    points, or whose s-grid would take more than MAX_GRID_STEPS steps,
    exits 1 naming the value before any sampling, artifact or pool; numpy
    failed to allocate petabytes, or the grid's step count overflowed."""

    @pytest.mark.parametrize("argv, named", [
        (["rate", "--lambda", "1e12", "--r", "1", "--L", "100", "--reps", "2",
          "--boundary", "torus"], "intensity 1000000000000.0 on window volume 100.0"),
        (["sample", "--lambda", "1e12", "--L", "100"],
         "intensity 1000000000000.0 on window volume 100.0"),
        (["sample", "--n", "1000000000000"], "n = 1000000000000 is more than 1000000"),
        (["checks", "--only", "perturbation", "--lambda", "1e12", "--L", "100",
          "--reps", "2"],
         "an intensity grid of mass 100000000000000.0 expects more than 1000000 points"),
        (["curve", "--s-max", "1e300", "--s-step", "1e-300"],
         "an s-grid to 1e+300 in steps of 1e-300 takes more than 10000 steps"),
        (["complex", "--boundary", "torus", "--dim", "0"],
         "dimension must lie in 1..6, got 0"),
        (["rate", "--reps", "1000000000000", "--r", "1", "--L", "100"],
         "need 2..1000000 replicates (2 for a standard error), got 1000000000000"),
    ], ids=["rate", "sample", "sample-n", "perturbation", "s-grid", "torus-dim", "reps"])
    def test_rejected_before_sampling(self, tmp_path, capsys, pool_starts, argv, named):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())
        assert pool_starts == []

    @pytest.mark.parametrize("argv", [
        ["rate", "--dim", "20", "--r", "0.3", "--L", "100", "--reps", "2"],
        ["complex", "--dim", "20", "--n", "5"],
        ["betti", "--dim", "20", "--r", "0.3", "--L", "100", "--boundary", "torus"],
    ], ids=["rate", "complex", "betti-torus"])
    def test_dimension_capped_before_the_neighbour_grid(self, tmp_path, capsys,
                                                        monkeypatch, argv):
        # the grid enumerates 3^d cell offsets in Python; at d = 20 the
        # command stalled there instead of exiting
        def half_offsets(d):
            raise AssertionError(f"enumerated the cell offsets of d={d}")

        monkeypatch.setattr(cech, "_half_offsets", half_offsets)
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dimension must lie in 1..6, got 20" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, cap", [
        # 10^6 points on a torus of 3 cells per axis, where every pair is a
        # candidate: numpy failed to allocate 3.64 TiB
        (["rate", "--lambda", "10000", "--r", "3", "--L", "100", "--reps", "2",
          "--boundary", "torus"], None),
        # 400 points at r = 1 in a square of side 2: about 65k candidate pairs,
        # then 2 million triangle candidates; without a cap the levels grew
        # until an allocation failed
        (["complex", "--lambda", "100", "--L", "4", "--r", "1.0", "--k", "8", "--seed", "1"],
         10 ** 5),
    ], ids=["pairs", "level"])
    def test_candidates_capped(self, tmp_path, capsys, monkeypatch, argv, cap):
        if cap is not None:
            monkeypatch.setattr(cech, "MAX_CANDIDATES", cap)
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: one expansion lists ")
        assert f"more than the cap of {cech.MAX_CANDIDATES}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_radius_whose_square_overflows(self, tmp_path, capsys):
        # the squared cuts of r = 1e300 overflowed; now they admit every simplex
        out = str(tmp_path / "x")
        assert main(["gap", "--n-schedule", "50,100", "--r", "1e300", "--reps", "2",
                     "--out", out]) == 0
        assert capsys.readouterr().out.endswith(": pass\n")
        assert main(["betti", "--r", "1e300", "--L", "25", "--out", out]) == 0
        assert capsys.readouterr().out == "beta: 1 0\n"


class _Reached(Exception):
    """Raised in place of the first sample, replicate or worker pool."""


def _reach(*args, **kwargs):
    raise _Reached


class TestEveryNumericFlag:
    """Every numeric flag of every command and branch, over the values the
    library properties use, written as flag text: the run either reaches
    its first sample, replicate or worker pool, or exits 1 with an error
    line, no traceback and no artifact. Nothing is sampled for real."""

    VALUES = ["nan", "inf", "-inf", "-0.0", "0", "1e308", "1e-300", "2.5", "2.0", "True", "2"]
    CONVERGE = ["--n-schedule", "20,40", "--reps", "2", "--r", "0.6", "--s-max", "0.8",
                "--curve-L", "16", "--curve-reps", "2"]
    # one small valid run per branch
    RUNS = {
        "sample": ["sample", "--L", "16"],
        "sample-n": ["sample", "--n", "5"],
        "complex-torus": ["complex", "--L", "16", "--r", "1", "--boundary", "torus"],
        "betti-n": ["betti", "--n", "5", "--r", "0.5"],
        "rate": ["rate", "--L", "16", "--reps", "2", "--boundary", "torus"],
        "rate-j": ["rate", "--j", "1", "--L", "16", "--reps", "2"],
        "curve": ["curve", "--L", "16", "--reps", "2", "--s-max", "0.3"],
        "converge": ["converge", *CONVERGE],
        "gap": ["gap", "--n-schedule", "20,40", "--reps", "2", "--r", "0.6"],
        **{f"checks-{name}": ["checks", "--only", name, "--L", "64", "--reps", "2"]
           for name in _CHECKS},
    }

    @staticmethod
    def numeric_flags(run) -> list[str]:
        return [_flag_name(f) for f in _flags(TestEveryNumericFlag.RUNS[run][0])
                if _scalar_type(f) in (int, float)]

    def outcome(self, run, values, tmp_path, capsys) -> str:
        argv = self.RUNS[run] + [f"{flag}={value}" for flag, value in values.items()]
        with pytest.MonkeyPatch.context() as patch:
            for module, name in [(limits, "_replicate"), (limits, "ProcessPoolExecutor"),
                                 (cli, "sample_poisson_homogeneous"),
                                 (cli, "sample_binomial")]:
                patch.setattr(module, name, _reach)
            try:
                code = main(argv + ["--out", str(tmp_path / "x")])
            except _Reached:
                return "reached"
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert not list(tmp_path.glob("x.*")), argv
        return "rejected"

    @pytest.mark.parametrize("run", RUNS)
    def test_every_value_alone(self, tmp_path, capsys, run):
        assert self.outcome(run, {}, tmp_path, capsys) == "reached"
        for flag in self.numeric_flags(run):
            for value in self.VALUES:
                self.outcome(run, {flag: value}, tmp_path, capsys)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_values_together(self, tmp_path, capsys, data):
        run = data.draw(st.sampled_from(sorted(self.RUNS)))
        values = data.draw(st.dictionaries(st.sampled_from(self.numeric_flags(run)),
                                           st.sampled_from(self.VALUES),
                                           min_size=2, max_size=3))
        self.outcome(run, values, tmp_path, capsys)


class TestStartupImports:
    def test_replicates_load_no_scipy(self):
        # two replicates (the fewest an estimator takes) of every kind in
        # a fresh interpreter: scipy is not a dependency, and importing
        # scipy.sparse.csgraph alone costs a CLI command about 0.2 s
        script = """
import sys
import betti_thermo.cli
from betti_thermo import limits
from betti_thermo.pointproc import DensityGrid, IntensityGrid, RngStream, Window
rng = RngStream(5)
density = DensityGrid.uniform(Window.unit(2))
box = Window.centered(100.0, 2)
calm = IntensityGrid(box, (2, 2), [1.0, 1.0, 1.0, 1.0])
busy = IntensityGrid(box, (2, 2), [1.0, 1.5, 1.0, 1.0])
limits.estimate_betti_rate(1.0, 1.0, 100.0, 1, 2, rng, "torus")
limits.estimate_simplex_rate(1.0, 1.0, 100.0, 2, 2, rng)
limits.estimate_binomial_expectation(density, 200, 1.0, 1, 2, rng)
limits.poissonization_gap(density, [100], 1.0, 1, 2, rng)
limits.boundary_strip_check(1.0, 1.0, 100.0, 4, 1, rng, reps=2)
limits.intensity_perturbation_check(calm, busy, 1.0, 1, 2, rng)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        src = str(Path(betti_thermo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"


class TestFreedHeap:
    """Each command asks malloc to keep the heap it frees, which the next
    dense replicate would otherwise fault in again page by page."""

    def test_every_command_keeps_freed_heap(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(True))
        argv = ["betti", "--fixture", "square4", "--r", "1.05", "--out", str(tmp_path / "x")]
        assert main(argv) == 0
        assert calls == [True]

    def test_taken_by_glibc_alone(self):
        # musl's mallopt refuses every setting, and macOS has none
        assert cli._keep_freed_heap() == (platform.libc_ver()[0] == "glibc")

    def test_no_mallopt_leaves_the_process_as_it_was(self, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_heap() is False
