"""End-to-end command runs: flag merging, artifacts, determinism.

Library results are the oracle: a command's artifact must match the
same computation done directly through the module functions with the
same seed.
"""

import json
import subprocess
import sys

import pytest

from betti_thermo.cech import build_cech
from betti_thermo.cli import (
    CliError,
    build_parser,
    emit_plot_data,
    main,
    resolve_config,
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
        DensityGrid.uniform(Window.unit(3)).to_json(density)
        out = str(tmp_path / "s3")
        assert main(["sample", "--density", str(density), "--n", "7",
                     "--out", out]) == 0
        lines = (tmp_path / "s3.sample.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,x2"
        assert len(lines) == 8

    def test_density_needs_n(self, tmp_path, capsys):
        density = tmp_path / "d.json"
        DensityGrid.uniform(Window.unit(2)).to_json(density)
        code = main(["sample", "--density", str(density), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "needs --n" in capsys.readouterr().err

    def test_missing_density_file(self, tmp_path, capsys):
        code = main(["sample", "--density", str(tmp_path / "nope.json"),
                     "--n", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "rate", "radius": 1.0}')
        assert main(["--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

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

    def test_config_values_parse_like_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_schedule": [20, 40], "L": 50, "reps": 6,
                                    "lambda": 0.5, "j": None, "boundary": "torus"}))
        from_config = resolve_config(build_parser().parse_args(
            ["gap", "--config", str(path)]))
        from_flags = resolve_config(build_parser().parse_args(
            ["gap", "--n-schedule", "20,40", "--L", "50", "--reps", "6",
             "--lambda", "0.5", "--boundary", "torus"]))
        assert from_config == from_flags
        assert from_config.n_schedule == (20, 40) and from_config.L == 50.0

    def test_unknown_command_in_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "frobnicate"}')
        assert main(["--config", str(path)]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_no_command_anywhere(self, capsys):
        assert main([]) == 1
        assert "no command" in capsys.readouterr().err


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
