"""The acceptance suite: ten criteria covering exact homology oracles,
forced fixtures, nested difference bounds, the scaling identity, a
closed-form simplex rate, convergence to the thermodynamic limit, the
Poissonization gap, boundary strips, and worker-count determinism.

Each criterion prints one `criterion N (...): pass|fail` line (echoed
again in the terminal summary). Monte Carlo tolerances are pinned at 3
standard errors; the convergence criteria add the prescribed 10% of
the target, and trend checks carry an explicit noise slack because the
true gaps sit near the Monte Carlo noise floor.
"""

import math
import time

import numpy as np
import pytest

from conftest import acceptance_lines
from oracles import (
    connected_components,
    euler_check,
    simplex_count,
    vertex_simplex_count,
)

from betti_thermo.cech import build_cech
from betti_thermo.homology import betti_diff_bound_check, betti_numbers
from betti_thermo.limits import (
    boundary_strip_check,
    convergence_table,
    estimate_simplex_rate,
    load_or_build_curve,
    poissonization_gap,
    records_csv,
    scaling_check,
    thermodynamic_integral,
)
from betti_thermo.pointproc import DensityGrid, PointCloud, RngStream, Window

N_SCHEDULE = (200, 400, 800, 1600)
S_GRID = tuple(round(0.1 * i, 10) for i in range(14))  # 0.0 .. 1.3
UNIFORM = DensityGrid.uniform(Window.unit(2))
TWO_LEVEL = DensityGrid(Window.unit(2), (2, 1), np.array([1.5, 0.5]))


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({desc}): {'pass' if ok else 'fail'}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line + ("\n" + detail if detail else "")


# ---------------------------------------------------------------------------
# Monte Carlo experiment runners, shared between criteria 4-8 and the
# worker-determinism rerun of criterion 10

def run_scaling(workers: int):
    combos = [(lam, theta, r) for lam in (1.0, 2.0) for theta in (2.0, 4.0)
              for r in (0.8, 1.0)]
    return [
        scaling_check(lam, theta, r, 400.0, 1, 100, RngStream(40).substream(i),
                      boundary_mode="torus", dim=2, workers=workers)
        for i, (lam, theta, r) in enumerate(combos)
    ]


def run_pair_rate(workers: int):
    t0 = time.perf_counter()
    rec = estimate_simplex_rate(1.0, 0.5, 200.0, 1, 200, RngStream(41),
                                boundary_mode="torus", dim=1, workers=workers)
    return rec, time.perf_counter() - t0


def run_curve(cache_dir, workers: int):
    return load_or_build_curve(cache_dir, 1, S_GRID, 400.0, 200, RngStream(42),
                               boundary_mode="torus", dim=2, workers=workers)


def run_convergence(density: DensityGrid, seed: int, curve, workers: int):
    target = thermodynamic_integral(density, 1.0, 1, curve)
    table = convergence_table(density, N_SCHEDULE, 1.0, 1, 200, RngStream(seed),
                              target.value, target.stderr, workers=workers)
    return table, target


def run_gap(workers: int):
    return poissonization_gap(UNIFORM, N_SCHEDULE, 1.0, 1, 200, RngStream(45),
                              workers=workers)


def csv_bundle(scaling, pair_rec, curve, uniform_table, twolevel_table,
               gap_table) -> dict:
    return {
        "scaling": records_csv([rec for rep in scaling
                                for rec in (rep.lhs, rep.rhs)]),
        "pair_rate": records_csv([pair_rec]),
        "curve": records_csv(curve.provenance),
        "uniform": records_csv(uniform_table.records),
        "two_level": records_csv(twolevel_table.records),
        "gap": records_csv(gap_table.records()),
    }


@pytest.fixture(scope="session")
def scaling_reports():
    return run_scaling(workers=1)


@pytest.fixture(scope="session")
def pair_rate():
    return run_pair_rate(workers=1)


@pytest.fixture(scope="session")
def limit_curve(tmp_path_factory):
    return run_curve(tmp_path_factory.mktemp("curve-cache"), workers=1)


@pytest.fixture(scope="session")
def uniform_run(limit_curve):
    return run_convergence(UNIFORM, 43, limit_curve, workers=1)


@pytest.fixture(scope="session")
def twolevel_run(limit_curve):
    return run_convergence(TWO_LEVEL, 44, limit_curve, workers=1)


@pytest.fixture(scope="session")
def gap_run():
    return run_gap(workers=1)


class TestAcceptance:
    def test_criterion_01_homology_oracles(self):
        rng = np.random.default_rng(901)
        t0 = time.perf_counter()
        failures = []
        for trial in range(500):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 13))
            r = float(rng.uniform(0.05, 1.0))
            cloud = PointCloud(rng.random((n, d)))
            cx = build_cech(cloud, r, max_dim=len(cloud))
            top = max(cx.top_dim(), 0)
            betti = betti_numbers(cx, top)
            if betti[0] != connected_components(cloud, r):
                failures.append(f"trial {trial}: beta0 vs union-find")
            if not euler_check(cx, betti):
                failures.append(f"trial {trial}: Euler identity")
            for j in range(top + 1):
                total = sum(vertex_simplex_count(cx, v, j)
                            for v in range(len(cloud)))
                if total != (j + 1) * simplex_count(cx, j):
                    failures.append(f"trial {trial}: vertex identity at j={j}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
        _report(1, "homology oracle suite, 500 random clouds", not failures,
                "\n".join(failures[:5]))

    def test_criterion_02_forced_fixtures(self):
        tri = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0],
                                   [0.5, math.sqrt(3.0) / 2.0]]))
        square = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0],
                                      [0.0, 1.0], [1.0, 1.0]]))
        got = (
            tuple(betti_numbers(build_cech(tri, 1.1, 2), 1)),
            tuple(betti_numbers(build_cech(tri, 1.2, 2), 1)),
            tuple(betti_numbers(build_cech(square, 1.05, 2), 1)),
        )
        want = ((1, 1), (1, 0), (1, 1))
        _report(2, "forced-geometry fixtures", got == want, f"{got} != {want}")

    def test_criterion_03_difference_bounds(self):
        rng = np.random.default_rng(903)
        t0 = time.perf_counter()
        failures = []
        for trial in range(100):  # nesting by radius increase
            n = int(rng.integers(5, 26))
            cloud = PointCloud(rng.random((n, 2)) * 1.5)
            r1 = float(rng.uniform(0.05, 0.4))
            r2 = r1 + float(rng.uniform(0.01, 0.3))
            if not betti_diff_bound_check(build_cech(cloud, r1, 2),
                                          build_cech(cloud, r2, 2), 1):
                failures.append(f"radius trial {trial}")
        for trial in range(100):  # nesting by point addition
            n = int(rng.integers(5, 20))
            m = int(rng.integers(1, 8))
            base = rng.random((n, 2)) * 1.5
            extra = rng.random((m, 2)) * 1.5
            r = float(rng.uniform(0.1, 0.5))
            small = build_cech(PointCloud(base), r, 2)
            big = build_cech(PointCloud(np.vstack([base, extra])), r, 2)
            if not betti_diff_bound_check(small, big, 1):
                failures.append(f"addition trial {trial}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
        _report(3, "nested Betti-difference bounds, 200 pairs", not failures,
                "\n".join(failures[:5]))

    def test_criterion_04_scaling_identity(self, scaling_reports):
        failures = [
            f"lam={rep.lam} theta={rep.theta} r={rep.r}: "
            f"delta {rep.delta:.4g} > {3.0 * rep.combined_stderr:.4g}"
            for rep in scaling_reports if not rep.passed
        ]
        _report(4, "intensity-radius scaling identity", not failures,
                "\n".join(failures))

    def test_criterion_05_pair_rate_closed_form(self, pair_rate):
        rec, seconds = pair_rate
        ok = abs(rec.mean - 0.5) <= 3.0 * rec.stderr and seconds < 60.0
        _report(5, "1-D pair-rate closed form 0.5", ok,
                f"mean {rec.mean:.6g} stderr {rec.stderr:.3g} in {seconds:.1f}s")

    @staticmethod
    def _convergence_ok(table, target):
        last = table.records[-1]
        gaps = table.gaps
        tol = 3.0 * math.hypot(last.stderr, target.stderr) + 0.1 * abs(target.value)
        notes = [f"final gap {gaps[-1]:.5g} vs tolerance {tol:.5g}"]
        ok = gaps[-1] <= tol
        base = table.records[1]  # the n = 400 baseline
        for i in (2, 3):
            slack = 3.0 * (base.stderr + table.records[i].stderr)
            if gaps[i] > gaps[1] + slack:
                ok = False
                notes.append(f"gap grew past n=400: {gaps[1]:.5g} -> {gaps[i]:.5g} "
                             f"at n={table.n_schedule[i]} (slack {slack:.5g})")
        return ok, "; ".join(notes)

    def test_criterion_06_uniform_convergence(self, uniform_run):
        table, target = uniform_run
        ok, detail = self._convergence_ok(table, target)
        _report(6, "uniform-density convergence to the limit", ok, detail)

    def test_criterion_07_two_level_convergence(self, twolevel_run):
        table, target = twolevel_run
        ok, detail = self._convergence_ok(table, target)
        _report(7, "two-level-density convergence via the curve integral",
                ok, detail)

    def test_criterion_08_poissonization_gap(self, gap_run):
        bounded = gap_run.scaled_bounded
        declining = gap_run.declines
        scaled = [f"{row.scaled:.4g}" for row in gap_run.rows]
        _report(8, "Poissonization gap decay", bounded and declining,
                f"scaled column {scaled}, bounded={bounded}, declines={declining}")

    def test_criterion_09_boundary_strips(self):
        report = boundary_strip_check(1.0, 1.0, 100.0, 4, 1, RngStream(46),
                                      reps=100, dim=2)
        _report(9, "boundary-strip inequality on every realization",
                report.passed, f"{report.violations} violations")

    def test_criterion_10_worker_determinism(self, scaling_reports, pair_rate,
                                             limit_curve, uniform_run,
                                             twolevel_run, gap_run,
                                             tmp_path_factory):
        first = csv_bundle(scaling_reports, pair_rate[0], limit_curve,
                           uniform_run[0], twolevel_run[0], gap_run)
        cache = tmp_path_factory.mktemp("curve-cache-rerun")
        curve2 = run_curve(cache, workers=2)
        second = csv_bundle(run_scaling(2), run_pair_rate(2)[0], curve2,
                            run_convergence(UNIFORM, 43, curve2, 2)[0],
                            run_convergence(TWO_LEVEL, 44, curve2, 2)[0],
                            run_gap(2))
        mismatched = [key for key in first
                      if first[key].encode() != second[key].encode()]
        _report(10, "byte-identical CSVs across worker counts", not mismatched,
                f"mismatched: {mismatched}")
