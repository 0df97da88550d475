"""Estimator-level checks at desk scale.

Statistical assertions run against analytically derived targets (vertex
rate = lambda, 1-D pair rate = lambda^2 r) or against an independently
seeded second estimate of the same quantity, always at 3 standard
errors with fixed seeds. Arithmetic (interpolation, integral, error
propagation) is checked exactly on synthetic curves.
"""

import json
import math
import multiprocessing

import numpy as np
import pytest

from betti_thermo import limits
from betti_thermo.limits import (
    CSV_HEADER,
    ConvergenceTable,
    CurveCoverageError,
    EstimateRecord,
    GapRow,
    GapTable,
    LimitCurve,
    LimitsError,
    PerturbReport,
    ScalingReport,
    StripReport,
    boundary_strip_check,
    build_limit_curve,
    convergence_table,
    curve_cache_path,
    estimate_betti_rate,
    estimate_binomial_expectation,
    estimate_simplex_rate,
    intensity_perturbation_check,
    load_or_build_curve,
    poissonization_gap,
    records_csv,
    scaling_check,
    thermodynamic_integral,
    worker_pool,
)
from betti_thermo.pointproc import DensityGrid, IntensityGrid, RngStream, Window


def unit_uniform(dim=2):
    return DensityGrid.uniform(Window.unit(dim))


def synthetic_curve(fn, s_grid, sigma=0.0, k=1, dim=2):
    values = tuple(float(fn(s)) for s in s_grid)
    stderrs = tuple(float(sigma) for _ in s_grid)
    return LimitCurve(k=k, dim=dim, L=100.0, reps=10, master_seed=0,
                      boundary_mode="torus", s_grid=tuple(map(float, s_grid)),
                      values=values, stderrs=stderrs)


class TestRateEstimators:
    def test_vertex_rate_is_lambda(self):
        rec = estimate_simplex_rate(2.0, 0.5, 100.0, 0, 100, RngStream(50), dim=2)
        assert abs(rec.mean - 2.0) < 3 * rec.stderr

    def test_zero_intensity_rates_vanish(self):
        rec = estimate_betti_rate(0.0, 1.0, 100.0, 1, 10, RngStream(51), dim=2)
        assert rec.mean == 0.0 and rec.stderr == 0.0
        rec = estimate_simplex_rate(0.0, 1.0, 100.0, 1, 10, RngStream(52), dim=2)
        assert rec.mean == 0.0 and rec.stderr == 0.0

    def test_one_dimensional_pair_rate_closed_form(self):
        # E S_1 / L = lambda^2 r on the torus (pair integral)
        rec = estimate_simplex_rate(1.0, 0.4, 100.0, 1, 150, RngStream(53),
                                    boundary_mode="torus", dim=1)
        assert abs(rec.mean - 0.4) < 3 * rec.stderr

    def test_sparse_radius_no_cycles(self):
        rec = estimate_betti_rate(1.0, 0.05, 100.0, 1, 30, RngStream(54), dim=2)
        assert rec.mean <= 3 * rec.stderr + 1e-12

    def test_cycle_rate_strictly_positive(self):
        rec = estimate_betti_rate(1.0, 1.0, 100.0, 1, 60, RngStream(55),
                                  boundary_mode="torus", dim=2)
        assert rec.mean > 5 * rec.stderr > 0

    def test_record_fields(self):
        rec = estimate_betti_rate(1.0, 1.0, 100.0, 1, 10, RngStream(56),
                                  boundary_mode="torus", dim=2)
        assert rec.quantity == "betti_rate"
        assert (rec.k_or_j, rec.lam, rec.r, rec.L_or_n) == (1, 1.0, 1.0, 100.0)
        assert (rec.reps, rec.master_seed, rec.boundary_mode) == (10, 56, "torus")

    def test_window_too_small_rejected(self):
        with pytest.raises(LimitsError):
            estimate_betti_rate(1.0, 2.0, 30.0, 1, 10, RngStream(57), dim=2)

    def test_k_range_enforced(self):
        with pytest.raises(LimitsError):
            estimate_betti_rate(1.0, 1.0, 100.0, 2, 10, RngStream(58), dim=2)
        with pytest.raises(LimitsError):
            estimate_betti_rate(1.0, 1.0, 100.0, 0, 10, RngStream(58), dim=2)

    def test_reps_minimum(self):
        with pytest.raises(LimitsError):
            estimate_betti_rate(1.0, 1.0, 100.0, 1, 1, RngStream(59), dim=2)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_before_sampling(self, monkeypatch, workers):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the worker count was checked")

        monkeypatch.setattr(limits, "sample_poisson_homogeneous", sample)
        with pytest.raises(LimitsError, match=f"workers must be at least 1, got {workers}$"):
            estimate_betti_rate(1.0, 1.0, 100.0, 1, 10, RngStream(59), dim=2,
                                workers=workers)

    def test_reproducible_and_worker_independent(self):
        a = estimate_betti_rate(1.0, 1.0, 80.0, 1, 12, RngStream(60),
                                boundary_mode="torus", dim=2)
        b = estimate_betti_rate(1.0, 1.0, 80.0, 1, 12, RngStream(60),
                                boundary_mode="torus", dim=2)
        c = estimate_betti_rate(1.0, 1.0, 80.0, 1, 12, RngStream(60),
                                boundary_mode="torus", dim=2, workers=2)
        assert a == b == c


class TestLimitCurve:
    def test_zero_point_is_exact(self):
        curve = build_limit_curve(1, [0.0, 0.8], 50.0, 10, RngStream(61), dim=2)
        assert curve.values[0] == 0.0 and curve.stderrs[0] == 0.0

    def test_grid_point_evaluation_returns_stored_value(self):
        curve = synthetic_curve(lambda s: s * s, [0.0, 0.5, 1.0], sigma=0.01)
        assert curve.value(0.5) == curve.values[1]
        assert curve.stderr(0.5) == curve.stderrs[1]

    def test_midpoint_interpolation(self):
        curve = synthetic_curve(lambda s: s * s, [0.0, 0.5, 1.0], sigma=0.02)
        assert curve.value(0.75) == pytest.approx((0.25 + 1.0) / 2)
        want = math.sqrt(2 * (0.5 * 0.02) ** 2)
        assert curve.stderr(0.75) == pytest.approx(want)

    def test_weights_sum_to_one(self):
        curve = synthetic_curve(lambda s: s, [0.0, 0.3, 0.7, 1.2])
        for s in (0.0, 0.1, 0.3, 0.65, 1.2):
            assert sum(w for _, w in curve.weights(s)) == pytest.approx(1.0)

    def test_coverage_error_names_range(self):
        curve = synthetic_curve(lambda s: s, [0.0, 1.0])
        with pytest.raises(CurveCoverageError, match=r"\[0.0, 1.0\]"):
            curve.value(1.3)

    def test_invalid_grid_rejected(self):
        with pytest.raises(LimitsError):
            synthetic_curve(lambda s: s, [0.0, 0.5, 0.5])

    def test_scaling_recovery_against_direct_estimate(self):
        # beta_hat_1(4, 0.5) = 4 * curve(1.0): compare the curve route
        # with an independent direct estimate
        curve = build_limit_curve(1, [0.0, 0.5, 1.0], 200.0, 80, RngStream(62),
                                  boundary_mode="torus", dim=2)
        via_curve = 4.0 * curve.value(1.0)
        se_curve = 4.0 * curve.stderr(1.0)
        direct = estimate_betti_rate(4.0, 0.5, 200.0, 1, 80, RngStream(63),
                                     boundary_mode="torus", dim=2)
        combined = math.sqrt(se_curve ** 2 + direct.stderr ** 2)
        assert abs(via_curve - direct.mean) < 3 * combined


class TestCurveCache:
    def test_build_then_load(self, tmp_path):
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(64),
                    boundary_mode="torus", dim=2)
        first = load_or_build_curve(tmp_path, **args)
        path = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(64), "torus")
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        second = load_or_build_curve(tmp_path, **args)
        assert second == first
        assert path.stat().st_mtime_ns == stamp

    def test_grid_mismatch_rebuilds(self, tmp_path):
        args = dict(k=1, L=50.0, reps=8, rng=RngStream(65), boundary_mode="torus", dim=2)
        load_or_build_curve(tmp_path, s_grid=[0.0, 0.6], **args)
        wider = load_or_build_curve(tmp_path, s_grid=[0.0, 0.6, 0.9], **args)
        assert wider.s_grid == (0.0, 0.6, 0.9)
        path = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(65), "torus")
        stored = LimitCurve.from_dict(json.loads(path.read_text()))
        assert stored == wider

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [],
        lambda doc: {**doc, "s_grid": 5},
        lambda doc: {key: v for key, v in doc.items() if key != "values"},
        lambda doc: {**doc, "stderrs": [0.0]},
        lambda doc: {**doc, "provenance": [5]},
        lambda doc: {**doc, "s_grid": [0.0, None]},
    ], ids=["list", "scalar_grid", "missing_key", "short_column", "bad_provenance",
            "null_grid_point"])
    def test_malformed_entry_rebuilds(self, tmp_path, corrupt):
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(65),
                    boundary_mode="torus", dim=2)
        built = load_or_build_curve(tmp_path, **args)
        path = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(65), "torus")
        path.write_text(json.dumps(corrupt(built.to_dict())))
        assert load_or_build_curve(tmp_path, **args) == built
        assert LimitCurve.from_dict(json.loads(path.read_text())) == built

    def test_other_numpy_version_misses(self, tmp_path, monkeypatch):
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(64),
                    boundary_mode="torus", dim=2)
        load_or_build_curve(tmp_path, **args)
        ours = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(64), "torus")
        monkeypatch.setattr(np, "__version__", "0.0.0")
        theirs = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(64), "torus")
        assert theirs != ours and not theirs.exists()
        load_or_build_curve(tmp_path, **args)
        assert sorted(tmp_path.iterdir()) == sorted([ours, theirs])

    def test_distinct_stream_paths_get_distinct_files(self, tmp_path):
        a = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(66, (0,)), "torus")
        b = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(66, (1,)), "torus")
        assert a != b


class TestThermodynamicIntegral:
    def test_uniform_density_reduces_to_curve_value(self):
        curve = synthetic_curve(lambda s: 2.0 * s, np.arange(14) * 0.1, sigma=0.005)
        density = unit_uniform()
        est = thermodynamic_integral(density, 0.9, 1, curve)
        assert est.value == pytest.approx(curve.value(0.9), rel=1e-12)

    def test_two_level_density_hand_riemann_sum(self):
        curve = synthetic_curve(lambda s: 2.0 * s, np.arange(14) * 0.1)
        density = DensityGrid(Window.unit(2), (2, 1), np.array([1.5, 0.5]))
        est = thermodynamic_integral(density, 1.0, 1, curve)
        want = 0.5 * 1.5 * 2.0 * math.sqrt(1.5) + 0.5 * 0.5 * 2.0 * math.sqrt(0.5)
        assert est.value == pytest.approx(want, rel=1e-9)

    def test_error_propagation_at_grid_point(self):
        sigma = 0.03
        curve = synthetic_curve(lambda s: s, [0.0, 0.5, 1.0], sigma=sigma)
        est = thermodynamic_integral(unit_uniform(), 0.5, 1, curve)
        assert est.stderr == pytest.approx(sigma)

    def test_coverage_failure_propagates(self):
        curve = synthetic_curve(lambda s: s, [0.0, 1.0])
        density = DensityGrid(Window.unit(2), (2, 1), np.array([1.8, 0.2]))
        with pytest.raises(CurveCoverageError):
            thermodynamic_integral(density, 1.0, 1, curve)

    def test_dimension_mismatch_rejected(self):
        curve = synthetic_curve(lambda s: s, [0.0, 1.0], dim=3)
        with pytest.raises(LimitsError):
            thermodynamic_integral(unit_uniform(), 0.5, 1, curve)


class TestScalingCheck:
    def test_theta_one_passes_by_construction(self):
        report = scaling_check(1.0, 1.0, 1.0, 60.0, 1, 10, RngStream(67), dim=2)
        assert report.delta == 0.0
        assert report.passed

    def test_modest_theta_two(self):
        report = scaling_check(1.0, 2.0, 1.0, 150.0, 1, 60, RngStream(68), dim=2)
        assert report.passed
        assert report.rhs.lam == 2.0
        assert report.rhs.r == pytest.approx(1.0 / math.sqrt(2.0))

    def test_invalid_theta(self):
        with pytest.raises(LimitsError):
            scaling_check(1.0, 0.0, 1.0, 100.0, 1, 10, RngStream(69), dim=2)

    def test_report_serializes(self):
        report = scaling_check(1.0, 1.0, 1.0, 60.0, 1, 10, RngStream(67), dim=2)
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["lhs"] == doc["rhs"]
        assert doc["lhs"]["quantity"] == "betti_rate"
        json.dumps(doc)  # plain types only


class TestExpectations:
    def test_single_point_has_no_cycles(self):
        rec = estimate_binomial_expectation(unit_uniform(), 1, 1.0, 1, 5, RngStream(70))
        assert rec.mean == 0.0 and rec.stderr == 0.0

    def test_record_tags(self):
        rec = estimate_binomial_expectation(unit_uniform(), 30, 1.0, 1, 5, RngStream(71))
        assert rec.quantity == "expectation_per_n"
        assert rec.L_or_n == 30
        assert rec.lam is None

    def test_worker_independence(self):
        a = estimate_binomial_expectation(unit_uniform(), 100, 1.0, 1, 10, RngStream(74))
        b = estimate_binomial_expectation(unit_uniform(), 100, 1.0, 1, 10, RngStream(74), workers=2)
        assert a == b


class TestConvergenceTable:
    def test_rows_and_gaps(self):
        table = convergence_table(unit_uniform(), [50, 100], 1.0, 1, 10,
                                  RngStream(75), target=0.03, target_stderr=0.001)
        assert table.n_schedule == (50, 100)
        assert len(table.records) == 2
        for rec, gap, n in zip(table.records, table.gaps, table.n_schedule):
            assert rec.L_or_n == n
            assert gap == pytest.approx(abs(rec.mean - 0.03))
        rows = table.plot_rows()
        assert [int(x) for x, _ in rows] == [50, 100]

    def test_schedule_must_increase(self):
        with pytest.raises(LimitsError):
            convergence_table(unit_uniform(), [100, 50], 1.0, 1, 10,
                              RngStream(76), target=0.0, target_stderr=0.0)


class TestPoissonizationGap:
    def test_table_shape_and_scaled_column(self):
        table = poissonization_gap(unit_uniform(), [50, 100], 1.0, 1, 30, RngStream(78))
        assert [row.n for row in table.rows] == [50, 100]
        for row in table.rows:
            assert row.gap >= 0.0
            assert row.scaled == pytest.approx(row.gap * math.sqrt(row.n))
        recs = table.records()
        assert all(rec.quantity == "gap" for rec in recs)

    def test_coupling_shares_prefix(self):
        # when the Poisson count equals n exactly the coupled clouds agree,
        # so the per-replicate delta must be zero for those replicates;
        # statistically the gap is far below the uncoupled spread
        table = poissonization_gap(unit_uniform(), [200], 1.0, 1, 40, RngStream(79))
        row = table.rows[0]
        binom = estimate_binomial_expectation(unit_uniform(), 200, 1.0, 1, 40, RngStream(80))
        assert row.gap_stderr < binom.stderr

    def test_worker_independence(self):
        a = poissonization_gap(unit_uniform(), [60], 1.0, 1, 12, RngStream(81))
        b = poissonization_gap(unit_uniform(), [60], 1.0, 1, 12, RngStream(81), workers=2)
        assert a.to_dict() == b.to_dict()

    @staticmethod
    def synthetic_table(gaps, ns, stderr=1e-9):
        rows = tuple(
            GapRow(n=n, binomial_mean=0.0, poissonized_mean=0.0, gap=g,
                   gap_stderr=stderr)
            for g, n in zip(gaps, ns)
        )
        return GapTable(rows=rows, k=1, r=1.0, reps=2, master_seed=0)

    def test_scaled_bounded_verdicts(self):
        # gap ~ c/sqrt(n) keeps the scaled column flat
        flat = self.synthetic_table([0.1, 0.05], [100, 400])
        assert flat.scaled_bounded()
        # a gap that grows with n blows the scaled column past doubling
        growing = self.synthetic_table([0.01, 0.05], [100, 400])
        assert not growing.scaled_bounded()

    def test_declines_verdicts(self):
        assert self.synthetic_table([0.1, 0.05], [100, 400]).declines()
        assert not self.synthetic_table([0.01, 0.05], [100, 400]).declines()
        # noise slack: a tiny rise within 3 combined stderr still passes
        noisy = self.synthetic_table([0.010, 0.011], [100, 400], stderr=0.01)
        assert noisy.declines()


class TestBoundaryStrips:
    def test_single_box_trivial_equality(self):
        report = boundary_strip_check(1.0, 1.0, 64.0, 1, 1, RngStream(82), reps=5, dim=2)
        assert report.holds_all
        assert set(report.diffs) == {0}
        assert set(report.bounds) == {0}

    def test_four_boxes_inequality_holds_every_time(self):
        report = boundary_strip_check(1.0, 0.8, 64.0, 4, 1, RngStream(83), reps=25, dim=2)
        assert report.holds_all
        assert report.violations == 0
        assert report.max_slack >= 0

    def test_partition_infeasible(self):
        with pytest.raises(LimitsError):
            boundary_strip_check(1.0, 0.8, 64.0, 3, 1, RngStream(84), reps=5, dim=2)

    def test_box_side_must_exceed_two_r(self):
        with pytest.raises(LimitsError):
            boundary_strip_check(1.0, 2.05, 64.0, 4, 1, RngStream(85), reps=5, dim=2)


class TestIntensityPerturbation:
    def base_intensity(self, scale=1.0):
        box = Window(np.zeros(2), np.array([6.0, 6.0]))
        return IntensityGrid(box, (2, 2), np.full(4, scale))

    def test_identical_intensities_zero_gap(self):
        f = self.base_intensity()
        report = intensity_perturbation_check(f, f, 1.0, 1, 10, RngStream(86))
        assert report.gap == 0.0
        assert report.ratio == 0.0
        assert report.nested_bound_ok

    def test_one_sided_perturbation_nested(self):
        f = self.base_intensity()
        g = IntensityGrid(f.box, f.cells_per_axis, f.values + np.array([0.3, 0.0, 0.0, 0.0]))
        report = intensity_perturbation_check(f, g, 1.0, 1, 30, RngStream(87))
        assert report.nested_bound_ok
        assert report.l1_distance == pytest.approx(0.3 * 9.0)

    def test_gap_shrinks_with_the_perturbation(self):
        f = self.base_intensity()
        gaps = {}
        ses = {}
        for eps in (0.4, 0.1):
            g = IntensityGrid(f.box, f.cells_per_axis,
                              f.values + np.array([eps, 0.0, 0.0, 0.0]))
            report = intensity_perturbation_check(f, g, 1.0, 1, 60, RngStream(88))
            gaps[eps] = report.gap
            ses[eps] = report.gap_stderr
        slack = 3 * math.sqrt(ses[0.4] ** 2 + ses[0.1] ** 2)
        assert gaps[0.1] <= gaps[0.4] + slack

    def test_mismatched_grids_rejected(self):
        f = self.base_intensity()
        other = IntensityGrid(Window(np.zeros(2), np.array([5.0, 5.0])), (2, 2), np.ones(4))
        with pytest.raises(Exception):
            intensity_perturbation_check(f, other, 1.0, 1, 5, RngStream(89))

    def test_worker_independence(self):
        f = self.base_intensity()
        g = IntensityGrid(f.box, f.cells_per_axis, f.values * 1.2)
        a = intensity_perturbation_check(f, g, 1.0, 1, 8, RngStream(90))
        b = intensity_perturbation_check(f, g, 1.0, 1, 8, RngStream(90), workers=2)
        assert a == b


class TestWorkerPool:
    """One process pool per experiment: forked at the first replicate map
    with workers > 1, reused by the later ones, gone when the scope ends."""

    def test_curve_forks_one_pool(self, pool_starts):
        a = build_limit_curve(1, [0.0, 0.4, 0.8, 1.2], 16.0, 3, RngStream(64))
        b = build_limit_curve(1, [0.0, 0.4, 0.8, 1.2], 16.0, 3, RngStream(64),
                              workers=2)
        assert pool_starts == [2]
        assert a == b
        assert not multiprocessing.active_children()

    def test_experiments_fork_one_pool_each(self, pool_starts):
        density = unit_uniform()
        convergence_table(density, [20, 40, 60], 0.6, 1, 3, RngStream(65),
                          0.0, 0.0, workers=2)
        poissonization_gap(density, [20, 40], 0.6, 1, 3, RngStream(66), workers=2)
        scaling_check(1.0, 2.0, 1.0, 64.0, 1, 3, RngStream(67), workers=2)
        assert pool_starts == [2, 2, 2]
        assert not multiprocessing.active_children()

    def test_scope_shares_one_pool_across_calls(self, pool_starts):
        with worker_pool() as outer:
            with worker_pool() as inner:
                assert inner is outer
            estimate_simplex_rate(1.0, 0.5, 16.0, 1, 4, RngStream(68), workers=2)
            estimate_betti_rate(1.0, 1.0, 16.0, 1, 4, RngStream(68), workers=2)
            assert pool_starts == [2]
            assert len(multiprocessing.active_children()) == 2
            # another worker count replaces the pool
            estimate_simplex_rate(1.0, 0.5, 16.0, 1, 4, RngStream(68), workers=3)
            assert pool_starts == [2, 3]
            assert len(multiprocessing.active_children()) == 3
        assert not multiprocessing.active_children()

    def test_serial_forks_nothing(self, pool_starts):
        build_limit_curve(1, [0.0, 0.5, 1.0], 16.0, 3, RngStream(69))
        with worker_pool():
            estimate_betti_rate(1.0, 1.0, 16.0, 1, 3, RngStream(69))
        assert pool_starts == []

    def test_later_scope_forks_current_code(self, monkeypatch):
        # a pool kept across scopes would still run the replicate code of
        # the moment its workers were forked
        rate = estimate_simplex_rate(1.0, 0.5, 16.0, 0, 4, RngStream(70), workers=2)
        assert rate.mean != 7.0
        monkeypatch.setitem(limits._REPLICATE_KINDS, "simplex_rate",
                            lambda task, i: 7.0)
        rate = estimate_simplex_rate(1.0, 0.5, 16.0, 0, 4, RngStream(70), workers=2)
        assert rate.mean == 7.0

    def test_replicate_error_shuts_pool_down(self, monkeypatch):
        def fail(task, i):
            raise LimitsError(f"replicate {i} failed")

        monkeypatch.setitem(limits._REPLICATE_KINDS, "betti_rate", fail)
        with pytest.raises(LimitsError, match="replicate 0 failed"):
            build_limit_curve(1, [0.5, 1.0], 16.0, 8, RngStream(71), workers=2)
        assert not multiprocessing.active_children()


def _record(quantity="betti_rate", lam=1.0):
    return EstimateRecord(quantity, 1, lam, 1.0, 400.0, 0.03, 0.001, 10, 5, "torus")


RECORD_KEYS = {"quantity", "k", "lambda", "r", "L_or_n", "mean", "stderr", "reps",
               "seed", "boundary_mode"}


class TestJsonSchema:
    """The exact keys of every report's JSON form; the artifacts depend on them."""

    @pytest.mark.parametrize("report, keys, nested", [
        (_record(), RECORD_KEYS, {}),
        (LimitCurve(k=1, dim=2, L=16.0, reps=2, master_seed=3, boundary_mode="torus",
                    s_grid=(0.0, 0.5), values=(0.0, 0.1), stderrs=(0.0, 0.01),
                    provenance=(_record(),)),
         {"k", "dim", "L", "reps", "seed", "boundary_mode", "s_grid", "values",
          "stderrs", "provenance"},
         {"provenance": RECORD_KEYS}),
        (ScalingReport(lam=1.0, theta=2.0, r=1.0, lhs=_record(), rhs=_record(lam=2.0),
                       rhs_scaled_mean=0.015, rhs_scaled_stderr=0.0005, delta=0.015,
                       combined_stderr=0.001, passed=False),
         {"lambda", "theta", "r", "lhs", "rhs", "rhs_scaled_mean", "rhs_scaled_stderr",
          "delta", "combined_stderr", "passed"},
         {"lhs": RECORD_KEYS, "rhs": RECORD_KEYS}),
        (ConvergenceTable(n_schedule=(100,), records=(_record("expectation_per_n", None),),
                          target=0.02, target_stderr=0.001),
         {"n_schedule", "rows", "target", "target_stderr", "gaps"},
         {"rows": RECORD_KEYS}),
        (GapTable(rows=(GapRow(n=100, binomial_mean=0.03, poissonized_mean=0.029,
                               gap=0.001, gap_stderr=0.0005),),
                  k=1, r=1.0, reps=10, master_seed=5),
         {"rows", "k", "r", "reps", "seed"},
         {"rows": {"n", "binomial_mean", "poissonized_mean", "gap", "gap_stderr",
                   "scaled", "scaled_stderr"}}),
        (StripReport(lam=1.0, r=1.0, L=64.0, boxes=4, k=1, reps=2, master_seed=5,
                     diffs=(0, 1), bounds=(2, 3)),
         {"lambda", "r", "L", "boxes", "k", "reps", "seed", "holds_all", "violations",
          "max_slack", "diffs", "bounds"},
         {}),
        (PerturbReport(r=1.0, k=1, reps=10, master_seed=5, gap=0.5, gap_stderr=0.1,
                       l1_distance=2.5, ratio=0.2, nested_bound_ok=True),
         {"r", "k", "reps", "seed", "gap", "gap_stderr", "l1_distance", "ratio",
          "nested_bound_ok"},
         {}),
    ], ids=["EstimateRecord", "LimitCurve", "ScalingReport", "ConvergenceTable",
            "GapTable", "StripReport", "PerturbReport"])
    def test_keys(self, report, keys, nested):
        doc = json.loads(json.dumps(report.to_dict()))  # plain types only
        assert set(doc) == keys
        for key, inner in nested.items():
            items = doc[key] if isinstance(doc[key], list) else [doc[key]]
            assert items and all(set(item) == inner for item in items)

    def test_derived_values(self):
        strip = StripReport(lam=1.0, r=1.0, L=64.0, boxes=4, k=1, reps=2,
                            master_seed=5, diffs=(0, 4), bounds=(2, 3)).to_dict()
        assert (strip["holds_all"], strip["violations"], strip["max_slack"]) == (False, 1, 2)
        table = ConvergenceTable(n_schedule=(100,), records=(_record(),),
                                 target=0.02, target_stderr=0.0).to_dict()
        assert table["gaps"] == [pytest.approx(0.01)]
        assert table["rows"][0]["k"] == 1 and table["rows"][0]["seed"] == 5
        row = GapRow(n=100, binomial_mean=0.0, poissonized_mean=0.0, gap=0.001,
                     gap_stderr=0.0005).to_dict()
        assert (row["scaled"], row["scaled_stderr"]) == (pytest.approx(0.01),
                                                         pytest.approx(0.005))

    def test_curve_round_trip_with_provenance(self):
        curve = build_limit_curve(1, [0.0, 0.6], 30.0, 3, RngStream(92), dim=2)
        assert len(curve.provenance) == 2
        doc = json.loads(json.dumps(curve.to_dict()))
        assert LimitCurve.from_dict(doc) == curve


class TestCsv:
    def test_header_and_rows(self):
        rec = EstimateRecord("betti_rate", 1, 1.0, 1.0, 400.0, 0.03125, 0.0009,
                             100, 42, "torus")
        text = records_csv([rec])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "betti_rate,1,1.0,1.0,400.0,0.03125,0.0009,100,42,torus"

    def test_nan_lambda_rendering(self):
        rec = EstimateRecord("gap", 1, float("nan"), 1.0, 200.0, 0.001, 0.0005,
                             50, 7, "plain")
        assert ",nan," in rec.csv_row()

    def test_round_trip_stability(self):
        rec = estimate_betti_rate(1.0, 1.0, 80.0, 1, 10, RngStream(91),
                                  boundary_mode="torus", dim=2)
        assert records_csv([rec]) == records_csv([rec])
