"""Estimator-level checks at desk scale.

Statistical assertions run against analytically derived targets (vertex
rate = lambda, 1-D pair rate = lambda^2 r) or against an independently
seeded second estimate of the same quantity, always at 3 standard
errors with fixed seeds. Arithmetic (interpolation, integral, error
propagation) is checked exactly on synthetic curves.
"""

import functools
import json
import math
import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from betti_thermo import cech, homology, limits
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
)
from betti_thermo.cech import SimplicialComplex, build_cech
from betti_thermo.homology import betti_numbers
from betti_thermo.pointproc import (
    DensityError,
    DensityGrid,
    IntensityGrid,
    PointCloud,
    RngStream,
    SamplerError,
    Window,
    sample_poisson_homogeneous,
)


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

    # per-volume rates on the d=2 torus: edges lam^2 pi r^2 / 2, and
    # triangles (lam^3 / 6) times the mean area of the lens of two points'
    # r/2-balls grown by r/2 (Steiner's formula), 3 pi^2 lam^3 r^4 / 32
    @pytest.mark.parametrize("lam, r, seed", [(1.0, 1.0, 93), (2.0, 0.7, 94)])
    @pytest.mark.parametrize("j, closed_form", [
        (1, lambda lam, r: lam ** 2 * math.pi * r ** 2 / 2),
        (2, lambda lam, r: 3 * math.pi ** 2 * lam ** 3 * r ** 4 / 32),
    ])
    def test_planar_simplex_rate_closed_form(self, lam, r, seed, j, closed_form):
        rec = estimate_simplex_rate(lam, r, 400.0, j, 100, RngStream(seed),
                                    boundary_mode="torus", dim=2)
        assert abs(rec.mean - closed_form(lam, r)) < 4 * rec.stderr

    # per-volume rates on the d=3 torus: edges 2 pi lam^2 r^3 / 3, and
    # triangles lam^3 rho^6 I / 6 with rho = r/2. A third point completes a
    # Cech triangle with two at distance t*rho when it lies in K + B_rho, K
    # the lens of their rho-balls; Steiner's formula gives that volume from
    # K's volume V, surface S and mean width b, and I = 465.87432...
    # integrates it over the second point
    @staticmethod
    def spatial_triangle_integral() -> float:
        def steiner(t):
            c = t / 2
            a = np.sqrt(1 - c * c)
            phi = np.arccos(c)
            V = math.pi * (4 + t) * (2 - t) ** 2 / 12
            S = 4 * math.pi * (1 - c)
            b = 2 * (1 - c) - c * (1 - c * c) + 2 * a * (math.pi / 4 - phi / 2 + a * c / 2)
            return V + S + 2 * math.pi * b + 4 * math.pi / 3

        # Gauss-Legendre in u with t = 2 sin u, smooth at the end t = 2
        x, w = np.polynomial.legendre.leggauss(64)
        u = (x + 1) * math.pi / 4
        t = 2 * np.sin(u)
        dt_du = 2 * np.cos(u)
        return float(math.pi / 4 * np.sum(w * 4 * math.pi * t * t * steiner(t) * dt_du))

    @pytest.mark.parametrize("lam, r, seed", [(1.0, 1.2, 95), (2.0, 0.9, 96)])
    @pytest.mark.parametrize("j", [1, 2])
    def test_spatial_simplex_rate_closed_form(self, lam, r, seed, j):
        if j == 1:
            closed_form = 2 * math.pi * lam ** 2 * r ** 3 / 3
        else:
            closed_form = lam ** 3 * (r / 2) ** 6 * self.spatial_triangle_integral() / 6
        rec = estimate_simplex_rate(lam, r, 125.0, j, 200, RngStream(seed),
                                    boundary_mode="torus", dim=3)
        assert abs(rec.mean - closed_form) < 4 * rec.stderr

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
        with pytest.raises(LimitsError, match=f"workers must lie in 1..256, got {workers}$"):
            estimate_betti_rate(1.0, 1.0, 100.0, 1, 10, RngStream(59), dim=2,
                                workers=workers)

    @pytest.mark.parametrize("estimator", [estimate_betti_rate, estimate_simplex_rate])
    def test_unknown_boundary_mode_rejected(self, estimator):
        with pytest.raises(LimitsError, match="got 'torsu'$"):
            estimator(1.0, 1.0, 100.0, 1, 2, RngStream(1), boundary_mode="torsu")

    def test_reproducible_and_worker_independent(self):
        a = estimate_betti_rate(1.0, 1.0, 80.0, 1, 12, RngStream(60),
                                boundary_mode="torus", dim=2)
        b = estimate_betti_rate(1.0, 1.0, 80.0, 1, 12, RngStream(60),
                                boundary_mode="torus", dim=2)
        c = estimate_betti_rate(1.0, 1.0, 80.0, 1, 12, RngStream(60),
                                boundary_mode="torus", dim=2, workers=2)
        assert a == b == c


class TestEulerCharacteristic:
    """E[beta_0 - beta_1 (+ beta_2)] / L of the Cech complex on the torus
    against the Euler-characteristic density of the Boolean model of balls
    of radius rho = r/2, whose union has the complex's homotopy type (the
    nerve theorem): Miles' formula in d=2, Mecke & Wagner's in d=3
    (Schneider & Weil, Stochastic and Integral Geometry, 2008, 9.1). The
    formulas share no code with the package and check the build, the
    boundary matrices and the GF(2) ranks together. They hold in R^d; a
    union that wraps the torus adds homology they do not count, which is
    negligible at these sizes."""

    @staticmethod
    def density(d, lam, r):
        rho = r / 2
        if d == 2:
            a = lam * math.pi * rho ** 2
            return lam * math.exp(-a) * (1 - a)
        volume, surface, mean_curvature = (4 * math.pi * rho ** 3 / 3, 4 * math.pi * rho ** 2,
                                           4 * math.pi * rho)
        return math.exp(-lam * volume) * (
            lam - lam ** 2 * mean_curvature * surface / (4 * math.pi)
            + math.pi * lam ** 3 * surface ** 3 / 384)

    def z_score(self, d, lam, r, L, reps, rng):
        """The replicates' mean Euler characteristic per volume, in
        estimated standard errors from the density."""
        chis = []
        for i in range(reps):
            cloud = sample_poisson_homogeneous(lam, Window.centered(L, d), rng.substream(i))
            cx = build_cech(cloud, r, d, period=L ** (1.0 / d))
            chis.append(sum((-1) ** k * b for k, b in enumerate(betti_numbers(cx, d - 1))) / L)
        mean, stderr = limits._mean_stderr(chis)
        return (mean - self.density(d, lam, r)) / stderr

    @pytest.mark.parametrize("d, lam, r, L, seed", [
        (2, 1.0, 1.0, 400.0, 121), (2, 2.0, 1.2, 400.0, 122),
        (3, 1.0, 1.2, 125.0, 123), (3, 2.0, 1.0, 125.0, 124),
    ])
    def test_matches_the_boolean_model(self, d, lam, r, L, seed):
        assert abs(self.z_score(d, lam, r, L, 200, RngStream(seed))) < 4

    def test_standard_errors_are_calibrated(self):
        # 40 independent z-scores: their sum of squares is chi^2 with 40
        # degrees of freedom, inside 17.9-73.4 with 99.8% probability, if
        # the stderr is right and the substreams are independent
        squares = sum(self.z_score(2, 1.0, 1.0, 100.0, 50, RngStream(seed)) ** 2
                      for seed in range(300, 340))
        assert 17.9 < squares < 73.4


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

    def test_provenance_is_each_point_estimated_directly(self):
        # the derived records against an independent path to each estimate
        rng = RngStream(66)
        grid = (0.0, 0.5, 0.9)
        curve = build_limit_curve(1, grid, 40.0, 4, rng, boundary_mode="torus", dim=2)
        assert curve.provenance[0] == EstimateRecord("betti_rate", 1, 1.0, 0.0, 40.0, 0.0,
                                                     0.0, 4, 66, "torus")
        for i, s in enumerate(grid[1:], start=1):
            assert curve.provenance[i] == estimate_betti_rate(
                1.0, s, 40.0, 1, 4, rng.substream(i), boundary_mode="torus", dim=2)

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
        # provenance is derived: from_dict ignores it, so the cached curve is served
        lambda doc: {**doc, "provenance": [5]},
        lambda doc: {**doc, "s_grid": [0.0, None]},
        lambda doc: {**doc, "values": [None] * len(doc["values"])},
        lambda doc: {**doc, "stderrs": [str(v) for v in doc["stderrs"]]},
    ], ids=["list", "scalar_grid", "missing_key", "short_column", "bad_provenance",
            "null_grid_point", "null_values", "string_stderrs"])
    def test_malformed_entry_rebuilds(self, tmp_path, corrupt):
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(65),
                    boundary_mode="torus", dim=2)
        built = load_or_build_curve(tmp_path, **args)
        path = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(65), "torus")
        path.write_text(json.dumps(corrupt(built.to_dict())))
        assert load_or_build_curve(tmp_path, **args) == built
        assert LimitCurve.from_dict(json.loads(path.read_text())) == built

    @staticmethod
    def served_after_edit(tmp_path, edit, dim=2):
        """The curve served after the cached file of a k=1 request in d=dim
        is edited, the file as first written and as it is afterwards."""
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(68),
                    boundary_mode="torus", dim=dim)
        built = load_or_build_curve(tmp_path, **args)
        path = curve_cache_path(tmp_path, dim, 1, 50.0, 8, RngStream(68), "torus")
        written = path.read_bytes()
        path.write_text(json.dumps({**built.to_dict(), **edit}))
        return built, load_or_build_curve(tmp_path, **args), written, path.read_bytes()

    # each edit leaves a valid curve that one key field alone tells apart;
    # k = 2 is a valid degree only in d = 3
    @pytest.mark.parametrize("dim, edit", [
        (3, {"k": 2}),
        (2, {"dim": 3}),
        (2, {"reps": 9}),
        (2, {"L": 60.0}),
        (2, {"seed": 7}),
        (2, {"boundary_mode": "plain"}),
        (2, {"s_grid": [0.0, 0.7]}),
    ], ids=["k", "dim", "reps", "L", "seed", "boundary_mode", "s_grid"])
    def test_file_disagreeing_with_its_key_rebuilds(self, tmp_path, dim, edit):
        # a file whose fields disagree with the request it is named for is
        # rebuilt and overwritten, not served
        built, served, written, rewritten = self.served_after_edit(tmp_path, edit, dim)
        assert LimitCurve.from_dict({**built.to_dict(), **edit}) != built
        assert served == built
        assert rewritten == written

    @pytest.mark.parametrize("edit", [{"k": True}, {"reps": 8.0}],
                             ids=["k-true", "reps-float"])
    def test_file_with_wrong_field_kinds_rebuilds(self, tmp_path, edit):
        # True == 1 and 8.0 == 8, so only the kind check tells these files
        # apart from the request; the rebuilt file says 1 and 8 again
        built, served, written, rewritten = self.served_after_edit(tmp_path, edit)
        with pytest.raises(LimitsError, match=r" must be an integer, got (True|8\.0)$"):
            LimitCurve.from_dict({**built.to_dict(), **edit})
        assert served == built
        assert (type(served.k), type(served.reps)) == (int, int)
        assert rewritten == written

    @pytest.mark.parametrize("edit", [{"L": 50}, {"seed": 68.0}],
                             ids=["L-int", "seed-float"])
    def test_file_with_its_key_in_another_kind_rebuilds(self, tmp_path, edit):
        # 50 == 50.0 and 68.0 == 68, and both are valid curve fields, but a
        # served curve would write them back as 50 and 68.0
        built, served, written, rewritten = self.served_after_edit(tmp_path, edit)
        assert LimitCurve.from_dict({**built.to_dict(), **edit}) == built
        assert (type(served.L), type(served.master_seed)) == (float, int)
        assert rewritten == written

    def test_provenance_rebuilt_from_the_values(self, tmp_path):
        # a cached provenance that contradicts the values is not served
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(67),
                    boundary_mode="torus", dim=2)
        built = load_or_build_curve(tmp_path, **args)
        path = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(67), "torus")
        doc = json.loads(path.read_text())
        doc["provenance"][1]["mean"] = 123.0
        path.write_text(json.dumps(doc))
        served = load_or_build_curve(tmp_path, **args)
        assert served == built and served.provenance == built.provenance
        assert served.provenance[1].mean == served.values[1] != 123.0

    def test_unknown_boundary_mode_rejected_on_cache_hit(self, tmp_path):
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(64), dim=2)
        built = load_or_build_curve(tmp_path, boundary_mode="torus", **args)
        path = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(64), "torsu")
        path.write_text(json.dumps(built.to_dict()))
        with pytest.raises(LimitsError, match="got 'torsu'$"):
            load_or_build_curve(tmp_path, boundary_mode="torsu", **args)

    def test_other_numpy_version_misses(self, tmp_path, monkeypatch):
        # so does a curve of another complex builder version
        args = dict(k=1, s_grid=[0.0, 0.6], L=50.0, reps=8, rng=RngStream(64),
                    boundary_mode="torus", dim=2)
        load_or_build_curve(tmp_path, **args)
        paths = [curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(64), "torus")]
        for owner, name, value in [(np, "__version__", "0.0.0"),
                                   (limits, "ALGORITHM_VERSION", cech.ALGORITHM_VERSION + 1)]:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, value)
                theirs = curve_cache_path(tmp_path, 2, 1, 50.0, 8, RngStream(64), "torus")
                assert theirs not in paths and not theirs.exists()
                load_or_build_curve(tmp_path, **args)
            paths.append(theirs)
        assert sorted(tmp_path.iterdir()) == sorted(paths)

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

    def test_degree_mismatch_rejected(self):
        curve = synthetic_curve(lambda s: s, [0.0, 1.0], k=2, dim=3)
        with pytest.raises(LimitsError, match="curve tabulates k=2, requested k=1$"):
            thermodynamic_integral(unit_uniform(), 0.5, 1, curve)

    def test_zero_density_cell_skipped(self):
        # the empty cell needs the curve at s = 0, which this grid does not cover
        curve = synthetic_curve(lambda s: 2.0 * s, [0.5, 1.0, 2.0])
        density = DensityGrid(Window.unit(2), (2, 1), np.array([2.0, 0.0]))
        est = thermodynamic_integral(density, 1.0, 1, curve)
        assert est.value == pytest.approx(0.5 * 2.0 * 2.0 * math.sqrt(2.0), rel=1e-12)


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

    @staticmethod
    def synthetic_table(means, stderrs=(0.375,) * 3):
        schedule = (100, 200, 400)[:len(means)]
        records = tuple(EstimateRecord("expectation_per_n", 1, None, 1.0, n, mean, se,
                                       10, 5, "plain")
                        for n, mean, se in zip(schedule, means, stderrs))
        return ConvergenceTable(n_schedule=schedule, records=records, target=10.0,
                                target_stderr=0.5)

    def test_verdict_at_the_tolerance(self):
        # 3 * hypot(0.375, 0.5) + 0.1 * 10 = 3 * 0.625 + 1 = 2.875, exact in floats
        for mean in (12.875, 7.125):
            at = self.synthetic_table([mean])
            assert (at.gaps[-1], at.tolerance, at.passed) == (2.875, 2.875, True)
            past = self.synthetic_table([math.nextafter(mean, mean + (mean - 10.0))])
            assert past.gaps[-1] > past.tolerance == 2.875
            assert not past.passed
            assert past.to_dict()["passed"] is False

    def test_verdict_reads_the_last_estimate(self):
        # an earlier gap past the tolerance does not count, and the last
        # stderr alone sets it: 3 * hypot(0, 0.5) + 1 = 2.5
        assert self.synthetic_table([20.0, 12.875]).passed
        tighter = self.synthetic_table([10.0, 12.875], stderrs=[0.375, 0.0])
        assert tighter.tolerance == 2.5 and not tighter.passed

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
        assert flat.scaled_bounded
        # a gap that grows with n blows the scaled column past doubling
        growing = self.synthetic_table([0.01, 0.05], [100, 400])
        assert not growing.scaled_bounded

    def test_declines_verdicts(self):
        assert self.synthetic_table([0.1, 0.05], [100, 400]).declines
        assert not self.synthetic_table([0.01, 0.05], [100, 400]).declines
        # noise slack: a tiny rise within 3 combined stderr still passes
        noisy = self.synthetic_table([0.010, 0.011], [100, 400], stderr=0.01)
        assert noisy.declines

    def test_verdict_at_the_bounds(self):
        # equal gaps at n = 100 and 400 sit on both bounds at once: the
        # scaled column exactly doubles and the raw gap does not fall
        at = self.synthetic_table([0.125, 0.125], [100, 400], stderr=0.0)
        assert (at.scaled_bounded, at.declines, at.passed) == (True, True, True)
        assert at.to_dict()["passed"] is True
        past = self.synthetic_table([0.125, math.nextafter(0.125, 1.0)], [100, 400],
                                    stderr=0.0)
        assert (past.scaled_bounded, past.declines, past.passed) == (False, False, False)
        assert past.to_dict()["passed"] is False

    def test_verdict_needs_both_rules(self):
        # falling slower than n^(-1/2), and rising within the doubling
        slow = self.synthetic_table([0.1, 0.05], [100, 10000])
        assert (slow.scaled_bounded, slow.declines, slow.passed) == (False, True, False)
        rising = self.synthetic_table([0.1, 0.15], [100, 121])
        assert (rising.scaled_bounded, rising.declines, rising.passed) == (True, False, False)


class TestBoundaryStrips:
    def test_single_box_trivial_equality(self):
        report = boundary_strip_check(1.0, 1.0, 64.0, 1, 1, RngStream(82), reps=5, dim=2)
        assert report.passed
        assert set(report.diffs) == {0}
        assert set(report.bounds) == {0}

    def test_four_boxes_inequality_holds_every_time(self):
        report = boundary_strip_check(1.0, 0.8, 64.0, 4, 1, RngStream(83), reps=25, dim=2)
        assert report.passed
        assert report.violations == 0
        assert report.max_slack >= 0

    def test_partition_infeasible(self):
        with pytest.raises(LimitsError):
            boundary_strip_check(1.0, 0.8, 64.0, 3, 1, RngStream(84), reps=5, dim=2)

    @pytest.mark.parametrize("count", [-4, 0])
    def test_box_count_below_one_rejected(self, count):
        with pytest.raises(LimitsError, match=re.escape(
                f"cannot split a cube into {count} congruent boxes in d=2")):
            boundary_strip_check(1.0, 0.8, 64.0, count, 1, RngStream(84), reps=5, dim=2)

    def test_box_side_must_exceed_two_r(self):
        with pytest.raises(LimitsError):
            boundary_strip_check(1.0, 2.05, 64.0, 4, 1, RngStream(85), reps=5, dim=2)

    @pytest.mark.parametrize("L, r, x", [
        (70.0, 1.0, 2.0916500663351885),
        (60.0, 0.9, 1.9364916731037087),
    ], ids=["two-boxes", "no-box"])
    def test_point_on_a_box_face_lies_in_one_box(self, monkeypatch, L, r, x):
        # with 4 x 4 boxes, the face computed as lower + idx*side + side and
        # as lower + (idx+1)*side differ by an ulp at these L, and x lies
        # between them: as a box test, in boxes (2, 2) and (3, 2) at L = 70
        # and in none at L = 60. Its label puts it in box (3, 2) alone, and
        # the restriction to the boxes keeps every point
        cloud = PointCloud(np.array([[x, 0.1], [x - 0.5, 0.1], [x + 0.5, 0.1]]))
        monkeypatch.setattr(limits, "sample_poisson_homogeneous",
                            lambda lam, window, rng: cloud)
        seen = []
        restrict = SimplicialComplex.restrict

        def spy(cx, labels):
            seen.append((np.asarray(labels).tolist(), restrict(cx, labels)))
            return seen[-1][1]

        monkeypatch.setattr(SimplicialComplex, "restrict", spy)
        report = boundary_strip_check(1.0, r, L, 16, 1, RngStream(86), reps=2)
        assert report.passed
        assert len(seen) == 2
        for labels, boxes in seen:
            assert labels == [3 * 4 + 2, 2 * 4 + 2, 3 * 4 + 2]
            assert boxes.vertex_count == len(cloud)
            assert boxes.simplex_counts() == [3, 1]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strip_mask_is_the_union_of_slabs(self, d, m):
        # the reference is one half-open slab Window per inner face, with
        # the window's bounds on the other axes and [plane - pad, plane +
        # pad) on its own. A box side exceeds 2r, so with pad below a side
        # no slab leaves the window on its own axis, and the mask must
        # equal the slabs' union on every point, in the window or not
        gen = np.random.default_rng(10 * d + m)
        window = Window.centered(float(gen.uniform(20.0, 80.0)), d)
        side = window.sides / m
        for pad in (0.2 * side.min(), 0.49 * side.min(), 0.9 * side.min()):
            pts = [window.lower + gen.random((40, d)) * window.sides]
            for axis in range(d):
                faces = [window.lower[axis] + f * side[axis] for f in range(1, m)]
                for x in [f + off for f in faces for off in (-pad, 0.0, pad)] + [
                        window.lower[axis], window.upper[axis]]:
                    row = window.lower + gen.random((3, d)) * window.sides
                    row[:, axis] = x
                    pts.append(row)
            pts = np.concatenate(pts)
            want = np.zeros(len(pts), dtype=bool)
            for axis in range(d):
                for face in range(1, m):
                    plane = window.lower[axis] + face * side[axis]
                    lo, hi = window.lower.copy(), window.upper.copy()
                    lo[axis], hi[axis] = plane - pad, plane + pad
                    want |= Window(lo, hi).contains(pts)
            got = limits._strip_mask(pts, window, m, pad)
            assert np.array_equal(got, want)
            assert got.any() == (m > 1)


class TestArgumentChecks:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(r=1.0, lam=-1e3), "intensity must be non-negative, got -1000.0"),
        (dict(r=0.0), "radius must be positive, got 0.0"),
        (dict(r=1.0, reps=1), "need 2..1000000 replicates (2 for a standard error), got 1"),
        (dict(r=1.0, n=0), "n must be at least 1, got 0"),
        (dict(r=1.0, schedule=(400, 200)),
         "n-schedule must be non-empty and increasing, got (400, 200)"),
        (dict(r=1.0, schedule=()), "n-schedule must be non-empty and increasing, got ()"),
        (dict(r=1.0, L=100.0, dim=0), "dimension must lie in 1..6, got 0"),
        (dict(r=2.0, L=30.0, dim=2), "window volume 30.0 too small for radius 2.0"),
        (dict(r=1.0, j=-1), "simplex dimension must be non-negative, got -1"),
        (dict(r=1.0, L=100.0, dim=2, k=2), "k must lie in 1..d-1, got k=2 in d=2"),
        (dict(r=1.0, k=0, dim=2), "k must lie in 1..d-1, got k=0 in d=2"),
        (dict(r=1.0, k=1, dim=1), "k must lie in 1..d-1, got k=1 in d=1"),
        (dict(r=1.0, boundary_mode="torsu"),
         "boundary mode must be 'plain' or 'torus', got 'torsu'"),
        (dict(r=1.0, workers=0), "workers must lie in 1..256, got 0"),
        (dict(r=1e200, L=1e300, dim=2), "window volume 1e+300 too small for radius "
         "1e+200: its side 1e+150 must exceed 3r = 3e+200"),
        (dict(r=1.0, L=float("nan"), dim=2), "window volume nan too small for radius 1.0"),
        (dict(s_grid=np.array([-0.1, 0.5])), "s_grid must be strictly increasing from "
         "s >= 0 with >= 2 points, got [-0.1, 0.5]"),
        (dict(s_grid=(0.5, 0.4)), "s_grid must be strictly increasing from "
         "s >= 0 with >= 2 points, got [0.5, 0.4]"),
        (dict(s_grid=[0.0]), "s_grid must be strictly increasing from "
         "s >= 0 with >= 2 points, got [0.0]"),
    ], ids=["lam", "r", "reps", "n", "schedule", "empty-schedule", "dim", "L", "j",
            "k-window", "k", "density", "boundary-mode", "workers", "huge-r",
            "nan-L", "s-grid-sign", "s-grid-order", "s-grid-length"])
    def test_message_names_the_value(self, kwargs, message):
        with pytest.raises(LimitsError, match=re.escape(message)):
            limits._check_args(**kwargs)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_accepted_torus_window_is_accepted_by_the_builder(self, dim):
        # volumes at and a few floats above (3r)^d: whatever the window
        # rule accepts, the torus builder accepts at period L^(1/d)
        for r in np.linspace(0.1, 3.0, 59):
            L = (3.0 * r) ** dim
            for _ in range(6):
                try:
                    limits._check_args(r=r, L=L, dim=dim)
                except LimitsError as exc:
                    assert str(exc).startswith(f"window volume {L} too small for radius {r}")
                else:
                    build_cech(PointCloud.empty(dim), r, 1, period=L ** (1.0 / dim))
                L = np.nextafter(L, math.inf)

    def test_window_side_checked_before_sampling(self, monkeypatch):
        # 46.656 lies above (3 * 1.2)^3 but its cube root rounds to 3r
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the window was checked")

        monkeypatch.setattr(limits, "sample_poisson_homogeneous", sample)
        with pytest.raises(LimitsError, match="must exceed 3r = 3.5999999999999996$"):
            estimate_betti_rate(1.0, 1.2, 46.656, 2, 2, RngStream(1), "torus", dim=3)

    @pytest.mark.parametrize("call", [
        lambda: intensity_perturbation_check(*_perturbed_pair(), 1.0, 2, 3, RngStream(1)),
        lambda: estimate_binomial_expectation(unit_uniform(1), 20, 0.6, 1, 3, RngStream(1)),
        lambda: poissonization_gap(unit_uniform(3), [20], 0.6, 3, 3, RngStream(1)),
    ], ids=["perturbation", "binomial", "gap"])
    def test_k_checked_against_the_dimension_before_any_replicate(self, monkeypatch,
                                                                  call):
        def replicate(packed):
            raise AssertionError("a replicate ran before k was checked")

        monkeypatch.setattr(limits, "_replicate", replicate)
        with pytest.raises(LimitsError, match="k must lie in 1..d-1, got k=[0-9]+ in d="):
            call()

    def test_curve_with_a_negative_grid_point_rejected(self):
        # so a cached curve with one fails to load and is rebuilt
        with pytest.raises(LimitsError, match=re.escape("got [-0.5, 0.5]")):
            synthetic_curve(lambda s: s, [-0.5, 0.5])

    @pytest.mark.parametrize("call, message", [
        (lambda: estimate_betti_rate(math.nan, 1.0, 100.0, 1, 2, RngStream(1)),
         "intensity must be a finite number, got nan"),
        (lambda: estimate_betti_rate(math.inf, 1.0, 100.0, 1, 2, RngStream(1)),
         "intensity must be a finite number, got inf"),
        (lambda: estimate_betti_rate(1.0, 1.0, 100.0, 1.0, 2, RngStream(1)),
         "k must be an integer, got 1.0"),
        (lambda: estimate_betti_rate(1.0, 1.0, 100.0, True, 2, RngStream(1)),
         "k must be an integer, got True"),
        (lambda: estimate_betti_rate(1.0, 1.0, 100.0, 1, 2.0, RngStream(1)),
         "replicate count must be an integer, got 2.0"),
        (lambda: estimate_betti_rate(1.0, 1.0, 100.0, 1, 2, RngStream(1), workers=1.5),
         "workers must be an integer, got 1.5"),
        (lambda: estimate_betti_rate(1.0, 1.0, 100.0, 1, 2, RngStream(1), dim=2.0),
         "dimension must be an integer, got 2.0"),
        (lambda: estimate_simplex_rate(1.0, 1.0, 100.0, 1.5, 2, RngStream(1)),
         "simplex dimension must be an integer, got 1.5"),
        (lambda: estimate_binomial_expectation(unit_uniform(), math.inf, 1.0, 1, 2,
                                               RngStream(1)), "n must be an integer, got inf"),
        (lambda: estimate_binomial_expectation(unit_uniform(), math.nan, 1.0, 1, 2,
                                               RngStream(1)), "n must be an integer, got nan"),
        (lambda: estimate_binomial_expectation(unit_uniform(), 100.5, 1.0, 1, 2,
                                               RngStream(1)), "n must be an integer, got 100.5"),
        (lambda: estimate_binomial_expectation(unit_uniform(), 100, math.nan, 1, 2,
                                               RngStream(1)),
         "radius must be a finite number, got nan"),
        (lambda: boundary_strip_check(1.0, 1.0, 100.0, 4.0, 1, RngStream(1), reps=2),
         "box count must be an integer, got 4.0"),
        (lambda: scaling_check(1.0, math.inf, 1.0, 100.0, 1, 2, RngStream(1)),
         "theta must be a finite number, got inf"),
        (lambda: build_limit_curve(1, [0.0, math.nan], 100.0, 2, RngStream(1)),
         "s-grid point must be a finite number, got nan"),
        (lambda: thermodynamic_integral(unit_uniform(), math.nan, 1,
                                        synthetic_curve(lambda s: s, [0.0, 1.0])),
         "radius must be a finite number, got nan"),
        (lambda: convergence_table(unit_uniform(), [20, 40.5], 0.6, 1, 2, RngStream(1),
                                   0.0, 0.0), "n must be an integer, got 40.5"),
    ], ids=["nan-lam", "inf-lam", "float-k", "bool-k", "float-reps", "float-workers",
            "float-dim", "float-j", "inf-n", "nan-n", "fractional-n", "nan-r",
            "float-boxes", "inf-theta", "nan-s-grid", "integral-nan-r", "float-schedule"])
    def test_wrong_kind_named_before_any_replicate(self, monkeypatch, call, message):
        # each of these failed inside a replicate with a foreign error, was
        # accepted (k=True wrote True into the CSV's k column; boxes=4.0
        # reported boxes=4.0) or named a derived value (theta=inf)
        monkeypatch.setattr(limits, "_replicate", _reach)
        with pytest.raises(LimitsError, match=re.escape(message) + "$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: estimate_betti_rate(1e12, 1.0, 100.0, 1, 2, RngStream(1), "torus"),
         "intensity 1000000000000.0 on window volume 100.0 expects more than 1000000 "
         "points per replicate"),
        (lambda: scaling_check(1e300, 1e10, 1.0, 100.0, 1, 2, RngStream(1)),
         "intensity 1e+300 on window volume 100.0 expects more than 1000000 points"),
        (lambda: estimate_betti_rate(1.0, 1e-300, math.inf, 1, 2, RngStream(1)),
         "intensity 1.0 on window volume inf expects more than 1000000 points"),
        (lambda: estimate_binomial_expectation(unit_uniform(), 10 ** 12, 1.0, 1, 2,
                                               RngStream(1)),
         "n = 1000000000000 is more than 1000000 points per replicate"),
        (lambda: poissonization_gap(unit_uniform(), [20, 2 * 10 ** 6], 0.6, 1, 2,
                                    RngStream(1)),
         "n = 2000000 is more than 1000000 points per replicate"),
        (lambda: intensity_perturbation_check(_one_cell(1e12), _one_cell(1e12), 1.0, 1, 2,
                                              RngStream(1)),
         "an intensity grid of mass 100000000000000.0 expects more than 1000000 points"),
        (lambda: intensity_perturbation_check(_one_cell(1.0), _one_cell(1e307), 1.0, 1, 2,
                                              RngStream(1)),
         "an intensity grid of mass inf expects more than 1000000 points"),
        (lambda: estimate_betti_rate(1.0, 1.0, 100.0, 1, 10 ** 12, RngStream(1)),
         "need 2..1000000 replicates (2 for a standard error), got 1000000000000"),
    ], ids=["rate", "scaling-overflow", "infinite-window", "binomial", "gap-schedule",
            "perturbation", "perturbation-overflow", "reps"])
    def test_work_cap(self, monkeypatch, call, message):
        # a replicate expecting more than MAX_EXPECTED_POINTS points fails
        # before sampling; numpy would fail to allocate petabytes. A grid's
        # mass that overflows is inf, with no RuntimeWarning, and too many
        # replicates fail before the map lists them
        monkeypatch.setattr(limits, "_replicate", _reach)
        with pytest.raises(LimitsError, match=re.escape(message)):
            call()

    def test_work_cap_admits_its_own_size(self):
        assert limits.MAX_EXPECTED_POINTS == limits.MAX_REPS == 10 ** 6
        limits._check_args(lam=1.0, L=float(10 ** 6), r=1.0, dim=2)
        limits._check_args(schedule=(1, 10 ** 6), reps=10 ** 6, masses=(10.0 ** 6,))

    @pytest.mark.parametrize("call", [
        lambda: estimate_betti_rate(1.0, 0.3, 100.0, 1, 2, RngStream(1), dim=20),
        lambda: estimate_simplex_rate(1.0, 0.3, 100.0, 1, 2, RngStream(1), dim=7),
    ], ids=["betti-rate", "simplex-rate"])
    def test_dimension_capped_before_the_neighbour_grid(self, monkeypatch, call):
        # the grid enumerates 3^d cell offsets in Python: at d = 20 that
        # stalled for hours before any replicate finished
        def half_offsets(d):
            raise AssertionError(f"enumerated the cell offsets of d={d}")

        monkeypatch.setattr(limits, "_replicate", _reach)
        monkeypatch.setattr(cech, "_half_offsets", half_offsets)
        with pytest.raises(LimitsError, match=r"dimension must lie in 1\.\.6, got (20|7)$"):
            call()

    def test_workers_capped(self):
        # checked on the arguments alone: a map at this count would fork
        # MAX_WORKERS processes
        limits._check_args(workers=limits.MAX_WORKERS)
        over = limits.MAX_WORKERS + 1
        with pytest.raises(LimitsError, match=f"workers must lie in 1..256, got {over}$"):
            limits._check_args(workers=over)

    def test_dimension_cap_admits_its_own_size(self):
        limits._check_args(dim=limits.MAX_DIM, r=0.3, L=1.0)
        assert len(cech._half_offsets(limits.MAX_DIM)) == 364


class TestIntensityPerturbation:
    def base_intensity(self, scale=1.0):
        box = Window(np.zeros(2), np.array([6.0, 6.0]))
        return IntensityGrid(box, (2, 2), np.full(4, scale))

    def test_identical_intensities_zero_gap(self):
        f = self.base_intensity()
        report = intensity_perturbation_check(f, f, 1.0, 1, 10, RngStream(86))
        assert report.gap == 0.0
        assert report.ratio == 0.0
        assert report.passed

    def test_one_sided_perturbation_nested(self):
        f = self.base_intensity()
        g = IntensityGrid(f.box, f.cells_per_axis, f.values + np.array([0.3, 0.0, 0.0, 0.0]))
        report = intensity_perturbation_check(f, g, 1.0, 1, 30, RngStream(87))
        assert report.passed
        assert report.l1_distance == pytest.approx(0.3 * 9.0)

    @pytest.mark.parametrize("cells", [(1, 1), (2, 2)], ids=["one-cell", "2x2"])
    def test_f_above_g_checks_g_inside_f(self, monkeypatch, cells):
        # f >= g cellwise: g has no excess, so every realization's K_g is a
        # subcomplex of K_f and the bound is checked as (K_g, K_f)
        calls = []
        check = limits.betti_diff_bound_check

        def recording(k1, k2, k, **kwargs):
            calls.append((k1.vertex_count, k2.vertex_count))
            return check(k1, k2, k, **kwargs)

        monkeypatch.setattr(limits, "betti_diff_bound_check", recording)
        g = IntensityGrid(Window(np.zeros(2), np.array([6.0, 6.0])), cells,
                          np.ones(cells[0] * cells[1]))
        bump = np.zeros(len(g.values))
        bump[0] = 0.5
        f = IntensityGrid(g.box, cells, g.values + bump)
        assert g.excess_over(f).total_mass == 0 < f.excess_over(g).total_mass
        report = intensity_perturbation_check(f, g, 1.0, 1, 6, RngStream(91))
        assert report.passed
        assert len(calls) == 6
        assert all(n_g <= n_f for n_g, n_f in calls)
        assert any(n_g < n_f for n_g, n_f in calls)

    def test_homology_twice_per_replicate(self, monkeypatch):
        # a one-sided perturbation checks every realization's nested bound
        # with the Betti numbers the replicate already has, so it takes
        # the homology of its two complexes once each
        calls = []
        for module in (limits, homology):
            def counting(cx, k, betti_numbers=module.betti_numbers):
                calls.append(cx.vertex_count)
                return betti_numbers(cx, k)

            monkeypatch.setattr(module, "betti_numbers", counting)
        # each check is given the Betti numbers of its own two complexes
        given = []
        check = limits.betti_diff_bound_check

        def recording(k1, k2, k, **kwargs):
            given.append(kwargs["betti"] == (betti_numbers(k1, k)[k], betti_numbers(k2, k)[k]))
            return check(k1, k2, k, **kwargs)

        monkeypatch.setattr(limits, "betti_diff_bound_check", recording)
        f = self.base_intensity()
        g = IntensityGrid(f.box, f.cells_per_axis, f.values + 0.5)
        report = intensity_perturbation_check(f, g, 1.0, 1, 5, RngStream(92))
        assert report.passed and report.gap > 0
        assert given == [True] * 5
        assert len(calls) == 2 * 5

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
    """One replicate map per experiment: at workers=w the calling process
    runs one share of the map and forks one process for each of the w - 1
    others, and every one of them has exited when the map returns."""

    def test_curve_forks_one_pool(self, forked_shares):
        a = build_limit_curve(1, [0.0, 0.4, 0.8, 1.2], 16.0, 3, RngStream(64))
        b = build_limit_curve(1, [0.0, 0.4, 0.8, 1.2], 16.0, 3, RngStream(64),
                              workers=2)
        # the calling process is the second worker: 9 replicates, 4 forked
        assert forked_shares == [4]
        assert a == b
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [2, 3, 4, 7])
    def test_shares_match_serial(self, forked_shares, workers):
        # 6 replicates: even shares at 2 and 3 workers, uneven ones (2, 2, 1,
        # 1) at 4, and more workers than replicates at 7, which forks 5
        shares = {2: [3], 3: [2, 2], 4: [2, 1, 1], 7: [1] * 5}[workers]
        tasks = [functools.partial(limits._rep_simplex_rate, 1.0, 0.5, 16.0, 1,
                                   Window.centered(16.0, 2), "plain", RngStream(seed))
                 for seed in (60, 61)]
        serial = limits._map_replicates("simplex_rate", tasks, 3, 1)
        assert forked_shares == []
        assert limits._map_replicates("simplex_rate", tasks, 3, workers) == serial
        assert forked_shares == shares
        assert not multiprocessing.active_children()

    def test_caller_runs_share_zero(self):
        # replicate j of the map goes to share j % workers: share 0 runs in
        # the calling process, each other share in a process of its own
        [pids] = limits._map_replicates("betti_rate", [lambda i: os.getpid()], 7, 3)
        assert pids[0::3] == [os.getpid()] * 3
        assert pids[1::3] == [pids[1]] * 2 and pids[2::3] == [pids[2]] * 2
        assert len({os.getpid(), pids[1], pids[2]}) == 3
        assert not multiprocessing.active_children()

    def test_experiments_fork_one_pool_each(self, forked_shares):
        density = unit_uniform()
        convergence_table(density, [20, 40, 60], 0.6, 1, 3, RngStream(65),
                          0.0, 0.0, workers=2)
        poissonization_gap(density, [20, 40], 0.6, 1, 3, RngStream(66), workers=2)
        scaling_check(1.0, 2.0, 1.0, 64.0, 1, 3, RngStream(67), workers=2)
        assert forked_shares == [4, 3, 3]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("experiment, replicates", [
        (lambda w: build_limit_curve(1, [0.0, 0.4, 0.8], 16.0, 3, RngStream(95),
                                     workers=w), 6),
        (lambda w: convergence_table(unit_uniform(), [20, 40, 60], 0.6, 1, 3,
                                     RngStream(96), 0.0, 0.0, workers=w), 9),
        (lambda w: poissonization_gap(unit_uniform(), [20, 40], 0.6, 1, 3,
                                      RngStream(97), workers=w), 6),
        (lambda w: scaling_check(1.0, 2.0, 1.0, 64.0, 1, 3, RngStream(98),
                                 workers=w), 6),
    ], ids=["curve", "converge", "gap", "scaling"])
    def test_experiment_makes_one_map(self, forked_shares, experiment, replicates):
        serial = experiment(1)
        assert forked_shares == []
        assert experiment(2) == serial
        # one map at workers=2 forks one share, the odd-indexed replicates
        assert forked_shares == [replicates // 2]

    def test_empty_job_list_forks_nothing(self, forked_shares):
        assert limits._map_replicates("betti_rate", [], 3, 2) == []
        with pytest.raises(LimitsError, match="s_grid must be strictly increasing"):
            build_limit_curve(1, [0.0], 16.0, 3, RngStream(99), workers=2)
        assert forked_shares == []

    @pytest.mark.parametrize("experiment, message", [
        # s = 3 needs L > (3s)^2 = 81
        (lambda: build_limit_curve(1, [0.5, 3.0], 16.0, 3, RngStream(100)),
         "window volume 16.0 too small for radius 3.0"),
        (lambda: build_limit_curve(1, [0.5, 0.4], 16.0, 3, RngStream(100)),
         "s_grid must be strictly increasing"),
        # the right-hand side's radius 1 / sqrt(0.1) needs L > 90
        (lambda: scaling_check(1.0, 0.1, 1.0, 64.0, 1, 3, RngStream(100)),
         "window volume 64.0 too small for radius 3.16"),
    ], ids=["curve-window", "curve-order", "scaling-rhs-window"])
    def test_whole_grid_checked_before_sampling(self, monkeypatch, experiment, message):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before every grid point was checked")

        monkeypatch.setattr(limits, "sample_poisson_homogeneous", sample)
        with pytest.raises(LimitsError, match=message):
            experiment()

    def test_serial_forks_nothing(self, forked_shares):
        build_limit_curve(1, [0.0, 0.5, 1.0], 16.0, 3, RngStream(69))
        estimate_betti_rate(1.0, 1.0, 16.0, 1, 3, RngStream(69))
        assert forked_shares == []

    def test_later_scope_forks_current_code(self, monkeypatch):
        # a worker kept across maps would still run the replicate code of
        # the moment it was forked
        rate = estimate_simplex_rate(1.0, 0.5, 16.0, 0, 4, RngStream(70), workers=2)
        assert rate.mean != 7.0
        monkeypatch.setattr(limits, "_rep_simplex_rate", lambda *task: 7.0)
        rate = estimate_simplex_rate(1.0, 0.5, 16.0, 0, 4, RngStream(70), workers=2)
        assert rate.mean == 7.0

    def test_replicate_error_shuts_pool_down(self, monkeypatch):
        def fail(*task):
            raise LimitsError(f"replicate {task[-1]} failed")

        monkeypatch.setattr(limits, "_rep_betti_rate", fail)
        with pytest.raises(LimitsError, match="replicate 0 failed"):
            build_limit_curve(1, [0.5, 1.0], 16.0, 8, RngStream(71), workers=2)
        assert not multiprocessing.active_children()

    def test_first_worker_error_in_share_order(self):
        def fail(i):
            if i % 3:
                raise LimitsError(f"replicate {i} failed")
            return 0

        # shares 1 and 2 (replicates 1, 4 and 2, 5) fail, the caller's does not
        with pytest.raises(LimitsError, match="replicate 1 failed"):
            limits._map_replicates("betti_rate", [fail], 6, 3)
        assert not multiprocessing.active_children()

    def test_dead_worker_is_an_error(self):
        # the odd replicates, the worker's share at workers=2, end its process
        with pytest.raises(LimitsError, match=r"^worker \d+ exited with code 3 "
                                              "before returning its share$"):
            limits._map_replicates("betti_rate", [lambda i: os._exit(3) if i % 2 else 0],
                                   4, 2)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("error, message", [
        (lambda i: _TwoArgError(i, "two arguments"),
         "_TwoArgError: replicate 1: two arguments"),
        (lambda i: _LambdaError(i), "_LambdaError: replicate 1 holds a lambda"),
    ], ids=["does-not-unpickle", "does-not-pickle"])
    def test_worker_error_that_does_not_survive_pickling(self, capfd, error, message):
        def fail(i):
            if i % 3:
                raise error(i)
            return 0

        # shares 1 and 2 fail; the error of share 1 names its worker
        with pytest.raises(LimitsError, match=rf"^worker (\d+) raised {message}$") as info:
            limits._map_replicates("betti_rate", [fail], 6, 3)
        assert int(re.match(r"worker (\d+)", str(info.value))[1]) != os.getpid()
        assert not multiprocessing.active_children()
        assert "Traceback" not in capfd.readouterr().err


class _TwoArgError(Exception):
    """An error that pickles but does not unpickle: its args hold one
    message, but its __init__ takes two arguments."""

    def __init__(self, replicate, reason):
        super().__init__(f"replicate {replicate}: {reason}")


class _LambdaError(Exception):
    """An error that does not pickle: it holds a lambda."""

    def __init__(self, replicate):
        super().__init__(f"replicate {replicate} holds a lambda")
        self.replicate = lambda: replicate


def _one_cell(value: float) -> IntensityGrid:
    """A one-cell intensity grid on a window of volume 100."""
    return IntensityGrid(Window(np.zeros(2), np.full(2, 10.0)), (1, 1), np.array([value]))


def _perturbed_pair():
    g = IntensityGrid(Window(np.zeros(2), np.array([6.0, 6.0])), (2, 2), np.ones(4))
    return IntensityGrid(g.box, g.cells_per_axis, g.values * 1.2), g


# each public estimator and experiment as a call with the given replicate and
# worker counts, and the (kind, task count) of the one replicate map it makes
MAP_CALLS = {
    "betti-rate": (lambda reps, workers: estimate_betti_rate(
        1.0, 1.0, 16.0, 1, reps, RngStream(110), workers=workers), "betti_rate", 1),
    "simplex-rate": (lambda reps, workers: estimate_simplex_rate(
        1.0, 0.5, 16.0, 1, reps, RngStream(111), workers=workers), "simplex_rate", 1),
    "curve": (lambda reps, workers: build_limit_curve(
        1, [0.0, 0.4, 0.8, 1.2], 16.0, reps, RngStream(112), workers=workers),
        "betti_rate", 3),
    "scaling": (lambda reps, workers: scaling_check(
        1.0, 2.0, 1.0, 64.0, 1, reps, RngStream(113), workers=workers), "betti_rate", 2),
    "scaling-theta-1": (lambda reps, workers: scaling_check(
        1.0, 1.0, 1.0, 64.0, 1, reps, RngStream(114), workers=workers), "betti_rate", 1),
    "binomial": (lambda reps, workers: estimate_binomial_expectation(
        unit_uniform(), 20, 0.6, 1, reps, RngStream(115), workers=workers), "binomial", 1),
    "converge": (lambda reps, workers: convergence_table(
        unit_uniform(), [20, 40, 60], 0.6, 1, reps, RngStream(116), 0.0, 0.0,
        workers=workers), "binomial", 3),
    "gap": (lambda reps, workers: poissonization_gap(
        unit_uniform(), [20, 40], 0.6, 1, reps, RngStream(117), workers=workers), "gap", 2),
    "strip": (lambda reps, workers: boundary_strip_check(
        1.0, 0.5, 64.0, 4, 1, RngStream(118), reps=reps, workers=workers), "strip", 1),
    "perturb": (lambda reps, workers: intensity_perturbation_check(
        *_perturbed_pair(), 1.0, 1, reps, RngStream(119), workers=workers), "perturb", 1),
}


class TestReplicateMap:
    """Every public estimator and experiment runs all its replicates in one
    call of _map_replicates, which checks the replicate and worker counts
    before any replicate runs."""

    @pytest.mark.parametrize("name", MAP_CALLS)
    def test_one_map_per_call(self, monkeypatch, name):
        call, kind, tasks = MAP_CALLS[name]
        calls = []
        map_replicates = limits._map_replicates

        def spy(kind, tasks, reps, workers):
            calls.append((kind, len(tasks), reps))
            for task in tasks:
                # a partial over a module-level body: fork hands tasks to the
                # workers without pickling them, so this keeps closures out
                assert isinstance(task, functools.partial)
                assert task.func.__name__.startswith("_rep_")
                assert getattr(limits, task.func.__name__) is task.func
                assert pickle.loads(pickle.dumps(task))(0) == task(0)
            return map_replicates(kind, tasks, reps, workers)

        monkeypatch.setattr(limits, "_map_replicates", spy)
        call(3, 1)
        assert calls == [(kind, tasks, 3)]

    @pytest.mark.parametrize("reps, workers, message", [
        (1, 1, r"need 2..1000000 replicates \(2 for a standard error\), got 1$"),
        (3, 0, r"workers must lie in 1\.\.256, got 0$"),
    ], ids=["reps-1", "workers-0"])
    @pytest.mark.parametrize("name", MAP_CALLS)
    def test_counts_checked_before_any_replicate(self, monkeypatch, name, reps,
                                                  workers, message):
        def replicate(packed):
            raise AssertionError("a replicate ran before the counts were checked")

        monkeypatch.setattr(limits, "_replicate", replicate)
        with pytest.raises(LimitsError, match=message):
            MAP_CALLS[name][0](reps, workers)


class _Reached(Exception):
    """Raised in place of the first replicate or worker process."""


def _reach(*args, **kwargs):
    raise _Reached


# values for every count and real argument: non-finite, signed zero, the
# float extremes, fractions, an integral float, a bool and a numpy integer
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0, 1e308, 1e-300, 2.5, 2.0, True,
               np.int64(2)]
# the values that are not counts, and those that are not finite reals
NOT_COUNTS = [v for v in FUZZ_VALUES
              if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
NOT_REALS = [v for v in FUZZ_VALUES if isinstance(v, bool) or not math.isfinite(v)]
FUZZ_COUNTS = {"k", "j", "n", "n_schedule", "reps", "dim", "workers", "sub_box_count"}
# the stored, not checked, reals: a table's target
FUZZ_UNCHECKED = {"target", "target_stderr"}


def _fuzz_cases():
    """name -> (function, valid keyword arguments); the int, float and list
    arguments are the counts and reals, and a list takes a value as its
    last entry."""
    rng = RngStream(120)
    rate = dict(lam=1.0, r=0.5, L=16.0, reps=2, rng=rng, dim=2, workers=1)
    curve = dict(k=1, s_grid=[0.0, 0.5], L=16.0, reps=2, rng=rng, dim=2, workers=1)
    binomial = dict(density=unit_uniform(), r=0.6, k=1, reps=2, rng=rng, workers=1)
    return {
        "betti-rate": (estimate_betti_rate, {**rate, "k": 1, "boundary_mode": "torus"}),
        "simplex-rate": (estimate_simplex_rate,
                         {**rate, "j": 1, "boundary_mode": "torus"}),
        "binomial": (estimate_binomial_expectation, {**binomial, "n": 20}),
        "curve": (build_limit_curve, curve),
        "cached-curve": (load_or_build_curve, {**curve, "cache_dir": "tmp"}),
        "integral": (thermodynamic_integral,
                     dict(density=unit_uniform(), r=0.5, k=1,
                          curve=synthetic_curve(lambda s: s, [0.0, 1.0]))),
        "converge": (convergence_table, {**binomial, "n_schedule": [20, 40],
                                         "target": 0.0, "target_stderr": 0.0}),
        "gap": (poissonization_gap, {**binomial, "n_schedule": [20, 40]}),
        "scaling": (scaling_check, {**rate, "L": 64.0, "k": 1, "theta": 2.0}),
        "strips": (boundary_strip_check, {**rate, "L": 64.0, "k": 1, "sub_box_count": 4}),
        "perturbation": (intensity_perturbation_check,
                         dict(zip("fg", _perturbed_pair()), r=1.0, k=1, reps=2, rng=rng,
                              workers=1)),
    }


FUZZ_CASES = _fuzz_cases()


def _fuzzed(name) -> list[str]:
    """The count and real arguments of a case."""
    return [arg for arg, value in FUZZ_CASES[name][1].items()
            if isinstance(value, (int, float, list))]


class TestEveryValueFailsFast:
    """Every count and real argument of every public estimator and
    experiment, over FUZZ_VALUES: the call either reaches its first
    replicate (or worker process) or raises this package's own error before
    it. No foreign error escapes: no TypeError, OverflowError, MemoryError
    or numpy error."""

    @staticmethod
    def outcome(name, overrides, tmp_path) -> str:
        function, kwargs = FUZZ_CASES[name]
        kwargs = dict(kwargs)
        for arg, value in overrides.items():
            kwargs[arg] = kwargs[arg][:-1] + [value] if isinstance(kwargs[arg], list) else value
        if "cache_dir" in kwargs:
            kwargs["cache_dir"] = tmp_path
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(limits, "_replicate", _reach)
            patch.setattr(limits, "Process", _reach)
            try:
                function(**kwargs)
            except _Reached:
                return "reached"
            except (LimitsError, SamplerError, DensityError):
                return "rejected"
        assert name == "integral", "returned without running a replicate"
        return "reached"

    @pytest.mark.parametrize("name", FUZZ_CASES)
    def test_every_value_alone(self, tmp_path, name):
        assert self.outcome(name, {}, tmp_path) == "reached"
        for arg in _fuzzed(name):
            for value in FUZZ_VALUES:
                got = self.outcome(name, {arg: value}, tmp_path)
                wrong_kind = NOT_COUNTS if arg in FUZZ_COUNTS else NOT_REALS
                if arg not in FUZZ_UNCHECKED and any(value is v for v in wrong_kind):
                    assert got == "rejected", (arg, value)

    @pytest.mark.parametrize("name", FUZZ_CASES)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_values_together(self, tmp_path, name, data):
        overrides = data.draw(st.dictionaries(st.sampled_from(_fuzzed(name)),
                                              st.sampled_from(FUZZ_VALUES),
                                              min_size=2, max_size=3))
        self.outcome(name, overrides, tmp_path)


def _record(quantity="betti_rate", lam=1.0):
    return EstimateRecord(quantity, 1, lam, 1.0, 400.0, 0.03, 0.001, 10, 5, "torus")


RECORD_KEYS = {"quantity", "k", "lambda", "r", "L_or_n", "mean", "stderr", "reps",
               "seed", "boundary_mode"}


class TestJsonSchema:
    """The exact keys of every report's JSON form; the artifacts depend on them."""

    @pytest.mark.parametrize("report, keys, nested", [
        (_record(), RECORD_KEYS, {}),
        (LimitCurve(k=1, dim=2, L=16.0, reps=2, master_seed=3, boundary_mode="torus",
                    s_grid=(0.0, 0.5), values=(0.0, 0.1), stderrs=(0.0, 0.01)),
         {"k", "dim", "L", "reps", "seed", "boundary_mode", "s_grid", "values",
          "stderrs", "provenance"},
         {"provenance": RECORD_KEYS}),
        (ScalingReport(lam=1.0, theta=2.0, r=1.0, lhs=_record(), rhs=_record(lam=2.0),
                       rhs_scaled_mean=0.015, rhs_scaled_stderr=0.0005, delta=0.015,
                       combined_stderr=0.001),
         {"lambda", "theta", "r", "lhs", "rhs", "rhs_scaled_mean", "rhs_scaled_stderr",
          "delta", "combined_stderr", "passed"},
         {"lhs": RECORD_KEYS, "rhs": RECORD_KEYS}),
        (ConvergenceTable(n_schedule=(100,), records=(_record("expectation_per_n", None),),
                          target=0.02, target_stderr=0.001),
         {"n_schedule", "rows", "target", "target_stderr", "gaps", "tolerance", "passed"},
         {"rows": RECORD_KEYS}),
        (GapTable(rows=(GapRow(n=100, binomial_mean=0.03, poissonized_mean=0.029,
                               gap=0.001, gap_stderr=0.0005),),
                  k=1, r=1.0, reps=10, master_seed=5),
         {"rows", "k", "r", "reps", "seed", "scaled_bounded", "declines", "passed"},
         {"rows": {"n", "binomial_mean", "poissonized_mean", "gap", "gap_stderr",
                   "scaled", "scaled_stderr"}}),
        (StripReport(lam=1.0, r=1.0, L=64.0, boxes=4, k=1, reps=2, master_seed=5,
                     diffs=(0, 1), bounds=(2, 3)),
         {"lambda", "r", "L", "boxes", "k", "reps", "seed", "passed", "violations",
          "max_slack", "diffs", "bounds"},
         {}),
        (PerturbReport(r=1.0, k=1, reps=10, master_seed=5, gap=0.5, gap_stderr=0.1,
                       l1_distance=2.5, ratio=0.2, passed=True),
         {"r", "k", "reps", "seed", "gap", "gap_stderr", "l1_distance", "ratio", "passed"},
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
        assert (strip["passed"], strip["violations"], strip["max_slack"]) == (False, 1, 2)
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


def _fail_rename(src, dst):
    raise OSError("rename failed")


class TestAtomicWrite:
    @pytest.mark.parametrize("text, replace, error", [
        ("\udc80", None, UnicodeEncodeError),  # a lone surrogate does not encode
        ("x", _fail_rename, OSError),
    ], ids=["write", "rename"])
    def test_failure_removes_the_temp_file(self, tmp_path, monkeypatch, text, replace,
                                           error):
        if replace is not None:
            monkeypatch.setattr(limits.os, "replace", replace)
        with pytest.raises(error):
            limits.write_text_atomic(tmp_path / "out.txt", text)
        assert list(tmp_path.iterdir()) == []


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
