"""Sampler-level checks: exact contracts (counts, supports, determinism)
plus moment oracles computed analytically before comparing to sample runs."""

import json

import numpy as np
import pytest

from betti_thermo.pointproc import (
    DensityError,
    DensityGrid,
    IntensityGrid,
    PointCloud,
    RngStream,
    SamplerError,
    Window,
    sample_binomial,
    sample_poisson_homogeneous,
    sample_poisson_intensity,
    scale_points,
    superpose,
)


def two_level_density(dim: int = 2) -> DensityGrid:
    # left half 1.5, right half 0.5 on the unit box; mass = 0.5*1.5 + 0.5*0.5 = 1
    cells = (2,) + (1,) * (dim - 1)
    vals = [1.5, 0.5]
    return DensityGrid(Window.unit(dim), cells, np.array(vals))


class TestWindow:
    def test_centered_volume_and_bounds(self):
        w = Window.centered(400.0, 2)
        assert w.volume() == pytest.approx(400.0)
        assert np.allclose(w.lower, [-10.0, -10.0])
        assert np.allclose(w.upper, [10.0, 10.0])

    def test_half_open_membership(self):
        w = Window.unit(2)
        inside = w.contains(np.array([[0.0, 0.0], [0.5, 0.999], [1.0, 0.5]]))
        assert inside.tolist() == [True, True, False]

    def test_rejects_empty_box(self):
        with pytest.raises(SamplerError):
            Window(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


class TestPointCloud:
    def test_duplicates_removed_first_kept(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [4.0, 5.0]])
        cloud = PointCloud(pts)
        assert len(cloud) == 3
        assert np.array_equal(cloud.points, pts[[0, 1, 3]])

    def test_points_frozen(self):
        cloud = PointCloud(np.zeros((2, 2)) + np.arange(2)[:, None])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 9.0


class TestDensityGrid:
    def test_mass_must_be_one(self):
        with pytest.raises(DensityError):
            DensityGrid(Window.unit(2), (1, 1), np.array([2.0]))

    def test_normalize_on_load(self, tmp_path):
        doc = {
            "dim": 2,
            "lower": [0.0, 0.0],
            "upper": [1.0, 1.0],
            "cells_per_axis": [2, 1],
            "values": [3.0, 1.0],
        }
        path = tmp_path / "dens.json"
        path.write_text(json.dumps(doc))
        grid = DensityGrid.from_json(path)
        assert np.allclose(grid.values, [1.5, 0.5])
        assert grid.cell_masses().sum() == pytest.approx(1.0)

    def test_json_round_trip(self, tmp_path):
        grid = two_level_density()
        path = tmp_path / "dens.json"
        grid.to_json(path)
        back = DensityGrid.from_json(path)
        assert back.cells_per_axis == grid.cells_per_axis
        assert np.array_equal(back.values, grid.values)

    def test_row_major_cell_order(self):
        # 2x2 grid on unit square: flat index 1 is (row 0, col 1) -> y-axis second
        grid = DensityGrid(Window.unit(2), (2, 2), np.array([4.0, 0.0, 0.0, 0.0]) / 1.0)
        corners = grid.cell_lower_corners(np.arange(4))
        assert np.allclose(corners, [[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]])

    def test_uniform_helper(self):
        grid = DensityGrid.uniform(Window.centered(8.0, 3))
        assert grid.sup_value == pytest.approx(1.0 / 8.0)


class TestBinomial:
    def test_exact_count_and_support(self):
        grid = two_level_density()
        cloud = sample_binomial(grid, 500, RngStream(7))
        assert len(cloud) == 500
        assert grid.box.contains(cloud.points).all()

    def test_cell_proportion_matches_mass(self):
        # oracle: left-cell indicator is Bernoulli(0.75); 3 sigma band on the mean
        grid = two_level_density()
        n = 20000
        cloud = sample_binomial(grid, n, RngStream(11))
        frac = float((cloud.points[:, 0] < 0.5).mean())
        se = np.sqrt(0.75 * 0.25 / n)
        assert abs(frac - 0.75) < 3 * se

    def test_uniform_marginals(self):
        # oracle: uniform[0,1) coordinate has mean 1/2, var 1/12
        grid = DensityGrid.uniform(Window.unit(2))
        n = 20000
        cloud = sample_binomial(grid, n, RngStream(13))
        se = np.sqrt(1.0 / 12.0 / n)
        for axis in range(2):
            assert abs(cloud.points[:, axis].mean() - 0.5) < 3 * se


class TestPoisson:
    def test_count_moments(self):
        # oracle: count ~ Poisson(lam |W|), mean = var = 50
        lam, window = 2.0, Window.centered(25.0, 2)
        counts = [
            len(sample_poisson_homogeneous(lam, window, RngStream(3, (i,))))
            for i in range(400)
        ]
        counts = np.asarray(counts, dtype=float)
        mean_se = np.sqrt(50.0 / len(counts))
        assert abs(counts.mean() - 50.0) < 3 * mean_se
        var_se = np.sqrt((2 * 50.0**2 + 50.0) / len(counts))
        assert abs(counts.var(ddof=1) - 50.0) < 3 * var_se

    def test_zero_intensity(self):
        cloud = sample_poisson_homogeneous(0.0, Window.unit(3), RngStream(1))
        assert len(cloud) == 0 and cloud.dim == 3

    def test_intensity_grid_per_cell_counts(self):
        # oracle: cell counts are independent Poisson(value * cell volume)
        box = Window.unit(2)
        inten = IntensityGrid(box, (2, 1), np.array([30.0, 10.0]))
        reps = 300
        left = np.empty(reps)
        right = np.empty(reps)
        for i in range(reps):
            cloud = sample_poisson_intensity(inten, RngStream(23, (i,)))
            on_left = cloud.points[:, 0] < 0.5
            left[i] = on_left.sum()
            right[i] = (~on_left).sum()
        assert abs(left.mean() - 15.0) < 3 * np.sqrt(15.0 / reps)
        assert abs(right.mean() - 5.0) < 3 * np.sqrt(5.0 / reps)


class TestCouplings:
    def test_superposition_count_matches_sum(self):
        # P(3) + independent P(2) has the count law of P(5) on the same window
        window = Window.centered(20.0, 2)
        reps = 400
        counts = np.empty(reps)
        for i in range(reps):
            a = sample_poisson_homogeneous(3.0, window, RngStream(31, (i, 0)))
            b = sample_poisson_homogeneous(2.0, window, RngStream(31, (i, 1)))
            counts[i] = len(superpose(a, b))
        target = 5.0 * window.volume()
        assert abs(counts.mean() - target) < 3 * np.sqrt(target / reps)

    def test_scaling_preserves_counts_in_scaled_window(self):
        # theta P(lam) restricted to theta W equals P(lam theta^-d) on theta W in law;
        # counts are identical realization by realization
        window = Window.centered(30.0, 2)
        theta = 2.0
        cloud = sample_poisson_homogeneous(1.5, window, RngStream(37))
        scaled = scale_points(cloud, theta)
        big = Window(window.lower * theta, window.upper * theta)
        assert big.contains(scaled.points).all()
        assert len(scaled) == len(cloud)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(SamplerError):
            scale_points(PointCloud.empty(2), 0.0)

    def test_intensity_min_excess_decomposition(self):
        box = Window.unit(1)
        f = IntensityGrid(box, (4,), np.array([1.0, 3.0, 2.0, 0.0]))
        g = IntensityGrid(box, (4,), np.array([2.0, 1.0, 2.0, 1.0]))
        base = f.minimum(g)
        assert np.allclose(base.values + f.excess_over(g).values, f.values)
        assert np.allclose(base.values + g.excess_over(f).values, g.values)
        assert f.l1_distance(g) == pytest.approx((1 + 2 + 0 + 1) * 0.25)


class TestDeterminism:
    def test_same_stream_same_bits(self):
        grid = two_level_density()
        a = sample_binomial(grid, 64, RngStream(5, (2, 7)))
        b = sample_binomial(grid, 64, RngStream(5, (2, 7)))
        assert np.array_equal(a.points, b.points)

    def test_substreams_differ(self):
        grid = DensityGrid.uniform(Window.unit(2))
        root = RngStream(5)
        a = sample_binomial(grid, 16, root.substream(0))
        b = sample_binomial(grid, 16, root.substream(1))
        assert not np.array_equal(a.points, b.points)

    def test_substream_independent_of_generation_order(self):
        grid = DensityGrid.uniform(Window.unit(2))
        root = RngStream(5)
        forward = [sample_binomial(grid, 8, root.substream(i)).points for i in range(4)]
        backward = [sample_binomial(grid, 8, root.substream(i)).points for i in (3, 2, 1, 0)]
        for fwd, bwd in zip(forward, backward[::-1]):
            assert np.array_equal(fwd, bwd)

    def test_path_not_prefix_aliased(self):
        # stream (1,) and stream (1, 0) must not coincide
        grid = DensityGrid.uniform(Window.unit(2))
        a = sample_binomial(grid, 16, RngStream(5, (1,)))
        b = sample_binomial(grid, 16, RngStream(5, (1, 0)))
        assert not np.array_equal(a.points, b.points)
