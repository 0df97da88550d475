"""Sampler-level checks: exact contracts (counts, supports, determinism)
plus moment oracles computed analytically before comparing to sample runs."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import choice_grid_sample

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

    def test_sides_and_volume_are_read_only(self):
        w = Window(np.zeros(2), np.array([2.0, 3.0]))
        assert w.sides.tolist() == [2.0, 3.0] and w.volume() == 6.0
        with pytest.raises(ValueError, match="read-only"):
            w.sides[0] = 1.0
        with pytest.raises(AttributeError):
            w.sides = np.ones(2)

    def test_centered_side_is_the_volume_root(self):
        # the rate estimators take a torus period from this side: it must be
        # the float L ** (1/d), bit for bit
        for L in np.geomspace(1e-300, 1e300, 601):
            for d in range(1, 7):
                assert Window.centered(L, d).sides[0] == L ** (1.0 / d), (L, d)

    def test_half_open_membership(self):
        w = Window.unit(2)
        inside = w.contains(np.array([[0.0, 0.0], [0.5, 0.999], [1.0, 0.5]]))
        assert inside.tolist() == [True, True, False]

    def test_rejects_empty_box(self):
        with pytest.raises(SamplerError):
            Window(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


    @pytest.mark.parametrize("upper", [[np.inf, 1.0], [np.nan, 1.0]], ids=["inf", "nan"])
    def test_rejects_non_finite_bounds(self, upper):
        with pytest.raises(SamplerError, match=re.escape(
                f"window bounds must be finite, got [0.0, 0.0] / {upper}")):
            Window(np.zeros(2), np.array(upper))

    @pytest.mark.parametrize("make, got", [
        (lambda: Window.centered(10.0, 0), 0),
        (lambda: Window.centered(10.0, -1), -1),
        (lambda: Window.unit(0), 0),
        (lambda: Window.unit(-1), -1),
        (lambda: Window(np.zeros(0), np.ones(0)), 0),
    ], ids=["centered-0", "centered-neg", "unit-0", "unit-neg", "bounds-0"])
    def test_rejects_fewer_than_one_dimension(self, make, got):
        with pytest.raises(SamplerError, match=f"at least 1, got {got}$"):
            make()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_row(self, bad):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, bad], [bad, bad]])
        with pytest.raises(SamplerError, match=r"row 2 is \[4\.0, "):
            PointCloud(pts)

    def test_identical_nan_rows_rejected(self):
        # NaN != NaN, so a screen by equality would keep both rows
        with pytest.raises(SamplerError, match="row 0"):
            PointCloud(np.full((2, 3), np.nan))


def unique_rows_oracle(pts: np.ndarray) -> np.ndarray:
    """First occurrence of each row, by a set of coordinate tuples (-0.0
    and 0.0 compare and hash equal, so they count as one point)."""
    seen = set()
    keep = []
    for i, row in enumerate(map(tuple, pts.tolist())):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return pts[keep]


class TestDuplicateScreen:
    """The sorted-first-column screen against the exact duplicate path."""

    def test_exact_duplicates_first_kept_in_order(self):
        pts = np.array([[3.0, 1.0], [1.0, 2.0], [3.0, 1.0], [0.5, 0.5],
                        [1.0, 2.0], [3.0, 1.0]])
        got = PointCloud(pts).points
        assert np.array_equal(got, pts[[0, 1, 3]])
        assert np.array_equal(got, unique_rows_oracle(pts))

    def test_first_coordinate_ties_keep_distinct_rows(self):
        pts = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 5.0], [1.0, -2.0]])
        assert np.array_equal(PointCloud(pts).points, pts)

    def test_signed_zeros_collapse(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, -0.0], [0.5, 0.0]])
        got = PointCloud(pts).points
        assert np.array_equal(got, pts[[0, 2]])
        assert np.array_equal(got, unique_rows_oracle(pts))

    def test_no_ties_returns_the_points_unchanged(self):
        pts = np.random.default_rng(11).random((200, 3))
        assert np.array_equal(PointCloud(pts).points, pts)

    def test_random_ties_match_oracle(self):
        # coordinates from a small set, so first-coordinate ties, exact
        # duplicates and signed zeros all occur
        gen = np.random.default_rng(12)
        values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])
        for trial in range(200):
            n = int(gen.integers(0, 40))
            d = int(gen.integers(1, 4))
            pts = values[gen.integers(0, len(values), size=(n, d))]
            assert np.array_equal(PointCloud(pts).points, unique_rows_oracle(pts))


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

    def test_json_non_finite_bound_rejected(self, tmp_path):
        path = tmp_path / "dens.json"
        path.write_text('{"dim": 2, "lower": [0, 0], "upper": [Infinity, 1], '
                        '"cells_per_axis": [1, 1], "values": [1]}')
        with pytest.raises(SamplerError, match=re.escape("finite, got [0.0, 0.0] / [inf, 1.0]")):
            DensityGrid.from_json(path)

    @pytest.mark.parametrize("key", ["values", "dim"])
    def test_json_missing_key_rejected(self, tmp_path, key):
        doc = {"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1],
               "values": [1]}
        del doc[key]
        path = tmp_path / "dens.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DensityError, match=f"is missing '{key}'$"):
            DensityGrid.from_json(path)

    def test_json_non_object_rejected(self, tmp_path):
        path = tmp_path / "dens.json"
        path.write_text("[1, 2]")
        with pytest.raises(DensityError, match="is not a JSON object"):
            DensityGrid.from_json(path)

    def test_non_integer_cell_count_rejected(self):
        with pytest.raises(DensityError, match="cells per axis must be an integer, got 2.7$"):
            IntensityGrid(Window.unit(1), (2.7,), [1.0, 2.0])

    def test_numpy_integer_cell_counts(self):
        grid = IntensityGrid(Window.unit(2), (np.int64(2), np.int32(1)), [1.0, 2.0])
        assert grid.cells_per_axis == (2, 1)
        assert all(type(c) is int for c in grid.cells_per_axis)

    def test_json_round_trip(self, tmp_path):
        grid = two_level_density()
        path = tmp_path / "dens.json"
        path.write_text(json.dumps({"dim": grid.dim, "lower": grid.box.lower.tolist(),
                                    "upper": grid.box.upper.tolist(),
                                    "cells_per_axis": list(grid.cells_per_axis),
                                    "values": grid.values.tolist()}))
        back = DensityGrid.from_json(path)
        assert back.cells_per_axis == grid.cells_per_axis
        assert np.array_equal(back.values, grid.values)

    def test_row_major_cell_order(self):
        # 2x2 grid on the unit square, flat index 1 is (row 0, col 1): the
        # second axis varies fastest. With all mass in one cell, every
        # sampled point lies in that cell's box
        corners = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        for cell, corner in enumerate(corners):
            values = np.zeros(4)
            values[cell] = 4.0
            grid = DensityGrid(Window.unit(2), (2, 2), values)
            points = sample_binomial(grid, 200, RngStream(cell)).points
            assert len(points) == 200
            assert Window(np.array(corner), np.array(corner) + 0.5).contains(points).all()

    @pytest.mark.parametrize("key, value", [("dim", [2]), ("values", {"a": 1}),
                                            ("cells_per_axis", "x")])
    def test_json_wrong_type_rejected(self, tmp_path, key, value):
        doc = {"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1],
               "values": [1]}
        doc[key] = value
        path = tmp_path / "dens.json"
        path.write_text(json.dumps(doc))
        message = f"density file {path}: key '{key}' has invalid value {value!r}"
        with pytest.raises(DensityError, match=re.escape(message) + "$"):
            DensityGrid.from_json(path)

    @pytest.mark.parametrize("key, value, message", [
        ("dim", 3, "dim field 3 does not match bounds of length 2"),
        ("values", [0.0], "has zero total mass"),
    ], ids=["dim", "zero-mass"])
    def test_json_inconsistent_document_rejected(self, tmp_path, key, value, message):
        doc = {"dim": 2, "lower": [0, 0], "upper": [1, 1], "cells_per_axis": [1, 1],
               "values": [1]}
        doc[key] = value
        path = tmp_path / "dens.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DensityError, match=re.escape(message) + "$"):
            DensityGrid.from_json(path)

    def test_uniform_helper(self):
        grid = DensityGrid.uniform(Window.centered(8.0, 3))
        assert grid.sup_value == pytest.approx(1.0 / 8.0)


class TestEquality:
    """== compares the arrays, where a generated dataclass == would raise."""

    def test_window(self):
        assert Window.unit(2) == Window.unit(2)
        assert Window.unit(2) != Window.centered(1.0, 2)
        assert Window.unit(2) != Window.unit(3)

    def test_point_cloud(self):
        pts = np.random.default_rng(5).random((4, 2))
        assert PointCloud(pts) == PointCloud(pts.copy())
        assert PointCloud(pts) != PointCloud(pts[:3])
        assert PointCloud.empty(2) != PointCloud.empty(3)

    def test_grids(self):
        f = two_level_density()
        assert f == two_level_density()
        assert f != DensityGrid.uniform(Window.unit(2))
        g = IntensityGrid(f.box, f.cells_per_axis, f.values)
        assert g == IntensityGrid(Window.unit(2), (2, 1), f.values.copy())
        assert g != IntensityGrid(f.box, f.cells_per_axis, 2 * f.values)
        assert g != IntensityGrid(f.box, (1, 2), f.values)
        assert g != f


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


grid_layouts = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(1, 4), min_size=d, max_size=d),
    st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
    st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d)))
cell_values = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5])


class TestGridSampler:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(layout=grid_layouts, data=st.data(), seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([0, 1, 2, 5, 37, 400]), kind=st.sampled_from(["density", "intensity"]))
    def test_matches_choice_draw(self, layout, data, seed, n, kind):
        # the table sampler gives the points of the gen.choice draw and leaves
        # the generator where that draw left it: the gap replicate keeps drawing
        cells, lower, sides = layout
        box = Window(np.array(lower), np.array(lower) + np.array(sides))
        n_cells = int(np.prod(cells))
        values = np.array(data.draw(st.lists(cell_values, min_size=n_cells, max_size=n_cells)))
        assume(values.sum() > 0)
        grid = IntensityGrid(box, cells, values)
        if kind == "density":
            grid = DensityGrid(box, cells, values / grid.total_mass)
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(grid.sample(n, new), choice_grid_sample(grid, n, old))
        assert np.array_equal(new.random(7), old.random(7))
        if kind == "intensity":
            old = RngStream(seed).generator()
            count = int(old.poisson(grid.total_mass))
            expected = PointCloud(choice_grid_sample(grid, count, old)).points
            assert np.array_equal(sample_poisson_intensity(grid, RngStream(seed)).points,
                                  expected)

    def test_zero_mass_intensity(self):
        # the perturbation check's one-sided extra grid: built without a
        # RuntimeWarning, sampled as the empty process, not drawable directly
        grid = IntensityGrid(Window.unit(2), (2, 1), np.zeros(2))
        assert len(sample_poisson_intensity(grid, RngStream(3))) == 0
        with pytest.raises(DensityError, match="zero mass"):
            grid.sample(1, np.random.default_rng(0))


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

    def test_scaling_a_raw_draw_gives_the_scaled_cloud(self):
        # one cloud from the array equals the cloud of the draw, scaled: an
        # exact duplicate, and two distinct points that scaling merges
        # (both underflow to 0 at theta = 1e-300), keep only their first
        gen = np.random.default_rng(38)
        draw = np.vstack([gen.random((40, 2)), [[0.25, 0.5]], gen.random((5, 2)),
                          [[0.25, 0.5]], [[1e-200, 0.0]], [[3e-200, 0.0]]])
        for theta in (3.7, 1e-300):
            direct = scale_points(draw, theta)
            assert direct == scale_points(PointCloud(draw), theta)
            assert not direct.points.flags.writeable
        assert len(scale_points(draw, 3.7)) == len(draw) - 1
        assert len(scale_points(draw, 1e-300)) < len(draw) - 1

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


class TestRejectedValues:
    @pytest.mark.parametrize("make, message", [
        (lambda: sample_binomial(DensityGrid.uniform(Window.unit(2)), -3, RngStream(0)),
         "n must be non-negative, got -3"),
        (lambda: sample_poisson_homogeneous(-1.5, Window.unit(2), RngStream(0)),
         "intensity must be non-negative, got -1.5"),
        (lambda: sample_poisson_homogeneous(np.nan, Window.unit(2), RngStream(0)),
         "intensity must be a finite number, got nan"),
        (lambda: sample_poisson_homogeneous(np.inf, Window.unit(2), RngStream(0)),
         "intensity must be a finite number, got inf"),
        (lambda: Window.centered(-5.0, 2), "window volume must be positive, got -5.0"),
        (lambda: scale_points(PointCloud.empty(2), 0.0),
         "theta must be positive, got 0.0"),
        (lambda: RngStream(-3), "got -3"),
        (lambda: RngStream(1.5), "got 1.5"),
        (lambda: RngStream(4).substream(2).substream(-1), "got -1"),
        (lambda: Window(np.zeros(3), np.ones(2)),
         "window bounds must be equal-length vectors, got [0.0, 0.0, 0.0] / [1.0, 1.0]"),
        (lambda: PointCloud(np.zeros(3)), "points must be an (n, d) array"),
        (lambda: superpose(PointCloud.empty(2), PointCloud.empty(3)),
         "dimension mismatch: 2 vs 3"),
        # each of these failed with a foreign error, blamed the scaled points
        # or, for the bools, was accepted
        (lambda: sample_binomial(DensityGrid.uniform(Window.unit(2)), 2.5, RngStream(0)),
         "n must be an integer, got 2.5"),
        (lambda: sample_binomial(DensityGrid.uniform(Window.unit(2)), np.nan, RngStream(0)),
         "n must be an integer, got nan"),
        (lambda: sample_binomial(DensityGrid.uniform(Window.unit(2)), np.inf, RngStream(0)),
         "n must be an integer, got inf"),
        (lambda: scale_points(PointCloud(np.ones((2, 2))), np.nan),
         "theta must be a finite number, got nan"),
        (lambda: scale_points(PointCloud(np.ones((2, 2))), np.inf),
         "theta must be a finite number, got inf"),
        (lambda: Window.centered(4.0, 2.5), "window dimension must be an integer, got 2.5"),
        (lambda: Window.unit(1.5), "window dimension must be an integer, got 1.5"),
        (lambda: sample_poisson_homogeneous("1", Window.unit(2), RngStream(0)),
         "intensity must be a finite number, got '1'"),
        (lambda: RngStream(True), "seed and stream path must be an integer, got True"),
        (lambda: sample_poisson_homogeneous(True, Window.unit(2), RngStream(0)),
         "intensity must be a finite number, got True"),
    ], ids=["n", "intensity", "intensity-nan", "intensity-inf", "volume", "scale", "seed",
            "float-seed", "path", "bounds", "cloud-shape", "superpose", "float-n", "nan-n",
            "inf-n", "nan-scale", "inf-scale", "float-dim", "float-unit-dim", "str-intensity",
            "bool-seed", "bool-intensity"])
    def test_message_names_the_value(self, make, message):
        with pytest.raises(SamplerError, match=re.escape(message) + "$"):
            make()

    @pytest.mark.parametrize("cells, values, message", [
        ((2, 1), [1.5, -0.5], "cell values must be finite and non-negative, got -0.5"),
        ((2, 1), [np.nan, 1.0], "cell values must be finite and non-negative, got nan"),
        ((0, 1), [], "cells per axis must be at least 1, got 0"),
        ((2, 1), [1.0], "expected 2 cell values, got 1"),
        ((2,), [1.0, 1.0], "need one cell count per axis, got [2] in d=2"),
    ], ids=["negative", "nan", "cells", "count", "cells-length"])
    def test_grid_message_names_the_value(self, cells, values, message):
        with pytest.raises(DensityError, match=re.escape(message) + "$"):
            IntensityGrid(Window.unit(2), cells, np.array(values))

    def test_numpy_integer_seed_accepted(self):
        stream = RngStream(np.int64(5), (np.uint8(2),)).substream(np.int32(7))
        same = RngStream(5, (2, 7))
        assert stream.generator().random() == same.generator().random()

    @pytest.mark.parametrize("index", [1.5, 1.0, -0.0, "1"])
    def test_non_integer_substream_index_rejected(self, index):
        # an index was truncated by int(): substream(1.5) was substream(1)
        with pytest.raises(SamplerError, match=re.escape(f"got {index!r}") + "$"):
            RngStream(1).substream(index)

    def test_numpy_integer_substream_index_is_the_int(self):
        stream = RngStream(1).substream(np.int64(1))
        assert stream == RngStream(1).substream(1)
        assert np.array_equal(stream.generator().random(4),
                              RngStream(1).substream(1).generator().random(4))


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
