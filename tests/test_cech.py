"""Complex-construction checks.

The derived oracles here are written independently of the library code
paths: a subset-enumeration miniball (lstsq on the un-halved bisector
system), brute-force pair scans for the neighbor grid, and direct facet
enumeration for downward closure.
"""

import itertools
import re
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import min_enclosing_ball_radius, simplex_count, vertex_simplex_count

from betti_thermo.cech import (
    CechError,
    MINIBALL_TOL,
    NeighborGrid,
    _grid_layout,
    _ragged_pairs,
    build_cech,
    build_rips,
    simplices_touching,
)
from betti_thermo.homology import betti_numbers
from betti_thermo.pointproc import PointCloud, Window, superpose


def simplex_set(cx, j: int) -> set:
    """The j-simplices of the complex as a set of vertex tuples."""
    return set(map(tuple, cx.simplices_of(j).tolist()))


def as_rows(simplices, j: int) -> np.ndarray:
    """Vertex tuples as the complex's lexicographically sorted array."""
    return np.array(sorted(simplices), dtype=np.int64).reshape(-1, j + 1)


def miniball_radius_oracle(pts: np.ndarray) -> float:
    """Smallest ball radius by enumerating candidate support subsets.

    For each subset of size <= d+1, find the smallest sphere through the
    subset (center = subset[0] + minimal-norm solution of the bisector
    equations), keep it if it contains every point, and take the minimum.
    The true miniball equals the candidate built from its support set.
    """
    n, d = pts.shape
    best = np.inf
    for m in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), m):
            q = pts[list(subset)]
            if m == 1:
                center = q[0]
            else:
                A = 2.0 * (q[1:] - q[0])
                b = ((q[1:] - q[0]) ** 2).sum(axis=1)
                y, *_ = np.linalg.lstsq(A, b, rcond=None)
                if not np.allclose(A @ y, b, atol=1e-9):
                    continue
                center = q[0] + y
            radius = sqrt(((q - center) ** 2).sum(axis=1).max())
            if ((pts - center) ** 2).sum(axis=1).max() <= (radius + 1e-9) ** 2:
                best = min(best, radius)
    return best


def equilateral(side: float = 1.0) -> PointCloud:
    h = side * sqrt(3.0) / 2.0
    return PointCloud(np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, h]]))


def random_cloud(n, d, gen, spread=1.0):
    return PointCloud(gen.random((n, d)) * spread)


class TestMiniball:
    def test_two_points(self):
        assert min_enclosing_ball_radius(np.array([[0.0, 0.0], [1.0, 0.0]])) == pytest.approx(0.5)

    def test_equilateral_circumradius(self):
        r = min_enclosing_ball_radius(equilateral().points)
        assert r == pytest.approx(1.0 / sqrt(3.0), rel=1e-12)

    def test_collinear_one_dimensional(self):
        assert min_enclosing_ball_radius(np.array([0.0, 0.3, 1.0])) == pytest.approx(0.5)

    def test_single_point(self):
        assert min_enclosing_ball_radius(np.array([[2.0, 3.0, 4.0]])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(CechError):
            min_enclosing_ball_radius(np.empty((0, 2)))

    def test_matches_subset_oracle_small_sets(self):
        gen = np.random.default_rng(101)
        for trial in range(300):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(1, d + 3))
            pts = gen.normal(size=(n, d)) * gen.uniform(0.1, 10.0)
            got = min_enclosing_ball_radius(pts)
            want = miniball_radius_oracle(pts)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_matches_subset_oracle_larger_sets(self):
        gen = np.random.default_rng(103)
        for trial in range(20):
            pts = gen.normal(size=(30, 2))
            got = min_enclosing_ball_radius(pts)
            want = miniball_radius_oracle(pts)
            assert got == pytest.approx(want, rel=1e-9)

    def test_duplicated_points(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert min_enclosing_ball_radius(pts) == pytest.approx(0.5)


class TestNeighborGrid:
    def brute_pairs(self, pts, r, period=None):
        out = set()
        for i in range(len(pts) - 1):
            delta = pts[i] - pts[i + 1:]
            if period is not None:
                delta = delta - period * np.round(delta / period)
            near = (delta * delta).sum(axis=1) <= (r + 2 * MINIBALL_TOL) ** 2
            out.update((i, i + 1 + int(j)) for j in np.flatnonzero(near))
        return out

    def assert_pairs(self, pts, r, period=None):
        u, v = NeighborGrid(pts, r, period).pairs_within()
        pairs = list(zip(u.tolist(), v.tolist()))
        assert pairs == sorted(set(pairs)) and all(a < b for a, b in pairs)
        assert set(pairs) == self.brute_pairs(pts, r, period)

    def test_pairs_match_brute_force_plain(self):
        # up to 300 points, spread from dense to very sparse, so some
        # grids have to widen their cells to keep the cell table O(n)
        gen = np.random.default_rng(7)
        for trial in range(48):
            d = int(gen.integers(1, 5))
            n = int(gen.integers(2, 301))
            r = float(gen.uniform(0.05, 1.0))
            spread = r * 10 ** float(gen.uniform(0.0, 3.0))
            self.assert_pairs(gen.random((n, d)) * spread, r)

    def test_pairs_match_brute_force_torus(self):
        gen = np.random.default_rng(8)
        for trial in range(48):
            d = int(gen.integers(1, 5))
            n = int(gen.integers(2, 301))
            r = float(gen.uniform(0.05, 1.0))
            period = r * float(gen.uniform(3.01, 300.0))
            self.assert_pairs(gen.random((n, d)) * period, r, period)

    def test_torus_small_grid_falls_back(self):
        # period / r < 3: the grid keeps 3 cells per axis, narrower than r,
        # each bordering the other two; every pair is still found once
        pts = np.random.default_rng(10).random((80, 2)) * 2.0
        self.assert_pairs(pts, 0.9, 2.0)

    def test_pair_order_deterministic(self):
        gen = np.random.default_rng(9)
        pts = gen.random((200, 2))
        a = NeighborGrid(pts, 0.1).pairs_within()
        b = NeighborGrid(pts, 0.1).pairs_within()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert list(zip(a[0], a[1])) == sorted(zip(a[0], a[1]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_span_on_an_axis(self, d):
        gen = np.random.default_rng(70 + d)
        for trial in range(6):
            n = int(gen.integers(64, 200))
            r = float(gen.uniform(0.1, 1.0))
            # collinear points along a random direction
            t = gen.random(n) * 20.0
            self.assert_pairs(np.outer(t, gen.normal(size=d)), r)
            # a constant column, here and on the torus
            pts = gen.random((n, d)) * 6.0
            pts[:, int(gen.integers(0, d))] = 2.5
            self.assert_pairs(pts, r)
            self.assert_pairs(pts, r, period=6.0)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.7, 1.1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lattice_points_exactly_r_apart(self, r, d):
        # k * r rounds either way, and these pairs sit exactly at the cut
        k = {1: 100, 2: 12, 3: 6}[d]
        axes = np.meshgrid(*[np.arange(k) * r] * d, indexing="ij")
        pts = np.column_stack([a.ravel() for a in axes])
        self.assert_pairs(pts, r)
        self.assert_pairs(pts + 3.0, r)
        self.assert_pairs(pts, r, period=k * r)

    @pytest.mark.parametrize("ratio", [3.0 + 1e-9, 3.000001, 3.01, 3.5, 4.0 - 1e-9, 4.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_torus_period_just_above_three_r(self, ratio, d):
        gen = np.random.default_rng(int(ratio * 1000) + d)
        r = float(gen.uniform(0.2, 1.0))
        period = ratio * r
        n = int(gen.integers(70, 250))
        self.assert_pairs(gen.random((n, d)) * period, r, period)

    def test_tiny_clouds_match_brute_force(self):
        # the grid against the brute-force scan on clouds of 0 to 87
        # points, plain and torus
        gen = np.random.default_rng(80)
        for n in [1, *range(0, 90, 3)]:
            d = int(gen.integers(1, 4))
            pts = gen.random((n, d)) * 4.0
            self.assert_pairs(pts, 0.7)
            self.assert_pairs(pts, 0.7, period=4.0)

    def test_one_period_different_cells(self):
        # the torus layout is kept per (period, cells): clouds of different
        # sizes on one period widen to different cells, and each grid
        # matches brute force, also once the memo has served the other
        gen = np.random.default_rng(81)
        for d, period, r in [(2, 10.0, 0.3), (3, 6.0, 0.4)]:
            clouds = [gen.random((n, d)) * period for n in (70, 700, 70)]
            sizes = [len(NeighborGrid(pts, r, period)._start) for pts in clouds]
            assert sizes[0] == sizes[2] != sizes[1]
            for pts in clouds:
                self.assert_pairs(pts, r, period)
            self.assert_pairs(clouds[0][:40], r, period)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_three_cells_per_axis_just_above_three_r(self, d):
        # a period just above 3r keeps 3 cells per axis, whose padded table
        # repeats each one on both sides of the seam
        gen = np.random.default_rng(82 + d)
        r = 0.5
        period = 3 * r + 1e-9
        for n in (70, 150):
            pts = gen.random((n, d)) * period
            assert len(NeighborGrid(pts, r, period)._start) == 5 ** d
            self.assert_pairs(pts, r, period)

    def test_layout_arrays_are_read_only(self):
        pts = np.random.default_rng(83).random((100, 2)) * 8.0
        grid = NeighborGrid(pts, 0.5, 8.0)
        layout = _grid_layout((15, 15), 8.0)
        assert grid._steps is layout.steps
        for part in (layout.cells, layout.strides, layout.steps, layout.sides,
                     layout.source):
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0
        # the padding repeats the cells across the seam: padded cell
        # (0, 0) shows cell (14, 14), stored at padded (15, 15)
        assert layout.source[0] == 15 * 17 + 15
        assert layout.source[17 * 17 - 1] == 1 * 17 + 1

    def test_non_finite_points_rejected(self):
        with pytest.raises(CechError, match="finite"):
            NeighborGrid(np.array([[0.0, 1.0], [np.nan, 0.0]]), 0.5)

    def test_points_not_two_dimensional_rejected(self):
        with pytest.raises(CechError, match=re.escape("points must be an (n, d) array")):
            NeighborGrid(np.zeros(3), 0.5)

    @pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
    def test_non_positive_radius_rejected(self, r):
        with pytest.raises(CechError, match=f"radius must be positive, got {r}$"):
            NeighborGrid(np.zeros((3, 2)), r)

    @pytest.mark.parametrize("period", [np.nan, np.inf, 0.0, -2.0])
    def test_period_not_positive_and_finite_rejected(self, period):
        kind = "positive" if np.isfinite(period) else "a finite number"
        with pytest.raises(CechError, match=f"torus period must be {kind}, got {period}$"):
            NeighborGrid(np.random.default_rng(3).random((6, 2)), 0.5, period)


@example(runs=[(0, 5, 2), (1, 0, 0), (2, 9, 3), (3, 2, -4)])
@example(runs=[(7, 3, -1)])
@example(runs=[])
@settings(deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(-20, 50), st.integers(-3, 6)),
                max_size=12))
def test_ragged_pairs_match_a_loop(runs):
    # zero-length and negative-length runs add no pair, and no runs none
    want = [(left, start + t) for left, start, length in runs for t in range(length)]
    ii, jj = _ragged_pairs(*np.array(runs, dtype=np.int64).reshape(-1, 3).T)
    assert ii.dtype == jj.dtype == np.int64
    assert list(zip(ii.tolist(), jj.tolist())) == want


class TestBuildCech:
    def test_equilateral_triangle_radii(self):
        cloud = equilateral()
        cx = build_cech(cloud, 1.1, 2)
        assert cx.simplex_counts() == [3, 3]
        cx = build_cech(cloud, 1.2, 2)
        assert cx.simplex_counts() == [3, 3, 1]

    def test_cluster_is_complete_complex(self):
        # 6 points inside a ball of radius r/2: every subset is a simplex
        gen = np.random.default_rng(11)
        pts = gen.random((6, 3)) * 0.2 + 5.0
        r = 2 * min_enclosing_ball_radius(pts) + 0.01
        cx = build_cech(PointCloud(pts), r, 3)
        from math import comb
        assert cx.simplex_counts() == [comb(6, j + 1) for j in range(4)]

    def test_edge_criterion_matches_distance(self):
        gen = np.random.default_rng(12)
        pts = gen.random((40, 2)) * 2.0
        r = 0.4
        cx = build_cech(PointCloud(pts), r, 1)
        want = {
            (i, j)
            for i in range(40)
            for j in range(i + 1, 40)
            if np.linalg.norm(pts[i] - pts[j]) <= r + 2 * MINIBALL_TOL
        }
        assert np.array_equal(cx.simplices_of(1), as_rows(want, 1))

    def test_every_simplex_fits_in_ball(self):
        gen = np.random.default_rng(13)
        pts = gen.random((25, 2))
        r = 0.35
        cx = build_cech(PointCloud(pts), r, 3)
        for j in range(2, 4):
            for s in cx.simplices_of(j):
                assert min_enclosing_ball_radius(pts[list(s)]) <= r / 2 + MINIBALL_TOL

    @pytest.mark.parametrize("d, j, n, r, period, seed", [
        (2, 2, 18, 0.5, None, 14),
        (3, 3, 14, 0.8, None, 14),
        (3, 3, 14, 0.32, 1.0, 15),
        (2, 3, 14, 0.5, None, 15),
        (2, 2, 18, 0.32, 1.0, 15),
    ], ids=["d2_triangles", "d3_tetrahedra", "d3_torus_tetrahedra", "d2_tetrahedra",
            "d2_torus_triangles"])
    def test_no_qualifying_simplex_missed(self, d, j, n, r, period, seed):
        # brute force all (j+1)-subsets against the builder's j-simplices;
        # the torus cloud sits in a cluster across the corner of the cell,
        # so most subsets wrap, and each is unwrapped around its first vertex
        gen = np.random.default_rng(seed)
        if period is None:
            pts = gen.random((n, d))
        else:
            pts = np.mod(gen.random((n, d)) * 1.25 * r - 0.625 * r, period)
        cx = build_cech(PointCloud(pts), r, j, period=period)
        want = set()
        for t in itertools.combinations(range(n), j + 1):
            sub = pts[list(t)]
            if period is not None:
                delta = sub - sub[0]
                sub = sub[0] + delta - period * np.round(delta / period)
            if min_enclosing_ball_radius(sub) <= r / 2 + MINIBALL_TOL:
                want.add(t)
        rips = simplex_set(build_rips(PointCloud(pts), r, j, period=period), j)
        assert want and want != rips
        assert np.array_equal(cx.simplices_of(j), as_rows(want, j))

    def test_downward_closure(self):
        gen = np.random.default_rng(15)
        pts = gen.random((20, 3))
        cx = build_cech(PointCloud(pts), 0.6, 4)
        levels = [simplex_set(cx, j) for j in range(len(cx.simplices))]
        for j in range(1, len(levels)):
            for s in levels[j]:
                for facet in itertools.combinations(s, j):
                    assert facet in levels[j - 1]

    def test_monotone_in_radius(self):
        gen = np.random.default_rng(16)
        pts = gen.random((25, 2))
        small = build_cech(PointCloud(pts), 0.3, 3)
        big = build_cech(PointCloud(pts), 0.45, 3)
        for j in range(len(small.simplices)):
            assert simplex_set(small, j) <= simplex_set(big, j)

    def test_one_dimensional_cech_equals_rips(self):
        gen = np.random.default_rng(17)
        pts = gen.random((30, 1)) * 4.0
        cech = build_cech(PointCloud(pts), 0.5, 3)
        rips = build_rips(PointCloud(pts), 0.5, 3)
        assert cech == rips

    def test_invalid_arguments(self):
        cloud = equilateral()
        with pytest.raises(CechError):
            build_cech(cloud, 0.0, 2)
        with pytest.raises(CechError):
            build_cech(cloud, 1.0, -1)
        with pytest.raises(CechError):
            build_cech(cloud, 1.0, 2, period=2.5)

    def test_level_expansion_capped(self, monkeypatch):
        # 30 points within r/2 of each other: their 435 candidate pairs pass
        # a cap of 1000, the 4060 triangle candidates do not
        monkeypatch.setattr("betti_thermo.cech.MAX_CANDIDATES", 1000)
        cloud = PointCloud(np.random.default_rng(12).random((30, 2)) * 0.1)
        assert len(build_cech(cloud, 1.0, 1).simplices_of(1)) == 435
        message = "one expansion lists 4060 candidates, more than the cap of 1000"
        with pytest.raises(CechError, match=re.escape(message) + "$"):
            build_cech(cloud, 1.0, 2)

    @pytest.mark.parametrize("dim, r, max_dim, period, message", [
        (2, -0.5, 2, None, "radius must be positive, got -0.5"),
        (2, np.nan, 2, None, "radius must be positive, got nan"),
        (2, 1.0, -1, None, "max_dim must be non-negative, got -1"),
        (2, 1.0, 2, np.nan, "torus period must be a finite number, got nan"),
        (2, 1.0, 2, np.inf, "torus period must be a finite number, got inf"),
        (2, 1.0, 2, 3.0, "torus period 3.0 too small for radius 1.0: "
                         "need period > 3r so simplices cannot wrap"),
        # a float max_dim failed in range() with a TypeError, and r=True
        # built at radius 1
        (2, 0.3, 1.5, None, "max_dim must be an integer, got 1.5"),
        (2, True, 1, None, "radius must be a number, got True"),
        # the neighbour grid enumerates the 3^d cell offsets: d = 7 built,
        # and d = 20 stalled in the enumeration, which raises here instead
        (7, 1.0, 2, None, "dimension must lie in 1..6, got 7"),
        (20, 1.0, 2, None, "dimension must lie in 1..6, got 20"),
    ], ids=["r", "r-nan", "max-dim", "period-nan", "period-inf", "period-3r",
            "float-max-dim", "bool-r", "dim-7", "dim-20"])
    def test_message_names_the_value(self, monkeypatch, dim, r, max_dim, period, message):
        def half_offsets(d):
            raise AssertionError(f"enumerated the cell offsets of d={d}")

        monkeypatch.setattr("betti_thermo.cech._half_offsets", half_offsets)
        cloud = equilateral() if dim == 2 else PointCloud(np.eye(3, dim))
        with pytest.raises(CechError, match=re.escape(message) + "$"):
            build_cech(cloud, r, max_dim, period=period)

    @pytest.mark.parametrize("r", [1e155, 1e300, 1.7976931348623157e308])
    def test_radius_whose_square_overflows_gives_the_complete_complex(self, r):
        # (r/2)^2 overflowed with an OverflowError; a cut past the largest
        # float admits every simplex
        cloud = PointCloud(np.random.default_rng(5).random((7, 2)) * 1e3)
        cx = build_cech(cloud, r, 3)
        assert cx.simplex_counts() == [7, 21, 35, 35]
        assert list(betti_numbers(cx, 2)) == [1, 0, 0]

    def test_empty_and_single_point(self):
        assert build_cech(PointCloud.empty(2), 1.0, 2).simplex_counts() == [0]
        one = build_cech(PointCloud(np.array([[0.5, 0.5]])), 1.0, 2)
        assert one.simplex_counts() == [1]


def rotation(a: float, b: float, c: float) -> np.ndarray:
    """3-d rotation from Euler angles (z, then y, then z)."""
    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0],
                   [-np.sin(b), 0.0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


def assert_cech_matches_brute_force(cloud: PointCloud, r: float):
    """build_cech against every vertex subset under the Welzl oracle."""
    pts = cloud.points
    n = len(pts)
    cx = build_cech(cloud, r, n - 1)
    for j in range(n):
        want = {
            t for t in itertools.combinations(range(n), j + 1)
            if min_enclosing_ball_radius(pts[list(t)]) <= r / 2 + MINIBALL_TOL
        }
        assert np.array_equal(cx.simplices_of(j), as_rows(want, j)), f"dimension {j}"


angle = st.floats(0.0, 2.0 * np.pi)
degenerate = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestDegenerateGeometry:
    """Near-degenerate inputs for the closed-form miniball filter, each
    checked against brute-force enumeration with the Welzl oracle."""

    @degenerate
    @given(st.floats(0.2, 5.0), st.floats(-1e-13, 1e-13), angle, angle, angle,
           st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    def test_regular_tetrahedron_at_threshold(self, r, eps, a, b, c, shift):
        # circumcenter at the centroid; miniball radius r/2 + eps
        corners = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                            [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        pts = corners * ((r / 2 + eps) / sqrt(3.0)) @ rotation(a, b, c).T + shift
        assert_cech_matches_brute_force(PointCloud(pts), r)

    @degenerate
    @given(st.tuples(*[st.floats(0.5, 2.0)] * 3), st.floats(0.0, 1.0),
           angle, angle, angle)
    def test_right_corner_tetrahedron(self, legs, u, a, b, c):
        # vertices 0, a e1, b e2, c e3: the circumcenter, the far corner
        # of the half-size box, lies outside, so the miniball is the
        # largest facet's; r/2 is drawn between that and the circumradius
        pts = np.vstack([np.zeros(3), np.diag(legs)]) @ rotation(a, b, c).T
        facet = max(min_enclosing_ball_radius(np.delete(pts, i, axis=0))
                    for i in range(4))
        circum = 0.5 * float(np.linalg.norm(legs))
        assert_cech_matches_brute_force(PointCloud(pts),
                                        2.0 * (facet + u * (circum - facet)))

    @degenerate
    @given(st.floats(0.2, 5.0), st.sampled_from([-1e-3, -1e-13, 0.0, 1e-13]),
           angle, angle, st.floats(0.1, np.pi / 2))
    def test_circumcenter_on_a_face(self, radius, rel, t1, t2, polar):
        # three points on the equator, the second a diameter away from the
        # first, so the face has a right angle at the third, and an apex on
        # the sphere: the circumcenter is the midpoint of the hypotenuse,
        # on two faces of the tetrahedron
        equator = [t1, t1 + np.pi, t2]
        pts = radius * np.array(
            [[np.cos(t), np.sin(t), 0.0] for t in equator]
            + [[np.sin(polar), 0.0, np.cos(polar)]])
        assert_cech_matches_brute_force(PointCloud(pts), 2.0 * radius * (1.0 + rel))

    @pytest.mark.parametrize("height, tetrahedra", [(1.0 - 3e-7, 1), (1.0 + 3e-7, 0)],
                             ids=["circumcenter-below-the-base", "circumcenter-inside"])
    def test_circumcenter_just_past_the_base_at_scale(self, height, tetrahedra):
        # an acute base inscribed in a circle of radius R in z = 0, and the
        # apex, the first vertex, at height h = R(1 -/+ 3e-7) above its centre.
        # The circumcenter (0, 0, (h^2 - R^2) / 2h) lies just below the base or
        # just inside, and the circumradius (h^2 + R^2) / 2h exceeds R by
        # 4.5e-11; r/2 lies halfway. Below, Welzl's miniball is the base's
        # circumball, of radius R <= r/2, and the tetrahedron is in; inside,
        # the circumball is the miniball and it is out. An inside test
        # loosened by 1e-6 would call the first circumcenter inside and drop
        # that tetrahedron; at unit scale it errs only within MINIBALL_TOL
        R = 1000.0
        h = R * height
        base = [[R * np.cos(t), R * np.sin(t), 0.0] for t in (0.3, 2.2, 4.1)]
        cloud = PointCloud(np.array([[0.0, 0.0, h]] + base))
        r = R + (h * h + R * R) / (2.0 * h)
        cx = build_cech(cloud, r, 3)
        assert len(cx.simplices_of(2)) == 4
        assert len(cx.simplices_of(3)) == tetrahedra
        assert_cech_matches_brute_force(cloud, r)

    @degenerate
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=4, max_size=6),
           st.floats(0.5, 3.0), st.booleans(), angle, angle, angle)
    # a subnormal coordinate makes the tetrahedron's Gram matrix nearly
    # singular: the solve returns inf/nan, and the filter must not warn
    @example(xy=[(2.2250738585e-313, 0.0), (0.0, 0.25), (0.0, 0.0), (0.5, -0.5)],
             r=1.0, rotate=False, a=0.0, b=0.0, c=0.0)
    def test_coplanar_points_in_space(self, xy, r, rotate, a, b, c):
        pts = np.array([[x, y, 0.0] for x, y in xy])
        if rotate:
            pts = pts @ rotation(a, b, c).T
        assert_cech_matches_brute_force(PointCloud(pts), r)

    @degenerate
    @given(st.lists(angle, min_size=4, max_size=6), st.integers(2, 3),
           st.floats(0.2, 3.0), st.sampled_from([-1e-3, -1e-13, 0.0, 1e-13, 1e-3]),
           st.floats(0.0, 1.5), st.floats(-3.0, 3.0))
    def test_cocircular_and_cospherical(self, thetas, d, radius, rel, tilt, shift):
        # d=2: points on one circle. d=3: on one sphere, at latitudes
        # -tilt, 0 and tilt; tilt 0 puts them on one circle in space
        if d == 2:
            rows = [[np.cos(t), np.sin(t)] for t in thetas]
        else:
            lats = [tilt * (i % 3 - 1) for i in range(len(thetas))]
            rows = [[np.cos(t) * np.cos(lat), np.sin(t) * np.cos(lat), np.sin(lat)]
                    for t, lat in zip(thetas, lats)]
        pts = radius * np.array(rows) + shift
        assert_cech_matches_brute_force(PointCloud(pts), 2.0 * radius * (1.0 + rel))

    @pytest.mark.parametrize("height, tetrahedra", [(1.0 - 3e-7, 1), (1.0 + 3e-7, 0)],
                             ids=["circumcenter-below-the-base", "circumcenter-inside"])
    def test_circumcenter_just_past_the_base_at_scale(self, height, tetrahedra):
        # an acute base inscribed in a circle of radius R in z = 0, and the
        # apex, the first vertex, at height h = R(1 -/+ 3e-7) above its centre.
        # The circumcenter (0, 0, (h^2 - R^2) / 2h) lies just below the base or
        # just inside, and the circumradius (h^2 + R^2) / 2h exceeds R by
        # 4.5e-11; r/2 lies halfway. Below, Welzl's miniball is the base's
        # circumball, of radius R <= r/2, and the tetrahedron is in; inside,
        # the circumball is the miniball and it is out. An inside test
        # loosened by 1e-6 would call the first circumcenter inside and drop
        # that tetrahedron; at unit scale it errs only within MINIBALL_TOL
        R = 1000.0
        h = R * height
        base = [[R * np.cos(t), R * np.sin(t), 0.0] for t in (0.3, 2.2, 4.1)]
        cloud = PointCloud(np.array([[0.0, 0.0, h]] + base))
        r = R + (h * h + R * R) / (2.0 * h)
        cx = build_cech(cloud, r, 3)
        assert len(cx.simplices_of(2)) == 4
        assert len(cx.simplices_of(3)) == tetrahedra
        assert_cech_matches_brute_force(cloud, r)

    @degenerate
    @given(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=3, max_size=5,
                    unique=True),
           st.lists(st.integers(0, 4), min_size=1, max_size=3),
           st.booleans(), st.floats(0.3, 2.0))
    def test_duplicates_after_superpose(self, base, copies, nudge, r):
        # exact copies are dropped by PointCloud; one-ulp copies stay and
        # give Gram matrices with a near-zero row
        a = PointCloud(np.array(base))
        extra = a.points[[i % len(base) for i in copies]]
        if nudge:
            extra = np.nextafter(extra, np.inf)
        cloud = superpose(a, PointCloud(extra))
        if not nudge:
            assert len(cloud) == len(base)
        assert_cech_matches_brute_force(cloud, r)

    @degenerate
    @given(st.floats(0.2, 5.0), st.sampled_from([-1e-3, -1e-13, 0.0, 1e-13, 1e-3]),
           st.floats(-0.2, 1.2), st.sampled_from([0.0, 1e-300, 1e-13, 1e-7, 1e-3]),
           st.integers(2, 3), angle, angle, angle, st.floats(-3.0, 3.0))
    # needles right to rounding at an end point, which Heron's formula on
    # the squared lengths dropped (its denominator cancels); the second
    # also fails |u x v| taken where the edges are almost parallel
    @example(r=0.7578649179988983, rel=-1e-3, t=0.0, height=1e-7, d=3,
             a=0.0, b=0.0, c=1.1875, shift=1.0)
    @example(r=1.0, rel=1e-13, t=1.0, height=1e-7, d=2, a=3.0, b=0.0, c=0.0,
             shift=0.0)
    def test_near_collinear_triple_at_threshold(self, r, rel, t, height, d,
                                                a, b, c, shift):
        # two points r(1 + rel) apart and a third at fraction t along their
        # segment, lifted height * r off it: an obtuse or flat triangle, or
        # a needle with a right angle to rounding at t = 0 or 1; for t in
        # [0, 1] the miniball is the half ball of the longest edge, r/2 at
        # rel 0, while the circumradius blows up as height -> 0
        span = r * (1.0 + rel)
        pts = np.array([[0.0, 0.0, 0.0], [span, 0.0, 0.0],
                        [t * span, height * r, 0.0]])
        rot = rotation(a, b, c) if d == 3 else rotation(a, 0.0, 0.0)[:2, :2]
        assert_cech_matches_brute_force(PointCloud(pts[:, :d] @ rot.T + shift), r)

    def test_near_right_triangle_with_a_tiny_edge(self):
        # a cospherical triple with one edge of 1e-7: the angle at the
        # first point is 90 deg plus about 1e-10 rad, so the miniball is
        # the half ball of the longest edge (1.74743), which fits r/2 =
        # 1.74825; summed squared edge lengths once missed the right angle
        # and the cancelling Heron formula gave 1.78121
        R, t = 1.75, 5.96e-8
        pts = R * np.array([[1.0, 0.0, 0.0],
                            [np.cos(t), 0.0, np.sin(t)],
                            [np.cos(3.25) * np.cos(t), np.sin(3.25) * np.cos(t),
                             -np.sin(t)]])
        half_r = 1.74825
        assert min_enclosing_ball_radius(pts) == pytest.approx(1.74743, abs=1e-5)
        assert build_cech(PointCloud(pts), 2 * half_r, 2).simplex_counts() == [3, 3, 1]
        assert_cech_matches_brute_force(PointCloud(pts), 2 * half_r)

    def test_flat_triangle_with_a_tiny_edge(self):
        # triangle 1-2-3 is acute by dot products, but right to rounding:
        # its Heron denominator cancels to 0, so it must take the half
        # ball of its unit edge, radius 1/2 = r/2
        pts = np.array([[0.0, 0.0], [0.0, 2.220446049250313e-16],
                        [1.4280704898415768e-44, 0.0], [-1.0, 0.0]])
        assert_cech_matches_brute_force(PointCloud(pts), 1.0)


class TestRips:
    def test_triangle_present_at_clique_radius(self):
        # pairwise distances 1 <= 1.1, so Rips keeps the triangle that
        # the Cech filter rejects at the same radius
        cloud = equilateral()
        assert build_rips(cloud, 1.1, 2).simplex_counts() == [3, 3, 1]
        assert build_cech(cloud, 1.1, 2).simplex_counts() == [3, 3]

    def test_distant_points_isolated(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.5, 0.0]]))
        assert build_rips(cloud, 1.0, 2).simplex_counts() == [2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("torus", [False, True], ids=["plain", "torus"])
    def test_cliques_match_brute_force(self, d, torus):
        # every vertex subset whose pairwise (minimum-image) distances are
        # all within r; on the torus the cluster straddles the cell corner,
        # so most subsets wrap
        gen = np.random.default_rng(60 + 10 * d + torus)
        r, n, top = 0.5, 14, 4
        period = 3.2 * r if torus else None
        found = [0] * (top + 1)
        for spread in (1.0, 1.5, 2.5):
            pts = gen.random((n, d)) * spread * r
            if torus:
                pts = np.mod(pts - 0.5 * spread * r, period)
            delta = pts[:, None, :] - pts[None, :, :]
            if torus:
                delta = delta - period * np.round(delta / period)
            near = np.sqrt((delta ** 2).sum(axis=2)) <= r + 2 * MINIBALL_TOL
            cx = build_rips(PointCloud(pts), r, top, period=period)
            for j in range(top + 1):
                want = {t for t in itertools.combinations(range(n), j + 1)
                        if all(near[a, b] for a, b in itertools.combinations(t, 2))}
                assert np.array_equal(cx.simplices_of(j), as_rows(want, j)), \
                    f"spread {spread}, dimension {j}"
                found[j] += len(want)
        # every level is reached, and not every pair is an edge
        assert all(found) and found[1] < 3 * n * (n - 1) // 2

    def test_cech_contained_in_rips(self):
        gen = np.random.default_rng(18)
        for trial in range(10):
            pts = gen.random((22, 2)) * 1.5
            r = float(gen.uniform(0.2, 0.6))
            cech = build_cech(PointCloud(pts), r, 3)
            rips = build_rips(PointCloud(pts), r, 3)
            for j in range(len(cech.simplices)):
                assert simplex_set(cech, j) <= simplex_set(rips, j)


class TestTorus:
    def test_translation_invariance(self):
        # complexes on the flat torus do not change when the whole cloud
        # is translated (indices are preserved)
        gen = np.random.default_rng(19)
        period = 4.0
        pts = gen.random((40, 2)) * period
        shift = gen.random(2) * period
        base = build_cech(PointCloud(pts), 1.0, 2, period=period)
        moved = build_cech(PointCloud(np.mod(pts + shift, period)), 1.0, 2, period=period)
        assert base == moved

    def test_interior_cloud_matches_plain_metric(self):
        gen = np.random.default_rng(20)
        pts = gen.random((30, 2)) + 2.0  # well inside [0, 5)^2
        torus = build_cech(PointCloud(pts), 0.8, 2, period=5.0)
        plain = build_cech(PointCloud(pts), 0.8, 2)
        assert torus == plain

    def test_wraparound_edge(self):
        pts = np.array([[0.05, 1.0], [3.95, 1.0]])
        cx = build_cech(PointCloud(pts), 0.5, 1, period=4.0)
        assert cx.simplices_of(1).tolist() == [[0, 1]]
        assert len(build_cech(PointCloud(pts), 0.5, 1).simplices_of(1)) == 0

    @pytest.mark.parametrize("d, period, n, seed", [
        (2, 3.0 + 1e-9, 22, 40),
        (2, 3.05, 22, 41),
        (2, 3.1, 22, 42),
        (3, 3.02, 26, 43),
        (3, 3.1, 26, 44),
    ])
    def test_period_just_above_three_r(self, d, period, n, seed):
        # r = 1 and 3r < period <= 3.1r: the grid has 3 cells per axis, so
        # most simplices wrap. Brute force: a simplex fits in a torus ball
        # of radius r/2 iff some lift of its vertices has a miniball that
        # small; every vertex of such a lift lies within r of the first,
        # and, as period > 2r, only one of the 3^d images of a point can
        gen = np.random.default_rng(seed)
        pts = gen.random((n, d)) * period
        cx = build_cech(PointCloud(pts), 1.0, d, period=period)
        images = period * np.array(list(itertools.product((-1, 0, 1), repeat=d)))

        def lift(first, other):
            cand = pts[other] + images
            near = ((cand - pts[first]) ** 2).sum(axis=1) <= (1.0 + 2 * MINIBALL_TOL) ** 2
            return cand[near][0] if near.any() else None

        for j in range(1, d + 1):
            want = set()
            for t in itertools.combinations(range(n), j + 1):
                lifted = [lift(t[0], v) for v in t[1:]]
                if any(q is None for q in lifted):
                    continue
                sub = np.vstack([pts[t[0]]] + lifted)
                if min_enclosing_ball_radius(sub) <= 0.5 + MINIBALL_TOL:
                    want.add(t)
            assert want, f"dimension {j}"
            assert np.array_equal(cx.simplices_of(j), as_rows(want, j)), f"dimension {j}"

    @pytest.mark.parametrize("d", [2, 3], ids=["triangle", "tetrahedron"])
    def test_seam_simplex_at_the_threshold(self, d):
        # a regular simplex whose circumcenter sits on the corner of the
        # cell, so each vertex unwraps across a seam through its edge from
        # vertex 0; its miniball radius R is its circumradius. At r/2 =
        # R - offset it is in exactly when R <= r/2 + MINIBALL_TOL, on the
        # torus as on a plain copy in the middle of the cell
        corners = {2: [[1.0, 0.0], [-0.5, sqrt(3.0) / 2], [-0.5, -sqrt(3.0) / 2]],
                   3: np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                                [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / sqrt(3.0)}
        lifted = 0.15 * np.array(corners[d])
        radius = min_enclosing_ball_radius(lifted)
        for offset, inside in ((-1e-12, True), (0.5e-12, True), (1.5e-12, False),
                               (3e-12, False)):
            r = 2.0 * (radius - offset)
            torus = build_cech(PointCloud(np.mod(lifted, 1.0)), r, d, period=1.0)
            plain = build_cech(PointCloud(lifted + 0.5), r, d)
            assert simplex_count(torus, d) == simplex_count(plain, d) == inside, offset
            assert simplex_count(torus, d - 1) == d + 1

    def test_wraparound_triangle(self):
        # equilateral-ish triangle straddling the seam
        shift = np.array([3.9, 0.0])
        pts = np.mod(equilateral().points + shift, 4.0)
        cx = build_cech(PointCloud(pts), 1.2, 2, period=4.0)
        assert simplex_count(cx, 2) == 1


class TestCounts:
    def test_vertex_count_identity(self):
        gen = np.random.default_rng(21)
        pts = gen.random((20, 2))
        cx = build_cech(PointCloud(pts), 0.5, 3)
        for j in range(len(cx.simplices)):
            total = sum(vertex_simplex_count(cx, v, j) for v in range(20))
            assert total == (j + 1) * simplex_count(cx, j)

    def test_simplex_count_out_of_range(self):
        cx = build_cech(equilateral(), 1.2, 2)
        assert simplex_count(cx, 7) == 0
        with pytest.raises(CechError):
            simplex_count(cx, -1)

    def test_touching_full_and_empty_region(self):
        gen = np.random.default_rng(22)
        pts = gen.random((15, 2))
        cloud = PointCloud(pts)
        cx = build_cech(cloud, 0.6, 2)
        everything = Window(np.array([-1.0, -1.0]), np.array([2.0, 2.0]))
        marked = everything.contains(cloud.points)
        for j in range(3):
            assert simplices_touching(cx, marked, j) == simplex_count(cx, j)
            assert simplices_touching(cx, np.zeros(len(cloud), dtype=bool), j) == 0

    def test_touching_matches_direct_enumeration(self):
        gen = np.random.default_rng(23)
        pts = gen.random((25, 2))
        cloud = PointCloud(pts)
        cx = build_cech(cloud, 0.5, 2)
        strip = Window(np.array([0.4, -1.0]), np.array([0.6, 2.0]))
        inside = {i for i in range(len(cloud)) if strip.contains(pts[i:i + 1])[0]}
        for j in range(3):
            want = sum(1 for s in cx.simplices_of(j).tolist() if inside & set(s))
            assert simplices_touching(cx, strip.contains(pts), j) == want

    @pytest.mark.parametrize("shape", [(14,), (16,), (15, 1)])
    def test_touching_rejects_a_mask_of_another_shape(self, shape):
        cx = build_cech(PointCloud(np.random.default_rng(24).random((15, 2))), 0.5, 2)
        with pytest.raises(CechError, match=rf"shape \({shape[0]},"):
            simplices_touching(cx, np.ones(shape, dtype=bool), 1)


class TestFacets:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("torus", [False, True], ids=["plain", "torus"])
    def test_columns_index_the_facets(self, d, torus):
        # column c of facets[j] is the index, in level j-1, of the row
        # without vertex j-c, found here through a dict over row tuples;
        # column 0 (the parent) with the last vertex keys each level in
        # increasing order. Every third cloud sits on a quarter-unit lattice
        gen = np.random.default_rng(90 + 2 * d + torus)
        period = 2.0 if torus else None
        for trial in range(9):
            n = int(gen.integers(2, 45))
            pts = gen.random((n, d)) * 2.0
            if trial % 3 == 0:
                pts = np.round(pts * 4) / 4
            cloud = PointCloud(pts)
            n = len(cloud)
            r = float(gen.uniform(0.25, 0.65)) * (0.5 if d == 1 else 1.0)
            for build in (build_cech, build_rips):
                cx = build(cloud, r, d + 1, period=period)
                assert len(cx.facets) == len(cx.simplices)
                assert cx.facets[0].shape == (n, 0)
                if len(cx.simplices) > 1:
                    assert cx.facets[1] is cx.simplices[1]
                for j in range(1, len(cx.simplices)):
                    index = {s: i for i, s in enumerate(map(tuple, cx.simplices[j - 1].tolist()))}
                    want = [[index[s[:j - c] + s[j - c + 1:]] for c in range(j + 1)]
                            for s in map(tuple, cx.simplices[j].tolist())]
                    got = cx.facets[j]
                    assert got.dtype == np.int64 and got.shape == (len(want), j + 1)
                    assert got.tolist() == want, (build, j)
                    keys = got[:, 0] * n + cx.simplices[j][:, -1]
                    assert (np.diff(keys) > 0).all()


def assert_same_complex(got, want):
    assert got == want
    assert got.vertex_count == want.vertex_count
    assert len(got.facets) == len(want.facets)
    for a, b in zip(got.facets, want.facets):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    if len(got.simplices) > 1:
        assert np.array_equal(got.facets[1], got.simplices[1])


class TestRestrict:
    # the oracle is the complex built on the labelled points alone: a
    # restriction must equal it row for row, facets included
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("torus", [False, True], ids=["plain", "torus"])
    def test_matches_the_sub_cloud_build(self, d, torus):
        # labels in -1..parts-1; every fourth cloud on a half-unit lattice,
        # where pairs sit exactly r apart for r = 0.5
        gen = np.random.default_rng(140 + 2 * d + torus)
        period = 2.0 if torus else None
        for trial in range(8):
            pts = gen.random((int(gen.integers(2, 70)), d)) * 2.0
            if trial % 4 == 0:
                pts = np.round(pts * 2) / 2
            cloud = PointCloud(pts)
            r = 0.5 if trial % 4 == 0 else float(gen.uniform(0.25, 0.65))
            if d == 1:
                r *= 0.5
            parts = int(gen.integers(1, 4))
            labels = gen.integers(-1, parts, size=len(cloud))
            for build in (build_cech, build_rips):
                cx = build(cloud, r, d + 1, period=period)
                total = np.zeros(d + 1, dtype=int)
                for part in range(parts):
                    mask = labels == part
                    want = build(PointCloud(cloud.points[mask]), r, d + 1, period=period)
                    assert_same_complex(cx.restrict(np.where(mask, 0, -1)), want)
                    total += betti_numbers(want, d)
                # the Betti numbers of a disjoint union add
                union = cx.restrict(labels)
                assert union.vertex_count == np.count_nonzero(labels >= 0)
                assert betti_numbers(union, d) == tuple(total)

    def test_edge_cases(self):
        gen = np.random.default_rng(150)
        cloud = random_cloud(30, 2, gen, spread=2.0)
        cx = build_cech(cloud, 0.6, 2)
        nobody = cx.restrict(np.full(len(cloud), -1))
        assert_same_complex(nobody, build_cech(PointCloud.empty(2), 0.6, 2))
        assert nobody.simplices[0].shape == (0, 1)
        one = np.full(len(cloud), -1)
        one[7] = 3
        assert_same_complex(cx.restrict(one), build_cech(PointCloud(cloud.points[7:8]), 0.6, 2))
        assert_same_complex(cx.restrict(np.zeros(len(cloud), dtype=int)), cx)
        empty = build_cech(PointCloud.empty(2), 0.6, 2)
        assert_same_complex(empty.restrict(np.empty(0, dtype=int)), empty)
        with pytest.raises(CechError, match="one label per vertex"):
            cx.restrict(np.zeros(len(cloud) - 1, dtype=int))
