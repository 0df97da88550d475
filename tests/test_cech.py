"""Complex-construction checks.

The derived oracles here are written independently of the library code
paths: a subset-enumeration miniball (lstsq on the un-halved bisector
system), brute-force pair scans for the neighbor grid, and direct facet
enumeration for downward closure.
"""

import itertools
from math import sqrt

import numpy as np
import pytest

from betti_thermo.cech import (
    CechError,
    MINIBALL_TOL,
    NeighborGrid,
    build_cech,
    build_rips,
    min_enclosing_ball_radius,
    simplex_count,
    simplices_touching,
    vertex_simplex_count,
)
from betti_thermo.pointproc import PointCloud, RngStream, Window


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
        n = len(pts)
        out = set()
        for i in range(n):
            for j in range(i + 1, n):
                delta = pts[i] - pts[j]
                if period is not None:
                    delta = delta - period * np.round(delta / period)
                if float(delta @ delta) <= (r + 2 * MINIBALL_TOL) ** 2:
                    out.add((i, j))
        return out

    def test_pairs_match_brute_force_plain(self):
        gen = np.random.default_rng(7)
        for trial in range(40):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(2, 60))
            pts = gen.random((n, d)) * 3.0
            r = float(gen.uniform(0.05, 1.0))
            u, v = NeighborGrid(pts, cell_size=r).pairs_within(r)
            assert set(zip(u.tolist(), v.tolist())) == self.brute_pairs(pts, r)

    def test_pairs_match_brute_force_torus(self):
        gen = np.random.default_rng(8)
        for trial in range(40):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(2, 60))
            period = float(gen.uniform(2.0, 6.0))
            pts = gen.random((n, d)) * period
            r = float(gen.uniform(0.05, period / 3.2))
            u, v = NeighborGrid(pts, cell_size=r, period=period).pairs_within(r)
            assert set(zip(u.tolist(), v.tolist())) == self.brute_pairs(pts, r, period)

    def test_torus_small_grid_falls_back(self):
        # period / r < 3 cells: brute-force path, same answer
        pts = np.array([[0.1, 0.1], [1.9, 1.9], [1.0, 1.0]])
        grid = NeighborGrid(pts, cell_size=0.9, period=2.0)
        u, v = grid.pairs_within(0.9)
        assert set(zip(u.tolist(), v.tolist())) == self.brute_pairs(pts, 0.9, 2.0)

    def test_pair_order_deterministic(self):
        gen = np.random.default_rng(9)
        pts = gen.random((50, 2))
        a = NeighborGrid(pts, 0.3).pairs_within(0.3)
        b = NeighborGrid(pts, 0.3).pairs_within(0.3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert list(zip(a[0], a[1])) == sorted(zip(a[0], a[1]))

    def test_radius_above_cell_size_rejected(self):
        with pytest.raises(CechError):
            NeighborGrid(np.zeros((3, 2)), 0.5).pairs_within(0.8)


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
        assert set(cx.simplices_of(1)) == want

    def test_every_simplex_fits_in_ball(self):
        gen = np.random.default_rng(13)
        pts = gen.random((25, 2))
        r = 0.35
        cx = build_cech(PointCloud(pts), r, 3)
        for j in range(2, 4):
            for s in cx.simplices_of(j):
                assert min_enclosing_ball_radius(pts[list(s)]) <= r / 2 + MINIBALL_TOL

    def test_no_qualifying_simplex_missed(self):
        # brute force all triples against the builder's triangle list
        gen = np.random.default_rng(14)
        pts = gen.random((18, 2))
        r = 0.5
        cx = build_cech(PointCloud(pts), r, 2)
        want = {
            t for t in itertools.combinations(range(18), 3)
            if min_enclosing_ball_radius(pts[list(t)]) <= r / 2 + MINIBALL_TOL
        }
        assert set(cx.simplices_of(2)) == want

    def test_downward_closure(self):
        gen = np.random.default_rng(15)
        pts = gen.random((20, 3))
        cx = build_cech(PointCloud(pts), 0.6, 4)
        levels = [set(cx.simplices_of(j)) for j in range(len(cx.simplices))]
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
            assert set(small.simplices_of(j)) <= set(big.simplices_of(j))

    def test_one_dimensional_cech_equals_rips(self):
        gen = np.random.default_rng(17)
        pts = gen.random((30, 1)) * 4.0
        cech = build_cech(PointCloud(pts), 0.5, 3)
        rips = build_rips(PointCloud(pts), 0.5, 3)
        assert cech.simplices == rips.simplices

    def test_invalid_arguments(self):
        cloud = equilateral()
        with pytest.raises(CechError):
            build_cech(cloud, 0.0, 2)
        with pytest.raises(CechError):
            build_cech(cloud, 1.0, -1)
        with pytest.raises(CechError):
            build_cech(cloud, 1.0, 2, period=2.5)

    def test_empty_and_single_point(self):
        assert build_cech(PointCloud.empty(2), 1.0, 2).simplex_counts() == [0]
        one = build_cech(PointCloud(np.array([[0.5, 0.5]])), 1.0, 2)
        assert one.simplex_counts() == [1]


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

    def test_cech_contained_in_rips(self):
        gen = np.random.default_rng(18)
        for trial in range(10):
            pts = gen.random((22, 2)) * 1.5
            r = float(gen.uniform(0.2, 0.6))
            cech = build_cech(PointCloud(pts), r, 3)
            rips = build_rips(PointCloud(pts), r, 3)
            for j in range(len(cech.simplices)):
                assert set(cech.simplices_of(j)) <= set(rips.simplices_of(j))


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
        assert base.simplices == moved.simplices

    def test_interior_cloud_matches_plain_metric(self):
        gen = np.random.default_rng(20)
        pts = gen.random((30, 2)) + 2.0  # well inside [0, 5)^2
        torus = build_cech(PointCloud(pts), 0.8, 2, period=5.0)
        plain = build_cech(PointCloud(pts), 0.8, 2)
        assert torus.simplices == plain.simplices

    def test_wraparound_edge(self):
        pts = np.array([[0.05, 1.0], [3.95, 1.0]])
        cx = build_cech(PointCloud(pts), 0.5, 1, period=4.0)
        assert cx.simplices_of(1) == ((0, 1),)
        assert build_cech(PointCloud(pts), 0.5, 1).simplices_of(1) == ()

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
        for j in range(3):
            assert simplices_touching(cx, cloud, [everything], j) == simplex_count(cx, j)
            assert simplices_touching(cx, cloud, [], j) == 0

    def test_touching_matches_direct_enumeration(self):
        gen = np.random.default_rng(23)
        pts = gen.random((25, 2))
        cloud = PointCloud(pts)
        cx = build_cech(cloud, 0.5, 2)
        strip = Window(np.array([0.4, -1.0]), np.array([0.6, 2.0]))
        inside = {i for i in range(len(cloud)) if strip.contains(pts[i:i + 1])[0]}
        for j in range(3):
            want = sum(1 for s in cx.simplices_of(j) if inside & set(s))
            assert simplices_touching(cx, cloud, [strip], j) == want


class TestDump:
    def test_dump_lists_every_simplex_dimension_sorted(self, tmp_path):
        cx = build_cech(equilateral(), 1.2, 2)
        path = tmp_path / "complex.dat"
        cx.dump(path)
        lines = path.read_text().splitlines()
        assert len(lines) == sum(cx.simplex_counts())
        sizes = [len(line.split()) for line in lines]
        assert sizes == sorted(sizes)
        assert lines[-1] == "0 1 2"

    def test_dump_deterministic(self):
        gen = np.random.default_rng(24)
        pts = gen.random((20, 2))
        a = build_cech(PointCloud(pts), 0.5, 2).dumps()
        b = build_cech(PointCloud(pts), 0.5, 2).dumps()
        assert a == b
