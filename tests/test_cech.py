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
from hypothesis import example, given, settings, strategies as st

from betti_thermo.cech import (
    CechError,
    MINIBALL_TOL,
    NeighborGrid,
    build_cech,
    build_rips,
    lex_keys,
    min_enclosing_ball_radius,
    simplex_count,
    simplices_touching,
    vertex_simplex_count,
)
from betti_thermo.pointproc import PointCloud, RngStream, Window, superpose


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
    ], ids=["d2_triangles", "d3_tetrahedra", "d3_torus_tetrahedra", "d2_tetrahedra"])
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
            want = sum(1 for s in cx.simplices_of(j).tolist() if inside & set(s))
            assert simplices_touching(cx, cloud, [strip], j) == want


class TestKeys:
    def test_byte_keys_give_the_same_complexes(self, monkeypatch):
        # the builder and the boundary matrices take byte keys only when
        # n**(j+1) reaches 2**63; forcing that branch must change nothing
        from betti_thermo import cech, homology
        from betti_thermo.homology import betti_numbers

        gen = np.random.default_rng(26)
        cases = []
        for d in (2, 3, 4):
            for period in (None, 1.4):
                cases.append((PointCloud(gen.random((40, d)) * 1.4), 0.45, period))

        def run():
            out = []
            for cloud, r, period in cases:
                cx = build_cech(cloud, r, 4, period=period)
                out.append((cx, build_rips(cloud, r, 4, period=period),
                            tuple(betti_numbers(cx, 3))))
            return out

        want = run()
        calls = []

        def byte_keys(rows, base):
            calls.append(rows.shape[1])
            return cech._row_keys(rows)

        monkeypatch.setattr(cech, "lex_keys", byte_keys)
        monkeypatch.setattr(homology, "lex_keys", byte_keys)
        got = run()
        assert {2, 3, 4} <= set(calls)
        assert got == want
        assert any(len(cx.simplices_of(3)) for cx, _, _ in want)

    @pytest.mark.parametrize("base", [50, 2 ** 40], ids=["int", "bytes"])
    def test_keys_order_rows_lexicographically(self, base):
        # 2**40 cubed overflows an int64, so those keys are byte strings
        gen = np.random.default_rng(25)
        rows = gen.integers(0, 50, size=(300, 3)) * (base // 50)
        keys = lex_keys(rows, base)
        order = np.lexsort(rows.T[::-1])
        assert np.array_equal(np.sort(keys), keys[order])
        assert len(np.unique(keys)) == len(np.unique(rows, axis=0))


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
