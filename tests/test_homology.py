"""Homology checks: fixtures with hand-computable answers, dense-matrix
rank and BFS component oracles, identity tests on random complexes, and
a full flat-torus reconstruction."""

import itertools

import numpy as np
import pytest

from betti_thermo.cech import build_cech, build_rips
from betti_thermo.homology import (
    BettiVector,
    HomologyError,
    betti_diff_bound_check,
    betti_numbers,
    boundary_matrix,
    connected_components,
    euler_check,
    rank_gf2,
)
from betti_thermo.pointproc import PointCloud


def hollow_triangle():
    # unit-ish triangle at a radius where edges form but the face does not
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    return build_cech(PointCloud(pts), 1.1, 2)


def filled_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    return build_cech(PointCloud(pts), 1.2, 2)


def dense_rank_gf2(matrix) -> int:
    """Rank of the full matrix (cleared rows included) by dense elimination."""
    dense = np.zeros((matrix.rows, matrix.cols), dtype=bool)
    for c, rows in enumerate(matrix.columns):
        for r in rows:
            dense[r, c] = True
    return dense_rank(dense)


def dense_rank(dense: np.ndarray) -> int:
    """Row-echelon elimination of a dense 0/1 array over GF(2)."""
    dense = np.array(dense, dtype=bool)
    rank = 0
    for col in range(dense.shape[1]):
        below = np.flatnonzero(dense[rank:, col])
        if not len(below):
            continue
        pivot = rank + below[0]
        dense[[rank, pivot]] = dense[[pivot, rank]]
        hit = np.flatnonzero(dense[:, col])
        hit = hit[hit != rank]
        dense[hit] ^= dense[rank]
        rank += 1
        if rank == dense.shape[0]:
            break
    return rank


def dense_betti(cx, max_k: int) -> list[int]:
    """Betti numbers from dense boundary matrices built by tuple lookup."""
    levels = [list(map(tuple, cx.simplices_of(j).tolist())) for j in range(max_k + 2)]
    ranks = [0] * (max_k + 2)
    for j in range(1, max_k + 2):
        index = {s: i for i, s in enumerate(levels[j - 1])}
        dense = np.zeros((len(levels[j - 1]), len(levels[j])), dtype=bool)
        for c, s in enumerate(levels[j]):
            for facet in itertools.combinations(s, j):
                dense[index[facet], c] = True
        ranks[j] = dense_rank(dense)
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(max_k + 1)]


def cycle_space_matrix(gen, n: int, m: int):
    """A random graph on n vertices and m columns that are sums of its
    fundamental cycles, so that d_1 times the matrix is zero.

    Returns (edges, columns); columns are sorted edge-index tuples.
    """
    pairs = list(itertools.combinations(range(n), 2))
    size = min(len(pairs), int(gen.integers(n, 2 * n + 1)))
    chosen = gen.choice(len(pairs), size=size, replace=False)
    edges = sorted(pairs[i] for i in chosen)
    # BFS tree; each non-tree edge closes one fundamental cycle
    adj = {v: [] for v in range(n)}
    for e, (a, b) in enumerate(edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    up = {}
    for root in range(n):
        if root in up:
            continue
        up[root] = None
        queue = [root]
        for v in queue:
            for w, e in adj[v]:
                if w not in up:
                    up[w] = (v, e)
                    queue.append(w)
    tree = {link[1] for link in up.values() if link is not None}

    def path_to_root(v):
        out = set()
        while up[v] is not None:
            v, e = up[v]
            out ^= {e}
        return out

    cycles = [path_to_root(a) ^ path_to_root(b) ^ {e}
              for e, (a, b) in enumerate(edges) if e not in tree]
    columns = []
    for _ in range(m):
        col = set()
        if cycles:
            for i in gen.choice(len(cycles), size=int(gen.integers(0, 3))):
                col ^= cycles[i]
        columns.append(tuple(sorted(col)))
    return edges, columns


def union_find_forest(n: int, edges, order) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = []
    for e in order:
        a, b = find(edges[e][0]), find(edges[e][1])
        if a != b:
            parent[a] = b
            forest.append(int(e))
    return forest


def components_oracle(pts: np.ndarray, r: float) -> int:
    """BFS over the brute-force distance graph."""
    n = len(pts)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in range(n):
                if not seen[v] and np.linalg.norm(pts[u] - pts[v]) <= r:
                    seen[v] = True
                    stack.append(v)
    return count


class TestBoundaryMatrix:
    def test_hollow_triangle_edges(self):
        bd = boundary_matrix(hollow_triangle(), 1)
        assert (bd.rows, bd.cols) == (3, 3)
        assert all(len(col) == 2 for col in bd.columns)

    def test_filled_triangle_face(self):
        bd = boundary_matrix(filled_triangle(), 2)
        assert (bd.rows, bd.cols) == (3, 1)
        assert len(bd.columns[0]) == 3

    def test_boundary_of_boundary_vanishes(self):
        gen = np.random.default_rng(31)
        for trial in range(20):
            pts = gen.random((14, 2))
            cx = build_cech(PointCloud(pts), float(gen.uniform(0.3, 0.7)), 3)
            for j in range(2, len(cx.simplices)):
                low = boundary_matrix(cx, j - 1)
                high = boundary_matrix(cx, j)
                cols_low = [sum(1 << r for r in col) for col in low.columns.tolist()]
                for col in high.columns.tolist():
                    acc = 0
                    for c in col:
                        acc ^= cols_low[c]
                    assert acc == 0

    def test_missing_facet_rejected(self):
        from betti_thermo.cech import SimplicialComplex
        cx = SimplicialComplex(2, 2, (np.arange(3)[:, None], np.array([[0, 1], [0, 2]]),
                                      np.array([[0, 1, 2]])), 3)
        with pytest.raises(HomologyError):
            boundary_matrix(cx, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(HomologyError):
            boundary_matrix(hollow_triangle(), 0)
        with pytest.raises(HomologyError):
            boundary_matrix(hollow_triangle(), 5)


class TestRank:
    def test_zero_matrix(self):
        from betti_thermo.homology import BoundaryMatrix
        assert rank_gf2(BoundaryMatrix(4, 3, ((), (), ()))) == 0

    def test_identity_pattern(self):
        from betti_thermo.homology import BoundaryMatrix
        assert rank_gf2(BoundaryMatrix(3, 3, ((0,), (1,), (2,)))) == 3

    def test_random_matrices_match_dense_oracle(self):
        from betti_thermo.homology import BoundaryMatrix
        gen = np.random.default_rng(32)
        for trial in range(200):
            rows = int(gen.integers(1, 9))
            cols = int(gen.integers(1, 9))
            dense = gen.integers(0, 2, size=(rows, cols))
            columns = tuple(
                tuple(int(r) for r in np.nonzero(dense[:, c])[0]) for c in range(cols)
            )
            m = BoundaryMatrix(rows, cols, columns)
            assert rank_gf2(m) == dense_rank_gf2(m)

    def test_larger_random_matrices(self):
        from betti_thermo.homology import BoundaryMatrix
        gen = np.random.default_rng(33)
        for trial in range(10):
            dense = gen.integers(0, 2, size=(64, 64))
            columns = tuple(
                tuple(int(r) for r in np.nonzero(dense[:, c])[0]) for c in range(64)
            )
            m = BoundaryMatrix(64, 64, columns)
            assert rank_gf2(m) == dense_rank_gf2(m)


class TestRankEngine:
    """The forest-cleared, peeled rank against dense elimination."""

    def test_forest_cleared_rank_matches_dense_oracle(self):
        from betti_thermo.homology import BoundaryMatrix
        gen = np.random.default_rng(39)
        for trial in range(150):
            n = int(gen.integers(2, 10))
            edges, columns = cycle_space_matrix(gen, n, int(gen.integers(1, 12)))
            # any spanning forest may be cleared, not only the edge-order one
            forest = union_find_forest(n, edges, gen.permutation(len(edges)))
            m = BoundaryMatrix(len(edges), len(columns), tuple(columns), cleared=forest)
            assert rank_gf2(m) == dense_rank_gf2(m)

    def test_boundary_clears_a_spanning_forest(self):
        gen = np.random.default_rng(40)
        for trial in range(10):
            cx = build_cech(PointCloud(gen.random((30, 2)) * 2.0), 0.7, 2)
            bd = boundary_matrix(cx, 2, cleared=boundary_matrix(cx, 1).basis)
            edges = cx.simplices_of(1)
            forest = edges[np.asarray(bd.cleared, dtype=np.int64)].tolist()
            assert len(forest) == len(cx.simplices_of(0)) - betti_numbers(cx, 1)[0]
            assert union_find_forest(len(cx.simplices_of(0)), forest,
                                     range(len(forest))) == list(range(len(forest)))
            assert rank_gf2(bd) == dense_rank_gf2(bd)
            # built on its own, d_2 clears nothing and has the same rank
            alone = boundary_matrix(cx, 2)
            assert len(alone.cleared) == 0 and rank_gf2(alone) == rank_gf2(bd)

    def test_peeling_keeps_a_core(self):
        # d_2 of the boundary of a tetrahedron: every edge row has two
        # entries and every triangle column three, so nothing peels and
        # the core elimination alone finds the rank
        from betti_thermo.homology import BoundaryMatrix
        cols = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))
        assert rank_gf2(BoundaryMatrix(6, 4, cols)) == 3

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("torus", [False, True])
    def test_betti_matches_dense_full_boundary(self, d, torus):
        # a dense cluster, a sparse one far away, isolated points, a ring
        # (d >= 2) and a spherical shell (d = 3), so some complexes have
        # holes; at the smallest radius the higher levels are empty
        gen = np.random.default_rng(50 + 10 * d + torus)
        period = 12.0 if torus else None
        for trial in range(6):
            r = float(gen.choice([0.3, 0.9, 1.4]))
            parts = [gen.random((int(gen.integers(4, 16)), d)) * 1.5 + 0.2,
                     gen.random((int(gen.integers(2, 8)), d)) * 2.5 + 6.0,
                     np.array([[11.5] * d, [3.5] * (d - 1) + [9.0]])]
            if d >= 2:
                t = np.linspace(0.0, 2 * np.pi, 14, endpoint=False)
                ring = np.full((14, d), 4.0)
                ring[:, 0] += 1.3 * np.cos(t)
                ring[:, 1] += 1.3 * np.sin(t)
                parts.append(ring + gen.normal(0.0, 0.05, ring.shape))
            if d == 3:
                z = np.linspace(-1.0, 1.0, 34)
                phi = np.arange(34) * np.pi * (3.0 - np.sqrt(5.0))
                rho = np.sqrt(1.0 - z * z)
                shell = 1.4 * np.column_stack((rho * np.cos(phi), rho * np.sin(phi), z))
                parts.append(shell + [9.0, 3.0, 3.0] + gen.normal(0.0, 0.03, shell.shape))
            pts = np.vstack(parts)
            if torus:
                pts = np.mod(pts - 0.5, period)
            cx = build_cech(PointCloud(pts), r, d + 1, period=period)
            assert list(betti_numbers(cx, d)) == dense_betti(cx, d)


class TestBetti:
    def test_hollow_triangle_is_a_circle(self):
        assert tuple(betti_numbers(hollow_triangle(), 1)) == (1, 1)

    def test_filled_triangle_is_contractible(self):
        assert tuple(betti_numbers(filled_triangle(), 1)) == (1, 0)

    def test_square_corners_forced_cycle(self):
        # side 1 edges only: diagonals sqrt(2) > 1.05; no triangle fits
        # a ball of radius 0.525 (right-triangle circumradius ~0.707)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cx = build_cech(PointCloud(pts), 1.05, 2)
        assert tuple(betti_numbers(cx, 1)) == (1, 1)

    def test_shallow_complex_rejected(self):
        pts = np.random.default_rng(1).random((6, 2))
        cx = build_cech(PointCloud(pts), 0.5, 1)
        with pytest.raises(HomologyError):
            betti_numbers(cx, 1)

    def test_beta_zero_matches_component_oracles(self):
        gen = np.random.default_rng(34)
        for trial in range(30):
            n = int(gen.integers(1, 30))
            pts = gen.random((n, 2)) * 2.0
            r = float(gen.uniform(0.1, 0.8))
            cloud = PointCloud(pts)
            cx = build_cech(cloud, r, 1 + 1)
            b0 = betti_numbers(cx, 1)[0]
            assert b0 == components_oracle(cloud.points, r)
            assert b0 == connected_components(cloud, r)

    def test_euler_identity_on_full_complexes(self):
        gen = np.random.default_rng(35)
        for trial in range(25):
            n = int(gen.integers(2, 11))
            d = int(gen.integers(2, 4))
            pts = gen.random((n, d))
            r = float(gen.uniform(0.2, 1.2))
            cx = build_cech(PointCloud(pts), r, n)
            betti = betti_numbers(cx, max(n - 1, 1))
            assert euler_check(cx, betti)

    def test_relabeling_invariance(self):
        gen = np.random.default_rng(36)
        pts = gen.random((15, 2))
        perm = gen.permutation(15)
        a = betti_numbers(build_cech(PointCloud(pts), 0.5, 2), 1)
        b = betti_numbers(build_cech(PointCloud(pts[perm]), 0.5, 2), 1)
        assert tuple(a) == tuple(b)

    def test_rips_torus_beta(self):
        # 12x12 grid with spacing 0.5 on the flat torus [0,6)^2: balls of
        # radius r/2 = 0.5 cover the torus and form a good cover, so the
        # nerve has the torus homology (1, 2, 1)
        xs = np.arange(12) * 0.5
        pts = np.array([[x, y] for x in xs for y in xs])
        cx = build_cech(PointCloud(pts), 1.0, 3, period=6.0)
        betti = betti_numbers(cx, 2)
        assert tuple(betti) == (1, 2, 1)

    def test_torus_components_wrap(self):
        pts = np.array([[0.1, 2.0], [3.9, 2.0]])
        cloud = PointCloud(pts)
        assert connected_components(cloud, 0.5, period=4.0) == 1
        assert connected_components(cloud, 0.5) == 2


class TestDifferenceBound:
    def test_equal_complexes(self):
        cx = filled_triangle()
        assert betti_diff_bound_check(cx, cx, 1)

    def test_hollow_inside_filled(self):
        assert betti_diff_bound_check(hollow_triangle(), filled_triangle(), 1)

    def test_non_nested_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        bigger = build_cech(PointCloud(pts), 1.2, 2)
        smaller = build_cech(PointCloud(pts), 0.5, 2)
        with pytest.raises(HomologyError):
            betti_diff_bound_check(bigger, smaller, 1)

    def test_radius_nesting_random(self):
        gen = np.random.default_rng(37)
        for trial in range(30):
            n = int(gen.integers(4, 25))
            pts = gen.random((n, 2)) * 1.5
            r1 = float(gen.uniform(0.1, 0.5))
            r2 = r1 + float(gen.uniform(0.0, 0.4))
            k1 = build_cech(PointCloud(pts), r1, 2)
            k2 = build_cech(PointCloud(pts), r2, 2)
            assert betti_diff_bound_check(k1, k2, 1)

    def test_point_addition_nesting_random(self):
        gen = np.random.default_rng(38)
        for trial in range(30):
            n = int(gen.integers(4, 20))
            extra = int(gen.integers(1, 6))
            pts = gen.random((n + extra, 2)) * 1.5
            r = float(gen.uniform(0.2, 0.6))
            # indices of the common points must agree, so grow by suffix
            k1 = build_cech(PointCloud(pts[:n]), r, 2)
            k2 = build_cech(PointCloud(pts), r, 2)
            assert betti_diff_bound_check(k1, k2, 1)


class TestBettiVector:
    def test_sequence_protocol(self):
        b = BettiVector(values=(1, 2, 1), max_k=2)
        assert list(b) == [1, 2, 1]
        assert b[1] == 2
        assert len(b) == 3
