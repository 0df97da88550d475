"""Homology checks: fixtures with hand-computable answers, dense-matrix
rank and BFS component oracles, identity tests on random complexes, and
a full flat-torus reconstruction."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import connected_components, euler_check, min_enclosing_ball_radius

from betti_thermo import homology
from betti_thermo.cech import MINIBALL_TOL, NeighborGrid, build_cech, build_rips
from betti_thermo.homology import (
    BoundaryMatrix,
    HomologyError,
    betti_diff_bound_check,
    betti_numbers,
    boundary_matrix,
    rank_gf2,
    _boruvka,
    _CONTRACT_EDGES,
)
from betti_thermo.pointproc import (
    PointCloud,
    RngStream,
    Window,
    sample_poisson_homogeneous,
)


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

    @pytest.mark.parametrize("max_k, message", [
        (-2, "max_k must be non-negative, got -2"),
        # read as beta_1.5, and True as beta_1
        (1.5, "max_k must be an integer, got 1.5"),
        (True, "max_k must be an integer, got True"),
    ], ids=["negative", "float", "bool"])
    def test_max_k_names_the_value(self, max_k, message):
        with pytest.raises(HomologyError, match=re.escape(message) + "$"):
            betti_numbers(hollow_triangle(), max_k)

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


class TestManyVertices:
    def test_keys_past_the_int64_range(self):
        # 1,500 vertices and a 6-simplex: rows of 6 vertices read as base-n
        # numbers would not fit in an int64 (n**6 >= 2**63). Ten special
        # points come first, far from the rest: a tight 7-point cluster
        # (every subset is a simplex) and an equilateral triangle of side
        # 0.95 r (a Rips triangle but not a Cech one). The background is
        # sparse, with a few edges and triangles per hundred points
        gen = np.random.default_rng(61)
        r = 1.0
        cluster = gen.normal(0.0, 0.08, (7, 2)) - 5.0
        tri = 0.95 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]) - 10.0
        special = np.vstack([cluster, tri])
        pts = np.vstack([special, gen.random((1490, 2)) * 60.0])
        cloud = PointCloud(pts)
        n = len(cloud)
        assert n ** 6 >= 2 ** 63

        def cech_keeps(t):
            return min_enclosing_ball_radius(special[list(t)]) <= r / 2 + MINIBALL_TOL

        def rips_keeps(t):
            return all(np.linalg.norm(special[a] - special[b]) <= r
                       for a, b in itertools.combinations(t, 2))

        complexes = []
        for build, keeps in ((build_cech, cech_keeps), (build_rips, rips_keeps)):
            cx = build(cloud, r, 6)
            complexes.append(cx)
            assert len(cx.simplices_of(6)) == 1
            for j in range(7):
                level = cx.simplices_of(j)
                ours = (level < len(special)).all(axis=1)
                # nothing joins a special point to the background
                assert not ((level < len(special)).any(axis=1) & ~ours).any()
                want = {t for t in itertools.combinations(range(len(special)), j + 1)
                        if keeps(t)}
                assert set(map(tuple, level[ours].tolist())) == want, (build, j)
            assert list(betti_numbers(cx, 5)) == dense_betti(cx, 5)
        cech, rips = (set(map(tuple, cx.simplices_of(2).tolist())) for cx in complexes)
        assert {t for t in rips - cech if max(t) < len(special)} == {(7, 8, 9)}


@st.composite
def contractible_matrices(draw):
    """A GF(2) matrix whose peeled core has more than _CONTRACT_EDGES
    two-entry columns, so rank_gf2 contracts them.

    The core is a random multigraph on 100-250 rows, split into 1-12
    components, with a cycle through each or not; trees hang off it, and
    a detached tree carries the one-entry columns (one on the core would
    peel its whole component). Three- and four-entry columns are sums of
    two edges, which the edges span, or a few random rows. Repeats of any
    column are mixed in, the columns are shuffled, and a few rows that are
    sums of other rows are added and cleared.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    core = draw(st.integers(100, 250))
    bounds = np.unique(np.r_[0, gen.choice(np.arange(2, core - 1, 2),
                                           draw(st.integers(0, 11)), replace=False), core])
    lo, size = bounds[:-1], np.diff(bounds)
    block = gen.integers(0, len(lo), draw(st.integers(_CONTRACT_EDGES + 100, 3 * _CONTRACT_EDGES)))
    u = gen.integers(0, size[block])
    v = (u + gen.integers(1, size[block])) % size[block]
    columns = [[a, b] for a, b in zip(lo[block] + u, lo[block] + v)]
    if draw(st.booleans()):
        columns += [[a + i, a + (i + 1) % n] for a, n in zip(lo, size) for i in range(n)]
    edges = len(columns)
    tree = draw(st.integers(0, 60))
    columns += [[core + i, int(gen.integers(0, core + i))] for i in range(tree)]
    base = core + tree
    side = draw(st.integers(0, 40))
    columns += [[base + i, base + int(gen.integers(0, i))] for i in range(1, side)]
    if side:
        columns += [[base + int(i)] for i in gen.integers(0, side, draw(st.integers(1, 20)))]
    for _ in range(draw(st.integers(0, 200))):
        summed = set(columns[gen.integers(0, edges)]) ^ set(columns[gen.integers(0, edges)])
        if len(summed) > 2:
            columns.append(sorted(summed))
    columns += [gen.choice(base, int(gen.integers(3, 5)), replace=False).tolist()
                for _ in range(draw(st.integers(0, 8)))]
    columns += [columns[i] for i in gen.integers(0, len(columns), draw(st.integers(0, 100)))]
    columns = [columns[i] for i in gen.permutation(len(columns))]
    rows = base + side
    cleared = list(range(rows, rows + draw(st.integers(0, 4))))
    for row in cleared:
        summed = set(gen.choice(rows, int(gen.integers(1, 40)), replace=False).tolist())
        columns = [col + [row] if len(summed.intersection(col)) % 2 else col
                   for col in columns]
    return BoundaryMatrix(rows + len(cleared), len(columns),
                          tuple(tuple(int(r) for r in col) for col in columns),
                          cleared=cleared)


class TestContraction:
    """Cores past the cut: the two-entry columns are contracted through a
    spanning forest and the rest projected onto its components, which
    must give the dense elimination's rank."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(contractible_matrices())
    def test_rank_matches_dense_oracle(self, matrix):
        with mock.patch.object(homology, "_contract", wraps=homology._contract) as spy:
            rank = rank_gf2(matrix)
        assert spy.called
        assert rank == dense_rank_gf2(matrix)

    def test_dense_torus_cloud(self):
        # d=2, lambda=4 on a torus, as in a dense benchmark replicate on a
        # third of its window: after the peel, most of d_2's core columns
        # have two entries
        cloud = sample_poisson_homogeneous(4.0, Window.centered(144.0, 2), RngStream(0))
        cx = build_cech(cloud, 1.0, 2, period=12.0)
        with mock.patch.object(homology, "_contract", wraps=homology._contract) as spy:
            betti = list(betti_numbers(cx, 1))
        assert spy.call_count >= 1
        assert np.count_nonzero(spy.call_args_list[0].args[2]) >= 2 * _CONTRACT_EDGES
        assert betti == dense_betti(cx, 1)


class TestSpanningForest:
    """The Boruvka forest against the union-find oracles: it has n - beta_0
    edges, closes no cycle, uses only input edges, and is the forest
    union-find finds taking the edges in order."""

    def assert_forest(self, n, u, v, components):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        forest, root = _boruvka(n, u, v)
        assert forest.dtype == np.int64
        assert len(forest) == n - components
        assert len(np.unique(forest)) == len(forest)
        assert ((0 <= forest) & (forest < len(u))).all()
        edges = list(zip(u[forest].tolist(), v[forest].tolist()))
        # acyclic: union-find joins two trees at every forest edge
        assert union_find_forest(n, edges, range(len(edges))) == list(range(len(edges)))
        in_order = list(zip(u.tolist(), v.tolist()))
        assert forest.tolist() == union_find_forest(n, in_order, range(len(u)))
        # the roots name the components: both ends of an edge share one,
        # and each component's root is one of its vertices
        assert np.array_equal(root[u], root[v])
        assert len(np.unique(root)) == components
        assert np.array_equal(root[root], root)

    def components(self, n, u, v):
        edges = list(zip(u, v))
        return n - len(union_find_forest(n, edges, range(len(edges))))

    def test_geometric_graphs_match_connected_components(self):
        gen = np.random.default_rng(41)
        for trial in range(60):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(1, 400))
            r = float(gen.uniform(0.05, 1.0))
            period = 6.0 if trial % 3 == 0 else None
            cloud = PointCloud(gen.random((n, d)) * 6.0)
            u, v = NeighborGrid(cloud.points, r, period).pairs_within()
            self.assert_forest(len(cloud), u, v,
                               connected_components(cloud, r, period=period))

    def test_random_graphs(self):
        # edges in any order and orientation, with repeats and loops
        gen = np.random.default_rng(42)
        for trial in range(150):
            n = int(gen.integers(1, 60))
            m = int(gen.integers(0, 3 * n))
            u = gen.integers(0, n, size=m).tolist()
            v = gen.integers(0, n, size=m).tolist()
            self.assert_forest(n, u, v, self.components(n, u, v))

    def test_no_edges(self):
        self.assert_forest(0, [], [], 0)
        self.assert_forest(5, [], [], 5)

    def test_isolated_vertices(self):
        # a triangle and an edge among ten vertices
        u, v = [0, 1, 0, 7], [1, 2, 2, 9]
        self.assert_forest(10, u, v, 7)

    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    def test_path_labelled_in_descending_order(self, n):
        # one long chain for pointer jumping to shorten
        u = list(range(n - 1, 0, -1))
        v = list(range(n - 2, -1, -1))
        self.assert_forest(n, u, v, 1)
        self.assert_forest(n, v[::-1], u[::-1], 1)

    @pytest.mark.parametrize("n", [3, 4, 65, 1000])
    def test_root_hooks_onto_a_root_hooked_in_the_same_round(self, n):
        # labels decrease along the path and its edges are listed from the
        # end with the highest labels, so in the first round every vertex
        # picks its edge toward the next higher label and all of them hook
        # at once, a chain of n - 2 hooked roots for the jumping to resolve
        labels = np.random.default_rng(n).permutation(3 * n)[:n]
        labels[::-1].sort()
        self.assert_forest(3 * n, labels[:-1], labels[1:], 2 * n + 1)
        self.assert_forest(3 * n, labels[1:], labels[:-1], 2 * n + 1)

    def test_isolated_vertices_keep_their_own_root(self):
        # edges among every third vertex of a geometric graph's labels,
        # with the vertices between them isolated
        gen = np.random.default_rng(43)
        u, v = NeighborGrid(gen.random((200, 2)) * 5.0, 0.6).pairs_within()
        n = 3 * 200 + 2
        u, v = 3 * u + 1, 3 * v + 1
        _, root = _boruvka(n, u, v)
        isolated = np.setdiff1d(np.arange(n), np.concatenate((u, v)))
        assert len(isolated) >= 402
        assert np.array_equal(root[isolated], isolated)
        self.assert_forest(n, u, v, self.components(n, u.tolist(), v.tolist()))

    def test_geometric_graph_over_ten_thousand_edges(self):
        # a dense torus cloud, the size of a rate-d2-dense replicate
        pts = np.random.default_rng(44).random((1800, 2)) * 20.0
        u, v = NeighborGrid(pts, 1.0, 20.0).pairs_within()
        assert len(u) > 10_000
        self.assert_forest(len(pts), u, v,
                           connected_components(PointCloud(pts), 1.0, period=20.0))

    @pytest.mark.parametrize("centre", [0, 499])
    def test_star(self, centre):
        # leaves listed from the largest down, centre first or last label
        n = 500
        leaves = [x for x in range(n - 1, -1, -1) if x != centre]
        self.assert_forest(n, leaves, [centre] * len(leaves), 1)
        self.assert_forest(n, [centre] * len(leaves), leaves, 1)

    def test_complete_graph(self):
        n = 40
        u, v = zip(*itertools.combinations(range(n), 2))
        self.assert_forest(n, u, v, 1)
        self.assert_forest(n, v[::-1], u[::-1], 1)


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

    def test_given_betti_numbers_are_used(self):
        # beta_1 is 1 and 0 with one extra simplex; a caller's Betti numbers
        # stand in for computing them, so wrong ones can break the bound
        hollow, filled = hollow_triangle(), filled_triangle()
        assert betti_diff_bound_check(hollow, filled, 1, betti=(1, 0))
        assert not betti_diff_bound_check(hollow, filled, 1, betti=(3, 0))

    def test_degree_below_one_rejected(self):
        with pytest.raises(HomologyError, match="k must be at least 1, got 0$"):
            betti_diff_bound_check(hollow_triangle(), filled_triangle(), 0)

    def test_non_nested_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        bigger = build_cech(PointCloud(pts), 1.2, 2)
        smaller = build_cech(PointCloud(pts), 0.5, 2)
        with pytest.raises(HomologyError):
            betti_diff_bound_check(bigger, smaller, 1)

    def test_more_vertices_than_the_second_rejected(self):
        # no edges anywhere: only the vertex level can tell them apart
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0], [20.0, 0.0]])
        more = build_cech(PointCloud(pts), 1.0, 2)
        fewer = build_cech(PointCloud(pts[:3]), 1.0, 2)
        assert more.top_dim() == fewer.top_dim() == 0
        assert betti_diff_bound_check(fewer, more, 1)
        with pytest.raises(HomologyError, match="not contained"):
            betti_diff_bound_check(more, fewer, 1)

    def test_triangle_missing_from_the_second_rejected(self):
        # two triangles with the same labels: the first fills 0-1-2 and
        # leaves 3-4-5 hollow, the second the other way round, so every
        # edge of the first is in the second and both reach dimension 2
        h = np.sqrt(3) / 2
        small = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        big = 1.1 * small
        first = build_cech(PointCloud(np.vstack([small, big + 10.0])), 1.2, 2)
        second = build_cech(PointCloud(np.vstack([big, small + 10.0])), 1.2, 2)
        assert first.simplices_of(2).tolist() == [[0, 1, 2]]
        assert second.simplices_of(2).tolist() == [[3, 4, 5]]
        assert np.array_equal(first.simplices_of(1), second.simplices_of(1))
        with pytest.raises(HomologyError, match="not contained"):
            betti_diff_bound_check(first, second, 1)

    def test_level_above_the_second_top_rejected(self):
        # a regular tetrahedron of side 1: its triangles enter at r = 1.155,
        # the solid at r = 1.225; both complexes are built to max_dim 3
        pts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                        [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(8)
        solid = build_cech(PointCloud(pts), 1.25, 3)
        shell = build_cech(PointCloud(pts), 1.2, 3)
        assert (solid.top_dim(), shell.top_dim()) == (3, 2)
        assert betti_diff_bound_check(shell, solid, 2)
        with pytest.raises(HomologyError, match="not contained"):
            betti_diff_bound_check(solid, shell, 2)

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
