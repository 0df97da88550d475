"""Cech and Vietoris-Rips complexes on finite point clouds.

A k-simplex enters the Cech complex C(X, r) exactly when the smallest
enclosing ball of its k+1 vertices has radius at most r/2; the Rips
complex keeps every clique of the r-neighbor graph. Both are downward
closed. A complex stores each dimension as one sorted int array of vertex
rows and one int array of facet indices. Construction is neighbor-grid
edge enumeration (a dense cell-start table, so all half-offsets of all
points are looked up in one pass; what the table needs besides the points,
its strides and half-offset steps and on a torus its cell sides and the
padded cell -> cell index that fills the seam's padding in one gather, is
memoized read-only per period and cells per axis) followed by
level-wise expansion over CSR upper-neighbour lists: each accepted
simplex is extended by the neighbours above its last vertex, and a
candidate enters only if all its facets are in the level below, which
for Rips is the clique test. As in
the simplex tree of Boissonnat & Maria, a simplex is keyed by its parent
(the facet without its last vertex) and its last vertex, so a
candidate's facets are np.searchsorted lookups of int64 keys built from
its parent's facet indices, and the indices found are the complex's
facets. The Cech miniball filter then runs once per level on the
survivors, in closed form (triangles by edge lengths, higher simplices
by circumcenter). It reads the candidates' coordinates as one array per
vertex position and axis, and only the simplices it keeps are stacked
into rows. An optional period turns the metric into the flat torus
R^d / period*Z^d. Each edge's minimum-image delta is then taken once,
and every level keeps its simplices' spokes, the edges (v0, vi) from the
first vertex, so the filter reads vertex i as v0 plus its spoke's delta:
the nearest image around the first vertex, which reproduces torus balls
exactly as long as period > 3r. Where one mask of unpredictable, roughly
even truth compacts two or more arrays, they are gathered by its index,
mask.nonzero()[0], instead: on a 2-CPU Xeon with numpy 2.4.6, at p = 0.5
on 42.5k int64 the mask took 282-355 us per array, the index 36-55 us
once and 23-35 us per array. At p = 0.96 the mask took 55-69 us, the
index 42-55 + 56-77 us, so the filter's own keep, nearly all True, stays
a mask. The replicate path calls ndarray methods (nonzero, repeat,
cumsum, round, sort, searchsorted) rather than numpy's Python-level
wrappers, which a small replicate calls about 40 times: on a 100-entry
array np.flatnonzero took 2.1 us against 0.5 us for .nonzero()[0], and
np.repeat 2.6 against 1.5 us. Membership depends only on the vertex
set, so SimplicialComplex.restrict gives the complex of part of a cloud,
and simplices_touching counts the simplices with a vertex in a marked
part.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from betti_thermo.pointproc import _ARG_RULES, _COUNT, PointCloud, _check_value

# absolute slack on the miniball-radius <= r/2 comparison; keeps the
# complex monotone in r under floating point
MINIBALL_TOL = 1e-12
# the builder's version in limit-curve cache file names: bump it whenever a
# change can make any complex differ, so no cached curve outlives its builder
ALGORITHM_VERSION = 1
# the highest ambient dimension of a neighbour grid, which enumerates the 3^d
# cell offsets in Python: 729 at d = 6 (364 half-offsets), 3.5e9 at d = 20
MAX_DIM = 6
_ARG_RULES["dim"] = ("dimension", _COUNT, (lambda v: 1 <= v <= MAX_DIM, f"lie in 1..{MAX_DIM}"))


class CechError(ValueError):
    """Invalid complex-construction arguments."""


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Finite abstract simplicial complex on integer vertex labels.

    simplices[j] is an int64 (S_j, j+1) array: one j-simplex per row,
    strictly increasing vertex indices, rows in lexicographic order.
    facets[j] is an int64 (S_j, j+1) array too: column c holds the index,
    in simplices[j-1], of the facet without vertex j-c. Column 0 is the
    parent (the facet without the last vertex), so (parent, last vertex)
    keys a simplex: parent * vertex_count + last vertex is strictly
    increasing along each level and below S_{j-1} * vertex_count, an int64
    for any complex that fits in memory. facets[0] has no columns, and
    facets[1] equals simplices[1] (a build shares the one array). max_dim
    is the enumeration cutoff requested at build time; it may exceed the
    highest nonempty dimension. Builders guarantee downward closure. Two
    complexes are equal when their simplices and other fields are (the
    facets follow from the simplices). restrict(labels) keeps those inside
    labelled parts of the vertices.
    """

    max_dim: int
    simplices: tuple[np.ndarray, ...]
    vertex_count: int
    facets: tuple[np.ndarray, ...]

    def simplices_of(self, j: int) -> np.ndarray:
        if 0 <= j < len(self.simplices):
            return self.simplices[j]
        return np.empty((0, max(j + 1, 0)), dtype=np.int64)

    def simplex_counts(self) -> list[int]:
        return [len(level) for level in self.simplices]

    def top_dim(self) -> int:
        """Highest dimension with at least one simplex (-1 if empty)."""
        for j in range(len(self.simplices) - 1, -1, -1):
            if len(self.simplices[j]):
                return j
        return -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            (self.max_dim, self.vertex_count) == (other.max_dim, other.vertex_count)
            and len(self.simplices) == len(other.simplices)
            and all(np.array_equal(a, b)
                    for a, b in zip(self.simplices, other.simplices))
        )

    def restrict(self, labels) -> "SimplicialComplex":
        """The simplices whose vertices all carry one non-negative label.

        labels holds one int per vertex; a negative one drops the vertex.
        Vertices and simplices keep their order, renumbered. Membership
        depends only on the vertex set, and each simplex keeps its first
        vertex, where the miniball filter starts: one label gives the
        complex built on those points, several the disjoint union of those
        complexes.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.vertex_count,):
            raise CechError(f"need one label per vertex, got shape {labels.shape}")
        vertex = (labels >= 0).cumsum() - 1
        levels, facets = [], []
        index = vertex  # facets[0] has no columns: any index array serves
        for j, (rows, up) in enumerate(zip(self.simplices, self.facets)):
            lab = labels[rows]
            kept = (lab[:, 0] >= 0) & (lab == lab[:, :1]).all(axis=1)
            if j and not kept.any():
                break
            levels.append(vertex[rows[kept]])
            facets.append(index[up[kept]])
            index = kept.cumsum() - 1
        return SimplicialComplex(self.max_dim, tuple(levels), len(levels[0]),
                                 tuple(facets))


def _min_image(delta: np.ndarray, period: float) -> np.ndarray:
    """The torus's shortest representative of each coordinate difference.

    pairs_within applies it to every candidate pair, and _build once to
    every edge, whose deltas then unwrap all the simplices above it.
    """
    return delta - period * (delta / period).round()


def _square(x: float) -> float:
    # a cut's x ** 2, or inf where it overflows: the complete complex
    try:
        return x ** 2
    except OverflowError:
        return np.inf


# the most candidates one _ragged_pairs expansion may list: the candidate
# pairs of a neighbour grid, or one level's candidates. Without it a dense
# cloud or a high max_dim asked numpy for terabytes. It is about 40 times
# the largest expansion of the tests (234k) and 190 times that of the
# benchmark workloads (52k); at the cap, with numpy 2.4.6, a pair
# expansion peaked at 0.44 GB and a d=2 triangle level at 2.4 GB
MAX_CANDIDATES = 10 ** 7


def _ragged_pairs(left: np.ndarray, start: np.ndarray, length: np.ndarray):
    """Expand (left[i], start[i]..start[i]+length[i]-1) index runs; more
    than MAX_CANDIDATES pairs in all is a CechError."""
    length = np.maximum(length, 0)
    total = int(length.sum())
    if total > MAX_CANDIDATES:
        raise CechError(f"one expansion lists {total} candidates, more than "
                        f"the cap of {MAX_CANDIDATES}")
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # pair t of run i is start[i] + (t - first pair of run i): one repeated
    # offset per run
    first = length.cumsum() - length
    jj = np.arange(total, dtype=np.int64) + (start - first).repeat(length)
    return left.repeat(length), jj


@functools.lru_cache(maxsize=None)
def _half_offsets(d: int) -> np.ndarray:
    # one representative per {o, -o} pair: first nonzero entry is +1
    out = []
    for off in itertools.product((-1, 0, 1), repeat=d):
        first = next((x for x in off if x != 0), 0)
        if first == 1:
            out.append(off)
    offsets = np.array(out, dtype=np.int64).reshape(-1, d)
    offsets.flags.writeable = False
    return offsets


# cells are widened until the padded cell table has at most this many
# cells per point (or the fewest cells the adjacency rule allows)
_CELLS_PER_POINT = 4


class _GridLayout(NamedTuple):
    cells: np.ndarray
    size: int
    strides: np.ndarray
    steps: np.ndarray
    sides: np.ndarray | None
    source: np.ndarray | None


@functools.lru_cache(maxsize=256)
def _grid_layout(cells: tuple[int, ...], period: float | None) -> _GridLayout:
    """What a NeighborGrid's table needs besides its points, read-only and
    shared by every grid of the same cells per axis and period: the cell
    counts, the padded table's size and strides, and the flat step of each
    half-offset. On a torus also the cell sides and, for every padded cell,
    the padded index of the cell it repeats: padded coordinate p of an
    axis with c cells shows cell (p - 1) mod c, stored at (p - 1) mod c + 1.
    A box grid's sides follow its cloud's span, so it has neither.
    """
    shape = [c + 2 for c in cells]
    strides = np.cumprod([1] + shape[:0:-1])[::-1]
    sides = source = None
    if period is not None:
        sides = np.array([period / c for c in cells])
        source = np.zeros(1, dtype=np.int64)
        for c, size, stride in zip(cells, shape, strides):
            shown = (np.arange(size) - 1) % c + 1
            source = (source[:, None] + shown * stride).ravel()
    layout = _GridLayout(np.array(cells), prod(shape), strides,
                         _half_offsets(len(cells)) @ strides, sides, source)
    for part in layout:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return layout


class NeighborGrid:
    """Uniform spatial hash over a point set, for the pairs within r.

    Cells are at least r wide on every axis, so every pair at distance
    <= r is found inside a 3^d cell neighborhood. The cells of a sparse
    cloud are widened, the axis with the most cells first, until the cell
    table holds O(n) cells. The table is dense: it stores the first sorted
    position and the point count of every cell of the grid padded by one
    cell on each side, so each half-offset of each point is one table
    lookup. Without a period the padding cells are empty. With a period
    the grid indexes the flat torus and the padding cells repeat the cells
    across the seam, so adjacency wraps around. A torus keeps at least 3
    cells per axis, where wrapped offsets stop aliasing: on a cycle of 3
    cells every cell borders every other, so each pair is still found once
    when the cells are narrower than r.
    """

    def __init__(self, points: np.ndarray, r: float, period: float | None = None):
        _check_value(CechError, "build_r", r)
        if period is not None:
            _check_value(CechError, "period", period)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise CechError("points must be an (n, d) array")
        if not np.isfinite(pts).all():
            raise CechError("points must be finite")
        n, d = pts.shape
        self.r = float(r)
        self.period = None if period is None else float(period)
        self._wrap = self.period is not None
        if self._wrap:
            pts = np.mod(pts, self.period)
        self.points = pts
        # cells are a little wider than r, so that rounding in the cell
        # coordinates cannot put a pair within reach two cells apart
        width = self.r * (1 + 1e-6) + 4 * MINIBALL_TOL
        if n < 2:
            return
        _check_value(CechError, "dim", d)
        if self._wrap:
            cells = [max(int(self.period / width), 3)] * d
        else:
            origin = pts.min(axis=0)
            span = (pts.max(axis=0) - origin).tolist()
            cells = [int(min(s / width, _CELLS_PER_POINT * n)) + 1 for s in span]
        # widen the axis with the most cells until the table is O(n); a
        # torus keeps 3 cells per axis, where offsets stop aliasing
        fewest = 3 if self._wrap else 1
        budget = max(_CELLS_PER_POINT * n, (fewest + 2) ** d)
        while prod(c + 2 for c in cells) > budget:
            a = max(range(d), key=cells.__getitem__)
            cells[a] = max(cells[a] // 2, fewest)
        layout = _grid_layout(tuple(cells), self.period)
        if self._wrap:
            coords = np.floor(pts / layout.sides).astype(np.int64) % layout.cells
        else:
            sides = np.maximum([s / c for s, c in zip(span, cells)], width)
            coords = np.floor((pts - origin) / sides).astype(np.int64)
            coords = np.minimum(coords, layout.cells - 1)
        flat = (coords + 1) @ layout.strides
        order = flat.argsort()
        count = np.bincount(flat, minlength=layout.size)
        start = count.cumsum() - count
        if self._wrap:
            # the padding cells repeat the cells across the seam
            start, count = start[layout.source], count[layout.source]
        self._order = order
        self._cell = flat[order]
        self._start = start
        self._count = count
        self._steps = layout.steps

    def pairs_within(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered pairs at distance <= r + 2*MINIBALL_TOL.

        Returned as (u, v) with u < v, lexicographically sorted.
        """
        n = len(self.points)
        if n < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        iu, jv = self._candidate_pairs()
        # coordinate by coordinate, as in _batch_triangle_r2: same floats
        # as a row sum, without numpy's slow reduction over a short axis
        dist2 = 0.0
        for col in self.points.T:
            delta = col[iu] - col[jv]
            if self._wrap:
                delta = _min_image(delta, self.period)
            dist2 = dist2 + delta * delta
        keep = (dist2 <= _square(self.r + 2 * MINIBALL_TOL)).nonzero()[0]
        iu, jv = iu[keep], jv[keep]
        keys = np.minimum(iu, jv) * n + np.maximum(iu, jv)
        keys.sort()
        return keys // n, keys % n

    def _candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        # sorted position p pairs with the later positions of its own cell
        # and with every position of the cells at its half-offsets
        cell = self._cell
        pos = np.arange(len(cell), dtype=np.int64)
        nb = (cell[:, None] + self._steps).ravel()
        left = np.concatenate((pos, pos.repeat(len(self._steps))))
        start = np.concatenate((pos + 1, self._start[nb]))
        length = np.concatenate((self._start[cell] + self._count[cell] - pos - 1,
                                 self._count[nb]))
        upos, vpos = _ragged_pairs(left, start, length)
        return self._order[upos], self._order[vpos]


def _batch_triangle_r2(pa, pb, pc) -> np.ndarray:
    """Squared miniball radii of point triples (vectorized).

    pa, pb and pc hold the triples' first, second and third points, one
    coordinate array per axis.

    If some angle is >= 90 deg the miniball is the half ball of the
    longest edge, else the circumball. An angle counts as >= 90 deg when
    the squared lengths say so (2 lmax >= their sum) or the dot product of
    the two edges at some vertex is <= 0. Near a right angle with one very
    short edge the first test can miss it, and the second can call a flat
    triangle acute whose area rounds to 0; in both cases the triangle is
    right to rounding and the half ball is its miniball.
    """
    # coordinate by coordinate: row sums over a short axis are slow in
    # numpy, and adding the d terms in order gives the same floats
    lab = lac = lbc = dot_a = dot_b = dot_c = 0.0
    for xa, xb, xc in zip(pa, pb, pc):
        ab = xb - xa
        ac = xc - xa
        bc = xc - xb
        lab = lab + ab * ab
        lac = lac + ac * ac
        lbc = lbc + bc * bc
        dot_a = dot_a + ab * ac
        dot_b = dot_b - ab * bc
        dot_c = dot_c + ac * bc
    lmax = np.maximum(np.maximum(lab, lac), lbc)
    # the smallest dot product, (sum of squared lengths - 2 lmax) / 2, is
    # the one at the vertex facing the longest edge
    dot = np.minimum(np.minimum(dot_a, dot_b), dot_c)
    not_acute = (2.0 * lmax >= lab + lac + lbc) | (dot <= 0.0)
    # circumradius^2 = lab lac lbc / (4 |u x v|^2) with u, v the edges at
    # that vertex: |u x v|^2 = |u|^2 |v|^2 - (u.v)^2 = lab lac lbc / lmax
    # - dot^2, and its angle is 60-90 deg in an acute triangle, so nothing
    # cancels. Heron's formula on the squared lengths cancels for a needle
    # (one very short edge): it was 1% off on one at the r/2 threshold
    prod = lab * lac * lbc
    denom = 4.0 * (prod / np.maximum(lmax, 1e-300) - dot * dot)
    circ = prod / np.maximum(denom, 1e-300)
    return np.where(not_acute, 0.25 * lmax, circ)


def build_cech(cloud: PointCloud, r: float, max_dim: int,
               period: float | None = None) -> SimplicialComplex:
    """Cech complex of the cloud at radius r, up to max_dim."""
    return _build(cloud, r, max_dim, period, filtered=True)


def build_rips(cloud: PointCloud, r: float, max_dim: int,
               period: float | None = None) -> SimplicialComplex:
    """Vietoris-Rips complex: clique complex of the r-neighbor graph.

    Not part of the estimators; kept as an oracle. The Cech complex is
    the Rips complex minus the cliques the miniball filter rejects, so
    tests in test_cech.py and test_homology.py compare against it, and
    the benchmark's traced run counts its cliques for the miniball
    acceptance ratio.
    """
    return _build(cloud, r, max_dim, period, filtered=False)


def _build(cloud: PointCloud, r: float, max_dim: int, period: float | None,
           filtered: bool) -> SimplicialComplex:
    _check_value(CechError, "build_r", r)
    _check_value(CechError, "max_dim", max_dim)
    if period is not None:
        _check_value(CechError, "period", period)
        if not period > 3.0 * r:
            raise CechError(f"torus period {period} too small for radius {r}: "
                            "need period > 3r so simplices cannot wrap")
    pts = cloud.points
    n = len(pts)
    r2_cut = _square(0.5 * r + MINIBALL_TOL)
    levels = [np.arange(n, dtype=np.int64)[:, None]]
    facets = [np.empty((n, 0), dtype=np.int64)]
    top = min(max_dim, n - 1) if n else 0

    if top >= 1:
        eu, ev = NeighborGrid(pts, r, period).pairs_within()
        levels.append(np.column_stack((eu, ev)))
        facets.append(levels[1])
        # the last level's facet columns, read as built rather than out of
        # its stacked facets array: an edge's facets are its vertices
        up = [eu, ev]
        # CSR upper-neighbour lists: the edges are sorted by (u, v), so
        # vertex a's neighbours above it are ev[starts[a]:starts[a + 1]]
        starts = eu.searchsorted(np.arange(n + 1))
        # the miniball filter reads one contiguous coordinate array per axis,
        # and verts[i] holds vertex i of every simplex of the last level
        axes = [np.ascontiguousarray(x) for x in pts.T]
        verts = [eu, ev]
        unwrap = filtered and period is not None
        if unwrap:
            # each edge's minimum-image delta, once per axis: vertex i of a
            # simplex unwraps to x[v0] + delta[spoke], its spoke being the
            # edge (v0, vi)
            deltas = [_min_image(x[ev] - x[eu], period) for x in axes]
        for j in range(2, top + 1):
            # level j extends each accepted (j-1)-simplex by every upper
            # neighbour of its last vertex, so each level comes out in
            # lexicographic order
            last = verts[-1]
            parent, pos = _ragged_pairs(np.arange(len(last)), starts[last],
                                        starts[last + 1] - starts[last])
            # a candidate enters when all its facets are in level j-1 (the
            # Rips clique test, the Cech facet condition). Facet c lacks
            # vertex j-c: c = 0 is the parent, c = j = 2 the edge grown
            # along, any other is keyed (parent's facet c-1, new vertex)
            prev_keys = up[0] * n + last
            cols = [parent]
            for c in range(1, 2 if j == 2 else j + 1):
                at, found = sorted_lookup(prev_keys, up[c - 1][cols[0]] * n + ev[pos])
                found = found.nonzero()[0]
                cols = [col[found] for col in cols] + [at[found]]
                pos = pos[found]
            if j == 2:
                cols.append(pos)
            verts = [v[cols[0]] for v in verts] + [ev[pos]]
            # above d every candidate is affinely dependent and passes on
            # its facets (see _cech_keep)
            if filtered and len(pos) and j <= len(axes):
                if unwrap:
                    # spokes[i - 1] holds spoke i of every candidate: a
                    # triangle's are its facets 0 and 1; above, they are the
                    # parent's spokes and the last spoke of facet j-1, the
                    # facet without vertex 1
                    spokes = (cols[:2] if j == 2 else
                              [s[cols[0]] for s in spokes] + [spokes[-1][cols[j - 1]]])
                    base = [x[verts[0]] for x in axes]
                    coords = [base] + [[b + dx[s] for b, dx in zip(base, deltas)]
                                       for s in spokes]
                else:
                    coords = [[x[v] for x in axes] for v in verts]
                # about 96% of candidates pass: a mask that full compacts
                # faster than an index (see the module docstring)
                keep = _cech_keep(coords, r2_cut)
                verts, cols = [v[keep] for v in verts], [col[keep] for col in cols]
                if unwrap and j < top:
                    # the next level reads the spokes of the simplices kept
                    spokes = [s[keep] for s in spokes]
            if not len(verts[0]):
                break
            levels.append(np.column_stack(verts))
            facets.append(np.column_stack(cols))
            up = cols
    while len(levels) > 1 and not len(levels[-1]):
        levels.pop()
        facets.pop()

    return SimplicialComplex(
        max_dim=max_dim,
        simplices=tuple(levels),
        vertex_count=n,
        facets=tuple(facets),
    )


def sorted_lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Position of each key in a sorted key array, and whether it is there
    (positions of absent keys are meaningless)."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(sorted_keys.searchsorted(keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def _cech_keep(coords: list[list[np.ndarray]], r2_cut: float) -> np.ndarray:
    """Miniball filter over one level of candidate j-simplices, j <= d
    (vectorized).

    coords[i][a] holds axis a of the i-th vertex of every candidate, and
    the candidates' facets are all in the complex. On a torus the builder
    has already unwrapped each vertex i > 0 to x[v0] + the minimum-image
    delta of edge (v0, vi), so the filter sees plain coordinates.
    Triangles use the radius from _batch_triangle_r2. Above that, by
    Welzl's support-set argument, the miniball is the circumball when the
    circumcenter lies in the simplex and the largest facet miniball
    otherwise, which is within the cut since the facets are in. Affinely
    dependent vertices count as "outside" (so for j > d every candidate
    passes, and the builder does not call this); otherwise a candidate
    fails only when its circumcenter lies inside and its circumradius
    exceeds the cut.
    """
    if len(coords) == 3:
        return _batch_triangle_r2(*coords) <= r2_cut
    # the edge vectors from vertex 0, one (j, m) block per axis, written
    # into one (m, j, d) stack
    base, others = coords[0], coords[1:]
    A = np.empty((len(base[0]), len(others), len(base)))
    for a, x0 in enumerate(base):
        A[:, :, a] = (np.stack([v[a] for v in others]) - x0).T
    inside, r2 = _batch_circumball(A)
    return ~inside | (r2 <= r2_cut)


def _batch_circumball(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each simplex holds its circumcenter, and its squared
    circumradius.

    A is (m, j, d): the edge vectors q_i - q_0 of each simplex, j <= d.
    The circumcenter q_0 + A^T alpha solves the Gram system
    (A A^T) alpha = |A_i|^2 / 2; its barycentric coordinates are
    (1 - sum alpha, alpha), and it lies in the simplex when they are all
    non-negative. A singular Gram matrix counts as outside. A nearly
    singular one may give huge, inf or nan coordinates, which fail the
    test; the solve runs with numpy's floating-point warnings off for them.
    """
    G = A @ A.transpose(0, 2, 1)
    b = 0.5 * np.einsum("mjd,mjd->mj", A, A)
    singular = np.zeros(len(A), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            alpha = np.linalg.solve(G, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            singular = np.linalg.slogdet(G)[0] == 0
            G[singular] = np.eye(A.shape[1])
            alpha = np.linalg.solve(G, b[..., None])[..., 0]
        offset = np.einsum("mj,mjd->md", alpha, A)
        inside = ~singular & (alpha >= 0).all(axis=1) & (alpha.sum(axis=1) <= 1.0)
        r2 = (offset * offset).sum(axis=1)
    return inside, r2


def simplices_touching(complex: SimplicialComplex, marked, j: int) -> int:
    """Number of j-simplices with at least one marked vertex.

    marked holds one bool per vertex of the complex.
    """
    marked = np.asarray(marked, dtype=bool)
    if marked.shape != (complex.vertex_count,):
        raise CechError(f"need one mark per vertex, got shape {marked.shape}")
    return int(marked[complex.simplices_of(j)].any(axis=1).sum())
