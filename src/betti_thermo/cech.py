"""Cech and Vietoris-Rips complexes on finite point clouds.

A k-simplex enters the Cech complex C(X, r) exactly when the smallest
enclosing ball of its k+1 vertices has radius at most r/2; the Rips
complex keeps every clique of the r-neighbor graph. Both are downward
closed. A complex stores each dimension as one sorted int array of vertex
rows. Construction is neighbor-grid edge enumeration followed by
level-wise expansion over CSR upper-neighbour lists: each accepted simplex
is extended by the neighbours above its last vertex, and a candidate
enters only if all its facets are in the level below (np.searchsorted on
lexicographic simplex keys), which for Rips is the clique test. The Cech
miniball filter then runs once per level on the survivors, in closed
form (triangles by edge lengths, higher simplices by circumcenter). An
optional period turns the metric into the flat torus R^d / period*Z^d;
candidate simplices are then unwrapped to the nearest image around their
first vertex, which reproduces torus balls exactly as long as period > 3r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt
from pathlib import Path

import numpy as np

from betti_thermo.pointproc import PointCloud, Window

# absolute slack on the miniball-radius <= r/2 comparison; keeps the
# complex monotone in r under floating point
MINIBALL_TOL = 1e-12


class CechError(ValueError):
    """Invalid complex-construction arguments."""


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Finite abstract simplicial complex on integer vertex labels.

    simplices[j] is an int64 (S_j, j+1) array: one j-simplex per row,
    strictly increasing vertex indices, rows in lexicographic order.
    max_dim is the enumeration cutoff requested at build time; it may
    exceed the highest nonempty dimension. Builders guarantee downward
    closure. Two complexes are equal when their fields and arrays are.
    """

    dim_ambient: int
    max_dim: int
    simplices: tuple[np.ndarray, ...]
    vertex_count: int

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

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** j * len(level) for j, level in enumerate(self.simplices)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            (self.dim_ambient, self.max_dim, self.vertex_count)
            == (other.dim_ambient, other.max_dim, other.vertex_count)
            and len(self.simplices) == len(other.simplices)
            and all(np.array_equal(a, b)
                    for a, b in zip(self.simplices, other.simplices))
        )

    def dumps(self) -> str:
        """One simplex per line, space-separated indices, dimension-sorted."""
        lines = []
        for level in self.simplices:
            lines.extend(" ".join(map(str, row)) for row in level.tolist())
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, path) -> None:
        Path(path).write_text(self.dumps())


def _min_image(delta: np.ndarray, period: float) -> np.ndarray:
    return delta - period * np.round(delta / period)


def _ragged_pairs(left: np.ndarray, start: np.ndarray, length: np.ndarray):
    """Expand (left[i], start[i]..start[i]+length[i]-1) index runs."""
    length = np.maximum(length, 0)
    total = int(length.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ii = np.repeat(left, length)
    ends = np.cumsum(length)
    offs = np.arange(total, dtype=np.int64) - np.repeat(ends - length, length)
    jj = np.repeat(start, length) + offs
    return ii, jj


def _half_offsets(d: int) -> list[tuple[int, ...]]:
    # one representative per {o, -o} pair: first nonzero entry is +1
    out = []
    for off in itertools.product((-1, 0, 1), repeat=d):
        first = next((x for x in off if x != 0), 0)
        if first == 1:
            out.append(off)
    return out


class NeighborGrid:
    """Uniform spatial hash over a point set.

    Cells have side >= cell_size, so every pair at distance <= cell_size
    is found inside a 3^d cell neighborhood. With a period the grid
    indexes the flat torus and cell adjacency wraps around; a torus
    needing fewer than 3 cells per axis falls back to brute-force pair
    scans (wrapped offsets would alias).
    """

    def __init__(self, points: np.ndarray, cell_size: float,
                 period: float | None = None):
        if cell_size <= 0:
            raise CechError("cell size must be positive")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise CechError("points must be an (n, d) array")
        n, d = pts.shape
        self.cell_size = float(cell_size)
        self.period = None if period is None else float(period)
        self._wrap = self.period is not None
        if self._wrap:
            pts = np.mod(pts, self.period)
        self.points = pts
        self._brute = n < 2
        if self._wrap:
            ncells = int(self.period / self.cell_size)
            if ncells < 3:
                self._brute = True
            extents = np.full(d, max(ncells, 1), dtype=np.int64)
            width = self.period / max(ncells, 1)
            origin = np.zeros(d)
        else:
            origin = pts.min(axis=0) if n else np.zeros(d)
            width = self.cell_size
            top = np.floor((pts - origin) / width).astype(np.int64) if n else np.zeros((0, d), np.int64)
            extents = (top.max(axis=0) + 1) if n else np.ones(d, dtype=np.int64)
        self._extents = extents
        if self._brute:
            return
        coords = np.floor((pts - origin) / width).astype(np.int64)
        if self._wrap:
            coords %= extents
        else:
            coords = np.minimum(coords, extents - 1)
        flat = np.ravel_multi_index(tuple(coords.T), tuple(extents))
        order = np.argsort(flat, kind="stable")
        self._order = order
        self._coords = coords[order]
        self._cells, self._starts = np.unique(flat[order], return_index=True)

    def pairs_within(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """All unordered pairs at distance <= r + 2*MINIBALL_TOL.

        Returned as (u, v) with u < v, lexicographically sorted. r must
        not exceed the grid's cell_size (the adjacency guarantee).
        """
        n = len(self.points)
        if n < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if r > self.cell_size * (1 + 1e-9):
            raise CechError("pair radius exceeds the grid cell size")
        if self._brute:
            iu, jv = np.triu_indices(n, k=1)
        else:
            iu, jv = self._candidate_pairs()
        # coordinate by coordinate, as in _batch_triangle_r2: same floats
        # as a row sum, without numpy's slow reduction over a short axis
        dist2 = 0.0
        for col in self.points.T:
            delta = col[iu] - col[jv]
            if self._wrap:
                delta = _min_image(delta, self.period)
            dist2 = dist2 + delta * delta
        keep = dist2 <= (r + 2 * MINIBALL_TOL) ** 2
        iu, jv = iu[keep], jv[keep]
        keys = np.sort(np.minimum(iu, jv) * n + np.maximum(iu, jv))
        return keys // n, keys % n

    def _candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.points)
        starts = self._starts
        bounds = np.append(starts, n)
        pos = np.arange(n, dtype=np.int64)
        cell_of_pos = np.searchsorted(starts, pos, side="right") - 1
        run_end = bounds[cell_of_pos + 1]
        us = []
        vs = []
        # same cell: sorted position p pairs with p+1 .. run_end-1
        left, right = _ragged_pairs(pos, pos + 1, run_end - pos - 1)
        us.append(left)
        vs.append(right)
        for off in _half_offsets(self.points.shape[1]):
            nb = self._coords + np.asarray(off, dtype=np.int64)
            if self._wrap:
                nb %= self._extents
                src = pos
            else:
                ok = np.all((nb >= 0) & (nb < self._extents), axis=1)
                src = pos[ok]
                nb = nb[ok]
            if not len(src):
                continue
            flat_nb = np.ravel_multi_index(tuple(nb.T), tuple(self._extents))
            ci = np.searchsorted(self._cells, flat_nb)
            ci_c = np.minimum(ci, len(self._cells) - 1)
            hit = self._cells[ci_c] == flat_nb
            src = src[hit]
            ci = ci_c[hit]
            left, right = _ragged_pairs(src, starts[ci], bounds[ci + 1] - starts[ci])
            us.append(left)
            vs.append(right)
        upos = np.concatenate(us)
        vpos = np.concatenate(vs)
        return self._order[upos], self._order[vpos]


def min_enclosing_ball_radius(points) -> float:
    """Radius of the smallest ball containing the points.

    Welzl's recursive algorithm with move-to-front reordering; exact for
    the support set up to roundoff. A 1-D input array is read as points
    on a line. Empty input is rejected. The complex builders do not call
    it: they filter whole levels in closed form, and the tests use this
    function as the independent oracle for that filter.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise CechError("miniball of an empty point set")
    if pts.ndim == 1:
        pts = pts[:, None]
    _, r2 = _miniball(pts)
    return sqrt(max(r2, 0.0))


def _miniball(pts: np.ndarray) -> tuple[np.ndarray, float]:
    d = pts.shape[1]
    # absolute slack scaled to the coordinate magnitude (cancellation floor)
    abs_tol = 1e-14 * max(1.0, float((pts * pts).sum(axis=1).max()))
    work = [pts[i] for i in range(len(pts))]
    return _mtf_ball(work, len(work), [], d, abs_tol)


def _mtf_ball(work: list, end: int, support: list, d: int, abs_tol: float):
    center, r2 = _circumball(support, d)
    if len(support) == d + 1:
        return center, r2
    i = 0
    while i < end:
        p = work[i]
        delta = p - center
        if float(delta @ delta) > r2 + 1e-12 * abs(r2) + abs_tol:
            center, r2 = _mtf_ball(work, i, support + [p], d, abs_tol)
            work.insert(0, work.pop(i))
        i += 1
    return center, r2


def _circumball(support: list, d: int) -> tuple[np.ndarray, float]:
    # smallest sphere through the support points (center in their affine hull)
    if not support:
        return np.zeros(d), -1.0
    q0 = support[0]
    if len(support) == 1:
        return q0, 0.0
    A = np.asarray(support[1:]) - q0
    b = 0.5 * (A * A).sum(axis=1)
    G = A @ A.T
    try:
        alpha = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(G, b, rcond=None)[0]
    offset = A.T @ alpha
    return q0 + offset, float(offset @ offset)


def _batch_triangle_r2(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Squared miniball radii of point triples (vectorized).

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
    for c in range(pa.shape[1]):
        ab = pb[:, c] - pa[:, c]
        ac = pc[:, c] - pa[:, c]
        bc = pc[:, c] - pb[:, c]
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
    if r <= 0:
        raise CechError("radius must be positive")
    if max_dim < 0:
        raise CechError("max_dim must be non-negative")
    if period is not None and period <= 3.0 * r:
        raise CechError(
            f"torus period {period} too small for radius {r}: "
            "need period > 3r so simplices cannot wrap"
        )
    pts = cloud.points
    n = len(pts)
    r2_cut = (0.5 * r + MINIBALL_TOL) ** 2
    levels = [np.arange(n, dtype=np.int64)[:, None]]
    top = min(max_dim, n - 1) if n else 0

    if top >= 1 and n >= 2:
        grid = NeighborGrid(pts, cell_size=r, period=period)
        eu, ev = grid.pairs_within(r)
        prev = np.column_stack((eu, ev))
        levels.append(prev)
        # CSR upper-neighbour lists: the edges are sorted by (u, v), so
        # vertex a's neighbours above it are ev[starts[a]:starts[a + 1]]
        starts = np.searchsorted(eu, np.arange(n + 1))
        for j in range(2, top + 1):
            if not len(prev):
                break
            # level j extends each accepted (j-1)-simplex by every upper
            # neighbour of its last vertex, so each level comes out in
            # lexicographic order
            last = prev[:, -1]
            parent, pos = _ragged_pairs(np.arange(len(prev)), starts[last],
                                        starts[last + 1] - starts[last])
            rows = np.column_stack((prev[parent], ev[pos]))
            # a candidate enters when its facets are all in level j-1: that
            # makes it a clique for Rips and is the Cech facet condition.
            # The parent (drop the new vertex) is in by construction, and at
            # j = 2 so is the edge it was grown along (drop the first vertex)
            prev_keys = lex_keys(prev, n)
            for i in range(1 if j == 2 else 0, j):
                facet = lex_keys(np.delete(rows, i, axis=1), n)
                rows = rows[sorted_lookup(prev_keys, facet)[1]]
            if filtered and len(rows):
                rows = rows[_cech_keep(rows, pts, period, r2_cut)]
            if not len(rows):
                break
            levels.append(rows)
            prev = rows
    while len(levels) > 1 and not len(levels[-1]):
        levels.pop()

    return SimplicialComplex(
        dim_ambient=int(pts.shape[1]) if pts.ndim == 2 else 0,
        max_dim=max_dim,
        simplices=tuple(levels),
        vertex_count=n,
    )


def sorted_lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Position of each key in a sorted key array, and whether it is there
    (positions of absent keys are meaningless)."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def lex_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One key per row of a non-negative int array with entries below base;
    keys compare like the rows in lexicographic order.

    The keys are the rows read as base-`base` int64 numbers, or, when
    base**width does not fit in an int64, opaque byte keys (_row_keys).
    """
    width = rows.shape[1]
    if base ** width >= 2 ** 63:
        return _row_keys(rows)
    keys = np.zeros(len(rows), dtype=np.int64)
    for c in range(width):
        keys = keys * base + rows[:, c]
    return keys


def _cech_keep(rows: np.ndarray, pts: np.ndarray, period: float | None,
               r2_cut: float) -> np.ndarray:
    """Miniball filter over one level of candidate simplices (vectorized).

    rows are j-simplices whose facets are all in the complex. Triangles
    use the radius from _batch_triangle_r2. Above that, by Welzl's
    support-set argument, the miniball is the circumball when the
    circumcenter lies in the simplex and the largest facet miniball
    otherwise, which is within the cut since the facets are in. Affinely
    dependent vertices count as "outside", so for j > d every candidate
    passes; otherwise a candidate fails only when its circumcenter lies
    inside and its circumradius exceeds the cut.
    """
    j = rows.shape[1] - 1
    if j > pts.shape[1]:
        return np.ones(len(rows), dtype=bool)
    base = pts[rows[:, 0]]
    verts = [pts[rows[:, i]] for i in range(1, j + 1)]
    if period is not None:
        verts = [base + _min_image(v - base, period) for v in verts]
    if j == 2:
        return _batch_triangle_r2(base, verts[0], verts[1]) <= r2_cut
    inside, r2 = _batch_circumball(np.stack([v - base for v in verts], axis=1))
    return ~inside | (r2 <= r2_cut)


def _row_keys(arr: np.ndarray) -> np.ndarray:
    """One opaque key per row of a non-negative int array; keys of rows
    compare like the rows in lexicographic order (big-endian bytes)."""
    arr = np.ascontiguousarray(arr, dtype=">i8")
    return arr.view(np.dtype((np.void, 8 * arr.shape[1]))).ravel()


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


def simplex_count(complex: SimplicialComplex, j: int) -> int:
    """S_j of the complex (0 beyond the stored dimensions)."""
    if j < 0:
        raise CechError("simplex dimension must be non-negative")
    return len(complex.simplices_of(j))


def vertex_simplex_count(complex: SimplicialComplex, v: int, j: int) -> int:
    """Number of j-simplices containing vertex v.

    Summing over v gives (j+1) * S_j: each j-simplex is counted once per
    vertex.
    """
    if not 0 <= v < complex.vertex_count:
        raise CechError(f"vertex index {v} out of range")
    return int(np.count_nonzero(complex.simplices_of(j) == v))


def simplices_touching(complex: SimplicialComplex, cloud: PointCloud,
                       regions, j: int) -> int:
    """Number of j-simplices with at least one vertex in the region union."""
    level = complex.simplices_of(j)
    if not len(level):
        return 0
    mask = np.zeros(len(cloud), dtype=bool)
    for region in regions:
        if region.dim != cloud.dim:
            raise CechError("region dimension does not match the cloud")
        mask |= region.contains(cloud.points)
    if not mask.any():
        return 0
    return int(mask[level].any(axis=1).sum())
