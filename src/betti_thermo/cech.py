"""Cech and Vietoris-Rips complexes on finite point clouds.

A k-simplex enters the Cech complex C(X, r) exactly when the smallest
enclosing ball of its k+1 vertices has radius at most r/2; the Rips
complex keeps every clique of the r-neighbor graph. Construction is
neighbor-grid edge enumeration followed by clique expansion by highest
vertex index, with the miniball filter applied per candidate (batched
for triangles). An optional period turns the metric into the flat torus
R^d / period*Z^d; candidate simplices are then unwrapped to the nearest
image around their first vertex, which reproduces torus balls exactly
as long as period > 3r.
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


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex on integer vertex labels.

    simplices[j] holds the j-simplices as strictly increasing vertex
    tuples in lexicographic order. max_dim is the enumeration cutoff
    requested at build time; it may exceed the highest nonempty
    dimension. Builders guarantee downward closure.
    """

    dim_ambient: int
    max_dim: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    vertex_count: int

    def simplices_of(self, j: int) -> tuple[tuple[int, ...], ...]:
        if 0 <= j < len(self.simplices):
            return self.simplices[j]
        return ()

    def simplex_counts(self) -> list[int]:
        return [len(level) for level in self.simplices]

    def top_dim(self) -> int:
        """Highest dimension with at least one simplex (-1 if empty)."""
        for j in range(len(self.simplices) - 1, -1, -1):
            if self.simplices[j]:
                return j
        return -1

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** j * len(level) for j, level in enumerate(self.simplices)
        )

    def dumps(self) -> str:
        """One simplex per line, space-separated indices, dimension-sorted."""
        lines = []
        for level in self.simplices:
            for simplex in level:
                lines.append(" ".join(map(str, simplex)))
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
        delta = self.points[iu] - self.points[jv]
        if self._wrap:
            delta = _min_image(delta, self.period)
        keep = (delta * delta).sum(axis=1) <= (r + 2 * MINIBALL_TOL) ** 2
        lo = np.minimum(iu[keep], jv[keep])
        hi = np.maximum(iu[keep], jv[keep])
        order = np.lexsort((hi, lo))
        return lo[order], hi[order]

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
    on a line. Empty input is rejected.
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

    If the angle opposite the longest edge is >= 90 deg the miniball is
    that edge's half ball, else the circumball; Heron-style formula on
    squared edge lengths.
    """
    lab = ((pb - pa) ** 2).sum(axis=1)
    lac = ((pc - pa) ** 2).sum(axis=1)
    lbc = ((pc - pb) ** 2).sum(axis=1)
    lmax = np.maximum(np.maximum(lab, lac), lbc)
    lsum = lab + lac + lbc
    denom = 2.0 * (lab * lac + lab * lbc + lac * lbc) - (
        lab * lab + lac * lac + lbc * lbc
    )
    circ = (lab * lac * lbc) / np.maximum(denom, 1e-300)
    return np.where(2.0 * lmax >= lsum, 0.25 * lmax, circ)


def _simplex_points(pts: np.ndarray, simplex: tuple, period: float | None) -> np.ndarray:
    sub = pts[list(simplex)]
    if period is not None:
        sub = sub[0] + _min_image(sub - sub[0], period)
    return sub


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
    levels: list[list] = [[(i,) for i in range(n)]]
    top = min(max_dim, n - 1) if n else 0

    if top >= 1 and n >= 2:
        grid = NeighborGrid(pts, cell_size=r, period=period)
        eu, ev = grid.pairs_within(r)
        levels.append(list(zip(eu.tolist(), ev.tolist())))
    if len(levels) > 1 and levels[1] and top >= 2:
        adj = [0] * n
        for a, b in levels[1]:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        tris = []
        for a, b in levels[1]:
            m = adj[a] & adj[b] & ~((1 << (b + 1)) - 1)
            while m:
                low = m & -m
                m ^= low
                tris.append((a, b, low.bit_length() - 1))
        if tris and filtered:
            arr = np.asarray(tris, dtype=np.int64)
            pa = pts[arr[:, 0]]
            pb = pts[arr[:, 1]]
            pc = pts[arr[:, 2]]
            if period is not None:
                pb = pa + _min_image(pb - pa, period)
                pc = pa + _min_image(pc - pa, period)
            keep = _batch_triangle_r2(pa, pb, pc) <= r2_cut
            tris = [t for t, k in zip(tris, keep.tolist()) if k]
        if tris:
            levels.append(tris)
            if top >= 3:
                for j in range(3, top + 1):
                    levels.append([])
                for u, v, w in tris:
                    cand = adj[u] & adj[v] & adj[w] & ~((1 << (w + 1)) - 1)
                    if cand:
                        _extend((u, v, w), cand, 3, levels, adj, pts, period,
                                r2_cut if filtered else None, top)
    while len(levels) > 1 and not levels[-1]:
        levels.pop()

    return SimplicialComplex(
        dim_ambient=int(pts.shape[1]) if pts.ndim == 2 else 0,
        max_dim=max_dim,
        simplices=tuple(tuple(level) for level in levels),
        vertex_count=n,
    )


def _extend(simplex: tuple, cand: int, level: int, levels: list, adj: list,
            pts: np.ndarray, period: float | None, r2_cut: float | None,
            top: int) -> None:
    # cand holds the vertices above max(simplex) adjacent to all of simplex
    while cand:
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        new = simplex + (x,)
        if r2_cut is not None:
            sub = _simplex_points(pts, new, period)
            _, r2 = _miniball(sub)
            if r2 > r2_cut:
                continue
        levels[level].append(new)
        if level < top:
            deeper = cand & adj[x]
            if deeper:
                _extend(new, deeper, level + 1, levels, adj, pts, period,
                        r2_cut, top)


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
    return sum(1 for s in complex.simplices_of(j) if v in s)


def simplices_touching(complex: SimplicialComplex, cloud: PointCloud,
                       regions, j: int) -> int:
    """Number of j-simplices with at least one vertex in the region union."""
    level = complex.simplices_of(j)
    if not level:
        return 0
    mask = np.zeros(len(cloud), dtype=bool)
    for region in regions:
        if region.dim != cloud.dim:
            raise CechError("region dimension does not match the cloud")
        mask |= region.contains(cloud.points)
    if not mask.any():
        return 0
    arr = np.asarray(level, dtype=np.int64)
    return int(mask[arr].any(axis=1).sum())
