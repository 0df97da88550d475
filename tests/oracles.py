"""Independent oracles the tests compare the library against.

No estimator, CLI command or benchmark path runs these; each is written
apart from the library code it checks:

- min_enclosing_ball_radius: Welzl's recursive miniball with
  move-to-front reordering. It checks the closed-form miniball filter of
  the Cech builder (cech._cech_keep, on one coordinate array per axis:
  cech._batch_triangle_r2 for triangles, cech._batch_circumball above),
  which never computes a ball point by point.
- connected_components: a Python union-find over the neighbour-grid
  edges. It checks beta_0 from betti_numbers, whose d_1 rank is the
  numpy Boruvka forest of homology._boruvka (which rank_gf2 also uses to
  contract a large d_2 core's two-entry columns).
- euler_check: the Euler-Poincare identity, the alternating simplex
  count against the alternating Betti sum, with every Betti number
  non-negative and beta_0 equal to the union-find components of the
  complex's edges, as the bench tracer checks. The identity alone checks
  that betti_numbers reaches every stored dimension but cannot see a
  wrong rank: betti_numbers takes beta_k = S_k - rank d_k - rank d_{k+1},
  so the ranks cancel in the alternating sum. A rank one too high makes
  beta_0 one short of the components; the dense rank oracles of
  test_homology check the ranks directly.
- simplex_count and vertex_simplex_count: S_j and the j-simplices on one
  vertex, counted from the stored rows. Summed over the vertices, the
  second gives (j+1) S_j exactly when every vertex index the builder
  stored lies in 0..n-1.
- choice_grid_sample: a grid draw by numpy's Generator.choice, as
  pointproc drew before each grid built its cdf and corner tables. It
  checks that _Grid.sample gives the same points and leaves the generator
  at the same place.
"""

from math import sqrt

import numpy as np

from betti_thermo.cech import CechError, NeighborGrid, SimplicialComplex
from betti_thermo.homology import HomologyError
from betti_thermo.pointproc import PointCloud


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


def connected_components(cloud: PointCloud, r: float,
                         period: float | None = None) -> int:
    """Components of the geometric graph with edges at distance <= r.

    Union-find with path halving over the edges in order.
    """
    if r <= 0:
        raise HomologyError("radius must be positive")
    n = len(cloud)
    if n == 0:
        return 0
    return _components(n, *NeighborGrid(cloud.points, r, period).pairs_within())


def _components(n: int, u: np.ndarray, v: np.ndarray) -> int:
    # union-find with path halving over the edges (u[i], v[i]) in order
    parent = list(range(n))
    components = n
    for a, b in zip(u.tolist(), v.tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[max(a, b)] = min(a, b)
            components -= 1
    return components


def euler_check(complex: SimplicialComplex, betti: tuple[int, ...]) -> bool:
    """Exact Euler-Poincare identity: alternating simplex and Betti sums
    match, every Betti number is non-negative, and beta_0 counts the
    components of the complex's edge graph.

    Only meaningful when the complex holds all of its dimensions and the
    Betti vector reaches the top nonempty dimension.
    """
    chi_simplices = sum((-1) ** j * len(level)
                        for j, level in enumerate(complex.simplices))
    chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
    edges = complex.simplices_of(1)
    return (chi_simplices == chi_betti and min(betti) >= 0
            and betti[0] == _components(complex.vertex_count, edges[:, 0], edges[:, 1]))


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


def choice_grid_sample(grid, n: int, gen: np.random.Generator) -> np.ndarray:
    """n points of a density or intensity grid: cells by gen.choice with
    p = masses / total, then a uniform offset in each cell."""
    if n == 0:
        return np.empty((0, grid.dim))
    p = grid.cell_masses()
    cells = gen.choice(grid.n_cells, size=n, p=p / p.sum())
    multi = np.unravel_index(cells, grid.cells_per_axis)
    lows = grid.box.lower + np.stack(multi, axis=-1).astype(float) * grid.cell_sides
    return lows + gen.random(lows.shape) * grid.cell_sides
