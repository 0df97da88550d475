"""Betti numbers of finite simplicial complexes over the two-element field.

beta_k = S_k - rank(d_k) - rank(d_{k+1}). Boundary matrices are int
arrays of facet indices, found by np.searchsorted on lexicographic
simplex keys. Ranks: d_1 is a graph's incidence matrix, and the edges of
a spanning forest (union-find), found when d_1 is built, are its column
basis. Every other rank peels each row or column with a single entry off
as one pivot (rank = 1 + rank of the minor without that row and
column), and eliminates the core that is left with bit-packed columns.
In betti_numbers d_2 skips the rows of d_1's spanning forest (clearing,
after Chen & Kerber, "Persistent homology computation with a twist",
EuroCG 2011): since d_1 d_2 = 0, peeling the forest's leaves writes each
forest row as a sum of non-forest rows. A d_2 built on its own clears
nothing unless it is given the forest. Also: a union-find
component counter used as a beta_0 oracle, the exact Euler-Poincare
cross-check, and the Betti-difference bound for nested complexes (the
inequality |beta_k(K1) - beta_k(K2)| bounded by the simplices of
K2 \\ K1 in dimensions k and k+1).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from betti_thermo.cech import NeighborGrid, SimplicialComplex, lex_keys, sorted_lookup
from betti_thermo.pointproc import PointCloud


class HomologyError(ValueError):
    """Invalid homology computation request."""


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse GF(2) boundary matrix.

    columns holds the distinct row indices of each column: an int
    (cols, j+1) array from boundary_matrix (rows sorted within a column),
    or any sequence of sized row-index sequences. rank_gf2 skips the rows
    listed in cleared, which must lie in the span of the other rows. basis,
    when not None, lists columns known to form a basis of the column
    space, so the rank is its length.
    """

    rows: int
    cols: int
    columns: Sequence
    cleared: Sequence[int] = ()
    basis: Sequence[int] | None = None


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers beta_0 .. beta_maxk."""

    values: tuple[int, ...]
    max_k: int

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def boundary_matrix(complex: SimplicialComplex, j: int,
                    cleared: Sequence[int] = ()) -> BoundaryMatrix:
    """Boundary map from j-chains to (j-1)-chains.

    Column c lists the indices of the j+1 facets of the c-th j-simplex,
    referring to the complex's own (j-1)-simplex ordering. For j = 1 the
    edges of a spanning forest of the 1-skeleton are the column basis.
    cleared names rows to skip in the rank; the basis of d_{j-1} qualifies,
    since d_{j-1} d_j = 0 writes each of its rows as a sum of the others.
    betti_numbers passes d_1's forest when it builds d_2. By default
    nothing is cleared, which leaves the rank unchanged: clearing only
    shrinks the work.
    """
    if not 1 <= j <= complex.max_dim:
        raise HomologyError(f"boundary dimension {j} outside 1..{complex.max_dim}")
    faces = complex.simplices_of(j - 1)
    simplices = complex.simplices_of(j)
    base = complex.vertex_count
    face_keys = lex_keys(faces, base)
    columns = np.empty((len(simplices), j + 1), dtype=np.int64)
    # dropping a later vertex gives a lexicographically smaller facet, so
    # dropping the last vertex first lists each column's rows in order
    for c in range(j + 1):
        facet = lex_keys(np.delete(simplices, j - c, axis=1), base)
        pos, found = sorted_lookup(face_keys, facet)
        if not found.all():
            raise HomologyError(f"a {j}-simplex has a facet missing from the complex")
        columns[:, c] = pos
    basis = None
    if j == 1:
        basis = _spanning_forest(len(faces), columns[:, 0], columns[:, 1])
    return BoundaryMatrix(rows=len(faces), cols=len(simplices), columns=columns,
                          cleared=cleared, basis=basis)


def _spanning_forest(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the edges (u[e], v[e]) that union-find, taking the edges
    in order, adds to a spanning forest of the graph on n vertices."""
    parent = list(range(n))
    forest = []
    for e, a, b in zip(range(len(u)), u.tolist(), v.tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[max(a, b)] = min(a, b)
            forest.append(e)
    return np.array(forest, dtype=np.int64)


def _rank_bit_columns(columns) -> int:
    # eliminate against pivots keyed by each column's highest set bit
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            key = col.bit_length() - 1
            other = pivots.get(key)
            if other is None:
                pivots[key] = col
                rank += 1
                break
            col ^= other
    return rank


def _entries(matrix: BoundaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Column and row index of every nonzero entry, ordered by column."""
    columns = matrix.columns
    if isinstance(columns, np.ndarray):
        lengths = np.full(len(columns), columns.shape[1])
        rows = columns.ravel()
    else:
        lengths = [len(col) for col in columns]
        rows = np.fromiter(chain.from_iterable(columns), dtype=np.int64,
                           count=sum(lengths))
    return np.repeat(np.arange(len(columns)), lengths), np.asarray(rows, dtype=np.int64)


def _peel(col_of: np.ndarray, row_of: np.ndarray, rows: int, cols: int):
    """Pivot on singleton rows and columns until none is left.

    A row (or column) with a single entry makes that entry a pivot, and
    rank = 1 + rank of the minor without its row and column. Returns the
    entries of the core that is left and the number of pivots taken.
    """
    rank = 0
    taken = True
    while taken:
        taken = False
        for by_row in (True, False):
            major, minor = (row_of, col_of) if by_row else (col_of, row_of)
            single = np.bincount(major)[major] == 1
            pivot = np.zeros(cols if by_row else rows, dtype=bool)
            pivot[minor[single]] = True
            hits = int(np.count_nonzero(pivot))
            if hits:
                keep = ~pivot[minor]
                col_of, row_of = col_of[keep], row_of[keep]
                rank += hits
                taken = True
    return col_of, row_of, rank


def rank_gf2(matrix: BoundaryMatrix) -> int:
    """Rank over GF(2), skipping the matrix's cleared rows.

    A known column basis gives the rank directly. Otherwise singleton rows
    and columns are peeled off and the core that is left is eliminated
    with bit-packed columns.
    """
    if matrix.basis is not None:
        return len(matrix.basis)
    col_of, row_of = _entries(matrix)
    if len(matrix.cleared):
        dropped = np.zeros(matrix.rows, dtype=bool)
        dropped[np.asarray(matrix.cleared, dtype=np.int64)] = True
        keep = ~dropped[row_of]
        col_of, row_of = col_of[keep], row_of[keep]
    col_of, row_of, rank = _peel(col_of, row_of, matrix.rows, matrix.cols)
    if not len(col_of):
        return rank
    # renumber the core's rows densely, keeping their order
    _, row_of = np.unique(row_of, return_inverse=True)
    bits = [0] * matrix.cols
    for c, r in zip(col_of.tolist(), row_of.tolist()):
        bits[c] |= 1 << r
    return rank + _rank_bit_columns(bits)


def betti_numbers(complex: SimplicialComplex, max_k: int) -> BettiVector:
    """Betti numbers beta_0 .. beta_maxk of the complex.

    Requires the complex to have been built with max_dim >= max_k + 1;
    truncating the (k+1)-simplices away would silently inflate beta_k,
    so a too-shallow complex is a hard error.
    """
    if max_k < 0:
        raise HomologyError("max_k must be non-negative")
    if complex.max_dim < max_k + 1:
        raise HomologyError(
            f"complex built to max_dim {complex.max_dim}; "
            f"beta_{max_k} needs max_dim >= {max_k + 1}"
        )
    ranks = [0] * (max_k + 2)
    cleared = ()
    for j in range(1, max_k + 2):
        if len(complex.simplices_of(j)):
            # d_j's basis clears rows of d_{j+1}: the spanning forest of d_1
            # is found once and serves both
            matrix = boundary_matrix(complex, j, cleared=cleared)
            ranks[j] = rank_gf2(matrix)
            cleared = () if matrix.basis is None else matrix.basis
    values = []
    for k in range(max_k + 1):
        s_k = len(complex.simplices_of(k))
        values.append(s_k - ranks[k] - ranks[k + 1])
    return BettiVector(values=tuple(values), max_k=max_k)


def connected_components(cloud: PointCloud, r: float,
                         period: float | None = None) -> int:
    """Components of the geometric graph with edges at distance <= r.

    Union-find with path halving; agrees with beta_0 of the Cech (or
    Rips) complex at the same radius.
    """
    if r <= 0:
        raise HomologyError("radius must be positive")
    n = len(cloud)
    if n == 0:
        return 0
    grid = NeighborGrid(cloud.points, cell_size=r, period=period)
    u, v = grid.pairs_within(r)
    return n - len(_spanning_forest(n, u, v))


def euler_check(complex: SimplicialComplex, betti: BettiVector) -> bool:
    """Exact Euler-Poincare identity: alternating simplex and Betti sums match.

    Only meaningful when the complex holds all of its dimensions and the
    Betti vector reaches the top nonempty dimension.
    """
    chi_simplices = complex.euler_characteristic()
    chi_betti = sum((-1) ** k * b for k, b in enumerate(betti.values))
    return chi_simplices == chi_betti


def betti_diff_bound_check(k1: SimplicialComplex, k2: SimplicialComplex,
                           k: int) -> bool:
    """Betti-difference bound for nested complexes.

    Verifies K1 is a subcomplex of K2 (simplex by simplex; non-nested
    inputs are rejected), then checks
    |beta_k(K1) - beta_k(K2)| <= #k-simplices + #(k+1)-simplices of K2 \\ K1.
    Both complexes must have been built with max_dim >= k + 1.
    """
    if k < 1:
        raise HomologyError("the difference bound is stated for k >= 1")
    base = max(k1.vertex_count, k2.vertex_count)
    for j, level in enumerate(k1.simplices):
        if not len(level):
            continue
        _, found = sorted_lookup(lex_keys(k2.simplices_of(j), base),
                                 lex_keys(level, base))
        if not found.all():
            raise HomologyError("first complex is not contained in the second")
    b1 = betti_numbers(k1, k)[k]
    b2 = betti_numbers(k2, k)[k]
    extra = 0
    for j in (k, k + 1):
        extra += len(k2.simplices_of(j)) - len(k1.simplices_of(j))
    return abs(b1 - b2) <= extra
