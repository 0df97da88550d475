"""Betti numbers of finite simplicial complexes over the two-element field.

beta_k = S_k - rank(d_k) - rank(d_{k+1}). Boundary matrices are int
arrays of facet indices, the complex's own facets arrays as the builder
recorded them, so no facet is looked up. Ranks: d_1 is a graph's incidence
matrix, and the edges of a spanning forest, found by numpy Boruvka rounds
when d_1 is built, are its column basis. A round hooks each component
onto a neighbour, then jumps pointers among the roots it hooked only and
sends every vertex to its new root with one gather. Every other
rank peels each row or column with a single entry off as one pivot
(rank = 1 + rank of the minor without that row and column). A large core
that is left is mostly columns with two entries, edges of a graph on the
rows: a spanning forest of that graph gives their rank, the other
columns are projected onto its components (the parity of their rows in
each), and the peel runs again. A small core is eliminated with
bit-packed columns. The peel's passes, the cleared rows, the contraction
and Boruvka's live edges compact two or three arrays by one mask of
roughly even truth, so each takes the mask's index (ndarray.nonzero)
once and gathers by it, several times faster than masking each array
(timings in cech). In betti_numbers d_2 skips the rows of d_1's
spanning forest (clearing, after Chen & Kerber, "Persistent homology
computation with a twist", EuroCG 2011): since d_1 d_2 = 0, peeling the
forest's leaves writes each forest row as a sum of non-forest rows. A
d_2 built on its own clears nothing unless it is given the forest.
Also: the Betti-difference bound for nested complexes (the inequality
|beta_k(K1) - beta_k(K2)| bounded by the simplices of K2 \\ K1 in
dimensions k and k+1).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from betti_thermo.cech import SimplicialComplex, sorted_lookup


# a peeled rank core with at least this many two-entry columns has them
# contracted through a spanning forest (_contract); a smaller one goes
# straight to the bit-column elimination. Timed on 60 d=2 torus d_2 cores
# (lambda 1.5-4.5), the bits won 27 of the 28 below 200 such columns and
# 12 of the 13 from 200 to 500, the contraction all 19 above (1.2 against
# 1.3 ms for the whole rank at 510 columns, 5.3 against 9.3 ms at 3326)
_CONTRACT_EDGES = 500


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


def boundary_matrix(complex: SimplicialComplex, j: int,
                    cleared: Sequence[int] = ()) -> BoundaryMatrix:
    """Boundary map from j-chains to (j-1)-chains.

    Column c lists the indices of the j+1 facets of the c-th j-simplex,
    referring to the complex's own (j-1)-simplex ordering: they are the
    complex's facets[j], whose rows are sorted, since dropping a later
    vertex gives a lexicographically smaller facet. For j = 1 the edges of
    a spanning forest of the 1-skeleton are the column basis. cleared
    names rows to skip in the rank; the basis of d_{j-1} qualifies, since
    d_{j-1} d_j = 0 writes each of its rows as a sum of the others.
    betti_numbers passes d_1's forest when it builds d_2. By default
    nothing is cleared, which leaves the rank unchanged: clearing only
    shrinks the work.
    """
    if not 1 <= j <= complex.max_dim:
        raise HomologyError(f"boundary dimension {j} outside 1..{complex.max_dim}")
    rows = len(complex.simplices_of(j - 1))
    columns = complex.facets[j] if j < len(complex.facets) else complex.simplices_of(j)
    basis = None
    if j == 1:
        basis = _boruvka(rows, columns[:, 0], columns[:, 1])[0]
    return BoundaryMatrix(rows=rows, cols=len(columns), columns=columns,
                          cleared=cleared, basis=basis)


def _boruvka(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted indices of the edges (u[e], v[e]) that union-find, taking the
    edges in order, adds to a spanning forest of the graph on n vertices,
    and the root of every vertex's component (one vertex of it, the same
    for all).

    That forest is the minimum spanning forest under the weight e of edge
    e, which Boruvka rounds find in numpy: every component with a live
    edge (one to another component) hooks onto the component at the other
    end of its lowest-numbered live edge. Two components that pick the same
    edge hook the higher root onto the lower; with distinct weights no
    other cycle can form. Every component with a live edge merges in each
    round, so there are at most log2(n) + 1 rounds. Each round starts with
    every vertex pointing at its root, so the hooked roots form trees of
    roots: pointer jumping over the hooked roots alone sends each to its
    new root, and one more gather sends every vertex there. The live edges
    are compacted only in a round where some have died.
    """
    parent = np.arange(n)
    best = np.empty(n, dtype=np.int64)
    edge = np.arange(len(u))
    # a and b are the roots at the ends of each edge; it is live while
    # they differ
    a, b = u, v
    forest = []
    while len(a):
        live = a != b
        if np.count_nonzero(live) < len(live):
            live = live.nonzero()[0]
            if not len(live):
                break
            edge, a, b = edge[live], a[live], b[live]
        # edge stays increasing, so the lowest position is the lowest edge
        m = len(edge)
        pos = np.arange(m)
        best.fill(m)
        np.minimum.at(best, a, pos)
        np.minimum.at(best, b, pos)
        roots = (best < m).nonzero()[0]
        chosen = best[roots]
        # each root is one end of its chosen edge; other is the far end
        other = a[chosen] + b[chosen] - roots
        hook = (best[other] != chosen) | (roots > other)
        hooked, up = roots[hook], other[hook]
        parent[hooked] = up
        forest.append(edge[chosen[hook]])
        while True:
            top = parent[up]
            if not np.count_nonzero(top != up):
                break
            parent[hooked] = up = top
        parent = parent[parent]
        a, b = parent[a], parent[b]
    if not forest:
        return np.empty(0, dtype=np.int64), parent
    forest = np.concatenate(forest)
    forest.sort()
    return forest, parent


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
        lengths = columns.shape[1]
        rows = columns.ravel()
    else:
        lengths = [len(col) for col in columns]
        rows = np.fromiter(chain.from_iterable(columns), dtype=np.int64,
                           count=sum(lengths))
    return np.arange(len(columns)).repeat(lengths), np.asarray(rows, dtype=np.int64)


def _peel(col_of: np.ndarray, row_of: np.ndarray, rows: int, cols: int):
    """Pivot on singleton rows and columns until none is left.

    A row (or column) with a single entry makes that entry a pivot, and
    rank = 1 + rank of the minor without its row and column. Pivoting on
    a singleton column removes a row, which can leave other columns with a
    single entry but no row with one; pivoting on a singleton row removes
    a column, which can leave only rows with one. So the columns peel to
    the end first, then the rows, and none of either is left. Columns go
    first because d_2 with d_1's forest cleared peels mostly by column.
    The entries come in column order and keep it, so a column pass finds
    the singleton columns by comparing each entry's column with its
    neighbours', several times faster than counting them; a row pass
    counts its rows with bincount. Returns the entries of the core that
    is left and the number of pivots taken.
    """
    rank = 0
    for by_row in (False, True):
        while len(col_of):
            if by_row:
                minor = col_of
                single = np.bincount(row_of)[row_of] == 1
            else:
                minor = row_of
                # entry e starts a column when change[e], ends one when
                # change[e + 1]
                change = np.empty(len(col_of) + 1, dtype=bool)
                change[0] = change[-1] = True
                np.not_equal(col_of[1:], col_of[:-1], out=change[1:-1])
                single = change[:-1] & change[1:]
            if not np.count_nonzero(single):
                break
            pivot = np.zeros(cols if by_row else rows, dtype=bool)
            pivot[minor[single]] = True
            keep = (~pivot[minor]).nonzero()[0]
            col_of, row_of = col_of[keep], row_of[keep]
            rank += int(np.count_nonzero(pivot))
    return col_of, row_of, rank


def _contract(col_of: np.ndarray, row_of: np.ndarray, two: np.ndarray, rows: int):
    """Contract the two-entry columns of a core through a spanning forest.

    Entries are ordered by column, and two marks those of the columns with
    two entries: edges of a graph on the rows. Their rank is the size of a
    spanning forest, and their span is the set of vectors with even parity
    on every component of the graph. So the rank of the whole core is that
    forest's size plus the rank of the other columns projected onto the
    components: a column's entry for a component is the parity of its rows
    in it, and two entries in one component cancel. Returns the forest's
    size and the projected entries, ordered by column, each row named by
    its component's root.
    """
    ends = row_of[two.nonzero()[0]]
    forest, root = _boruvka(rows, ends[0::2], ends[1::2])
    rest = (~two).nonzero()[0]
    keys, odd = np.unique(col_of[rest] * rows + root[row_of[rest]],
                          return_counts=True)
    keys = keys[odd % 2 == 1]
    return len(forest), keys // rows, keys % rows


def _renumber(index: np.ndarray, size: int) -> np.ndarray:
    """The indices (each below size) renumbered 0, 1, ..., keeping order."""
    used = np.zeros(size, dtype=bool)
    used[index] = True
    return (used.cumsum() - 1)[index]


def rank_gf2(matrix: BoundaryMatrix) -> int:
    """Rank over GF(2), skipping the matrix's cleared rows.

    A known column basis gives the rank directly. Otherwise singleton rows
    and columns are peeled off, the two-entry columns of a large core are
    contracted (_contract) and the rest peeled again, and the core that is
    left is eliminated with bit-packed columns.
    """
    if matrix.basis is not None:
        return len(matrix.basis)
    col_of, row_of = _entries(matrix)
    if len(matrix.cleared):
        dropped = np.zeros(matrix.rows, dtype=bool)
        dropped[np.asarray(matrix.cleared, dtype=np.int64)] = True
        keep = (~dropped[row_of]).nonzero()[0]
        col_of, row_of = col_of[keep], row_of[keep]
    col_of, row_of, rank = _peel(col_of, row_of, matrix.rows, matrix.cols)
    # a large core is mostly two-entry columns: contract them, peel what
    # the projection leaves and repeat, until the residual is small
    while len(col_of) >= 2 * _CONTRACT_EDGES:
        two = np.bincount(col_of)[col_of] == 2
        if np.count_nonzero(two) < 2 * _CONTRACT_EDGES:
            break
        forest, col_of, row_of = _contract(col_of, row_of, two, matrix.rows)
        col_of, row_of, peeled = _peel(col_of, row_of, matrix.rows, matrix.cols)
        rank += forest + peeled
    if not len(col_of):
        return rank
    row_of = _renumber(row_of, matrix.rows)
    col_of = _renumber(col_of, matrix.cols)
    bits = [0] * (int(col_of.max()) + 1)
    for c, r in zip(col_of.tolist(), row_of.tolist()):
        bits[c] |= 1 << r
    return rank + _rank_bit_columns(bits)


def betti_numbers(complex: SimplicialComplex, max_k: int) -> tuple[int, ...]:
    """Betti numbers beta_0 .. beta_maxk of the complex.

    Requires the complex to have been built with max_dim >= max_k + 1;
    truncating the (k+1)-simplices away would silently inflate beta_k,
    so a too-shallow complex is a hard error.
    """
    if max_k < 0:
        raise HomologyError(f"max_k must be non-negative, got {max_k}")
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
    return tuple(len(complex.simplices_of(k)) - ranks[k] - ranks[k + 1]
                 for k in range(max_k + 1))


def betti_diff_bound_check(k1: SimplicialComplex, k2: SimplicialComplex,
                           k: int, betti: tuple[int, int] | None = None) -> bool:
    """Betti-difference bound for nested complexes.

    Verifies K1 is a subcomplex of K2 (simplex by simplex; non-nested
    inputs are rejected), then checks
    |beta_k(K1) - beta_k(K2)| <= #k-simplices + #(k+1)-simplices of K2 \\ K1.
    Both complexes must have been built with max_dim >= k + 1. A caller
    that has already computed (beta_k(K1), beta_k(K2)) passes them as
    betti, so they are not computed again.
    """
    if k < 1:
        raise HomologyError("the difference bound is stated for k >= 1")
    # K1's simplices are found level by level: a j-simplex is in K2 when
    # its parent is and K2 has the key (parent's index in K2, last vertex)
    top = k1.top_dim()
    if top > k2.top_dim():
        raise HomologyError("first complex is not contained in the second")
    for j in range(top + 1):
        keys, sought = k2.simplices[j][:, -1], k1.simplices[j][:, -1]
        if j:
            keys = keys + k2.facets[j][:, 0] * k2.vertex_count
            sought = sought + index[k1.facets[j][:, 0]] * k2.vertex_count
        index, found = sorted_lookup(keys, sought)
        if not found.all():
            raise HomologyError("first complex is not contained in the second")
    if betti is None:
        betti = (betti_numbers(k1, k)[k], betti_numbers(k2, k)[k])
    b1, b2 = betti
    extra = 0
    for j in (k, k + 1):
        extra += len(k2.simplices_of(j)) - len(k1.simplices_of(j))
    return abs(b1 - b2) <= extra
