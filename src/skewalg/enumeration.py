"""Exhaustive generation of small bands and skew lattices up to isomorphism.

One backtracking table search, _fill, does the work: idempotency pins the
diagonal, each off-diagonal cell takes its values from a candidate list
(every value for a band, the absorption-compatible values for a join), and
associativity is checked incrementally after each cell.  Each completed
table, or meet/join pair, is keyed by canonical_tables, the least flattened
row among its relabellings by all n! permutations, so isomorphic tables
share a key; the distinct keys in increasing order, reshaped back into
tables, are the representatives.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundExceededError
from .isomorphism import canonical_tables
from .tables import OperationTable, SkewLatticeTable

DEFAULT_MAX_ORDER = 4

__all__ = [
    "DEFAULT_MAX_ORDER",
    "enumerate_bands",
    "enumerate_skew_lattices",
    "labeled_bands",
]


def _check_bound(n: int, max_order: int) -> None:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > max_order:
        raise BoundExceededError(
            f"order {n} exceeds the enumeration bound {max_order}; "
            "raise max_order explicitly if you really want this"
        )


def _associativity_ok(t: list[list[int]], a: int, b: int, n: int) -> bool:
    """Partial associativity test after cell (a, b) was filled.

    Checks every triple whose evaluation touches cell (a, b) and whose
    intermediate products are all already decided (-1 means undecided).
    """
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not (
                    (x == a and y == b)
                    or (y == a and z == b)
                    or (t[x][y] == a and z == b)
                    or (x == a and t[y][z] == b)
                ):
                    continue
                xy = t[x][y]
                yz = t[y][z]
                if xy < 0 or yz < 0:
                    continue
                left = t[xy][z]
                right = t[x][yz]
                if left >= 0 and right >= 0 and left != right:
                    return False
    return True


def _fill(n: int, candidates) -> list[list[list[int]]]:
    """Every idempotent table on {0..n-1} whose off-diagonal cells, filled in
    row-major order, take their values from candidates(a, b) and pass
    _associativity_ok after each cell.  A triple is checked when the last of
    the four cells it reads is filled, so every completed table is associative.
    """
    t = [[a if a == b else -1 for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    out: list[list[list[int]]] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append([row[:] for row in t])
            return
        a, b = cells[k]
        for v in candidates(a, b):
            t[a][b] = v
            if _associativity_ok(t, a, b, n):
                fill(k + 1)
        t[a][b] = -1

    fill(0)
    return out


def labeled_bands(n: int, max_order: int = DEFAULT_MAX_ORDER) -> list[OperationTable]:
    """All band tables on {0..n-1} with labels, not reduced by isomorphism."""
    _check_bound(n, max_order)
    return [OperationTable(t) for t in _fill(n, lambda a, b: range(n))]


def _classes(n: int, labelled) -> np.ndarray:
    """The distinct canonical_tables keys of the labelled table tuples in
    increasing order, as an array of shape (classes, tables, n, n)."""
    keys = sorted({canonical_tables(n, tables) for tables in labelled})
    return np.array(keys, dtype=np.int64).reshape(len(keys), -1, n, n)


def enumerate_bands(n: int, max_order: int = DEFAULT_MAX_ORDER) -> list[OperationTable]:
    """One canonical representative per isomorphism class of bands of order n."""
    labelled = ([band.array] for band in labeled_bands(n, max_order))
    return [OperationTable(band) for (band,) in _classes(n, labelled)]


def enumerate_skew_lattices(
    n: int, max_order: int = DEFAULT_MAX_ORDER
) -> list[SkewLatticeTable]:
    """One representative per isomorphism class of skew lattices of order n.

    Isomorphism here is a single bijection preserving meet and join at once.
    """
    labelled = (
        [band.array, np.array(join)]
        for band in labeled_bands(n, max_order)
        for join in _complete_joins(band.tolist(), n)
    )
    return [SkewLatticeTable(meet, join) for meet, join in _classes(n, labelled)]


def _complete_joins(meet: list[list[int]], n: int) -> list[list[list[int]]]:
    """All join tables making (meet, join) a skew lattice.

    Cell (a, b) takes the values v with a∧v = a and v∧b = b, which are the
    absorption laws a∧(a∨b) = a and (a∨b)∧b = b.  The other two,
    a∨(a∧b) = a and (a∧b)∨b = b, fix cells (a, a∧b) and (a∧b, b); each is
    narrowed to its fixed value, and two conflicting fixes leave it empty.
    """
    cells = [(a, b) for a in range(n) for b in range(n)]
    fits = {(a, b): [v for v in range(n) if meet[a][v] == a and meet[v][b] == b] for a, b in cells}
    for a, b in cells:
        m = meet[a][b]
        for cell, fixed in (((a, m), a), ((m, b), b)):
            fits[cell] = [v for v in fits[cell] if v == fixed]
    return _fill(n, lambda a, b: fits[a, b])
