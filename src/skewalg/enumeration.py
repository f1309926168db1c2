"""Exhaustive generation of small bands and skew lattices up to isomorphism.

The search space is kept desk-scale: idempotency pins the table diagonal,
associativity is enforced incrementally while cells are chosen.  Each
completed table, or meet/join pair, is keyed by canonical_tables, the least
flattened row among its relabellings by all n! permutations, so isomorphic
tables share a key; the distinct keys in increasing order, reshaped back
into tables, are the representatives.
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


def labeled_bands(n: int, max_order: int = DEFAULT_MAX_ORDER) -> list[OperationTable]:
    """All band tables on {0..n-1} with labels, not reduced by isomorphism."""
    _check_bound(n, max_order)
    t = [[-1] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = i
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    out: list[OperationTable] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(OperationTable([row[:] for row in t]))
            return
        a, b = cells[k]
        for v in range(n):
            t[a][b] = v
            if _associativity_ok(t, a, b, n):
                fill(k + 1)
        t[a][b] = -1

    fill(0)
    return out


def _classes(n: int, labelled) -> np.ndarray:
    """The distinct canonical_tables keys of the labelled table tuples in
    increasing order, as an array of shape (classes, tables, n, n)."""
    keys = sorted({canonical_tables(n, tables) for tables in labelled})
    return np.array(keys, dtype=np.int64).reshape(len(keys), -1, n, n)


def enumerate_bands(n: int, max_order: int = DEFAULT_MAX_ORDER) -> list[OperationTable]:
    """One canonical representative per isomorphism class of bands of order n."""
    _check_bound(n, max_order)
    labelled = ([band.array] for band in labeled_bands(n, max_order))
    return [OperationTable(band) for (band,) in _classes(n, labelled)]


def _join_candidates(meet: list[list[int]], a: int, b: int, n: int) -> list[int]:
    # absorption pins a <=L a∨b <=R ... : need a∧(a∨b)=a and (a∨b)∧b=b
    return [j for j in range(n) if meet[a][j] == a and meet[j][b] == b]


def enumerate_skew_lattices(
    n: int, max_order: int = DEFAULT_MAX_ORDER
) -> list[SkewLatticeTable]:
    """One representative per isomorphism class of skew lattices of order n.

    Isomorphism here is a single bijection preserving meet and join at once.
    """
    _check_bound(n, max_order)
    labelled = (
        [band.array, np.array(join)]
        for band in labeled_bands(n, max_order)
        for join in _complete_joins(band.tolist(), n)
    )
    return [SkewLatticeTable(meet, join) for meet, join in _classes(n, labelled)]


def _complete_joins(meet: list[list[int]], n: int) -> list[list[list[int]]]:
    """All join tables making (meet, join) a skew lattice, by constrained search."""
    j = [[-1] * n for _ in range(n)]
    for i in range(n):
        j[i][i] = i

    def place(a: int, b: int, v: int, undo: list[tuple[int, int]]) -> bool:
        if j[a][b] >= 0:
            return j[a][b] == v
        j[a][b] = v
        undo.append((a, b))
        return _associativity_ok(j, a, b, n) and _propagate(a, b, undo)

    def _propagate(a: int, b: int, undo: list[tuple[int, int]]) -> bool:
        # the two absorption laws with join outermost force entries:
        # a∨(a∧b)=a and (a∧b)∨b=b, instantiated wherever j[a][b] shows up
        v = j[a][b]
        if meet[a][v] != a or meet[v][b] != b:
            return False
        if not place(a, meet[a][b], a, undo):
            return False
        if not place(meet[a][b], b, b, undo):
            return False
        return True

    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    out: list[list[list[int]]] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append([row[:] for row in j])
            return
        a, b = cells[k]
        if j[a][b] >= 0:
            fill(k + 1)
            return
        for v in _join_candidates(meet, a, b, n):
            undo: list[tuple[int, int]] = []
            if place(a, b, v, undo):
                fill(k + 1)
            for x, y in reversed(undo):
                j[x][y] = -1

    # seed the forced entries coming from the diagonal and given meet cells
    seed_undo: list[tuple[int, int]] = []
    ok = True
    for a in range(n):
        for b in range(n):
            if j[a][b] >= 0 and not _propagate(a, b, seed_undo):
                ok = False
                break
        if not ok:
            break
    if ok:
        fill(0)
    for x, y in reversed(seed_undo):
        j[x][y] = -1
    return out
