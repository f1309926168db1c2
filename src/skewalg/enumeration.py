"""Exhaustive generation of small bands and skew lattices up to isomorphism.

One breadth-first fill, _fill, does the work on a stack of partial tables,
each with a root that names its mask of allowed values (every value for a
band; for a join, the absorption-compatible values over the root's meet).
Idempotency pins the diagonal.  Each off-diagonal cell in row-major order
grows every table by the values its mask allows there, in the order of a
depth-first search, and one vectorised check drops each table in which a
triple, all four of its products decided, breaks associativity.  Each
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
    # the fill's int8 cells hold the values 0..n, n marking an undecided cell
    if n > np.iinfo(np.int8).max:
        raise BoundExceededError(f"order {n} exceeds 127, the largest order the int8 table fill holds")


# partial tables grown and checked in one numpy pass; bounds the working
# memory of a fill at order 5
_CHUNK = 1 << 11


def _fill(allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, tables): every idempotent associative table on {0..n-1} whose
    off-diagonal cells (a, b) hold values v with allowed[r, a, b, v], for each
    root r, as tables[k] of root roots[k].  They come in order of root, then
    of the cell values in row-major order, as a depth-first search finds them.
    """
    count, n = allowed.shape[:2]
    # n marks an undecided cell; the padded row and column n hold it too, so
    # a product read through an undecided cell is undecided
    tables = np.full((count, n + 1, n + 1), n, dtype=np.int8)
    tables[:, range(n), range(n)] = range(n)
    roots = np.arange(count)
    i, j = np.divmod(np.arange(n * n), n)
    for a, b in ((a, b) for a in range(n) for b in range(n) if a != b):
        # every triple (x, y, z) whose products read cell (a, b) has x = a or z = b
        xyz = np.concatenate([[np.full(n * n, a), i, j], [i, j, np.full(n * n, b)]], axis=1)
        grown = [
            _grow(tables[s : s + _CHUNK], roots[s : s + _CHUNK], allowed[:, a, b], (a, b), xyz)
            for s in range(0, len(roots), _CHUNK)
        ]
        if not grown:
            break
        tables, roots = (np.concatenate(part) for part in zip(*grown))
    return roots, tables[:, :n, :n]


def _grow(tables, roots, options, cell, xyz):
    """Each table with the cell set to each value options[root] allows, less
    those where a triple among xyz with all four products decided, x·y, y·z,
    (x·y)·z and x·(y·z), breaks associativity."""
    k, v = np.nonzero(options[roots])
    tables, roots = tables[k], roots[k]
    tables[:, cell[0], cell[1]] = v
    x, y, z = xyz
    t, n = np.arange(len(tables))[:, None], tables.shape[1] - 1
    left, right = tables[t, tables[:, x, y], z], tables[t, x, tables[:, y, z]]
    keep = ~((left != right) & (left < n) & (right < n)).any(axis=1)
    return tables[keep], roots[keep]


def labeled_bands(n: int, max_order: int = DEFAULT_MAX_ORDER) -> list[OperationTable]:
    """All band tables on {0..n-1} with labels, not reduced by isomorphism."""
    _check_bound(n, max_order)
    return [OperationTable(t) for t in _fill(np.ones((1, n, n, n), dtype=bool))[1]]


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
    meets = np.array([band.array for band in labeled_bands(n, max_order)])
    roots, joins = _fill(_join_options(meets))
    return [SkewLatticeTable(meet, join) for meet, join in _classes(n, zip(meets[roots], joins))]


def _join_options(meets: np.ndarray) -> np.ndarray:
    """allowed[r, a, b, v] of the joins over each meet r: v with a∧v = a and
    v∧b = b, which are the absorption laws a∧(a∨b) = a and (a∨b)∧b = b.

    The other two, a∨(a∧b) = a and (a∧b)∨b = b, fix cell (a, m) to a for
    every m in row a of the meet, and cell (m, b) to b for every m in column
    b; a cell fixed to two values allows none.
    """
    v = np.arange(meets.shape[1])
    # meet_is[r, a, b, v]: a∧b = v in meet r
    meet_is, eye = meets[..., None] == v, v[:, None] == v
    allowed = (meets == v[:, None])[:, :, None] & (meets == v).transpose(0, 2, 1)[:, None]
    allowed &= ~meet_is.any(axis=2)[..., None] | eye[:, None]
    allowed &= ~meet_is.any(axis=1).transpose(0, 2, 1)[..., None] | eye
    return allowed


def _complete_joins(meet, n: int) -> list[list[list[int]]]:
    """All join tables making (meet, join) a skew lattice: the fill over one meet."""
    return _fill(_join_options(np.reshape(meet, (1, n, n))))[1].tolist()
