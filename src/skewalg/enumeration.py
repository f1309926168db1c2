"""Exhaustive generation of small bands and skew lattices up to isomorphism.

One breadth-first fill, _fill, does the work on a stack of partial tables,
each with a root that names its mask of allowed values for every cell, the
diagonal included (for a band, a·a = a and every value elsewhere; for a
join, the absorption-compatible values over the root's meet).  The cells
where no root has a choice come first, then the rest in row-major order;
each cell grows every table by the values its mask allows there, in the
order of a depth-first search, and one vectorised check drops each table in
which a triple, all four of its products decided, breaks associativity.
The whole stack of completed tables, or meet/join pairs, is keyed at once by
canonical_tables, the least flattened relabelling by all n! permutations,
so isomorphic tables share a key; the distinct keys in increasing order,
reshaped back into tables, are the representatives.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundExceededError
from .isomorphism import canonical_tables, lex_keys
from .tables import OperationTable, SkewLatticeTable

DEFAULT_MAX_ORDER = 4

__all__ = [
    "DEFAULT_MAX_ORDER",
    "enumerate_bands",
    "enumerate_skew_lattices",
    "labeled_bands",
]


def _bands(n: int, max_order: int) -> np.ndarray:
    """Every band table on {0..n-1} with labels, as the one stack _fill leaves."""
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
    # idempotency as data: the diagonal cell (a, a) allows a alone
    allowed = np.ones((1, n, n, n), dtype=bool)
    allowed[:, range(n), range(n)] = np.eye(n, dtype=bool)
    return _fill(allowed)[1]


# partial tables grown and checked in one numpy pass; bounds the working
# memory of a fill at order 5
_CHUNK = 1 << 11


def _fill(allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, tables): every associative table on {0..n-1} whose cells (a, b)
    hold values v with allowed[r, a, b, v], for each root r, as tables[k] of
    root roots[k].  They come in order of root, then of the cell values in
    row-major order, as a depth-first search finds them.
    """
    count, n = allowed.shape[:2]
    # n marks an undecided cell; the padded row and column n hold it too, so
    # a product read through an undecided cell is undecided
    tables = np.full((count, n + 1, n + 1), n, dtype=np.int8)
    roots = np.arange(count)
    i, j = np.divmod(np.arange(n * n), n)
    # a cell no root branches on moves no table in the order, so those cells
    # go first, deciding and pruning while the stack holds only the roots
    forks = (allowed.sum(axis=3) > 1).any(axis=0).ravel()
    decided = np.zeros((n, n), dtype=bool)
    for a, b in zip(*np.divmod(np.argsort(forks, kind="stable"), n)):
        decided[a, b] = True
        # every triple (x, y, z) whose products read cell (a, b) has x = a or
        # z = b; it can be checked only once x·y and y·z are decided
        x, y, z = np.concatenate([[np.full(n * n, a), i, j], [i, j, np.full(n * n, b)]], axis=1)
        xyz = np.stack([x, y, z])[:, decided[x, y] & decided[y, z]]
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
    """All band tables on {0..n-1} with labels, not reduced by isomorphism;
    the benchmark traces it under this name as a layer."""
    return [OperationTable(t) for t in _bands(n, max_order)]


def _classes(n: int, binops, unops=()) -> list[np.ndarray]:
    """The distinct canonical_tables keys of the structures with tables
    binops[b][t] and maps unops[u][t], in increasing order, split back into
    one stack per table and per map."""
    keys = canonical_tables(n, binops, unops)
    keys = keys[np.unique(lex_keys(keys), return_index=True)[1]]
    cut = len(binops) * n * n
    return [
        *keys[:, :cut].reshape(len(keys), len(binops), n, n).transpose(1, 0, 2, 3),
        *keys[:, cut:].reshape(len(keys), len(unops), n).transpose(1, 0, 2),
    ]


def enumerate_bands(n: int, max_order: int = DEFAULT_MAX_ORDER) -> list[OperationTable]:
    """One canonical representative per isomorphism class of bands of order n."""
    (bands,) = _classes(n, [_bands(n, max_order)])
    return [OperationTable(band) for band in bands]


def enumerate_skew_lattices(
    n: int, max_order: int = DEFAULT_MAX_ORDER
) -> list[SkewLatticeTable]:
    """One representative per isomorphism class of skew lattices of order n.

    Isomorphism here is a single bijection preserving meet and join at once.
    """
    meets = _bands(n, max_order)
    roots, joins = _fill(_join_options(meets))
    return [SkewLatticeTable(meet, join) for meet, join in zip(*_classes(n, [meets[roots], joins]))]


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

