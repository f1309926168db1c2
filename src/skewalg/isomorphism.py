"""Isomorphism search and canonical forms for finite algebras given by tables.

A structure's signature is (carrier size, binary operation tables, unary
operation maps).  One search, _isomorphisms, yields every isomorphism a -> b
in increasing lexicographic order:

  * joint colour refinement (1-WL, as in McKay & Piperno's nauty/Traces)
    over the disjoint union of both structures, seeded with the idempotent
    profile of every binary operation; both sides share one set of labels,
    so unequal colour multisets prove non-isomorphism, and x may only map
    to elements of its own colour;
  * a backtracking search that tries the images of 0, 1, ... in
    increasing order.  A precomputed schedule lists, per step x, the source
    cells (p, q) -> v with max(p, q) = x (p = q, v = u(p) for a unary u);
    for a candidate x -> y one gather through the partial image array gives
    the image each cell demands of v.  It must equal v's image, or the image
    an earlier cell forced on v; otherwise it is forced on v, and it is the
    only candidate the search tries at v.

Refinement and forcing only discard images no isomorphism uses.
find_isomorphism takes the first and certifies it with preserves_operations;
automorphisms_of lists all of a structure onto itself.  A class is named by
its least relabelling: canonical_tables renames a whole stack of structures
by all n! permutations, a fixed chunk per relabellings gather, and
least_rows picks each structure's least row by its lex_keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SignatureMismatchError
from .tables import GroupTable, OperationTable, SkewLatticeTable, checked_index, row_labels


@dataclass(frozen=True)
class Isomorphism:
    """A certified bijection source -> target preserving all operations."""

    source_order: int
    target_order: int
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[checked_index(a, self.source_order)]


def signature_of(structure) -> tuple[int, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Extract (order, binary ops, unary ops) from a supported structure."""
    from .algebra import BiBandAlgebra  # local imports to avoid cycles
    from .system import RestrictionSystem

    if isinstance(structure, OperationTable):
        return structure.order, (structure.array,), ()
    if isinstance(structure, SkewLatticeTable):
        return structure.order, (structure.meet.array, structure.join.array), ()
    if isinstance(structure, GroupTable):
        return structure.order, (structure.table.array,), (structure.inverse,)
    if isinstance(structure, BiBandAlgebra):
        return (
            structure.order,
            (structure.meet.array, structure.join.array),
            (structure.star,),
        )
    if isinstance(structure, RestrictionSystem):
        # the two pseudoproducts and inversion determine the whole system:
        # identities are the shared idempotents, endpoints and the operator
        # tables are then derived expressions, so matching these suffices
        pm, pj = structure._meet.P, structure._join.P
        if (pm < 0).any() or (pj < 0).any():
            raise SignatureMismatchError(
                "system comparison needs total pseudoproducts"
            )
        return structure.morphism_count, (pm, pj), (structure.groupoid.inv,)
    raise SignatureMismatchError(f"unsupported structure type {type(structure).__name__}")


def _joint_colours(n, sig_a, sig_b) -> np.ndarray:
    """Stable colours of the 2n elements of the disjoint union of a and b.

    Element x of a is union element x and element y of b is n + y.  Each
    round labels, with one row_labels call, the matrix whose row x holds
    the old colour of x; colour[u(x)] for every unary map u; and, for every
    binary operation, the sorted codes colour[x.y]*k + colour[y] of its row
    and colour[y.x]*k + colour[y] of its column, y ranging over the side of
    x and k the class count.  A round can only split classes, so the first
    round that adds none leaves the stable partition.
    """
    side = np.repeat(np.array([0, n]), n)
    union = np.arange(2 * n)
    ys = side[:, None] + np.arange(n)
    pairs = list(zip(sig_a[1], sig_b[1]))
    # tables[x, t] is the row (t < len(pairs)) or column of x in operation t
    tables = np.stack(
        [np.vstack([a, b]) for a, b in pairs] + [np.vstack([a.T, b.T]) for a, b in pairs], axis=1
    ) + side[:, None, None]
    # maps[x] is x itself, then its image under each unary map
    maps = np.stack([union] + [np.concatenate([a, b + n]) for a, b in zip(sig_a[2], sig_b[2])], axis=1)
    # seed: the idempotent profile, read off the diagonal of each operation
    colour = row_labels(tables[union, : len(pairs), union % n] == union[:, None])
    count = colour.max() + 1
    while True:
        codes = np.sort(colour[tables] * count + colour[ys][:, None, :], axis=2)
        colour = row_labels(np.hstack([colour[maps], codes.reshape(2 * n, -1)]))
        grown = colour.max() + 1
        if grown == count:
            return colour
        count = grown


def _flat_tables(n, sig) -> np.ndarray:
    """Every operation as one n x n block of a flat array; a unary map u is
    the block (p, q) -> u[p]."""
    return np.concatenate([op.ravel() for op in sig[1]] + [np.repeat(u, n) for u in sig[2]])


def _cell_schedule(n, sig):
    """The cells of _flat_tables(n, sig) in the order of the step x at which
    0..x have images and so fix the image of their value: max(p, q) = x for
    a cell (p, q) -> v, taking only p = q in a unary block.  Returns the
    block offsets, a 3-row array of p, q and v, and the bounds of each step."""
    flat = _flat_tables(n, sig)
    block, cell = np.divmod(np.arange(flat.size), n * n)
    p, q = np.divmod(cell, n)
    keep = (block < len(sig[1])) | (p == q)
    cells = np.stack([p[keep], q[keep], flat[keep]])
    step = cells[:2].max(axis=0)
    order = np.argsort(step, kind="stable")
    bounds = np.searchsorted(step[order], np.arange(n + 1)).tolist()
    return (block[keep] * (n * n))[order], cells[:, order], bounds


def preserves_operations(sig_a, sig_b, mapping) -> bool:
    """Full verification that mapping carries every operation of a onto b."""
    n, binops_a, unops_a = sig_a
    _, binops_b, unops_b = sig_b
    perm = np.asarray(mapping, dtype=np.int64)
    for op_a, op_b in zip(binops_a, binops_b):
        if not np.array_equal(perm[op_a], op_b[perm[:, None], perm[None, :]]):
            return False
    for u_a, u_b in zip(unops_a, unops_b):
        if not np.array_equal(perm[u_a], u_b[perm]):
            return False
    return True


def _isomorphisms(sig_a, sig_b):
    """Every isomorphism a -> b as a tuple, in increasing lexicographic order."""
    n = sig_a[0]
    if n != sig_b[0]:
        return
    if n == 0:  # the empty map; refinement needs an element
        yield ()
        return
    colour = _joint_colours(n, sig_a, sig_b)
    colours_a, colours_b = colour[:n], colour[n:]
    if not np.array_equal(np.sort(colours_a), np.sort(colours_b)):
        return
    candidates = [np.flatnonzero(colours_b == c).tolist() for c in colours_a]
    offsets, cells, bounds = _cell_schedule(n, sig_a)
    flat_b = _flat_tables(n, sig_b)
    used = [False] * n

    def search(x, image):
        # image[w] is the image of w for w < x, and for w >= x the image an
        # earlier cell forced, or -1; a step that forces nothing passes
        # image itself on, so every step restores image[x] when it is done
        if x == n:
            yield tuple(image.tolist())
            return
        lo, hi = bounds[x], bounds[x + 1]
        offset, step = offsets[lo:hi], cells[:, lo:hi]
        forced = image[x]
        for y in candidates[x] if forced < 0 else [forced]:
            if used[y]:
                continue
            image[x] = y
            p, q, v = image[step]
            got = flat_b[offset + p * n + q]
            fresh = v < 0
            if not ((v == got) | fresh).all():
                continue
            nxt = image
            if fresh.any():
                nxt = image.copy()
                nxt[step[2, fresh]] = got[fresh]
                if not (nxt[step[2]] == got).all():
                    continue
            used[y] = True
            yield from search(x + 1, nxt)
            used[y] = False
        image[x] = forced

    yield from search(0, np.full(n, -1))


def find_isomorphism(a, b) -> Isomorphism | None:
    """Least isomorphism a -> b, or None; raises on signature mismatch."""
    sig_a = signature_of(a)
    sig_b = signature_of(b)
    if len(sig_a[1]) != len(sig_b[1]) or len(sig_a[2]) != len(sig_b[2]):
        raise SignatureMismatchError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        )
    mapping = next(_isomorphisms(sig_a, sig_b), None)
    if mapping is None:
        return None
    if not preserves_operations(sig_a, sig_b, mapping):
        raise AssertionError("backtracking produced an uncertified mapping")
    return Isomorphism(sig_a[0], sig_b[0], mapping)


def automorphisms_of(structure) -> list[tuple[int, ...]]:
    """All automorphisms of a supported structure in lexicographic order:
    every isomorphism the search finds from the structure onto itself."""
    sig = signature_of(structure)
    return list(_isomorphisms(sig, sig))


def relabellings(table, rows, cols, values) -> np.ndarray:
    """out[..., k, i, j] = values[k, table[..., rows[k, i], cols[k, j]]] over a
    stack of tables: renaming x -> p[x] is rows = cols = p^-1 and values = p,
    and a unary map u is the table u[..., None] with cols = [0]."""
    k = np.arange(len(values))[:, None, None]
    return values[k, table[..., rows[:, :, None], cols[:, None, :]]]


def lex_keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row (last axis) of non-negative integers, sorting as
    the rows do: the row as big-endian unsigned ints of the least width."""
    width = np.min_scalar_type(rows.max(initial=0)).newbyteorder(">")
    keys = np.ascontiguousarray(rows, dtype=width)
    return keys.view(np.dtype((np.void, width.itemsize * rows.shape[-1])))[..., 0]


def least_rows(rows: np.ndarray) -> np.ndarray:
    """The least row of each matrix of a (T, K, L) stack of non-negative ints, as (T, L)."""
    least = np.argsort(lex_keys(rows), axis=1)[:, :1, None]
    return np.take_along_axis(rows, least, axis=1)[:, 0]


_CHUNK = 64  # structures per gather; bounds the working memory at order 5


def canonical_tables(n: int, binops, unops=()) -> np.ndarray:
    """Row t is the least relabelling of structure t, with tables binops[b][t]
    and unops[u][t]: the least over all n! permutations of its tables renamed
    and flattened row-major, the binary tables first."""
    # renamed values lie below n, so the gathers hold them in the least width
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.min_scalar_type(n))
    inv = np.argsort(perms, axis=1)
    tables = [(np.asarray(op), inv) for op in binops]
    tables += [(np.asarray(u)[..., None], np.zeros_like(inv[:, :1])) for u in unops]  # one column each
    out = np.empty((len(tables[0][0]), len(binops) * n * n + len(unops) * n), dtype=np.int64)
    for s in range(0, len(out), _CHUNK):
        moved = [relabellings(t[s : s + _CHUNK], inv, cols, perms) for t, cols in tables]
        out[s : s + _CHUNK] = least_rows(np.concatenate([m.reshape(*m.shape[:2], -1) for m in moved], 2))
    return out
