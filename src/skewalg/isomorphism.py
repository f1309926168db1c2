"""Isomorphism search and canonical forms for finite algebras given by tables.

A structure's signature is (carrier size, binary operation tables, unary
operation maps).  find_isomorphism returns the least isomorphism in
lexicographic order, or None, in three stages:

  * joint colour refinement (1-WL, as in McKay & Piperno's nauty/Traces)
    over the disjoint union of both structures, seeded with the idempotent
    profile of every binary operation; both sides share one set of labels,
    so unequal colour multisets prove non-isomorphism, and x may only map
    to elements of its own colour;
  * a backtracking search that tries images in increasing order, so the
    first complete mapping found is the least one.  A precomputed schedule
    lists, per step x, the operation cells (p, q) -> v of the source decided
    once 0..x have images (max(p, q, v) = x; max(p, u(p)) = x for a unary
    u); each candidate x -> y is checked against all of them with one
    gather from the target's tables through the partial image array;
  * a full preserves_operations certificate of the mapping found.

Refinement only discards images that no isomorphism uses, so the mapping
returned is the one the unpruned lexicographic search would find.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SignatureMismatchError
from .tables import GroupTable, OperationTable, SkewLatticeTable, row_labels


@dataclass(frozen=True)
class Isomorphism:
    """A certified bijection source -> target preserving all operations."""

    source_order: int
    target_order: int
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]


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
        pm, pj = structure._pm, structure._pj
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
    0..x have images and so decide them: max(p, q, v) = x for a cell
    (p, q) -> v, taking only p = q in a unary block.  Returns the block
    offsets, a 3-row array of p, q and v, and the bounds of each step."""
    flat = _flat_tables(n, sig)
    block, cell = np.divmod(np.arange(flat.size), n * n)
    p, q = np.divmod(cell, n)
    keep = (block < len(sig[1])) | (p == q)
    cells = np.stack([p[keep], q[keep], flat[keep]])
    step = cells.max(axis=0)
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


def find_isomorphism(a, b) -> Isomorphism | None:
    """Least isomorphism a -> b, or None; raises on signature mismatch."""
    sig_a = signature_of(a)
    sig_b = signature_of(b)
    if len(sig_a[1]) != len(sig_b[1]) or len(sig_a[2]) != len(sig_b[2]):
        raise SignatureMismatchError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        )
    n = sig_a[0]
    if n != sig_b[0]:
        return None

    colour = _joint_colours(n, sig_a, sig_b)
    colours_a, colours_b = colour[:n], colour[n:]
    if not np.array_equal(np.sort(colours_a), np.sort(colours_b)):
        return None
    members: dict[int, list[int]] = {}
    for y, c in enumerate(colours_b.tolist()):
        members.setdefault(c, []).append(y)
    candidates = [members[c] for c in colours_a.tolist()]
    offsets, cells, bounds = _cell_schedule(n, sig_a)
    flat_b = _flat_tables(n, sig_b)
    image = np.zeros(n, dtype=np.int64)
    used = [False] * n

    def search(x):
        if x == n:
            return True
        lo, hi = bounds[x], bounds[x + 1]
        offset, decided = offsets[lo:hi], cells[:, lo:hi]
        for y in candidates[x]:
            if used[y]:
                continue
            image[x] = y
            p, q, v = image[decided]
            if not (flat_b[offset + p * n + q] == v).all():
                continue
            used[y] = True
            if search(x + 1):
                return True
            used[y] = False
        return False

    if not search(0):
        return None
    mapping = tuple(image.tolist())
    if not preserves_operations(sig_a, sig_b, mapping):
        raise AssertionError("backtracking produced an uncertified mapping")
    return Isomorphism(n, n, mapping)


def automorphisms_of(structure) -> list[tuple[int, ...]]:
    """All automorphisms of a supported structure, by exhaustive check."""
    sig = signature_of(structure)
    n = sig[0]
    out = []
    for perm in itertools.permutations(range(n)):
        if preserves_operations(sig, sig, perm):
            out.append(perm)
    return out


def band_automorphisms(s: SkewLatticeTable) -> list[tuple[int, ...]]:
    """All bijections preserving both meet and join."""
    return automorphisms_of(s)


def group_automorphisms(g: GroupTable) -> list[tuple[int, ...]]:
    """All bijections preserving the group product."""
    return automorphisms_of(g)


def relabel(table: np.ndarray, perm) -> np.ndarray:
    """The table of the same operation after renaming x -> perm[x]."""
    p = np.asarray(perm, dtype=np.int64)
    out = np.empty_like(table)
    out[p[:, None], p[None, :]] = p[table]
    return out


def relabel_unary(u: np.ndarray, perm) -> np.ndarray:
    p = np.asarray(perm, dtype=np.int64)
    out = np.empty_like(u)
    out[p] = p[u]
    return out


def canonical_tables(n: int, binops, unops=()) -> tuple:
    """Lexicographically least relabeling of a tuple of operation tables."""
    best = None
    for perm in itertools.permutations(range(n)):
        flat = []
        for op in binops:
            flat.extend(relabel(op, perm).ravel().tolist())
        for u in unops:
            flat.extend(relabel_unary(u, perm).tolist())
        key = tuple(flat)
        if best is None or key < best:
            best = key
    return best
