"""Isomorphism search and canonical forms for finite algebras given by tables.

A structure's signature is (carrier size, binary operation tables, unary
operation maps).  One search, _isomorphisms, yields every isomorphism a -> b
in increasing lexicographic order:

  * the idempotent profile of each side: per element, the set of binary
    operations in which it is idempotent.  An isomorphism preserves it, so
    unequal profile multisets prove non-isomorphism, and x may only map to
    elements of b with its profile;
  * a backtracking search that tries the images of 0, 1, ... in
    increasing order.  A schedule lists, per step x, the source cells
    (p, q) -> v with max(p, q) = x (p = q, v = u(p) for a unary u); its
    order, step bounds and (p, q) rows are built once per shape, and each
    search gathers its v through them;
    for a candidate x -> y one gather through the partial image array gives
    the image each cell demands of v.  It must equal v's image, or the image
    an earlier cell forced on v; otherwise it is forced on v, and it is the
    only candidate the search tries at v.  Once every image is known,
    assigned or forced, one gather checks all the cells left and a
    bincount checks that the image is a bijection, in place of the steps
    that would each confirm one forced image.

The profile and forcing only discard images no isomorphism uses.
find_isomorphism takes the first and certifies it with preserves_operations;
automorphisms_of lists all of a structure onto itself, searched once per
structure object and kept on it.  A class is named by its least
relabelling: canonical_tables renames a whole stack of structures by all n!
permutations, a fixed chunk per relabellings gather, and least_rows picks
each structure's least row by its lex_keys.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import BiBandAlgebra
from .errors import SignatureMismatchError
from .system import RestrictionSystem
from .tables import GroupTable, OperationTable, SkewLatticeTable

__all__ = [
    "Isomorphism",
    "automorphisms_of",
    "find_isomorphism",
    "preserves_operations",
    "signature_of",
]


@dataclass(frozen=True)
class Isomorphism:
    """A certified bijection source -> target preserving all operations."""

    mapping: tuple[int, ...]


def signature_of(structure) -> tuple[int, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Extract (order, binary ops, unary ops) from a supported structure."""
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
        pm, pj = (P_p[:-1, :-1] for P_p in structure._pseudoproducts)
        if (pm < 0).any() or (pj < 0).any():
            raise SignatureMismatchError(
                "system comparison needs total pseudoproducts"
            )
        return structure.morphism_count, (pm, pj), (structure.groupoid.inv,)
    raise SignatureMismatchError(f"unsupported structure type {type(structure).__name__}")


def _idempotent_profile(sig) -> np.ndarray:
    """Per element x, the integer whose bit k is set when x.x = x in binary
    operation k.  Every isomorphism preserves it."""
    idx = np.arange(sig[0])
    return sum((op.diagonal() == idx).astype(np.int64) << k for k, op in enumerate(sig[1]))


def _flat_tables(n, sig) -> np.ndarray:
    """Every operation as one n x n block of a flat array; a unary map u is
    the block (p, q) -> u[p]."""
    return np.concatenate([op.ravel() for op in sig[1]] + [np.repeat(u, n) for u in sig[2]])


@functools.cache
def _schedule(n: int, binary: int, unary: int):
    """The part of the cell schedule that depends only on the shape: n
    elements, `binary` binary and `unary` unary operations.  The cells of
    _flat_tables in the order of the step x at which 0..x have images and
    so fix the image of their value: max(p, q) = x for a cell (p, q) -> v,
    taking only p = q in a unary block.  Returns each cell's position in the
    flat tables, its block offset, a 2-row array of p and q, and the bounds
    of each step; built once per shape and read-only."""
    block, cell = np.divmod(np.arange((binary + unary) * n * n), n * n)
    p, q = np.divmod(cell, n)
    step = np.maximum(p, q)
    keep = np.flatnonzero((block < binary) | (p == q))
    order = keep[np.argsort(step[keep], kind="stable")]
    bounds = tuple(np.searchsorted(step[order], np.arange(n + 1)).tolist())
    rows = (order, block[order] * (n * n), np.stack([p[order], q[order]]))
    for arr in rows:
        arr.setflags(write=False)
    return *rows, bounds


def _candidates(profile_a, profile_b) -> list[list[int]]:
    """candidates[x]: the elements of b with x's idempotent profile, in
    increasing order; one list per profile, shared by its elements."""
    classes = {c: np.flatnonzero(profile_b == c).tolist() for c in set(profile_a.tolist())}
    return [classes[c] for c in profile_a.tolist()]


def preserves_operations(sig_a, sig_b, mapping) -> bool:
    """Full verification that mapping carries every operation of a onto b."""
    n, binops_a, unops_a = sig_a
    _, binops_b, unops_b = sig_b
    perm = np.asarray(mapping, dtype=np.int64)
    for op_a, op_b in zip(binops_a, binops_b):
        if not np.array_equal(perm[op_a], op_b.take(perm, 0).take(perm, 1)):
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
    profile_a, profile_b = _idempotent_profile(sig_a), _idempotent_profile(sig_b)
    if not np.array_equal(np.sort(profile_a), np.sort(profile_b)):
        return
    candidates = _candidates(profile_a, profile_b)
    positions, offsets, pq, bounds = _schedule(n, len(sig_a[1]), len(sig_a[2]))
    cells = np.vstack((pq, _flat_tables(n, sig_a)[positions]))  # p, q and v
    flat_b = _flat_tables(n, sig_b)
    used = [False] * n

    def search(x, image):
        # image[w] is the image of w for w < x, and for w >= x the image an
        # earlier cell forced, or -1; a step that forces nothing passes
        # image itself on, so every step restores image[x] when it is done
        lo = bounds[x]
        if (image[x:] >= 0).all():
            # every image is known: one gather checks the cells left, and
            # the image must be a bijection
            p, q, v = image[cells[:, lo:]]
            bijective = (np.bincount(image, minlength=n) == 1).all()
            if bijective and (flat_b[offsets[lo:] + p * n + q] == v).all():
                yield tuple(image.tolist())
            return
        hi = bounds[x + 1]
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
    return Isomorphism(mapping)


def automorphisms_of(structure) -> list[tuple[int, ...]]:
    """All automorphisms of a supported structure in lexicographic order:
    every isomorphism the search finds from the structure onto itself.
    The search runs once per structure object, which keeps the result as a
    tuple in _automorphisms; each call returns a fresh list."""
    kept = getattr(structure, "_automorphisms", None)
    if kept is None:
        sig = signature_of(structure)
        kept = structure._automorphisms = tuple(_isomorphisms(sig, sig))
    return list(kept)


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
