"""Isomorphism search and canonical forms for finite algebras given by tables.

A structure's signature is (carrier size, binary operation tables, unary
operation maps).  The search backtracks over images in increasing order, so
the first isomorphism found is the least one in lexicographic order; candidate
images are pruned by iterated invariant refinement seeded with the idempotent
profile of every binary operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SignatureMismatchError
from .tables import GroupTable, OperationTable, SkewLatticeTable


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


def _refine_colors(n, binops, unops):
    """Iterated invariant refinement; returns a stable color per element.

    Each new color hashes the old one, so a round can only split classes;
    once a round adds no class the partition is stable. Isomorphic inputs
    reach that round together, so their colors stay comparable.
    """
    colors = [0] * n
    for op in binops:
        diag = op[np.arange(n), np.arange(n)]
        colors = [hash((c, bool(diag[x] == x))) for x, c in enumerate(colors)]
    classes = len(set(colors))
    for _ in range(n):
        new = []
        for x in range(n):
            parts = [colors[x]]
            for op in binops:
                row = sorted((colors[int(op[x, y])], colors[y]) for y in range(n))
                col = sorted((colors[int(op[y, x])], colors[y]) for y in range(n))
                parts.append(tuple(row))
                parts.append(tuple(col))
            for u in unops:
                parts.append(colors[int(u[x])])
            new.append(hash(tuple(parts)))
        colors, before = new, classes
        classes = len(set(colors))
        if classes == before:
            break
    return colors


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

    colors_a = _refine_colors(n, sig_a[1], sig_a[2])
    colors_b = _refine_colors(n, sig_b[1], sig_b[2])
    if sorted(colors_a) != sorted(colors_b):
        return None
    candidates = [
        [y for y in range(n) if colors_b[y] == colors_a[x]] for x in range(n)
    ]

    binops_a, unops_a = sig_a[1], sig_a[2]
    binops_b, unops_b = sig_b[1], sig_b[2]
    image = [-1] * n
    used = [False] * n

    def consistent(x, y):
        # elements 0..x-1 are assigned; test every op cell that becomes
        # fully determined (operands and value) once x -> y is added
        def img(w):
            if w < x:
                return image[w]
            return y if w == x else -1

        for op_a, op_b in zip(binops_a, binops_b):
            for z in range(x + 1):
                iz = img(z)
                v = img(int(op_a[x, z]))
                if v >= 0 and int(op_b[y, iz]) != v:
                    return False
                v = img(int(op_a[z, x]))
                if v >= 0 and int(op_b[iz, y]) != v:
                    return False
            # cells among earlier elements whose value is x itself
            for z1 in range(x):
                row = op_a[z1]
                for z2 in range(x):
                    if int(row[z2]) == x and int(op_b[image[z1], image[z2]]) != y:
                        return False
        for u_a, u_b in zip(unops_a, unops_b):
            v = img(int(u_a[x]))
            if v >= 0 and int(u_b[y]) != v:
                return False
            for z in range(x):
                if int(u_a[z]) == x and int(u_b[image[z]]) != y:
                    return False
        return True

    def search(x):
        if x == n:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            if not consistent(x, y):
                continue
            image[x] = y
            used[y] = True
            if search(x + 1):
                return True
            image[x] = -1
            used[y] = False
        return False

    if not search(0):
        return None
    mapping = tuple(image)
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
