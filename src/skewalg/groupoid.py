"""Finite groupoids: partial composition tables with identities and inversion.

A groupoid here is a small category whose morphisms are all invertible,
flattened to integer-indexed tables. Composition is a partial binary table
with -1 marking undefined pairs; endpoints are stored, never recomputed.
Construction only validates shapes and index ranges so that deliberately
broken tables can still be built and then interrogated by check_groupoid.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedSystemError, UndefinedCompositionError
from .report import AxiomReport
from .tables import GroupTable, frozen, padded

__all__ = [
    "FiniteGroupoid",
    "check_groupoid",
    "discrete_groupoid",
    "group_groupoid",
    "pair_groupoid",
]


class FiniteGroupoid:
    """Morphisms 0..m-1 over objects 0..n-1 with partial composition."""

    def __init__(self, object_count, dom, cod, comp, inv):
        self.object_count = int(object_count)
        self.dom, self.cod, self.comp, self.inv = map(frozen, (dom, cod, comp, inv))
        m = self.dom.shape[0]
        if self.cod.shape != (m,) or self.inv.shape != (m,):
            raise MalformedSystemError("dom, cod, inv must have equal length")
        if self.comp.shape != (m, m):
            raise MalformedSystemError(
                f"composition table must be {m}x{m}, got {self.comp.shape}"
            )
        if self.object_count < 0:
            raise MalformedSystemError("negative object count")
        for name, arr, hi in (
            ("dom", self.dom, self.object_count),
            ("cod", self.cod, self.object_count),
            ("inv", self.inv, m),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= hi):
                raise MalformedSystemError(f"{name} entries out of range")
        if self.comp.size and (self.comp.min() < -1 or self.comp.max() >= m):
            raise MalformedSystemError("composition entries out of range")
        self.identity_of = self._find_identities()

    @property
    def morphism_count(self) -> int:
        return self.dom.shape[0]

    def _find_identities(self) -> np.ndarray:
        """identity_of[b] = the unit morphism at object b, or -1 if absent.

        Derived tolerantly: a broken table simply yields -1 entries, which
        check_groupoid then reports. Should a broken table offer several
        units at one object, the highest-indexed one is taken.
        """
        dom, cod, comp = self.dom, self.cod, self.comp
        idx = np.arange(self.morphism_count)
        # [e, f]: f starting (ending) at dom e is fixed by e on that side
        left = (dom[None, :] != dom[:, None]) | (comp == idx[None, :])
        right = (cod[None, :] != dom[:, None]) | (comp.T == idx[None, :])
        unit = (cod == dom) & (comp[idx, idx] == idx) & left.all(1) & right.all(1)
        out = np.full(self.object_count, -1, dtype=np.int64)
        np.maximum.at(out, dom[unit], idx[unit])
        out.setflags(write=False)
        return out

    def compose(self, f: int, h: int) -> int:
        """f then h; defined only when cod(f) = dom(h)."""
        v = int(self.comp[f, h])
        if v < 0:
            raise UndefinedCompositionError(
                f"cod({f}) = {int(self.cod[f])} != dom({h}) = {int(self.dom[h])}"
            )
        return v

    def invert(self, f: int) -> int:
        return int(self.inv[f])

    def __eq__(self, other):
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            self.object_count == other.object_count
            and np.array_equal(self.dom, other.dom)
            and np.array_equal(self.cod, other.cod)
            and np.array_equal(self.comp, other.comp)
            and np.array_equal(self.inv, other.inv)
        )

    def __repr__(self):
        return (
            f"FiniteGroupoid(objects={self.object_count}, "
            f"morphisms={self.morphism_count})"
        )


def check_groupoid(g: FiniteGroupoid) -> AxiomReport:
    """Verify the four groupoid laws, one named flag each."""
    report = AxiomReport("groupoid laws")
    dom, cod, comp, inv, e = g.dom, g.cod, g.comp, g.inv, g.identity_of
    idx = np.arange(g.morphism_count)
    comp_p, dom_p, cod_p, inv_p = padded(comp), padded(dom), padded(cod), padded(inv)
    defined = comp >= 0

    # f∘h is defined iff cod f = dom h, and then runs from dom f to cod h
    endpoints = (dom_p[comp] == dom[:, None]) & (cod_p[comp] == cod[None, :])
    pattern = (defined == (cod[:, None] == dom[None, :])) & (~defined | endpoints)
    report.record_mask("composition_pattern", pattern)

    # (f∘h)∘k = f∘(h∘k) wherever both sides are defined
    left = comp_p[comp[:, :, None], idx[None, None, :]]
    right = comp_p[idx[:, None, None], comp[None, :, :]]
    report.record_mask("associativity", (left < 0) | (right < 0) | (left == right))

    # every object has a unit, and units fix every morphism on either side
    if (e >= 0).all():
        units = (comp[e[dom], idx] == idx) & (comp[idx, e[cod]] == idx)
        report.record_mask("identities", units)
    else:
        report.record_mask("identities", e >= 0)

    flipped = (dom[inv] == cod) & (cod[inv] == dom)
    cancels = (comp[idx, inv] == e[dom]) & (comp[inv, idx] == e[cod])
    report.record_mask("inverse_laws", flipped & cancels)

    # consequences of the four laws, recorded per instance but not required
    report.record_mask("involution", inv[inv] == idx, required=False)
    reverses = inv_p[comp] == comp[inv[None, :], inv[:, None]]
    report.record_mask("anti_involution", ~defined | reverses, required=False)
    is_unit = np.zeros(g.morphism_count, dtype=bool)
    is_unit[e[e >= 0]] = True
    idempotent = comp[idx, idx] == idx
    report.record_mask("idempotents_are_identities", idempotent == is_unit, required=False)
    return report


def discrete_groupoid(n: int) -> FiniteGroupoid:
    """Only identity morphisms, one per object."""
    comp = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(comp, np.arange(n))
    idx = np.arange(n)
    return FiniteGroupoid(n, idx, idx, comp, idx)


def group_groupoid(group: GroupTable) -> FiniteGroupoid:
    """A group seen as a one-object groupoid."""
    m = group.order
    zeros = np.zeros(m, dtype=np.int64)
    return FiniteGroupoid(1, zeros, zeros, group.table.array, group.inverse)


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Morphisms are ordered pairs (i, j): exactly one from i to j."""
    idx = lambda i, j: i * n + j
    m = n * n
    dom = np.array([i for i in range(n) for _ in range(n)], dtype=np.int64)
    cod = np.array([j for _ in range(n) for j in range(n)], dtype=np.int64)
    comp = np.full((m, m), -1, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comp[idx(i, j), idx(j, k)] = idx(i, k)
    inv = np.array([idx(j, i) for i in range(n) for j in range(n)], dtype=np.int64)
    return FiniteGroupoid(n, dom, cod, comp, inv)
