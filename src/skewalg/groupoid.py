"""Finite groupoids: partial composition tables with identities and inversion.

A groupoid here is a small category whose morphisms are all invertible,
flattened to integer-indexed tables. Composition is a partial binary table
with -1 marking undefined pairs; endpoints are stored, never recomputed.
Construction only validates shapes and index ranges so that deliberately
broken tables can still be built and then interrogated by check_groupoid.
A groupoid derives its units (FiniteGroupoid.identity_of) and pads its own
tables (FiniteGroupoid.padded) on first use, and check_groupoid and every
system over the groupoid gather through the padded tables.
f then h is comp[f, h] and the inverse of f is inv[f]; the discrete and
one-object groupoids are those of models.discrete_system and group_system.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import MalformedSystemError
from .report import AxiomReport, flag
from .tables import _ByValue, frozen, out_of_range, padded

__all__ = ["FiniteGroupoid", "check_groupoid"]


class FiniteGroupoid(_ByValue):
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
        for name, arr, lo, hi in (
            ("dom", self.dom, 0, self.object_count),
            ("cod", self.cod, 0, self.object_count),
            ("inv", self.inv, 0, m),
            ("composition", self.comp, -1, m),
        ):
            if out_of_range(arr, lo, hi):
                raise MalformedSystemError(f"{name} entries out of range")

    @property
    def morphism_count(self) -> int:
        return self.dom.shape[0]

    @functools.cached_property
    def padded(self) -> tuple[np.ndarray, ...]:
        """(dom, cod, inv, comp, identity_of), each through tables.padded."""
        return tuple(map(padded, (self.dom, self.cod, self.inv, self.comp, self.identity_of)))

    @functools.cached_property
    def identity_of(self) -> np.ndarray:
        """identity_of[b] = the unit morphism at object b, or -1 if absent;
        read-only, computed on first use and then kept.

        Derived tolerantly: a broken table simply yields -1 entries, which
        check_groupoid then reports. No table offers two units e, e' at one
        object, since e then e' would be both e' and e.
        """
        dom, cod, comp = self.dom, self.cod, self.comp
        idx = np.arange(self.morphism_count)
        # [e, f]: f starting (ending) at dom e is fixed by e on that side
        left = (dom[None, :] != dom[:, None]) | (comp == idx[None, :])
        right = (cod[None, :] != dom[:, None]) | (comp.T == idx[None, :])
        unit = (cod == dom) & (comp.diagonal() == idx) & left.all(1) & right.all(1)
        out = np.full(self.object_count, -1, dtype=np.int64)
        out[dom[unit]] = idx[unit]
        out.setflags(write=False)
        return out

    def _values(self):
        return self.object_count, self.dom, self.cod, self.comp, self.inv

    def __repr__(self):
        return (
            f"FiniteGroupoid(objects={self.object_count}, "
            f"morphisms={self.morphism_count})"
        )


def check_groupoid(g: FiniteGroupoid) -> AxiomReport:
    """Verify the four groupoid laws, one named flag each."""
    checks = []
    dom, cod, comp, inv, e = g.dom, g.cod, g.comp, g.inv, g.identity_of
    idx = np.arange(g.morphism_count)
    dom_p, cod_p, inv_p, comp_p, _ = g.padded
    defined = comp >= 0

    # f∘h is defined iff cod f = dom h, and then runs from dom f to cod h
    endpoints = (dom_p[comp] == dom[:, None]) & (cod_p[comp] == cod[None, :])
    pattern = (defined == (cod[:, None] == dom[None, :])) & (~defined | endpoints)
    checks.append(flag("composition_pattern", pattern))

    # (f∘h)∘k = f∘(h∘k) wherever both sides are defined
    m = g.morphism_count
    left, right = comp_p[:, :m].take(comp, 0), comp_p[:m].take(comp, 1)
    checks.append(flag("associativity", (left == right) | (np.minimum(left, right) < 0)))

    # every object has a unit, and units fix every morphism on either side
    if (e >= 0).all():
        units = (comp[e[dom], idx] == idx) & (comp[idx, e[cod]] == idx)
        checks.append(flag("identities", units))
    else:
        checks.append(flag("identities", e >= 0))

    flipped = (dom[inv] == cod) & (cod[inv] == dom)
    cancels = (comp[idx, inv] == e[dom]) & (comp[inv, idx] == e[cod])
    checks.append(flag("inverse_laws", flipped & cancels))

    # consequences of the four laws, recorded per instance but not required
    checks.append(flag("involution", inv[inv] == idx, required=False))
    reverses = inv_p[comp] == comp.take(inv, 0).take(inv, 1).T
    checks.append(flag("anti_involution", ~defined | reverses, required=False))
    is_unit = np.zeros(g.morphism_count, dtype=bool)
    is_unit[e[e >= 0]] = True
    idempotent = comp.diagonal() == idx
    checks.append(flag("idempotents_are_identities", idempotent == is_unit, required=False))
    return AxiomReport("groupoid laws", checks)

