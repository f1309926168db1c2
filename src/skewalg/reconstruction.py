"""Rebuilding the groupoid from a passing (2,2,1)-algebra, both round trips.

Each algebra element s becomes the morphism (s∨s*, s, s*∨s) between
idempotent objects.  Composition is the meet product on matching faces
(checked against the join product, which must agree there), inversion is
star, and the four operator tables come from the extension formula
(a, a∨s, ...) together with its order and lateral duals.  roundtrip_groupoid
and roundtrip_algebra certify that this construction and build_algebra
invert each other, elementwise in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BiBandAlgebra, check_axioms
from .errors import (
    AxiomViolationError,
    CompositionAmbiguityError,
    SkeletonNotClosedError,
)
from .groupoid import FiniteGroupoid
from .isomorphism import Isomorphism
from .report import AxiomReport
from .system import RestrictionSystem, build_algebra
from .tables import SkewLatticeTable

__all__ = ["ReconstructedGroupoid", "reconstruct", "roundtrip_groupoid", "roundtrip_algebra"]


@dataclass(frozen=True)
class ReconstructedGroupoid:
    """A restriction system recovered from an algebra.

    Morphism i is the algebra element i; objects carry both their index in
    the recovered skew lattice and their identity as an algebra element.
    triples[s] = (d, s, r) with d, r the algebra elements s∨s* and s*∨s.
    """

    system: RestrictionSystem
    objects: tuple[int, ...]
    object_index: dict[int, int]
    triples: tuple[tuple[int, int, int], ...]


def reconstruct(S: BiBandAlgebra, check: bool = True) -> ReconstructedGroupoid:
    """The groupoid whose morphisms are the triples (s∨s*, s, s*∨s)."""
    if check:
        check_axioms(S).require()

    n = S.order
    jt, mt, st = S.join.array, S.meet.array, S.star
    idx = np.arange(n)
    d_el = jt[idx, st]
    r_el = jt[st, idx]

    # the objects in order of first occurrence in d_el; index[el] is the
    # object number of element el, -1 off the objects
    _, first = np.unique(d_el, return_index=True)
    obj = d_el[np.sort(first)]
    nb = len(obj)
    index = np.full(n, -1, dtype=np.int64)
    index[obj] = np.arange(nb)
    dom, cod = index[d_el], index[r_el]
    # r_el ranges over the same set: r(s) = d(s*)
    if (cod < 0).any():
        el = int(r_el[np.argmax(cod < 0)])
        raise SkeletonNotClosedError(f"codomain element {el} is not an object")
    obj_meet = index[mt[obj[:, None], obj[None, :]]]
    obj_join = index[jt[obj[:, None], obj[None, :]]]
    open_ = (obj_meet < 0) | (obj_join < 0)
    if open_.any():
        i, j = (int(v) for v in np.argwhere(open_)[0])
        raise SkeletonNotClosedError(f"objects not closed under the operations at {(i, j)}")
    lattice = SkewLatticeTable(obj_meet, obj_join)

    composable = r_el[:, None] == d_el[None, :]
    ambiguous = composable & (mt != jt)
    if ambiguous.any():
        s, t = (int(v) for v in np.argwhere(ambiguous)[0])
        raise CompositionAmbiguityError(
            f"products disagree on composable pair ({s}, {t}): "
            f"{int(mt[s, t])} by meet, {int(jt[s, t])} by join"
        )
    comp = np.where(composable, mt, -1)

    # operator tables, morphisms keyed by their middle element: a∧s, s∧a and
    # their joins, each cut to its region of the rebuilt lattice
    groupoid = FiniteGroupoid(nb, dom, cod, comp, st)
    system = RestrictionSystem.on_regions(
        groupoid, lattice, [(t[obj, :], t[:, obj]) for t in (mt, jt)]
    )
    if check:
        system.full_report().require()

    objects = obj.tolist()
    triples = tuple(zip(d_el.tolist(), range(n), r_el.tolist()))
    return ReconstructedGroupoid(system, tuple(objects), dict(zip(objects, range(nb))), triples)


def _require_equal(pairs) -> None:
    """Raise roundtrip_<name> at the first entry where a pair of tables differs."""
    report = AxiomReport("roundtrip")
    for name, lhs, rhs in pairs:
        report.record_mask(f"roundtrip_{name}", lhs == rhs)
    report.require()


def roundtrip_groupoid(sys: RestrictionSystem) -> Isomorphism:
    """Certify g ↦ (𝐝g, g, 𝐫g) as an isomorphism onto the groupoid rebuilt
    from the system's own algebra; morphism indices are preserved, so the
    certificate is the identity mapping once every table matches."""
    sys.full_report().require()
    S = build_algebra(sys, check=False)
    rec = reconstruct(S, check=False)
    new = rec.system
    m = sys.morphism_count

    # identity morphisms are the objects on the other side
    objmap = np.asarray([rec.object_index[int(e)] for e in sys.groupoid.identity_of])
    pairs = [
        ("object_meet", new.objects.meet.array[objmap[:, None], objmap[None, :]],
         objmap[sys.objects.meet.array]),
        ("object_join", new.objects.join.array[objmap[:, None], objmap[None, :]],
         objmap[sys.objects.join.array]),
        ("dom", new.groupoid.dom, objmap[sys.groupoid.dom]),
        ("cod", new.groupoid.cod, objmap[sys.groupoid.cod]),
        ("comp", new.groupoid.comp, sys.groupoid.comp),
        ("inv", new.groupoid.inv, sys.groupoid.inv),
        ("restL", new.restL[objmap, :], sys.restL),
        ("extL", new.extL[objmap, :], sys.extL),
        ("restR", new.restR[:, objmap], sys.restR),
        ("extR", new.extR[:, objmap], sys.extR),
    ]
    if len(np.unique(objmap)) != sys.object_count or new.object_count != sys.object_count:
        raise AxiomViolationError("roundtrip_object_bijection", (sys.object_count,))
    _require_equal(pairs)
    return Isomorphism(m, m, tuple(range(m)))


def roundtrip_algebra(S: BiBandAlgebra) -> Isomorphism:
    """Certify that rebuilding the groupoid and taking its algebra returns
    S itself: morphisms are keyed by element, so the mapping is identity."""
    check_axioms(S).require()
    rec = reconstruct(S, check=False)
    T = build_algebra(rec.system, check=False)
    _require_equal(
        [
            ("join", T.join.array, S.join.array),
            ("meet", T.meet.array, S.meet.array),
            ("star", T.star, S.star),
        ]
    )
    return Isomorphism(S.order, S.order, tuple(range(S.order)))
