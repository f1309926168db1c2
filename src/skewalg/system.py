"""Groupoids over a skew lattice of objects with restriction and extension.

A RestrictionSystem packages a finite groupoid whose objects carry a skew
lattice structure, together with four partial operator tables:

    restL[a, g]  the restriction of g to domain a        (defined iff a leL dom g)
    restR[g, a]  the corestriction of g to codomain a    (defined iff a leR cod g)
    extL[a, g]   the extension of g to domain a          (defined iff a geL dom g)
    extR[g, a]   the coextension of g to codomain a      (defined iff a geR cod g)

The tables are input data, not derived, so corrupted or hypothetical systems
can be represented and then interrogated by the checkers below. Construction
validates shapes and index ranges only; every law is a named report flag.

From the partial tables the constructor derives the four total operations
(meet_restrict, meet_corestrict, join_extend, join_coextend) and the two
pseudoproducts, all as full numpy tables. Undefined entries stay -1: each
lookup table is padded with a -1 border row/column, and since numpy reads
index -1 as the last position, sentinels flow through chained gathers
without any masking logic.
"""

from __future__ import annotations

import numpy as np

from .algebra import BiBandAlgebra, skehr_statement_flags
from .errors import MalformedSystemError
from .groupoid import FiniteGroupoid, check_groupoid, discrete_groupoid, group_groupoid
from .report import AxiomReport
from .tables import GroupTable, SkewLatticeTable, check_skew_lattice, padded

__all__ = [
    "RestrictionSystem",
    "build_algebra",
    "check_extension_axioms",
    "check_linking",
    "check_restriction_axioms",
    "check_structure",
    "discrete_system",
    "group_system",
    "system_checkers",
    "verify_derived_identities",
]


def _check_partial(name: str, table, shape, hi: int) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != shape:
        raise MalformedSystemError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size and (arr.min() < -1 or arr.max() >= hi):
        raise MalformedSystemError(f"{name} entries must lie in -1..{hi - 1}")
    arr.setflags(write=False)
    return arr


class RestrictionSystem:
    """A finite groupoid over skew-lattice objects plus four operator tables."""

    def __init__(self, groupoid: FiniteGroupoid, objects, restL, restR, extL, extR):
        if not isinstance(groupoid, FiniteGroupoid):
            raise MalformedSystemError("groupoid must be a FiniteGroupoid")
        if not isinstance(objects, SkewLatticeTable):
            objects = SkewLatticeTable(*objects)
        if objects.order != groupoid.object_count:
            raise MalformedSystemError(
                f"objects table order {objects.order} != "
                f"groupoid object count {groupoid.object_count}"
            )
        self.groupoid = groupoid
        self.objects = objects
        n, m = objects.order, groupoid.morphism_count
        self.restL = _check_partial("restL", restL, (n, m), m)
        self.restR = _check_partial("restR", restR, (m, n), m)
        self.extL = _check_partial("extL", extL, (n, m), m)
        self.extR = _check_partial("extR", extR, (m, n), m)
        self._report: AxiomReport | None = None
        self._derive()

    @property
    def object_count(self) -> int:
        return self.objects.order

    @property
    def morphism_count(self) -> int:
        return self.groupoid.morphism_count

    def _derive(self) -> None:
        n, m = self.object_count, self.morphism_count
        meet = self.objects.meet.array
        join = self.objects.join.array
        dom, cod = self.groupoid.dom, self.groupoid.cod
        idx_n = np.arange(n)
        idx_m = np.arange(m)

        # natural preorders of the two bands, straight from the definitions
        self.le_left = meet == idx_n[:, None]
        self.le_right = meet.T == idx_n[:, None]
        self.ge_left = join == idx_n[:, None]
        self.ge_right = join.T == idx_n[:, None]

        self._meet, self._join = meet, join
        self._dom_p = padded(dom)
        self._cod_p = padded(cod)
        self._inv_p = padded(self.groupoid.inv)
        self._comp_p = padded(self.groupoid.comp)
        self._e = self.groupoid.identity_of
        self._e_p = padded(self._e)

        # total operator tables; holes in the partial input surface as -1
        self._mr = self.restL[meet[idx_n[:, None], dom[None, :]], idx_m[None, :]]
        self._mc = self.restR[idx_m[:, None], meet[cod[:, None], idx_n[None, :]]]
        self._je = self.extL[join[idx_n[:, None], dom[None, :]], idx_m[None, :]]
        self._jc = self.extR[idx_m[:, None], join[cod[:, None], idx_n[None, :]]]

        cm = meet[cod[:, None], dom[None, :]]
        self._pm = self._comp_p[
            self.restR[idx_m[:, None], cm], self.restL[cm, idx_m[None, :]]
        ]
        cj = join[cod[:, None], dom[None, :]]
        self._pj = self._comp_p[
            self.extR[idx_m[:, None], cj], self.extL[cj, idx_m[None, :]]
        ]

        self._mr_p = padded(self._mr)
        self._mc_p = padded(self._mc)
        self._je_p = padded(self._je)
        self._jc_p = padded(self._jc)
        self._pm_p = padded(self._pm)
        self._pj_p = padded(self._pj)

    def _get(self, table: np.ndarray, i: int, j: int, what: str) -> int:
        v = int(table[i, j])
        if v < 0:
            raise MalformedSystemError(
                f"{what} undefined at {(i, j)}: operator table has a hole"
            )
        return v

    def meet_restrict(self, a: int, g: int) -> int:
        """a∧g, the restriction of g to a∧(dom g); total on valid systems."""
        return self._get(self._mr, a, g, "meet_restrict")

    def meet_corestrict(self, g: int, a: int) -> int:
        """g∧a, the corestriction of g to (cod g)∧a."""
        return self._get(self._mc, g, a, "meet_corestrict")

    def join_extend(self, a: int, g: int) -> int:
        """a∨g, the extension of g to a∨(dom g)."""
        return self._get(self._je, a, g, "join_extend")

    def join_coextend(self, g: int, a: int) -> int:
        """g∨a, the coextension of g to (cod g)∨a."""
        return self._get(self._jc, g, a, "join_coextend")

    def actions(self, a: int, g: int) -> tuple[int, int, int, int]:
        """The four conjugate objects read off the operator endpoints.

        Returns (a^g, ^g|a, a_g, _g|a): codomain of a∧g, domain of g∧a,
        codomain of a∨g, domain of g∨a.
        """
        return (
            int(self.groupoid.cod[self.meet_restrict(a, g)]),
            int(self.groupoid.dom[self.meet_corestrict(g, a)]),
            int(self.groupoid.cod[self.join_extend(a, g)]),
            int(self.groupoid.dom[self.join_coextend(g, a)]),
        )

    def pseudoproduct(self, f: int, g: int, op: str = "meet") -> int:
        """Total product extending composition: (f|_c)∘(_c|g) at c = cod f ∧ dom g
        for op="meet", and the join analogue at c = cod f ∨ dom g.

        Guarded: raises unless the system passes its full report.
        """
        self.full_report().require()
        table = self._pm if op == "meet" else self._pj if op == "join" else None
        if table is None:
            raise ValueError(f"op must be 'meet' or 'join', got {op!r}")
        return self._get(table, f, g, f"{op} pseudoproduct")

    def full_report(self) -> AxiomReport:
        """All structural, restriction, extension and linking checks, cached."""
        if self._report is None:
            merged = AxiomReport("restriction system")
            for family, checker in system_checkers():
                if family != "derived":
                    merged.extend(checker(self))
            self._report = merged
        return self._report

    def __repr__(self):
        return (
            f"RestrictionSystem(objects={self.object_count}, "
            f"morphisms={self.morphism_count})"
        )


def system_checkers() -> list:
    """Every system checker as (family, checker), in report order: the four
    axiom families that full_report gathers, then the derived identities.

    Built on each call from the module's current attributes, so a checker
    rebound after import (by a tracing wrapper, say) is the one that runs.
    """
    return [
        ("structure", check_structure),
        ("restriction", check_restriction_axioms),
        ("extension", check_extension_axioms),
        ("linking", check_linking),
        ("derived", verify_derived_identities),
    ]


def check_structure(sys: RestrictionSystem) -> AxiomReport:
    """Well-formedness: objects form a skew lattice, the groupoid laws hold,
    and each operator table is defined exactly on its preorder region with
    the stated endpoints."""
    report = AxiomReport("structure")
    report.extend(check_skew_lattice(sys.objects), prefix="objects_")

    idx = np.arange(sys.object_count)
    report.record_mask(
        "preorder_converse_pairing",
        (sys.le_left == sys.ge_right.T) & (sys.le_right == sys.ge_left.T),
    )

    report.extend(check_groupoid(sys.groupoid), prefix="groupoid_")
    report.record_mask("identity_coverage", sys._e >= 0)

    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    n, m = sys.object_count, sys.morphism_count
    dom_p, cod_p = sys._dom_p, sys._cod_p

    def pattern(table, region, endpoint_eq, endpoint_le, name):
        defined = table >= 0
        report.record_mask(f"{name}_defined_iff", defined == region)
        good = ~defined | (endpoint_eq & endpoint_le)
        report.record_mask(f"{name}_endpoints", good)

    # restL[a,g]: defined iff a leL dom g; then dom = a, cod leL cod g
    region = sys.le_left[:, dom]
    val = sys.restL
    pattern(
        val,
        region,
        dom_p[val] == idx[:, None],
        _le_lookup(sys.le_left, cod_p[val], cod[None, :].repeat(n, axis=0)),
        "restL",
    )
    # restR[g,a]: defined iff a leR cod g; then cod = a, dom leR dom g
    region = sys.le_right[idx[None, :], cod[:, None]]
    val = sys.restR
    pattern(
        val,
        region,
        cod_p[val] == idx[None, :],
        _le_lookup(sys.le_right, dom_p[val], dom[:, None].repeat(n, axis=1)),
        "restR",
    )
    # extL[a,g]: defined iff a geL dom g; then dom = a, cod geL cod g
    region = sys.ge_left[:, dom]
    val = sys.extL
    pattern(
        val,
        region,
        dom_p[val] == idx[:, None],
        _le_lookup(sys.ge_left, cod_p[val], cod[None, :].repeat(n, axis=0)),
        "extL",
    )
    # extR[g,a]: defined iff a geR cod g; then cod = a, dom geR dom g
    region = sys.ge_right[idx[None, :], cod[:, None]]
    val = sys.extR
    pattern(
        val,
        region,
        cod_p[val] == idx[None, :],
        _le_lookup(sys.ge_right, dom_p[val], dom[:, None].repeat(n, axis=1)),
        "extR",
    )

    report.record_mask("meet_pseudoproduct_total", sys._pm >= 0)
    report.record_mask("join_pseudoproduct_total", sys._pj >= 0)
    return report


def _le_lookup(relation: np.ndarray, left: np.ndarray, right: np.ndarray):
    """relation[left, right] elementwise, False wherever an index is -1."""
    ok = (left >= 0) & (right >= 0)
    out = np.zeros(left.shape, dtype=bool)
    out[ok] = relation[left[ok], right[ok]]
    return out


def check_restriction_axioms(sys: RestrictionSystem) -> AxiomReport:
    """The restriction postulates: identities, preorders, transitivity and
    composition in left and right form, the two chaining equations on the
    generalized operation, and meet compatibility."""
    report = AxiomReport("restriction axioms")
    n, m = sys.object_count, sys.morphism_count
    meet = sys._meet
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    comp = sys.groupoid.comp
    idx_n, idx_m = np.arange(n), np.arange(m)
    mr, mc = sys._mr, sys._mc
    mr_p, mc_p = sys._mr_p, sys._mc_p
    comp_p, cod_p, dom_p = sys._comp_p, sys._cod_p, sys._dom_p
    e = sys._e

    report.record_mask("restL_identity", mr[dom, idx_m] == idx_m)
    report.record_mask("restR_identity", mc[idx_m, cod] == idx_m)

    # a leL b  =>  _a|i_b = i_a
    val = mr_p[idx_n[:, None], e[None, :]]
    law = (val == e[:, None]) & (val >= 0)
    report.record_mask("restL_preorder", ~sys.le_left | law)
    # a leR b  =>  i_b|_a = i_a
    val = mc_p[e[None, :], idx_n[:, None]]
    law = (val == e[:, None]) & (val >= 0)
    report.record_mask("restR_preorder", ~sys.le_right | law)

    # a leL b leL dom g  =>  _a|g = _(a∧b)|g = _a|(_b|g)
    hyp = sys.le_left[:, :, None] & sys.le_left[:, dom][None, :, :]
    x = mr[:, None, :]
    y = mr_p[meet[:, :, None], idx_m[None, None, :]]
    z = mr_p[idx_n[:, None, None], mr[None, :, :]]
    law = (x == y) & (x == z) & (x >= 0)
    report.record_mask("restL_transitivity", ~hyp | law)
    # a leR b leR cod g  =>  g|_a = g|_(b∧a) = (g|_b)|_a
    hyp = sys.le_right[:, :, None] & sys.le_right[:, cod][None, :, :]
    x = mc.T[:, None, :]
    y = mc_p[idx_m[None, None, :], meet.T[:, :, None]]
    z = mc_p[mc.T[None, :, :], idx_n[:, None, None]]
    law = (x == y) & (x == z) & (x >= 0)
    report.record_mask("restR_transitivity", ~hyp | law)

    composable = comp >= 0
    # _a|(f∘g) = (_a|f)∘(_(cod _a|f)|g)
    lhs = mr_p[idx_n[:, None, None], comp[None, :, :]]
    h1 = mr[:, :, None]
    h2 = mr_p[cod_p[mr][:, :, None], idx_m[None, None, :]]
    rhs = comp_p[h1, h2]
    law = (lhs == rhs) & (lhs >= 0)
    report.record_mask("restL_composition", ~composable[None, :, :] | law)
    # (f∘g)|_d = (f|_(dom g|_d))∘(g|_d)
    lhs = mc_p[comp[:, :, None], idx_n[None, None, :]]
    h2 = mc[None, :, :]
    h1 = mc_p[idx_m[:, None, None], dom_p[mc][None, :, :]]
    rhs = comp_p[h1, h2]
    law = (lhs == rhs) & (lhs >= 0)
    report.record_mask("restR_composition", ~composable[:, :, None] | law)

    # (a∧b)∧g = a∧(b∧g) and (g∧a)∧b = g∧(a∧b), all tuples
    lhs = mr_p[meet[:, :, None], idx_m[None, None, :]]
    rhs = mr_p[idx_n[:, None, None], mr[None, :, :]]
    report.record_mask("meet_chain_left", (lhs == rhs) & (lhs >= 0))
    lhs = mc_p[mc[:, :, None], idx_n[None, None, :]]
    rhs = mc_p[idx_m[:, None, None], meet[None, :, :]]
    report.record_mask("meet_chain_right", (lhs == rhs) & (lhs >= 0))

    # dom(a∧g) = a∧dom g and cod(g∧a) = (cod g)∧a
    law = (dom_p[mr] == meet[idx_n[:, None], dom[None, :]]) & (mr >= 0)
    report.record_mask("meet_endpoint_left", law)
    law = (cod_p[mc] == meet[cod[:, None], idx_n[None, :]]) & (mc >= 0)
    report.record_mask("meet_endpoint_right", law)

    # (a∧f)∧b = a∧(f∧b)
    lhs = mc_p[mr[:, :, None], idx_n[None, None, :]]
    rhs = mr_p[idx_n[:, None, None], mc[None, :, :]]
    report.record_mask("meet_compatibility", (lhs == rhs) & (lhs >= 0))
    return report


def check_extension_axioms(sys: RestrictionSystem) -> AxiomReport:
    """The extension postulates, vertical duals of the restriction ones."""
    report = AxiomReport("extension axioms")
    n, m = sys.object_count, sys.morphism_count
    join = sys._join
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    comp = sys.groupoid.comp
    idx_n, idx_m = np.arange(n), np.arange(m)
    je, jc = sys._je, sys._jc
    je_p, jc_p = sys._je_p, sys._jc_p
    comp_p, cod_p, dom_p = sys._comp_p, sys._cod_p, sys._dom_p
    e, e_p = sys._e, sys._e_p

    report.record_mask("extL_identity", je[dom, idx_m] == idx_m)
    report.record_mask("extR_identity", jc[idx_m, cod] == idx_m)

    # a geR b  =>  a∨i_b = i_(a∨b)
    val = je_p[idx_n[:, None], e[None, :]]
    target = e_p[join]
    law = (val == target) & (val >= 0)
    report.record_mask("extL_preorder", ~sys.ge_right | law)
    # a geL b  =>  i_b∨a = i_(b∨a)
    val = jc_p[e[None, :], idx_n[:, None]]
    target = e_p[join.T]
    law = (val == target) & (val >= 0)
    report.record_mask("extR_preorder", ~sys.ge_left | law)

    # a geL b geL dom g  =>  a∨g = (a∨b)∨g = a∨(b∨g)
    # (a geL b makes a∨b = a; the content is the right-nested form)
    hyp = sys.ge_left[:, :, None] & sys.ge_left[:, dom][None, :, :]
    x = je[:, None, :]
    y = je_p[join[:, :, None], idx_m[None, None, :]]
    z = je_p[idx_n[:, None, None], je[None, :, :]]
    law = (x == y) & (x == z) & (x >= 0)
    report.record_mask("extL_transitivity", ~hyp | law)
    # a geR b geR cod g  =>  g∨a = g∨(b∨a) = (g∨b)∨a
    hyp = sys.ge_right[:, :, None] & sys.ge_right[:, cod][None, :, :]
    x = jc.T[:, None, :]
    y = jc_p[idx_m[None, None, :], join.T[:, :, None]]
    z = jc_p[jc.T[None, :, :], idx_n[:, None, None]]
    law = (x == y) & (x == z) & (x >= 0)
    report.record_mask("extR_transitivity", ~hyp | law)

    composable = comp >= 0
    # a∨(f∘g) = (a∨f)∘((cod a∨f)∨g)
    lhs = je_p[idx_n[:, None, None], comp[None, :, :]]
    h1 = je[:, :, None]
    h2 = je_p[cod_p[je][:, :, None], idx_m[None, None, :]]
    rhs = comp_p[h1, h2]
    law = (lhs == rhs) & (lhs >= 0)
    report.record_mask("extL_composition", ~composable[None, :, :] | law)
    # (f∘g)∨a = (f∨(dom g∨a))∘(g∨a)
    lhs = jc_p[comp[:, :, None], idx_n[None, None, :]]
    h2 = jc[None, :, :]
    h1 = jc_p[idx_m[:, None, None], dom_p[jc][None, :, :]]
    rhs = comp_p[h1, h2]
    law = (lhs == rhs) & (lhs >= 0)
    report.record_mask("extR_composition", ~composable[:, :, None] | law)

    # (a∨b)∨g = a∨(b∨g) and (g∨a)∨b = g∨(a∨b)
    lhs = je_p[join[:, :, None], idx_m[None, None, :]]
    rhs = je_p[idx_n[:, None, None], je[None, :, :]]
    report.record_mask("join_chain_left", (lhs == rhs) & (lhs >= 0))
    lhs = jc_p[jc[:, :, None], idx_n[None, None, :]]
    rhs = jc_p[idx_m[:, None, None], join[None, :, :]]
    report.record_mask("join_chain_right", (lhs == rhs) & (lhs >= 0))

    # dom(a∨g) = a∨dom g and cod(g∨a) = (cod g)∨a
    law = (dom_p[je] == join[idx_n[:, None], dom[None, :]]) & (je >= 0)
    report.record_mask("join_endpoint_left", law)
    law = (cod_p[jc] == join[cod[:, None], idx_n[None, :]]) & (jc >= 0)
    report.record_mask("join_endpoint_right", law)

    # (a∨f)∨b = a∨(f∨b)
    lhs = jc_p[je[:, :, None], idx_n[None, None, :]]
    rhs = je_p[idx_n[:, None, None], jc[None, :, :]]
    report.record_mask("join_compatibility", (lhs == rhs) & (lhs >= 0))
    return report


def check_linking(sys: RestrictionSystem) -> AxiomReport:
    """The linking axiom tying restriction to extension across the two bands:
    (a∧f)∨(cod f) = f, its equivalent pseudoproduct form, the lateral and
    order duals, and the degeneration to absorption on identity morphisms."""
    report = AxiomReport("linking axiom")
    n, m = sys.object_count, sys.morphism_count
    idx_n, idx_m = np.arange(n), np.arange(m)
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    inv = sys.groupoid.inv
    e, e_p = sys._e, sys._e_p
    mr, mc, je, jc = sys._mr, sys._mc, sys._je, sys._jc
    mr_p, mc_p, je_p, jc_p = sys._mr_p, sys._mc_p, sys._je_p, sys._jc_p
    pj_p = sys._pj_p

    # f = (a∧f)∨(f*f): restrict to a, then coextend back up to cod f
    val = jc_p[mr, cod[None, :]]
    report.record_mask("linking_meet_join", val == idx_m[None, :])

    # equivalently ff* = (a∧f)∨f*: join pseudoproduct with the inverse
    val = pj_p[mr, inv[None, :]]
    target = e_p[dom][None, :]
    report.record_mask("linking_equiv_pseudo", (val == target) & (val >= 0))

    # lateral: f = (ff*)∨(f∧a)
    val = je_p[dom[None, :], mc.T]
    report.record_mask("linking_lateral", val == idx_m[None, :])

    # order dual: f = (a∨f)∧(f*f)
    val = mc_p[je, cod[None, :]]
    report.record_mask("linking_order_dual", val == idx_m[None, :])

    # order lateral: f = (ff*)∧(f∨a)
    val = mr_p[dom[None, :], jc.T]
    report.record_mask("linking_order_lateral", val == idx_m[None, :])

    # on identity morphisms the axiom degenerates to skew-lattice absorption
    val = jc_p[mr_p[idx_n[:, None], e[None, :]], idx_n[None, :]]
    law = (val == e[None, :]) & (val >= 0)
    report.record_mask("idempotent_absorption", law)
    return report


def verify_derived_identities(sys: RestrictionSystem) -> AxiomReport:
    """Consequences the construction is supposed to deliver, verified
    exhaustively: the three mixed-associativity lemmas, associativity and
    idempotent structure of both pseudoproducts, the plus/minus calculus,
    inversion of restrictions, identity actions, range invariance. The
    flags that the source identities explicitly do NOT promise (action
    inversion, restriction swap, the semilattice-only identities) are
    recorded as observations, never required."""
    report = AxiomReport("derived identities")
    n, m = sys.object_count, sys.morphism_count
    idx_n, idx_m = np.arange(n), np.arange(m)
    meet, join = sys._meet, sys._join
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    comp, inv = sys.groupoid.comp, sys.groupoid.inv
    e, e_p = sys._e, sys._e_p
    dom_p, cod_p, inv_p = sys._dom_p, sys._cod_p, sys._inv_p
    mr, mc, je, jc = sys._mr, sys._mc, sys._je, sys._jc
    mr_p, mc_p, je_p = sys._mr_p, sys._mc_p, sys._je_p
    pm, pj = sys._pm, sys._pj
    pm_p, pj_p = sys._pm_p, sys._pj_p

    # (f∧e)∧g = f∧(e∧g) over morphism, object, morphism
    lhs = pm_p[mc[:, :, None], idx_m[None, None, :]]
    rhs = pm_p[idx_m[:, None, None], mr[None, :, :]]
    report.record_mask("mixed_assoc_meet", (lhs == rhs) & (lhs >= 0))
    lhs = pj_p[jc[:, :, None], idx_m[None, None, :]]
    rhs = pj_p[idx_m[:, None, None], je[None, :, :]]
    report.record_mask("mixed_assoc_join", (lhs == rhs) & (lhs >= 0))

    # e^(f∧g) = (e^f)^g over object, morphism, morphism
    lhs = cod_p[mr_p[idx_n[:, None, None], pm[None, :, :]]]
    rhs = cod_p[mr_p[cod_p[mr][:, :, None], idx_m[None, None, :]]]
    report.record_mask("action_chain_meet", (lhs == rhs) & (lhs >= 0))
    lhs = cod_p[je_p[idx_n[:, None, None], pj[None, :, :]]]
    rhs = cod_p[je_p[cod_p[je][:, :, None], idx_m[None, None, :]]]
    report.record_mask("action_chain_join", (lhs == rhs) & (lhs >= 0))

    # _e|(f∧g) = (_e|f)∧g
    lhs = mr_p[idx_n[:, None, None], pm[None, :, :]]
    rhs = pm_p[mr[:, :, None], idx_m[None, None, :]]
    report.record_mask("restrict_into_product_meet", (lhs == rhs) & (lhs >= 0))
    lhs = je_p[idx_n[:, None, None], pj[None, :, :]]
    rhs = pj_p[je[:, :, None], idx_m[None, None, :]]
    report.record_mask("extend_into_product_join", (lhs == rhs) & (lhs >= 0))

    # both pseudoproducts associative over all morphism triples
    lhs = pm_p[pm][:, :, :m]
    rhs = pm_p[idx_m[:, None, None], pm[None, :, :]]
    report.record_mask("assoc_meet", (lhs == rhs) & (lhs >= 0))
    lhs = pj_p[pj][:, :, :m]
    rhs = pj_p[idx_m[:, None, None], pj[None, :, :]]
    report.record_mask("assoc_join", (lhs == rhs) & (lhs >= 0))

    # pseudoproduct extends composition and the object operations
    composable = comp >= 0
    report.record_mask("extends_composition_meet", ~composable | (pm == comp))
    report.record_mask("extends_composition_join", ~composable | (pj == comp))
    val = pm_p[e[:, None], e[None, :]]
    law = (val == e_p[meet]) & (val >= 0)
    report.record_mask("identity_product_meet", law)
    val = pj_p[e[:, None], e[None, :]]
    law = (val == e_p[join]) & (val >= 0)
    report.record_mask("identity_product_join", law)

    # idempotents of each pseudoproduct are exactly the identity morphisms
    id_set = np.zeros(m, dtype=bool)
    id_set[e[e >= 0]] = True
    report.record_mask("idempotents_meet", (pm[idx_m, idx_m] == idx_m) == id_set)
    report.record_mask("idempotents_join", (pj[idx_m, idx_m] == idx_m) == id_set)

    # regularity: g∧g*∧g = g and the join analogue
    val = pm_p[pm[idx_m, inv], idx_m]
    report.record_mask("regularity_meet", val == idx_m)
    val = pj_p[pj[idx_m, inv], idx_m]
    report.record_mask("regularity_join", val == idx_m)

    # the plus/minus calculus for both operations
    skehr_statement_flags(report, "skehr_meet", pm, inv)
    skehr_statement_flags(report, "skehr_join", pj, inv)

    # (_a|f)^-1 = _(a^f)|f^-1 and the join analogue
    lhs = inv_p[mr]
    rhs = mr_p[cod_p[mr], inv[None, :]]
    report.record_mask("invert_restriction", (lhs == rhs) & (lhs >= 0))
    lhs = inv_p[je]
    rhs = je_p[cod_p[je], inv[None, :]]
    report.record_mask("invert_extension", (lhs == rhs) & (lhs >= 0))

    # a^(i_b) = a∧b and a_(i_b) = a∨b
    val = cod_p[mr_p[idx_n[:, None], e[None, :]]]
    report.record_mask("identity_action_meet", (val == meet) & (val >= 0))
    val = cod_p[je_p[idx_n[:, None], e[None, :]]]
    report.record_mask("identity_action_join", (val == join) & (val >= 0))

    # a∧f∧f* = a∧f∧(a∧f)* and the printed join form a∨f∨f* = a∨f∨(a∨f)*
    lhs = pm_p[mr, inv[None, :]]
    rhs = pm_p[mr, inv_p[mr]]
    report.record_mask("range_invariance_meet", (lhs == rhs) & (lhs >= 0))
    lhs = pj_p[je, inv[None, :]]
    rhs = pj_p[je, inv_p[je]]
    report.record_mask("range_invariance_join", (lhs == rhs) & (lhs >= 0))

    # observations: these may fail, and for genuinely skew objects they should
    plus = pm[idx_m, inv]
    minus = pm[inv, idx_m]
    plus_p, minus_p = padded(plus), padded(minus)
    lhs = pm_p[plus_p[pm], idx_m[:, None]]
    rhs = pm_p[idx_m[:, None], plus[None, :]]
    report.record_mask(
        "obs_restriction_identity_left",
        (lhs == rhs) & (lhs >= 0),
        required=False,
        note="(s∧t)+∧s = s∧t+: holds only over a semilattice of objects",
    )
    lhs = pm_p[idx_m[None, :], minus_p[pm]]
    rhs = pm_p[minus[:, None], idx_m[None, :]]
    report.record_mask(
        "obs_restriction_identity_right",
        (lhs == rhs) & (lhs >= 0),
        required=False,
        note="t∧(s∧t)- = s-∧t: holds only over a semilattice of objects",
    )
    lhs = cod_p[mr].T
    rhs = dom_p[mc_p[inv[:, None], idx_n[None, :]]]
    report.record_mask(
        "obs_action_inverse",
        lhs == rhs,
        required=False,
        note="a^f = ^(f^-1)|a is not an axiom",
    )
    rhs = mc_p[idx_m[None, :], cod_p[mr]]
    report.record_mask(
        "obs_restrict_swap",
        mr == rhs,
        required=False,
        note="_a|f = f|_(a^f) is not an axiom",
    )
    return report


def build_algebra(sys: RestrictionSystem, check: bool = True) -> BiBandAlgebra:
    """The total (2,2,1)-algebra on the morphism set: the two pseudoproducts
    with inversion as star. Element i of the algebra is morphism i.

    With check=True (the default) the system must pass its full report.
    """
    if check:
        sys.full_report().require()
    for name, table in (("meet", sys._pm), ("join", sys._pj)):
        if (table < 0).any():
            hole = tuple(int(v) for v in np.argwhere(table < 0)[0])
            raise MalformedSystemError(f"{name} pseudoproduct undefined at {hole}")
    return BiBandAlgebra(sys._pj.copy(), sys._pm.copy(), sys.groupoid.inv.copy())


def discrete_system(objects: SkewLatticeTable) -> RestrictionSystem:
    """Identity morphisms only; the operators act by the object operations."""
    if not isinstance(objects, SkewLatticeTable):
        objects = SkewLatticeTable(*objects)
    n = objects.order
    meet, join = objects.meet.array, objects.join.array
    gpd = discrete_groupoid(n)
    idx = np.arange(n)
    le_left = meet == idx[:, None]
    le_right = meet.T == idx[:, None]
    ge_left = join == idx[:, None]
    ge_right = join.T == idx[:, None]
    # morphism b is the identity at b, so e.g. restL[a, b] = i_(a∧b) = a∧b
    restL = np.where(le_left, meet, -1)
    restR = np.where(le_right.T, meet, -1)
    extL = np.where(ge_left, join, -1)
    extR = np.where(ge_right.T, join, -1)
    return RestrictionSystem(gpd, objects, restL, restR, extL, extR)


def group_system(group: GroupTable) -> RestrictionSystem:
    """A group as a one-object system; all four operators are trivial."""
    gpd = group_groupoid(group)
    m = group.order
    col = np.arange(m, dtype=np.int64)
    return RestrictionSystem(
        gpd,
        SkewLatticeTable([[0]], [[0]]),
        col[None, :].copy(),
        col[:, None].copy(),
        col[None, :].copy(),
        col[:, None].copy(),
    )
