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
RestrictionSystem.on_regions is the one place a builder states the four
regions: every builder in the package hands it total tables, and it cuts
each to its region, -1 outside.

Each derived table has one owner, which computes it on first use and then
keeps it, so a system that is only written out or compared table by table
never pays for any of them: the groupoid pads its own tables
(FiniteGroupoid.padded), the object lattice holds its preorders
(SkewLatticeTable.preorders), and each side of the system derives its two
total operations (a∧g and g∧a, or a∨g and g∨a) and its pseudoproduct as
numpy tables. Undefined entries stay -1: each lookup table is padded with a
-1 border row/column, and since numpy reads index -1 as the last position,
sentinels flow through chained gathers without any masking logic.

The join side (extL, extR, ∨) is the order dual of the meet side (restL,
restR, ∧). Each side is one _Side record, derived apart from the other, and
every law that has a dual is written once and evaluated on both records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import BiBandAlgebra, skehr_statement_flags
from .errors import MalformedSystemError
from .groupoid import FiniteGroupoid, check_groupoid
from .report import AxiomReport
from .tables import SkewLatticeTable, check_skew_lattice, checked_index, frozen, padded

__all__ = [
    "RestrictionSystem",
    "build_algebra",
    "check_extension_axioms",
    "check_linking",
    "check_restriction_axioms",
    "check_structure",
    "system_checkers",
    "verify_derived_identities",
]


def _check_partial(name: str, table, shape, hi: int) -> np.ndarray:
    arr = frozen(table)
    if arr.shape != shape:
        raise MalformedSystemError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size and (arr.min() < -1 or arr.max() >= hi):
        raise MalformedSystemError(f"{name} entries must lie in -1..{hi - 1}")
    return arr


@dataclass(slots=True)
class _Side:
    """One order side of a system: the meet side (restriction, restL, restR,
    ∧) or its order dual, the join side (extension, extL, extR, ∨).

    L[a, g] = a∧g and R[g, a] = g∧a are the total operators, P the
    pseudoproduct and the *_p fields their -1-padded forms. `order` holds
    the (left, right) relations that bound the definedness regions and the
    transitivity hypotheses; `preorder` the relations the two preorder flags
    read, which on the join side are the lateral ones (ge_right for extL,
    ge_left for extR).
    """

    op: str
    noun: str
    verb: str
    left: str
    right: str
    table: np.ndarray
    partial: tuple
    L: np.ndarray
    R: np.ndarray
    L_p: np.ndarray
    R_p: np.ndarray
    P: np.ndarray
    P_p: np.ndarray
    order: tuple
    preorder: tuple


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
        self._reports: dict[str, AxiomReport] = {}  # checker name -> its family's report

    @classmethod
    def on_regions(cls, groupoid, objects, values) -> RestrictionSystem:
        """The system whose operator tables are total tables cut to their
        regions, -1 outside. `values` holds one (left, right) pair for the
        meet side and one for the join side, left[a, g] and right[g, a]:
        restL lives on a leL dom g, restR on a leR cod g, and extL, extR
        alike on geL, geR."""
        pre = objects.preorders
        tables = []  # restL, restR, extL, extR
        for (lrel, rrel), (left, right) in zip(
            ((pre.le_left, pre.le_right), (pre.ge_left, pre.ge_right)), values
        ):
            tables += [
                np.where(lrel[:, groupoid.dom], left, -1),
                np.where(rrel[:, groupoid.cod].T, right, -1),
            ]
        return cls(groupoid, objects, *tables)

    @property
    def object_count(self) -> int:
        return self.objects.order

    @property
    def morphism_count(self) -> int:
        return self.groupoid.morphism_count

    @functools.cached_property
    def _meet(self) -> _Side:
        pre = self.objects.preorders
        return self._side(
            ("meet", "restriction", "restrict", "restL", "restR"),
            self.objects.meet.array, (self.restL, self.restR),
            order=(pre.le_left, pre.le_right), preorder=(pre.le_left, pre.le_right),
        )

    @functools.cached_property
    def _join(self) -> _Side:
        pre = self.objects.preorders
        return self._side(
            ("join", "extension", "extend", "extL", "extR"),
            self.objects.join.array, (self.extL, self.extR),
            order=(pre.ge_left, pre.ge_right), preorder=(pre.ge_right, pre.ge_left),
        )

    def _side(self, names, op, partial, order, preorder) -> _Side:
        left, right = partial
        idx_n, idx_m = np.arange(self.object_count), np.arange(self.morphism_count)
        dom, cod = self.groupoid.dom, self.groupoid.cod
        # total operator tables; holes in the partial input surface as -1
        L = left[op[idx_n[:, None], dom], idx_m]
        R = right[idx_m[:, None], op[cod, :]]
        c = op[cod[:, None], dom[None, :]]
        P = self.groupoid.padded[3][right[idx_m[:, None], c], left[c, idx_m[None, :]]]  # comp_p
        for table in (L, R, P):
            table.setflags(write=False)
        return _Side(
            *names, table=op, partial=partial, L=L, R=R, L_p=padded(L), R_p=padded(R),
            P=P, P_p=padded(P), order=order, preorder=preorder,
        )

    def pseudoproduct(self, f: int, g: int, op: str = "meet") -> int:
        """Total product extending composition: (f|_c)∘(_c|g) at c = cod f ∧ dom g
        for op="meet", and the join analogue at c = cod f ∨ dom g.

        Guarded: raises unless the system passes its full report.
        """
        self.full_report().require()
        side = self._meet if op == "meet" else self._join if op == "join" else None
        if side is None:
            raise ValueError(f"op must be 'meet' or 'join', got {op!r}")
        m = self.morphism_count
        return int(side.P[checked_index(f, m), checked_index(g, m)])

    def full_report(self) -> AxiomReport:
        """Structural, restriction, extension and linking checks, as a new
        report the caller owns. A family's checker is called only when the
        memo lacks its report, so each family is computed once per system."""
        report = AxiomReport("restriction system")
        for _, checker in system_checkers()[:4]:
            report.extend(self._reports.get(checker.__name__) or checker(self))
        return report

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


def _memoised(body):
    """Compute the family at most once per system, keep it in the system's
    memo under the checker's name, and hand every caller a copy."""
    @functools.wraps(body)
    def checker(sys: RestrictionSystem) -> AxiomReport:
        report = sys._reports.get(body.__name__)
        if report is None:
            report = sys._reports[body.__name__] = body(sys)
        return report.copy()
    return checker


def _equal(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs == rhs with lhs defined: a hole (-1) never satisfies a law."""
    return (lhs == rhs) & (lhs >= 0)


@_memoised
def check_structure(sys: RestrictionSystem) -> AxiomReport:
    """Well-formedness: objects form a skew lattice, the groupoid laws hold,
    and each operator table is defined exactly on its preorder region with
    the stated endpoints."""
    report = AxiomReport("structure")
    report.extend(check_skew_lattice(sys.objects), prefix="objects_")

    idx = np.arange(sys.object_count)
    pre = sys.objects.preorders
    report.record_mask(
        "preorder_converse_pairing",
        (pre.le_left == pre.ge_right.T) & (pre.le_right == pre.ge_left.T),
    )

    report.extend(check_groupoid(sys.groupoid), prefix="groupoid_")
    report.record_mask("identity_coverage", sys.groupoid.identity_of >= 0)

    dom_p, cod_p = sys.groupoid.padded[:2]
    # restL[a,g]: defined iff a leL dom g; then dom = a, cod leL cod g
    # restR[g,a]: defined iff a leR cod g; then cod = a, dom leR dom g
    # and extL, extR alike with geL, geR. Each table is read as t[a, g]
    # (restR, extR transposed); near is the endpoint that a replaces and far
    # the other, both padded; `back` returns a mask to the table's own
    # orientation
    for side in (sys._meet, sys._join):
        for name, partial, rel, near_p, far_p, back in zip(
            (side.left, side.right), side.partial, side.order,
            (dom_p, cod_p), (cod_p, dom_p), (np.asarray, np.transpose),
        ):
            table = back(partial)
            defined = table >= 0
            report.record_mask(f"{name}_defined_iff", back(defined == rel[:, near_p[:-1]]))
            # at a hole far_p reads -1, so rel answers for its last object;
            # ~defined passes the cell whatever it answers
            ends = (near_p[table] == idx[:, None]) & rel[far_p[table], far_p[:-1]]
            report.record_mask(f"{name}_endpoints", back(~defined | ends))

    report.record_mask("meet_pseudoproduct_total", sys._meet.P >= 0)
    report.record_mask("join_pseudoproduct_total", sys._join.P >= 0)
    return report


def _order_axioms(sys: RestrictionSystem, side: _Side) -> AxiomReport:
    """The postulates of one side in left and right form: identities,
    preorders, transitivity, composition, the two chaining equations on the
    generalized operation, endpoints and compatibility. Comments state the
    meet side; the join side reads ∨ for ∧ and ge for le, except that its
    preorder flags read the lateral relations (see _Side)."""
    report = AxiomReport(f"{side.noun} axioms")
    n, m = sys.object_count, sys.morphism_count
    op, L, R, L_p, R_p = side.table, side.L, side.R, side.L_p, side.R_p
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    comp, e = sys.groupoid.comp, sys.groupoid.identity_of
    idx_n, idx_m = np.arange(n), np.arange(m)
    dom_p, cod_p, _, comp_p, e_p = sys.groupoid.padded
    left, right = side.left, side.right

    report.record_mask(f"{left}_identity", L[dom, idx_m] == idx_m)
    report.record_mask(f"{right}_identity", R[idx_m, cod] == idx_m)

    # a leL b  =>  _a|i_b = i_(a∧b), which is i_a
    val = L_p[idx_n[:, None], e[None, :]]
    report.record_mask(f"{left}_preorder", ~side.preorder[0] | _equal(val, e_p[op]))
    # a leR b  =>  i_b|_a = i_(b∧a), which is i_a
    val = R_p[e[None, :], idx_n[:, None]]
    report.record_mask(f"{right}_preorder", ~side.preorder[1] | _equal(val, e_p[op.T]))

    # a leL b leL dom g  =>  _a|g = _(a∧b)|g = _a|(_b|g)
    rel = side.order[0]
    hyp = rel[:, :, None] & rel[:, dom][None, :, :]
    x = L[:, None, :]
    y = L_p[op[:, :, None], idx_m[None, None, :]]
    z = L_p[idx_n[:, None, None], L[None, :, :]]
    report.record_mask(f"{left}_transitivity", ~hyp | ((x == y) & _equal(x, z)))
    # a leR b leR cod g  =>  g|_a = g|_(b∧a) = (g|_b)|_a
    rel = side.order[1]
    hyp = rel[:, :, None] & rel[:, cod][None, :, :]
    x = R.T[:, None, :]
    y = R_p[idx_m[None, None, :], op.T[:, :, None]]
    z = R_p[R.T[None, :, :], idx_n[:, None, None]]
    report.record_mask(f"{right}_transitivity", ~hyp | ((x == y) & _equal(x, z)))

    composable = comp >= 0
    # _a|(f∘g) = (_a|f)∘(_(cod _a|f)|g)
    lhs = L_p[idx_n[:, None, None], comp[None, :, :]]
    rhs = comp_p[L[:, :, None], L_p[cod_p[L][:, :, None], idx_m[None, None, :]]]
    report.record_mask(f"{left}_composition", ~composable[None, :, :] | _equal(lhs, rhs))
    # (f∘g)|_d = (f|_(dom g|_d))∘(g|_d)
    lhs = R_p[comp[:, :, None], idx_n[None, None, :]]
    rhs = comp_p[R_p[idx_m[:, None, None], dom_p[R][None, :, :]], R[None, :, :]]
    report.record_mask(f"{right}_composition", ~composable[:, :, None] | _equal(lhs, rhs))

    # (a∧b)∧g = a∧(b∧g) and (g∧a)∧b = g∧(a∧b), all tuples
    lhs = L_p[op[:, :, None], idx_m[None, None, :]]
    rhs = L_p[idx_n[:, None, None], L[None, :, :]]
    report.record_mask(f"{side.op}_chain_left", _equal(lhs, rhs))
    lhs = R_p[R[:, :, None], idx_n[None, None, :]]
    rhs = R_p[idx_m[:, None, None], op[None, :, :]]
    report.record_mask(f"{side.op}_chain_right", _equal(lhs, rhs))

    # dom(a∧g) = a∧dom g and cod(g∧a) = (cod g)∧a
    report.record_mask(f"{side.op}_endpoint_left", _equal(dom_p[L], op[idx_n[:, None], dom]))
    report.record_mask(f"{side.op}_endpoint_right", _equal(cod_p[R], op[cod, :]))

    # (a∧f)∧b = a∧(f∧b)
    lhs = R_p[L[:, :, None], idx_n[None, None, :]]
    rhs = L_p[idx_n[:, None, None], R[None, :, :]]
    report.record_mask(f"{side.op}_compatibility", _equal(lhs, rhs))
    return report


@_memoised
def check_restriction_axioms(sys: RestrictionSystem) -> AxiomReport:
    """The restriction postulates: identities, preorders, transitivity and
    composition in left and right form, the two chaining equations on the
    generalized operation, and meet compatibility."""
    return _order_axioms(sys, sys._meet)


@_memoised
def check_extension_axioms(sys: RestrictionSystem) -> AxiomReport:
    """The extension postulates, vertical duals of the restriction ones."""
    return _order_axioms(sys, sys._join)


@_memoised
def check_linking(sys: RestrictionSystem) -> AxiomReport:
    """The linking axiom tying restriction to extension across the two bands:
    (a∧f)∨(cod f) = f, its equivalent pseudoproduct form, the lateral and
    order duals, and the degeneration to absorption on identity morphisms."""
    report = AxiomReport("linking axiom")
    n, m = sys.object_count, sys.morphism_count
    idx_n, idx_m = np.arange(n), np.arange(m)
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    inv, e = sys.groupoid.inv, sys.groupoid.identity_of
    e_p = sys.groupoid.padded[4]
    mr, mc, mr_p, mc_p = sys._meet.L, sys._meet.R, sys._meet.L_p, sys._meet.R_p
    je, jc, je_p, jc_p = sys._join.L, sys._join.R, sys._join.L_p, sys._join.R_p

    # f = (a∧f)∨(f*f): restrict to a, then coextend back up to cod f
    val = jc_p[mr, cod[None, :]]
    report.record_mask("linking_meet_join", val == idx_m[None, :])

    # equivalently ff* = (a∧f)∨f*: join pseudoproduct with the inverse
    val = sys._join.P_p[mr, inv[None, :]]
    report.record_mask("linking_equiv_pseudo", _equal(val, e_p[dom][None, :]))

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
    report.record_mask("idempotent_absorption", _equal(val, e[None, :]))
    return report


@_memoised
def verify_derived_identities(sys: RestrictionSystem) -> AxiomReport:
    """Consequences the construction is supposed to deliver, verified
    exhaustively: the three mixed-associativity lemmas, associativity and
    idempotent structure of both pseudoproducts, the plus/minus calculus,
    inversion of restrictions, identity actions, range invariance. The
    flags that the source identities explicitly do NOT promise (action
    inversion, restriction swap, the semilattice-only identities) are
    recorded as observations, never required.

    Each paired law is written for the meet side (∧) and recorded for the
    meet side, then the join side."""
    report = AxiomReport("derived identities")
    n, m = sys.object_count, sys.morphism_count
    idx_n, idx_m = np.arange(n), np.arange(m)
    comp, inv, e = sys.groupoid.comp, sys.groupoid.inv, sys.groupoid.identity_of
    dom_p, cod_p, inv_p, _, e_p = sys.groupoid.padded
    sides = (sys._meet, sys._join)

    # (f∧e)∧g = f∧(e∧g) over morphism, object, morphism
    for s in sides:
        lhs = s.P_p[s.R[:, :, None], idx_m[None, None, :]]
        rhs = s.P_p[idx_m[:, None, None], s.L[None, :, :]]
        report.record_mask(f"mixed_assoc_{s.op}", _equal(lhs, rhs))

    # e^(f∧g) = (e^f)^g over object, morphism, morphism
    for s in sides:
        lhs = cod_p[s.L_p[idx_n[:, None, None], s.P[None, :, :]]]
        rhs = cod_p[s.L_p[cod_p[s.L][:, :, None], idx_m[None, None, :]]]
        report.record_mask(f"action_chain_{s.op}", _equal(lhs, rhs))

    # _e|(f∧g) = (_e|f)∧g
    for s in sides:
        lhs = s.L_p[idx_n[:, None, None], s.P[None, :, :]]
        rhs = s.P_p[s.L[:, :, None], idx_m[None, None, :]]
        report.record_mask(f"{s.verb}_into_product_{s.op}", _equal(lhs, rhs))

    # both pseudoproducts associative over all morphism triples
    for s in sides:
        lhs = s.P_p[s.P][:, :, :m]
        rhs = s.P_p[idx_m[:, None, None], s.P[None, :, :]]
        report.record_mask(f"assoc_{s.op}", _equal(lhs, rhs))

    # pseudoproduct extends composition and the object operations
    composable = comp >= 0
    for s in sides:
        report.record_mask(f"extends_composition_{s.op}", ~composable | (s.P == comp))
    for s in sides:
        val = s.P_p[e[:, None], e[None, :]]
        report.record_mask(f"identity_product_{s.op}", _equal(val, e_p[s.table]))

    # idempotents of each pseudoproduct are exactly the identity morphisms
    id_set = np.zeros(m, dtype=bool)
    id_set[e[e >= 0]] = True
    for s in sides:
        report.record_mask(f"idempotents_{s.op}", (s.P[idx_m, idx_m] == idx_m) == id_set)

    # regularity: g∧g*∧g = g
    for s in sides:
        report.record_mask(f"regularity_{s.op}", s.P_p[s.P[idx_m, inv], idx_m] == idx_m)

    # the plus/minus calculus for both operations; the observations below
    # read the meet side's plus and minus
    plus_p, minus_p = skehr_statement_flags(report, "skehr_meet", sys._meet.P_p, inv)
    skehr_statement_flags(report, "skehr_join", sys._join.P_p, inv)

    # (_a|f)^-1 = _(a^f)|f^-1
    for s in sides:
        rhs = s.L_p[cod_p[s.L], inv[None, :]]
        report.record_mask(f"invert_{s.noun}", _equal(inv_p[s.L], rhs))

    # a^(i_b) = a∧b
    for s in sides:
        val = cod_p[s.L_p[idx_n[:, None], e[None, :]]]
        report.record_mask(f"identity_action_{s.op}", _equal(val, s.table))

    # a∧f∧f* = a∧f∧(a∧f)*, and the printed join form a∨f∨f* = a∨f∨(a∨f)*
    for s in sides:
        lhs = s.P_p[s.L, inv[None, :]]
        rhs = s.P_p[s.L, inv_p[s.L]]
        report.record_mask(f"range_invariance_{s.op}", _equal(lhs, rhs))

    # observations: these may fail, and for genuinely skew objects they should
    pm, pm_p = sys._meet.P, sys._meet.P_p
    mr, mc_p = sys._meet.L, sys._meet.R_p
    plus, minus = plus_p[:-1], minus_p[:-1]
    lhs = pm_p[plus_p[pm], idx_m[:, None]]
    rhs = pm_p[idx_m[:, None], plus[None, :]]
    report.record_mask(
        "obs_restriction_identity_left",
        _equal(lhs, rhs),
        required=False,
        note="(s∧t)+∧s = s∧t+: holds only over a semilattice of objects",
    )
    lhs = pm_p[idx_m[None, :], minus_p[pm]]
    rhs = pm_p[minus[:, None], idx_m[None, :]]
    report.record_mask(
        "obs_restriction_identity_right",
        _equal(lhs, rhs),
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
    for side in (sys._meet, sys._join):
        if (side.P < 0).any():
            hole = tuple(int(v) for v in np.argwhere(side.P < 0)[0])
            raise MalformedSystemError(f"{side.op} pseudoproduct undefined at {hole}")
    return BiBandAlgebra(sys._join.P, sys._meet.P, sys.groupoid.inv)
