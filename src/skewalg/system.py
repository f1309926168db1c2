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
never pays for any of them: the groupoid derives its units and pads its
tables (FiniteGroupoid.identity_of, .padded), the object lattice holds its
preorders (SkewLatticeTable.preorders), the system derives its two
pseudoproducts (RestrictionSystem._pseudoproducts), and the system derives
both sides together (RestrictionSystem._sides), each with its two total
operations (a∧g and g∧a, or a∨g and g∨a) as numpy tables. A system read
only for its algebra derives the pseudoproducts and nothing else.
Undefined entries stay -1: each lookup table is padded with a -1 border
row/column, and since take, like indexing, reads index -1 as the last
position, sentinels flow through chained gathers without any masking logic.

Each gather of whole rows or columns of a table is one ndarray.take on one
axis, on tables this small mostly a fraction of the cost of the fancy index:
T_p[:, :k].take(X, 0) for T_p[X[..., None], arange(k)], T_p[:k].take(Y, 1)
for T_p[arange(k)[:, None, None], Y], T.take(X, 0).take(Y, 1) for
T[X[:, None], Y[None, :]]. Paired gathers (T[idx, st]), boolean masks and
vectors still index: numpy indexes a vector by one index array faster than
take does. take copies a strided view such as T_p[:, :k] first, which costs
less than leaving a strided result to every later comparison. Where the
law's axis order differs from the gather's, the mask is transposed, so each
witness is still the first failing tuple in the law's row-major order.

The join side (extL, extR, ∨) is the order dual of the meet side (restL,
restR, ∧). Each side is one _Side record, both derived in one step, and
every law that has a dual is written once and evaluated on both records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import BiBandAlgebra, skehr_statement_flags
from .errors import MalformedSystemError
from .groupoid import FiniteGroupoid, check_groupoid
from .report import AxiomReport, flag
from .tables import SkewLatticeTable, check_skew_lattice, equal, frozen, out_of_range, padded

__all__ = [
    "RestrictionSystem",
    "build_algebra",
    "check_extension_axioms",
    "check_linking",
    "check_restriction_axioms",
    "check_structure",
    "verify_derived_identities",
]


def _check_partial(name: str, table, shape, hi: int) -> np.ndarray:
    arr = frozen(table)
    if arr.shape != shape:
        raise MalformedSystemError(f"{name} must have shape {shape}, got {arr.shape}")
    if out_of_range(arr, -1, hi):
        raise MalformedSystemError(f"{name} entries must lie in -1..{hi - 1}")
    return arr


@dataclass(slots=True)
class _Side:
    """One order side of a system: the meet side (restriction, restL, restR,
    ∧) or its order dual, the join side (extension, extL, extR, ∨). The
    system derives the two records together (RestrictionSystem._sides).

    L_p[a, g] = a∧g and R_p[g, a] = g∧a are the total operators and P_p the
    pseudoproduct, each padded with a -1 border (tables.padded); the system
    stores these only. A checker takes contiguous unpadded working copies
    (_core) at its start and drops them when it returns: take and the
    comparisons run faster on contiguous arrays than on strided views of
    the padded tables. `order` holds the (left, right) relations that bound
    the definedness regions and the transitivity hypotheses; `preorder` the
    relations the two preorder flags read, which on the join side are the
    lateral ones (ge_right for extL, ge_left for extR).
    """

    op: str
    noun: str
    verb: str
    left: str
    right: str
    table: np.ndarray
    partial: tuple
    L_p: np.ndarray
    R_p: np.ndarray
    P_p: np.ndarray
    order: tuple
    preorder: tuple


def _core(table_p: np.ndarray) -> np.ndarray:
    """A contiguous copy of a padded table without its -1 border."""
    return np.ascontiguousarray(table_p[:-1, :-1])


class RestrictionSystem:
    """A finite groupoid over skew-lattice objects plus four operator tables."""

    def __init__(self, groupoid: FiniteGroupoid, objects, restL, restR, extL, extR):
        if not isinstance(groupoid, FiniteGroupoid):
            raise MalformedSystemError("groupoid must be a FiniteGroupoid")
        if not isinstance(objects, SkewLatticeTable):
            if not isinstance(objects, (tuple, list)):
                raise MalformedSystemError("objects must be a SkewLatticeTable or a (meet, join) pair")
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
                np.where(lrel.take(groupoid.dom, 1), left, -1),
                np.where(rrel.take(groupoid.cod, 1).T, right, -1),
            ]
        return cls(groupoid, objects, *tables)

    @property
    def object_count(self) -> int:
        return self.objects.order

    @property
    def morphism_count(self) -> int:
        return self.groupoid.morphism_count

    @functools.cached_property
    def _pseudoproducts(self) -> tuple[np.ndarray, np.ndarray]:
        """The meet and the join pseudoproduct, padded: (f|_c)∘(_c|g) at
        c = cod f ∧ dom g, and (f|_c)∘(_c|g) through extR, extL at
        c = cod f ∨ dom g. Holes in the partial input surface as -1."""
        idx_m = np.arange(self.morphism_count)
        dom, cod = self.groupoid.dom, self.groupoid.cod
        comp_p = self.groupoid.padded[3]
        products = []
        for op, left, right in (
            (self.objects.meet.array, self.restL, self.restR),
            (self.objects.join.array, self.extL, self.extR),
        ):
            c = op.take(cod, 0).take(dom, 1)
            products.append(padded(comp_p[right[idx_m[:, None], c], left[c, idx_m[None, :]]]))
        return products[0], products[1]

    @functools.cached_property
    def _sides(self) -> tuple[_Side, _Side]:
        """The meet side and the join side, derived together."""
        pre = self.objects.preorders
        idx_m = np.arange(self.morphism_count)
        dom, cod = self.groupoid.dom, self.groupoid.cod
        sides = []
        for names, op, partial, P_p, order, preorder in zip(
            (("meet", "restriction", "restrict", "restL", "restR"),
             ("join", "extension", "extend", "extL", "extR")),
            (self.objects.meet.array, self.objects.join.array),
            ((self.restL, self.restR), (self.extL, self.extR)),
            self._pseudoproducts,
            ((pre.le_left, pre.le_right), (pre.ge_left, pre.ge_right)),
            ((pre.le_left, pre.le_right), (pre.ge_right, pre.ge_left)),
        ):
            # total operator tables; holes in the partial input surface as -1
            L_p = padded(partial[0][op.take(dom, 1), idx_m])
            R_p = padded(partial[1][idx_m[:, None], op.take(cod, 0)])
            sides.append(_Side(*names, op, partial, L_p, R_p, P_p, order, preorder))
        return sides[0], sides[1]

    def full_report(self) -> AxiomReport:
        """Structural, restriction, extension and linking checks in one
        report over the families' own checks. A family's checker is called
        only when the memo lacks its report, so each family is computed once
        per system."""
        return AxiomReport("restriction system", [
            c
            for _, checker in system_checkers()[:4]
            for c in (self._reports.get(checker.__name__) or checker(self)).checks()
        ])

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
    memo under the checker's name, and hand every caller that report."""
    @functools.wraps(body)
    def checker(sys: RestrictionSystem) -> AxiomReport:
        report = sys._reports.get(body.__name__)
        if report is None:
            report = sys._reports[body.__name__] = body(sys)
        return report
    return checker


@_memoised
def check_structure(sys: RestrictionSystem) -> AxiomReport:
    """Well-formedness: objects form a skew lattice, the groupoid laws hold,
    and each operator table is defined exactly on its preorder region with
    the stated endpoints."""
    checks = check_skew_lattice(sys.objects).renamed("objects_")

    idx = np.arange(sys.object_count)
    pre = sys.objects.preorders
    checks.append(flag(
        "preorder_converse_pairing",
        (pre.le_left == pre.ge_right.T) & (pre.le_right == pre.ge_left.T),
    ))

    checks += check_groupoid(sys.groupoid).renamed("groupoid_")
    checks.append(flag("identity_coverage", sys.groupoid.identity_of >= 0))

    dom_p, cod_p = sys.groupoid.padded[:2]
    # restL[a,g]: defined iff a leL dom g; then dom = a, cod leL cod g
    # restR[g,a]: defined iff a leR cod g; then cod = a, dom leR dom g
    # and extL, extR alike with geL, geR. Each table is read as t[a, g]
    # (restR, extR transposed); near is the endpoint that a replaces and far
    # the other, both padded; `back` returns a mask to the table's own
    # orientation
    for side in sys._sides:
        for name, partial, rel, near_p, far_p, back in zip(
            (side.left, side.right), side.partial, side.order,
            (dom_p, cod_p), (cod_p, dom_p), (np.asarray, np.transpose),
        ):
            table = back(partial)
            defined = table >= 0
            checks.append(flag(f"{name}_defined_iff", back(defined == rel.take(near_p[:-1], 1))))
            # at a hole far_p reads -1, so rel answers for its last object;
            # ~defined passes the cell whatever it answers
            ends = (near_p[table] == idx[:, None]) & rel[far_p[table], far_p[:-1]]
            checks.append(flag(f"{name}_endpoints", back(~defined | ends)))

    for side in sys._sides:
        checks.append(flag(f"{side.op}_pseudoproduct_total", side.P_p[:-1, :-1] >= 0))
    return AxiomReport("structure", checks)


def _order_axioms(sys: RestrictionSystem, side: _Side) -> AxiomReport:
    """The postulates of one side in left and right form: identities,
    preorders, transitivity, composition, the two chaining equations on the
    generalized operation, endpoints and compatibility. Comments state the
    meet side; the join side reads ∨ for ∧ and ge for le, except that its
    preorder flags read the lateral relations (see _Side)."""
    checks = []
    n, m = sys.object_count, sys.morphism_count
    op, L_p, R_p = side.table, side.L_p, side.R_p
    L, R = _core(L_p), _core(R_p)
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    comp, e = sys.groupoid.comp, sys.groupoid.identity_of
    idx_m = np.arange(m)
    dom_p, cod_p, _, comp_p, e_p = sys.groupoid.padded
    left, right = side.left, side.right

    checks.append(flag(f"{left}_identity", L[dom, idx_m] == idx_m))
    checks.append(flag(f"{right}_identity", R[idx_m, cod] == idx_m))

    # a leL b  =>  _a|i_b = i_(a∧b), which is i_a
    val = L_p[:n].take(e, 1)
    checks.append(flag(f"{left}_preorder", ~side.preorder[0] | equal(val, e_p[op])))
    # a leR b  =>  i_b|_a = i_(b∧a), which is i_a
    val = R_p[:, :n].take(e, 0).T
    checks.append(flag(f"{right}_preorder", ~side.preorder[1] | equal(val, e_p[op.T])))

    # the chaining equations' two sides, which the transitivity laws reuse:
    # chain_l[a, b, g] = (a∧b)∧g, nested_l[a, b, g] = a∧(b∧g),
    # chain_r[g, a, b] = (g∧a)∧b, nested_r[g, a, b] = g∧(a∧b)
    chain_l, nested_l = L.take(op, 0), L_p[:n].take(L, 1)
    chain_r, nested_r = R_p[:, :n].take(R, 0), R_p[:m].take(op, 1)

    # a leL b leL dom g  =>  _a|g = _(a∧b)|g = _a|(_b|g)
    rel = side.order[0]
    hyp = rel[:, :, None] & rel.take(dom, 1)[None, :, :]
    x = L[:, None, :]
    checks.append(flag(f"{left}_transitivity", ~hyp | ((x == chain_l) & equal(x, nested_l))))
    # a leR b leR cod g  =>  g|_a = g|_(b∧a) = (g|_b)|_a, gathered over
    # (g, b, a) and transposed to the law's (a, b, g)
    rel = side.order[1]
    hyp = rel.take(cod, 1).T[:, :, None] & rel.T[None, :, :]
    x = R[:, None, :]
    checks.append(flag(
        f"{right}_transitivity", (~hyp | ((x == nested_r) & equal(x, chain_r))).transpose(2, 1, 0)
    ))

    composable = comp >= 0
    # _a|(f∘g) = (_a|f)∘(_(cod _a|f)|g)
    lhs = L_p[:n].take(comp, 1)
    rhs = comp_p[L[:, :, None], L_p[:, :m].take(cod_p[L], 0)]
    checks.append(flag(f"{left}_composition", ~composable[None, :, :] | equal(lhs, rhs)))
    # (f∘g)|_d = (f|_(dom g|_d))∘(g|_d)
    lhs = R_p[:, :n].take(comp, 0)
    rhs = comp_p[R_p[:m].take(dom_p[R], 1), R[None, :, :]]
    checks.append(flag(f"{right}_composition", ~composable[:, :, None] | equal(lhs, rhs)))

    # (a∧b)∧g = a∧(b∧g) and (g∧a)∧b = g∧(a∧b), all tuples
    checks.append(flag(f"{side.op}_chain_left", equal(chain_l, nested_l)))
    checks.append(flag(f"{side.op}_chain_right", equal(chain_r, nested_r)))

    # dom(a∧g) = a∧dom g and cod(g∧a) = (cod g)∧a
    checks.append(flag(f"{side.op}_endpoint_left", equal(dom_p[L], op.take(dom, 1))))
    checks.append(flag(f"{side.op}_endpoint_right", equal(cod_p[R], op.take(cod, 0))))

    # (a∧f)∧b = a∧(f∧b)
    lhs = R_p[:, :n].take(L, 0)
    rhs = L_p[:n].take(R, 1)
    checks.append(flag(f"{side.op}_compatibility", equal(lhs, rhs)))
    return AxiomReport(f"{side.noun} axioms", checks)


@_memoised
def check_restriction_axioms(sys: RestrictionSystem) -> AxiomReport:
    """The restriction postulates: identities, preorders, transitivity and
    composition in left and right form, the two chaining equations on the
    generalized operation, and meet compatibility."""
    return _order_axioms(sys, sys._sides[0])


@_memoised
def check_extension_axioms(sys: RestrictionSystem) -> AxiomReport:
    """The extension postulates, vertical duals of the restriction ones."""
    return _order_axioms(sys, sys._sides[1])


@_memoised
def check_linking(sys: RestrictionSystem) -> AxiomReport:
    """The linking axiom tying restriction to extension across the two bands:
    (a∧f)∨(cod f) = f, its equivalent pseudoproduct form, the lateral and
    order duals, and the degeneration to absorption on identity morphisms."""
    checks = []
    n, m = sys.object_count, sys.morphism_count
    idx_n, idx_m = np.arange(n), np.arange(m)
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    inv, e = sys.groupoid.inv, sys.groupoid.identity_of
    e_p = sys.groupoid.padded[4]
    meet, join = sys._sides
    mr_p, mc_p, je_p, jc_p = meet.L_p, meet.R_p, join.L_p, join.R_p
    mr, mc, je, jc = map(_core, (mr_p, mc_p, je_p, jc_p))

    # f = (a∧f)∨(f*f): restrict to a, then coextend back up to cod f
    val = jc_p[mr, cod[None, :]]
    checks.append(flag("linking_meet_join", val == idx_m[None, :]))

    # equivalently ff* = (a∧f)∨f*: join pseudoproduct with the inverse
    val = join.P_p[mr, inv[None, :]]
    checks.append(flag("linking_equiv_pseudo", equal(val, e_p[dom][None, :])))

    # lateral: f = (ff*)∨(f∧a)
    val = je_p[dom[None, :], mc.T]
    checks.append(flag("linking_lateral", val == idx_m[None, :]))

    # order dual: f = (a∨f)∧(f*f)
    val = mc_p[je, cod[None, :]]
    checks.append(flag("linking_order_dual", val == idx_m[None, :]))

    # order lateral: f = (ff*)∧(f∨a)
    val = mr_p[dom[None, :], jc.T]
    checks.append(flag("linking_order_lateral", val == idx_m[None, :]))

    # on identity morphisms the axiom degenerates to skew-lattice absorption
    val = jc_p[mr_p[:n].take(e, 1), idx_n[None, :]]
    checks.append(flag("idempotent_absorption", equal(val, e[None, :])))
    return AxiomReport("linking axiom", checks)


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
    checks = []
    n, m = sys.object_count, sys.morphism_count
    idx_m = np.arange(m)
    comp, inv, e = sys.groupoid.comp, sys.groupoid.inv, sys.groupoid.identity_of
    dom_p, cod_p, inv_p, _, e_p = sys.groupoid.padded
    sides = sys._sides
    # each side's (L, R, P) as contiguous working copies, dropped on return
    cores = [tuple(map(_core, (s.L_p, s.R_p, s.P_p))) for s in sides]
    both = list(zip(sides, cores))

    # (f∧e)∧g = f∧(e∧g) over morphism, object, morphism
    for s, (L, R, P) in both:
        checks.append(flag(f"mixed_assoc_{s.op}", equal(s.P_p[:, :m].take(R, 0), s.P_p[:m].take(L, 1))))

    # _e|(f∧g) over object, morphism, morphism, read by the next two laws
    into = [s.L_p[:n].take(P, 1) for s, (L, R, P) in both]

    # e^(f∧g) = (e^f)^g over object, morphism, morphism
    for (s, (L, R, P)), lhs in zip(both, into):
        rhs = s.L_p[:, :m].take(cod_p[L], 0)
        checks.append(flag(f"action_chain_{s.op}", equal(cod_p[lhs], cod_p[rhs])))

    # _e|(f∧g) = (_e|f)∧g
    for (s, (L, R, P)), lhs in zip(both, into):
        checks.append(flag(f"{s.verb}_into_product_{s.op}", equal(lhs, s.P_p[:, :m].take(L, 0))))

    # both pseudoproducts associative over all morphism triples
    for s, (L, R, P) in both:
        checks.append(flag(f"assoc_{s.op}", equal(s.P_p[:, :m].take(P, 0), s.P_p[:m].take(P, 1))))

    # pseudoproduct extends composition and the object operations
    composable = comp >= 0
    for s, (L, R, P) in both:
        checks.append(flag(f"extends_composition_{s.op}", ~composable | (P == comp)))
    for s in sides:
        val = s.P_p.take(e, 0).take(e, 1)
        checks.append(flag(f"identity_product_{s.op}", equal(val, e_p[s.table])))

    # idempotents of each pseudoproduct are exactly the identity morphisms
    id_set = np.zeros(m, dtype=bool)
    id_set[e[e >= 0]] = True
    for s, (L, R, P) in both:
        checks.append(flag(f"idempotents_{s.op}", (P.diagonal() == idx_m) == id_set))

    # regularity: g∧g*∧g = g
    for s, (L, R, P) in both:
        checks.append(flag(f"regularity_{s.op}", s.P_p[P[idx_m, inv], idx_m] == idx_m))

    # the plus/minus calculus for both operations; the observations below
    # read the meet side's plus and minus
    meet_flags, plus_p, minus_p = skehr_statement_flags("skehr_meet", sides[0].P_p, inv)
    checks += meet_flags + skehr_statement_flags("skehr_join", sides[1].P_p, inv)[0]

    # (_a|f)^-1 = _(a^f)|f^-1
    for s, (L, R, P) in both:
        rhs = s.L_p[cod_p[L], inv[None, :]]
        checks.append(flag(f"invert_{s.noun}", equal(inv_p[L], rhs)))

    # a^(i_b) = a∧b
    for s in sides:
        val = cod_p[s.L_p[:n].take(e, 1)]
        checks.append(flag(f"identity_action_{s.op}", equal(val, s.table)))

    # a∧f∧f* = a∧f∧(a∧f)*, and the printed join form a∨f∨f* = a∨f∨(a∨f)*
    for s, (L, R, P) in both:
        lhs = s.P_p[L, inv[None, :]]
        rhs = s.P_p[L, inv_p[L]]
        checks.append(flag(f"range_invariance_{s.op}", equal(lhs, rhs)))

    # observations: these may fail, and for genuinely skew objects they should
    pm_p, mc_p = sides[0].P_p, sides[0].R_p
    mr, _, pm = cores[0]
    plus, minus = plus_p[:-1], minus_p[:-1]
    lhs = pm_p[plus_p[pm], idx_m[:, None]]
    rhs = pm_p[:m].take(plus, 1)
    checks.append(flag(
        "obs_restriction_identity_left",
        equal(lhs, rhs),
        required=False,
        note="(s∧t)+∧s = s∧t+: holds only over a semilattice of objects",
    ))
    lhs = pm_p[idx_m[None, :], minus_p[pm]]
    rhs = pm_p[:, :m].take(minus, 0)
    checks.append(flag(
        "obs_restriction_identity_right",
        equal(lhs, rhs),
        required=False,
        note="t∧(s∧t)- = s-∧t: holds only over a semilattice of objects",
    ))
    lhs = cod_p[mr].T
    rhs = dom_p[mc_p[:, :n].take(inv, 0)]
    checks.append(flag(
        "obs_action_inverse",
        equal(lhs, rhs),
        required=False,
        note="a^f = ^(f^-1)|a is not an axiom",
    ))
    rhs = mc_p[idx_m[None, :], cod_p[mr]]
    checks.append(flag(
        "obs_restrict_swap",
        equal(mr, rhs),
        required=False,
        note="_a|f = f|_(a^f) is not an axiom",
    ))
    return AxiomReport("derived identities", checks)


def build_algebra(sys: RestrictionSystem, check: bool = True) -> BiBandAlgebra:
    """The total (2,2,1)-algebra on the morphism set: the two pseudoproducts
    with inversion as star. Element i of the algebra is morphism i.

    With check=True (the default) the system must pass its full report.

    If the system's derived identities have run, the algebra keeps that
    report itself, and check_axioms and check_skehr take from it the laws
    it checks on these same tables; else they compute every law.  The system
    keeps no reference to the algebra.
    """
    if check:
        sys.full_report().require()
    meet, join = (P_p[:-1, :-1] for P_p in sys._pseudoproducts)
    for name, P in (("meet", meet), ("join", join)):
        if (P < 0).any():
            hole = tuple(int(v) for v in np.argwhere(P < 0)[0])
            raise MalformedSystemError(f"{name} pseudoproduct undefined at {hole}")
    algebra = BiBandAlgebra(join, meet, sys.groupoid.inv)
    algebra._derived = sys._reports.get(verify_derived_identities.__name__)
    return algebra
