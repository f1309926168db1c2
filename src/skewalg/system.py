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
preorders (SkewLatticeTable.preorders), and the system derives its two
pseudoproducts (_pseudoproducts) and both sides together (_sides), each
with its two total operations (a∧g and g∧a, or a∨g and g∨a). A system read
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
every law with an order dual is written once for both records. The right
hand (restR, extR) is the left hand of the opposite system, which swaps dom
and cod and reverses composition and the object operations, so each
one-handed law is written once, in left form, and read on the left operator
and on the transposed right one (check_structure, _left_laws).
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


def _left_laws(T_p, T, op, rel, preorder, near_p, far_p, comp, comp_p, e, e_p) -> list:
    """The masks of the six one-handed postulates in left form: identity
    (g), preorder (a, b), transitivity (a, b, g), composition (a, f, g),
    chaining (a, b, g) and endpoint (a, g). T[a, g] (padded T_p) moves the
    near end of g to a; comments read restL, near dom and far cod."""
    n, m = T.shape
    near, idx_m = near_p[:-1], np.arange(m)
    masks = [T[near, idx_m] == idx_m]

    # a leL b  =>  _a|i_b = i_(a∧b), which is i_a
    masks.append(~preorder | equal(T_p[:n].take(e, 1), e_p[op]))

    # the chaining equation's two sides, which transitivity reuses:
    # chain[a, b, g] = (a∧b)∧g, nested[a, b, g] = a∧(b∧g)
    chain, nested = T.take(op, 0), T_p[:n].take(T, 1)
    # a leL b leL dom g  =>  _a|g = _(a∧b)|g = _a|(_b|g)
    hyp = rel[:, :, None] & rel.take(near, 1)[None, :, :]
    x = T[:, None, :]
    masks.append(~hyp | ((x == chain) & equal(x, nested)))

    # _a|(f∘g) = (_a|f)∘(_(cod _a|f)|g)
    lhs, rhs = T_p[:n].take(comp, 1), comp_p[T[:, :, None], T_p[:, :m].take(far_p[T], 0)]
    masks.append(~(comp >= 0)[None, :, :] | equal(lhs, rhs))

    # (a∧b)∧g = a∧(b∧g), all tuples, and dom(a∧g) = a∧dom g
    masks.append(equal(chain, nested))
    masks.append(equal(near_p[T], op.take(near, 1)))
    return masks


def _order_axioms(sys: RestrictionSystem, side: _Side) -> AxiomReport:
    """The postulates of one side in left then right form, then
    compatibility. The right form is the left form (_left_laws) on the
    opposite system, where g∧a reads a∧g: Rᵀ over cod→dom, with compᵀ and
    opᵀ. Its composition, chaining and endpoint masks are transposed back
    to their stated axes (f, g, d), (g, a, b) and (g, a). The join side
    reads ∨ for ∧ and ge for le; its preorder flags read the lateral
    relations (see _Side)."""
    g = sys.groupoid
    dom_p, cod_p, _, comp_p, e_p = g.padded
    op, e = side.table, g.identity_of
    Rt_p = np.ascontiguousarray(side.R_p.T)  # Rt_p[a, g] = g∧a
    L, Rt = _core(side.L_p), _core(Rt_p)
    left = _left_laws(side.L_p, L, op, side.order[0], side.preorder[0], dom_p, cod_p, g.comp, comp_p, e, e_p)
    right = _left_laws(Rt_p, Rt, op.T, side.order[1], side.preorder[1], cod_p, dom_p, g.comp.T, comp_p.T, e, e_p)
    right[3:] = [mask.T for mask in right[3:]]
    names = [(f"{side.left}_{law}", f"{side.right}_{law}")
             for law in ("identity", "preorder", "transitivity", "composition")]
    names += [(f"{side.op}_{law}_left", f"{side.op}_{law}_right") for law in ("chain", "endpoint")]
    checks = []
    for (lname, rname), lmask, rmask in zip(names, left, right):
        checks += [flag(lname, lmask), flag(rname, rmask)]

    # (a∧f)∧b = a∧(f∧b)
    lhs, rhs = side.R_p[:, :-1].take(L, 0), side.L_p[:-1].take(Rt.T, 1)
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
    idx_n, idx_m = np.arange(sys.object_count), np.arange(sys.morphism_count)
    dom, cod = sys.groupoid.dom, sys.groupoid.cod
    inv, e = sys.groupoid.inv, sys.groupoid.identity_of
    e_p = sys.groupoid.padded[4]
    meet, join = sys._sides
    (mr, mc), (je, jc) = [(_core(s.L_p), _core(s.R_p)) for s in (meet, join)]

    # f = (a∧f)∨(f*f): restrict to a, then coextend back up to cod f; and
    # its lateral, f = (ff*)∨(f∧a). The order duals read the same two
    # expressions with the sides swapped: f = (a∨f)∧(f*f), f = (ff*)∧(f∨a)
    (meet_join, lateral), (order_dual, order_lateral) = [
        (back.R_p[L, cod[None, :]] == idx_m[None, :], back.L_p[dom[None, :], R.T] == idx_m[None, :])
        for (L, R), back in (((mr, mc), join), ((je, jc), meet))
    ]

    # equivalently ff* = (a∧f)∨f*: join pseudoproduct with the inverse
    pseudo = equal(join.P_p[mr, inv[None, :]], e_p[dom][None, :])

    # on identity morphisms the axiom degenerates to skew-lattice absorption
    absorption = equal(join.R_p[meet.L_p[:-1].take(e, 1), idx_n[None, :]], e[None, :])
    return AxiomReport("linking axiom", list(map(
        flag,
        ("linking_meet_join", "linking_equiv_pseudo", "linking_lateral", "linking_order_dual",
         "linking_order_lateral", "idempotent_absorption"),
        (meet_join, pseudo, lateral, order_dual, order_lateral, absorption),
    )))


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
    # (s∧t)+∧s = s∧t+, and its right form t∧(s∧t)- = s-∧t: the left form on
    # the opposite product pmᵀ, where s+ reads s-, with the mask transposed
    for hand, P_p, P, up_p, law, back in (
        ("left", pm_p, pm, plus_p, "(s∧t)+∧s = s∧t+", np.asarray),
        ("right", pm_p.T, pm.T, minus_p, "t∧(s∧t)- = s-∧t", np.transpose),
    ):
        mask = back(equal(P_p[up_p[P], idx_m[:, None]], P_p[:m].take(up_p[:-1], 1)))
        note = f"{law}: holds only over a semilattice of objects"
        checks.append(flag(f"obs_restriction_identity_{hand}", mask, required=False, note=note))
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
