"""Algebras of signature (2,2,1): two total products sharing one involution.

The intended instances carry two associative operations (written join and
meet) and a star with s∨s* = s∧s*, absorption laws that generalize the skew
lattice identities to non-idempotent elements, and a conditional composition
axiom. Construction validates shapes and ranges only; check_axioms produces
one flag per axiom so corrupted tables can be diagnosed, and check_skehr
covers the derived plus/minus calculus.

Conventions: s⁺ = s∧s* and s⁻ = s*∧s, elementwise total operations on index
arrays throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import SkeletonNotClosedError
from .report import AxiomReport
from .tables import OperationTable, SkewLatticeTable, check_skew_lattice, frozen, padded, right_ideals

__all__ = [
    "BiBandAlgebra",
    "anti_automorphism_witness",
    "check_axioms",
    "check_skehr",
    "idempotent_skeleton",
    "inverses_of",
    "plus_minus",
    "skehr_statement_flags",
]


class BiBandAlgebra:
    """Carrier 0..n-1 with join/meet tables and a star map."""

    def __init__(self, join, meet, star):
        self.join = join if isinstance(join, OperationTable) else OperationTable(join)
        self.meet = meet if isinstance(meet, OperationTable) else OperationTable(meet)
        if self.join.order != self.meet.order:
            raise ValueError(
                f"join order {self.join.order} != meet order {self.meet.order}"
            )
        star = frozen(star)
        if star.shape != (self.join.order,):
            raise ValueError(f"star must have shape ({self.join.order},)")
        if star.size and (star.min() < 0 or star.max() >= self.join.order):
            raise ValueError("star entries out of range")
        self.star = star

    @property
    def order(self) -> int:
        return self.join.order

    def __eq__(self, other):
        if not isinstance(other, BiBandAlgebra):
            return NotImplemented
        return (
            self.join == other.join
            and self.meet == other.meet
            and np.array_equal(self.star, other.star)
        )

    def __hash__(self):
        return hash((self.join, self.meet, bytes(self.star.tobytes())))

    def __repr__(self):
        return f"BiBandAlgebra(order={self.order})"


def check_axioms(S: BiBandAlgebra) -> AxiomReport:
    """One flag per axiom: associativity of both operations, the involution,
    agreement and star-fixedness of the positive part, regularity, star on
    idempotents, the four generalized absorption laws, the four idempotent
    prefix/suffix laws, and the conditional composability consequences."""
    report = AxiomReport("biband axioms")
    jt, mt, st = S.join.array, S.meet.array, S.star
    n = S.order
    idx = np.arange(n)

    for name, t in (("assoc_join", jt), ("assoc_meet", mt)):
        report.record_mask(name, t[t, :] == t[:, t])

    report.record_mask("star_involution", st[st] == idx)

    pos_join = jt[idx, st]
    pos_meet = mt[idx, st]
    report.record_mask("positive_parts_agree", pos_join == pos_meet)
    report.record_mask("positive_part_fixed", st[pos_meet] == pos_meet)

    report.record_mask("regularity_join", jt[pos_join, idx] == idx)
    report.record_mask("regularity_meet", mt[pos_meet, idx] == idx)

    idem = mt[idx, idx] == idx
    report.record_mask("idempotent_self_star_meet", ~idem | (st == idx))
    idem = jt[idx, idx] == idx
    report.record_mask("idempotent_self_star_join", ~idem | (st == idx))

    neg_join = jt[st, idx]
    neg_meet = mt[st, idx]

    # s∨s*∨(s∧t*∧t) = s and the meet/lateral variants
    inner = mt[mt[idx[:, None], st[None, :]], idx[None, :]]
    report.record_mask("absorb_join_meet", jt[pos_join[:, None], inner] == idx[:, None])
    inner = jt[jt[idx[:, None], st[None, :]], idx[None, :]]
    report.record_mask("absorb_meet_join", mt[pos_meet[:, None], inner] == idx[:, None])
    inner = mt[pos_meet[None, :], idx[:, None]]
    report.record_mask("absorb_meet_then_join", jt[inner, neg_join[:, None]] == idx[:, None])
    inner = jt[pos_join[None, :], idx[:, None]]
    report.record_mask("absorb_join_then_meet", mt[inner, neg_meet[:, None]] == idx[:, None])

    # (e∨t)∨t* = (e∨t)∨(e∨t)* for e = s∨s*, plus meet and suffix variants
    y = jt[pos_join[:, None], idx[None, :]]
    report.record_mask("domain_prefix_join", jt[y, st[None, :]] == jt[y, st[y]])
    y = mt[pos_meet[:, None], idx[None, :]]
    report.record_mask("domain_prefix_meet", mt[y, st[None, :]] == mt[y, st[y]])
    y = jt[idx[None, :], neg_join[:, None]]
    report.record_mask("range_suffix_join", jt[st[None, :], y] == jt[st[y], y])
    y = mt[idx[None, :], neg_meet[:, None]]
    report.record_mask("range_suffix_meet", mt[st[None, :], y] == mt[st[y], y])

    # s*∨s = t∨t* forces the endpoint idempotents of both products
    hyp = neg_join[:, None] == pos_join[None, :]
    prod = jt[idx[:, None], idx[None, :]]
    law = jt[prod, st[prod]] == pos_join[:, None]
    report.record_mask("composable_positive_join", ~hyp | law)
    law = jt[st[prod], prod] == neg_join[None, :]
    report.record_mask("composable_negative_join", ~hyp | law)
    prod = mt[idx[:, None], idx[None, :]]
    law = mt[prod, st[prod]] == pos_meet[:, None]
    report.record_mask("composable_positive_meet", ~hyp | law)
    law = mt[st[prod], prod] == neg_meet[None, :]
    report.record_mask("composable_negative_meet", ~hyp | law)
    return report


def skehr_statement_flags(report: AxiomReport, prefix: str, op, star) -> None:
    """The five plus/minus statements for one operation, recorded as
    {prefix}_i .. {prefix}_v. Accepts -1 holes in op (treated as undefined,
    which fails any equation touching them) so partially built products can
    be interrogated too."""
    op = np.asarray(op, dtype=np.int64)
    star = np.asarray(star, dtype=np.int64)
    m = op.shape[0]
    idx = np.arange(m)
    op_p = padded(op)
    plus = op_p[idx, star]
    minus = op_p[star, idx]
    plus_p, minus_p = padded(plus), padded(minus)

    ok = (
        (op_p[plus, plus] == plus)
        & (plus_p[plus] == plus)
        & (minus_p[plus] == plus)
        & (op_p[minus, minus] == minus)
        & (minus_p[minus] == minus)
        & (plus_p[minus] == minus)
        & (plus >= 0)
        & (minus >= 0)
    )
    report.record_mask(f"{prefix}_i", ok)

    report.record_mask(f"{prefix}_ii", (op_p[plus, idx] == idx) & (op_p[idx, minus] == idx))

    idem = op[idx, idx] == idx
    report.record_mask(f"{prefix}_iii", ~idem | ((plus == idx) & (minus == idx)))

    lhs = plus_p[op]
    rhs = plus_p[op_p[idx[:, None], plus[None, :]]]
    ok = (lhs == rhs) & (lhs >= 0)
    lhs = minus_p[op]
    rhs = minus_p[op_p[minus[:, None], idx[None, :]]]
    ok &= (lhs == rhs) & (lhs >= 0)
    report.record_mask(f"{prefix}_iv", ok)

    lhs = plus_p[op_p[plus[:, None], idx[None, :]]]
    rhs = op_p[plus[:, None], plus[None, :]]
    ok = (lhs == rhs) & (lhs >= 0)
    lhs = minus_p[op_p[idx[:, None], minus[None, :]]]
    rhs = op_p[minus[:, None], minus[None, :]]
    ok &= (lhs == rhs) & (lhs >= 0)
    report.record_mask(f"{prefix}_v", ok)


def greens_r(op: np.ndarray) -> np.ndarray:
    member = right_ideals(op)
    return (member[:, None, :] == member[None, :, :]).all(axis=2)


def greens_l(op: np.ndarray) -> np.ndarray:
    return greens_r(op.T)


def check_skehr(S: BiBandAlgebra) -> AxiomReport:
    """The plus/minus calculus for both operations, the Green's-relation
    positions of s⁺, s⁻ and s*, and uniqueness of star as the inverse
    sitting at those positions."""
    report = AxiomReport("plus minus calculus")
    mt, st = S.meet.array, S.star
    n = S.order
    idx = np.arange(n)
    skehr_statement_flags(report, "skehr_meet", mt, st)
    skehr_statement_flags(report, "skehr_join", S.join.array, st)

    plus = mt[idx, st]
    minus = mt[st, idx]
    report.record_mask("star_swaps_sides", (mt[st, st[st]] == minus) & (mt[st[st], st] == plus))

    r_rel = greens_r(mt)
    l_rel = greens_l(mt)
    ok = (
        r_rel[plus, idx]
        & l_rel[idx, minus]
        & l_rel[plus, st]
        & r_rel[st, minus]
    )
    report.record_mask("green_positions", ok)

    # x is an inverse of s when s∧x∧s = s and x∧s∧x = x
    t1 = mt[mt, idx[:, None]]
    t2 = mt[mt.T, idx[None, :]]
    inverse_pair = (t1 == idx[:, None]) & (t2 == idx[None, :])
    located = inverse_pair & l_rel[plus[:, None], idx[None, :]] & r_rel[idx[None, :], minus[:, None]]
    unique = located.sum(axis=1) == 1
    at_star = located[idx, st]
    report.record_mask("star_unique_inverse", unique & at_star)
    return report


def plus_minus(S: BiBandAlgebra, s: int) -> tuple[int, int]:
    """(s⁺, s⁻) = (s∧s*, s*∧s)."""
    mt, st = S.meet.array, S.star
    return int(mt[s, st[s]]), int(mt[st[s], s])


def inverses_of(S: BiBandAlgebra, s: int) -> list[int]:
    """All x with s∧x∧s = s and x∧s∧x = x."""
    mt = S.meet.array
    return [
        x
        for x in range(S.order)
        if mt[mt[s, x], s] == s and mt[mt[x, s], x] == x
    ]


def idempotent_skeleton(S: BiBandAlgebra) -> tuple[SkewLatticeTable, tuple[int, ...]]:
    """The idempotents with both operations restricted to them.

    Requires the meet- and join-idempotents to coincide, the set to be
    closed under both operations, and the restriction to satisfy the skew
    lattice laws; any failure raises SkeletonNotClosedError since each
    signals a non-orthodox input.
    """
    jt, mt = S.join.array, S.meet.array
    idx = np.arange(S.order)
    e_meet = mt[idx, idx] == idx
    e_join = jt[idx, idx] == idx
    if not np.array_equal(e_meet, e_join):
        bad = int(np.argmax(e_meet != e_join))
        raise SkeletonNotClosedError(
            f"element {bad} is idempotent for one operation only"
        )
    elements = tuple(int(v) for v in idx[e_meet])
    local = {v: i for i, v in enumerate(elements)}
    k = len(elements)
    sub_meet = [[0] * k for _ in range(k)]
    sub_join = [[0] * k for _ in range(k)]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            for table, sub in ((mt, sub_meet), (jt, sub_join)):
                v = int(table[a, b])
                if v not in local:
                    raise SkeletonNotClosedError(
                        f"product of idempotents {a}, {b} gives non-idempotent {v}"
                    )
                sub[i][j] = local[v]
    skeleton = SkewLatticeTable(sub_meet, sub_join)
    report = check_skew_lattice(skeleton)
    if not report.ok:
        raise SkeletonNotClosedError(
            f"idempotents violate skew lattice law {report.first_failure().name}"
        )
    return skeleton, elements


def anti_automorphism_witness(S: BiBandAlgebra):
    """A pair (s, t) with (s∧t)* ≠ t*∧s* or (s∨t)* ≠ t*∨s*, else None."""
    st = S.star
    for name, table in (("meet", S.meet.array), ("join", S.join.array)):
        flipped = table[st[:, None], st[None, :]].T
        bad = st[table] != flipped
        if bad.any():
            s, t = np.argwhere(bad)[0]
            return int(s), int(t)
    return None
