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
from .tables import (
    OperationTable, SkewLatticeTable, check_skew_lattice, checked_index, frozen, padded, right_ideals,
)

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
    st = S.star
    idx = np.arange(S.order)
    # each dual law is written once, for the product t with positive part
    # s∨s* (pos), negative part s*∨s (neg) and order dual d; comments state
    # the join form
    ops = {"join": S.join.array, "meet": S.meet.array}
    pos = {k: t[idx, st] for k, t in ops.items()}
    neg = {k: t[st, idx] for k, t in ops.items()}
    dual = {"join": "meet", "meet": "join"}

    for k, t in ops.items():
        report.record_mask(f"assoc_{k}", t[t, :] == t[:, t])

    report.record_mask("star_involution", st[st] == idx)

    report.record_mask("positive_parts_agree", pos["join"] == pos["meet"])
    report.record_mask("positive_part_fixed", st[pos["meet"]] == pos["meet"])

    for k, t in ops.items():
        report.record_mask(f"regularity_{k}", t[pos[k], idx] == idx)

    for k in ("meet", "join"):
        idem = ops[k][idx, idx] == idx
        report.record_mask(f"idempotent_self_star_{k}", ~idem | (st == idx))

    # s∨s*∨(s∧t*∧t) = s
    for k, t in ops.items():
        d = ops[dual[k]]
        inner = d[d[idx[:, None], st[None, :]], idx[None, :]]
        report.record_mask(f"absorb_{k}_{dual[k]}", t[pos[k][:, None], inner] == idx[:, None])
    # (t∧t*∧s)∨s*∨s = s
    for k, t in ops.items():
        inner = ops[dual[k]][pos[dual[k]][None, :], idx[:, None]]
        report.record_mask(f"absorb_{dual[k]}_then_{k}", t[inner, neg[k][:, None]] == idx[:, None])

    # (e∨t)∨t* = (e∨t)∨(e∨t)* for e = s∨s*, and the suffix form
    for k, t in ops.items():
        y = t[pos[k][:, None], idx[None, :]]
        report.record_mask(f"domain_prefix_{k}", t[y, st[None, :]] == t[y, st[y]])
    for k, t in ops.items():
        y = t[idx[None, :], neg[k][:, None]]
        report.record_mask(f"range_suffix_{k}", t[st[None, :], y] == t[st[y], y])

    # s*∨s = t∨t* forces the endpoint idempotents of both products
    hyp = neg["join"][:, None] == pos["join"][None, :]
    for k, t in ops.items():
        report.record_mask(f"composable_positive_{k}", ~hyp | (t[t, st[t]] == pos[k][:, None]))
        report.record_mask(f"composable_negative_{k}", ~hyp | (t[st[t], t] == neg[k][None, :]))
    return report


def skehr_statement_flags(report: AxiomReport, prefix: str, op_p, star) -> tuple[np.ndarray, np.ndarray]:
    """The five plus/minus statements for one operation, recorded as
    {prefix}_i .. {prefix}_v, given the operation's padded table op_p
    (tables.padded).  Accepts -1 holes in the table (treated as undefined,
    which fails any equation touching them) so partially built products can
    be interrogated too.  Returns the padded plus s∘s* and minus s*∘s."""
    star = np.asarray(star, dtype=np.int64)
    op = op_p[:-1, :-1]
    idx = np.arange(len(op))
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
    return plus_p, minus_p


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
    skehr_statement_flags(report, "skehr_meet", padded(mt), st)
    skehr_statement_flags(report, "skehr_join", padded(S.join.array), st)

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
    s = checked_index(s, S.order)
    return int(mt[s, st[s]]), int(mt[st[s], s])


def inverses_of(S: BiBandAlgebra, s: int) -> list[int]:
    """All x with s∧x∧s = s and x∧s∧x = x."""
    mt = S.meet.array
    s = checked_index(s, S.order)
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
    el = idx[e_meet]
    local = np.full(S.order, -1, dtype=np.int64)  # local[v]: v's index in el, -1 off it
    local[el] = np.arange(len(el))
    # prods[i, j] = (el_i ∧ el_j, el_i ∨ el_j): row-major over (i, j, op)
    prods = np.stack((mt, jt), axis=-1)[el[:, None], el[None, :]]
    sub = local[prods]
    if (sub < 0).any():
        i, j, t = np.argwhere(sub < 0)[0]
        raise SkeletonNotClosedError(
            f"product of idempotents {el[i]}, {el[j]} gives non-idempotent {prods[i, j, t]}"
        )
    skeleton = SkewLatticeTable(sub[..., 0], sub[..., 1])
    report = check_skew_lattice(skeleton)
    if not report.ok:
        raise SkeletonNotClosedError(
            f"idempotents violate skew lattice law {report.first_failure().name}"
        )
    return skeleton, tuple(el.tolist())


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
