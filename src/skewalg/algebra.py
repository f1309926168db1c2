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
from .report import AxiomReport, flag
from .tables import (
    OperationTable, SkewLatticeTable, _ByValue, check_skew_lattice, checked_index, equal, frozen, greens_l,
    greens_r, out_of_range, padded,
)

__all__ = [
    "BiBandAlgebra",
    "anti_automorphism_witness",
    "check_axioms",
    "check_skehr",
    "idempotent_skeleton",
    "inverses_of",
    "plus_minus",
]


class BiBandAlgebra(_ByValue):
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
        if out_of_range(star, 0, self.join.order):
            raise ValueError("star entries out of range")
        self.star = star
        # the derived-identities report of the system whose pseudoproducts
        # these tables are, kept as it is, or None (see build_algebra)
        self._derived = None

    @property
    def order(self) -> int:
        return self.join.order

    def _values(self):
        return self.join.array, self.meet.array, self.star

    def __repr__(self):
        return f"BiBandAlgebra(order={self.order})"


def check_axioms(S: BiBandAlgebra) -> AxiomReport:
    """One flag per axiom: associativity of both operations, the involution,
    agreement and star-fixedness of the positive part, regularity, star on
    idempotents, the four generalized absorption laws, the four idempotent
    prefix/suffix laws, the conditional composability consequences, and the
    agreement of both products on composable pairs.  assoc_* and
    regularity_* are the system's own checks when build_algebra made S
    after the system's derived identities ran; all else is computed here."""
    checks = []
    kept = S._derived
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
        checks.append(kept[f"assoc_{k}"] if kept else flag(f"assoc_{k}", t.take(t, 0) == t.take(t, 1)))

    checks.append(flag("star_involution", st[st] == idx))

    checks.append(flag("positive_parts_agree", pos["join"] == pos["meet"]))
    checks.append(flag("positive_part_fixed", st[pos["meet"]] == pos["meet"]))

    for k, t in ops.items():
        checks.append(kept[f"regularity_{k}"] if kept else flag(f"regularity_{k}", t[pos[k], idx] == idx))

    for k in ("meet", "join"):
        idem = ops[k].diagonal() == idx
        checks.append(flag(f"idempotent_self_star_{k}", ~idem | (st == idx)))

    # s∨s*∨(s∧t*∧t) = s
    for k, t in ops.items():
        d = ops[dual[k]]
        inner = d[d.take(st, 1), idx[None, :]]
        checks.append(flag(f"absorb_{k}_{dual[k]}", t[pos[k][:, None], inner] == idx[:, None]))
    # (t∧t*∧s)∨s*∨s = s
    for k, t in ops.items():
        inner = ops[dual[k]].take(pos[dual[k]], 0).T
        checks.append(flag(f"absorb_{dual[k]}_then_{k}", t[inner, neg[k][:, None]] == idx[:, None]))

    # (e∨t)∨t* = (e∨t)∨(e∨t)* for e = s∨s*, and the suffix form
    for k, t in ops.items():
        y = t.take(pos[k], 0)
        checks.append(flag(f"domain_prefix_{k}", t[y, st[None, :]] == t[y, st[y]]))
    for k, t in ops.items():
        y = t.take(neg[k], 1).T
        checks.append(flag(f"range_suffix_{k}", t[st[None, :], y] == t[st[y], y]))

    # s*∨s = t∨t* forces the endpoint idempotents of both products
    hyp = neg["join"][:, None] == pos["join"][None, :]
    for k, t in ops.items():
        checks.append(flag(f"composable_positive_{k}", ~hyp | (t[t, st[t]] == pos[k][:, None])))
        checks.append(flag(f"composable_negative_{k}", ~hyp | (t[st[t], t] == neg[k][None, :])))
    # and on composable pairs s∧t = s∨t, the composite reconstruct reads
    checks.append(flag("composable_products_agree", ~hyp | (ops["meet"] == ops["join"])))
    return AxiomReport("biband axioms", checks)


def skehr_statement_flags(prefix: str, op_p, star) -> tuple[list, np.ndarray, np.ndarray]:
    """The five plus/minus statements for one operation, as the checks
    {prefix}_i .. {prefix}_v, given the operation's padded table op_p
    (tables.padded).  Accepts -1 holes in the table (treated as undefined,
    which fails any equation touching them) so partially built products can
    be interrogated too.  Returns the checks, the padded plus s∘s* and the
    padded minus s*∘s."""
    star = np.asarray(star, dtype=np.int64)
    op = op_p[:-1, :-1]
    idx = np.arange(len(op))
    plus = op_p[idx, star]
    minus = op_p[star, idx]
    plus_p, minus_p = padded(plus), padded(minus)
    checks = []

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
    checks.append(flag(f"{prefix}_i", ok))

    checks.append(flag(f"{prefix}_ii", (op_p[plus, idx] == idx) & (op_p[idx, minus] == idx)))

    idem = op.diagonal() == idx
    checks.append(flag(f"{prefix}_iii", ~idem | ((plus == idx) & (minus == idx))))

    ok = equal(plus_p[op], plus_p[op_p[:-1].take(plus, 1)])
    ok &= equal(minus_p[op], minus_p[op_p[:, :-1].take(minus, 0)])
    checks.append(flag(f"{prefix}_iv", ok))

    ok = equal(plus_p[op_p[:, :-1].take(plus, 0)], op_p.take(plus, 0).take(plus, 1))
    ok &= equal(minus_p[op_p[:-1].take(minus, 1)], op_p.take(minus, 0).take(minus, 1))
    checks.append(flag(f"{prefix}_v", ok))
    return checks, plus_p, minus_p


def _inverse_pairs(mt: np.ndarray) -> np.ndarray:
    """pair[s, x]: x is an inverse of s, s∧x∧s = s and x∧s∧x = x."""
    idx = np.arange(len(mt))
    return (mt[mt, idx[:, None]] == idx[:, None]) & (mt[mt.T, idx[None, :]] == idx[None, :])


def check_skehr(S: BiBandAlgebra) -> AxiomReport:
    """The plus/minus calculus for both operations, the Green's-relation
    positions of s⁺, s⁻ and s*, and uniqueness of star as the inverse
    sitting at those positions.  skehr_meet_* and skehr_join_* are the
    system's own checks when build_algebra made S after the system's
    derived identities ran; all else is computed here."""
    mt, st = S.meet.array, S.star
    n = S.order
    idx = np.arange(n)
    plus, minus = mt[idx, st], mt[st, idx]
    if S._derived:
        checks = [c for c in S._derived.checks() if c.name.startswith("skehr_")]
    else:
        checks = skehr_statement_flags("skehr_meet", padded(mt), st)[0]
        checks += skehr_statement_flags("skehr_join", padded(S.join.array), st)[0]
    checks.append(flag("star_swaps_sides", (mt[st, st[st]] == minus) & (mt[st[st], st] == plus)))

    r_rel = greens_r(mt)
    l_rel = greens_l(mt)
    ok = (
        r_rel[plus, idx]
        & l_rel[idx, minus]
        & l_rel[plus, st]
        & r_rel[st, minus]
    )
    checks.append(flag("green_positions", ok))

    located = _inverse_pairs(mt) & l_rel.take(plus, 0) & r_rel.take(minus, 1).T
    unique = located.sum(axis=1) == 1
    at_star = located[idx, st]
    checks.append(flag("star_unique_inverse", unique & at_star))
    return AxiomReport("plus minus calculus", checks)


def algebra_checkers() -> list:
    """Every algebra checker as (family, checker), in report order.

    Built on each call from the module's current attributes, so a checker
    rebound after import (by a tracing wrapper, say) is the one that runs.
    """
    return [("axioms", check_axioms), ("plus_minus", check_skehr)]


def plus_minus(S: BiBandAlgebra, s: int) -> tuple[int, int]:
    """(s⁺, s⁻) = (s∧s*, s*∧s)."""
    mt, st = S.meet.array, S.star
    s = checked_index(s, S.order)
    return int(mt[s, st[s]]), int(mt[st[s], s])


def inverses_of(S: BiBandAlgebra, s: int) -> list[int]:
    """All x with s∧x∧s = s and x∧s∧x = x."""
    s = checked_index(s, S.order)
    return np.flatnonzero(_inverse_pairs(S.meet.array)[s]).tolist()


def idempotent_skeleton(S: BiBandAlgebra) -> tuple[SkewLatticeTable, tuple[int, ...]]:
    """The idempotents with both operations restricted to them.

    Requires the meet- and join-idempotents to coincide, the set to be
    closed under both operations, and the restriction to satisfy the skew
    lattice laws; any failure raises SkeletonNotClosedError since each
    signals a non-orthodox input.
    """
    jt, mt = S.join.array, S.meet.array
    idx = np.arange(S.order)
    e_meet = mt.diagonal() == idx
    e_join = jt.diagonal() == idx
    if not np.array_equal(e_meet, e_join):
        bad = int(np.argmax(e_meet != e_join))
        raise SkeletonNotClosedError(
            f"element {bad} is idempotent for one operation only"
        )
    el = idx[e_meet]
    local = np.full(S.order, -1, dtype=np.int64)  # local[v]: v's index in el, -1 off it
    local[el] = np.arange(len(el))
    # prods[i, j] = (el_i ∧ el_j, el_i ∨ el_j): row-major over (i, j, op)
    prods = np.stack((mt, jt), axis=-1).take(el, 0).take(el, 1)
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
        flipped = table.take(st, 0).take(st, 1).T
        bad = st[table] != flipped
        if bad.any():
            s, t = np.argwhere(bad)[0]
            return int(s), int(t)
    return None
