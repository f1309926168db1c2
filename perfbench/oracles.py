"""Scalar reference checks the benchmark applies to the program's outputs.

Each oracle works on plain nested lists, one cell at a time, and shares no
code with the package, so a defect in a vectorised checker cannot hide
behind the same defect here.  Algebras are given as (join, meet, star) with
join and meet square tables and star a list, all over 0..n-1.
"""

from __future__ import annotations


def preserves_operations(mapping, a, b) -> bool:
    """True when `mapping` is a bijection a -> b that carries join, meet and
    star of algebra a onto those of algebra b."""
    join_a, meet_a, star_a = a
    join_b, meet_b, star_b = b
    n = len(star_a)
    if len(star_b) != n or sorted(mapping) != list(range(n)):
        return False
    for s in range(n):
        fs = mapping[s]
        if mapping[star_a[s]] != star_b[fs]:
            return False
        for t in range(n):
            ft = mapping[t]
            if mapping[join_a[s][t]] != join_b[fs][ft]:
                return False
            if mapping[meet_a[s][t]] != meet_b[fs][ft]:
                return False
    return True


def anti_automorphism_witness_exists(join, meet, star) -> bool:
    """Is there a pair with (s∧t)* ≠ t*∧s* or (s∨t)* ≠ t*∨s*?"""
    n = len(star)
    for s in range(n):
        for t in range(n):
            if star[meet[s][t]] != meet[star[t]][star[s]]:
                return True
            if star[join[s][t]] != join[star[t]][star[s]]:
                return True
    return False


def algebra_violation(join, meet, star) -> str | None:
    """Name of the first law the algebra breaks, or None.

    Checks only laws every passing algebra satisfies: s** = s,
    (s∧s*)∧s = s, (s∨s*)∨s = s and associativity of both operations.  A
    table that breaks one of them must be rejected by the program; one that
    breaks none may still fail one of the program's further axioms.
    """
    n = len(star)
    for s in range(n):
        if star[star[s]] != s:
            return "star_involution"
        if meet[meet[s][star[s]]][s] != s:
            return "regularity_meet"
        if join[join[s][star[s]]][s] != s:
            return "regularity_join"
    for name, op in (("assoc_join", join), ("assoc_meet", meet)):
        for s in range(n):
            row = op[s]
            for t in range(n):
                st = row[t]
                for u in range(n):
                    if op[st][u] != row[op[t][u]]:
                        return name
    return None
