#!/usr/bin/env python3
"""Build a semidirect product algebra from a group acting on a skew lattice.

The two-element cyclic group flips the two sides of a rectangular skew
lattice; the product carries a star operation whose fixed points are the
idempotents (identity, a).
"""

import skewalg as sk

C2 = sk.cyclic_group(2)
B = sk.enumerate_skew_lattices(2)[2]          # right rectangular on {0, 1}
action = sk.GroupAction(C2, B, [[0, 1], [1, 0]])
print("action valid:", sk.check_action(action).ok)

S = sk.semidirect_algebra(action)
nb = B.order  # element u*|B| + a of S is the pair (u, a)
print(f"|S| = {S.order}  (pairs (u, a) with u in C2, a in B)")

for s in range(S.order):
    u, a = divmod(s, nb)
    star_u, star_a = divmod(int(S.star[s]), nb)
    print(f"  ({u},{a})* = ({star_u},{star_a})   inverses: "
          f"{[divmod(t, nb) for t in sk.inverses_of(S, s)]}")

skeleton, elements = sk.idempotent_skeleton(S)
print("idempotents:", [divmod(e, nb) for e in elements])
print("skeleton isomorphic to the base:",
      sk.find_isomorphism(skeleton, B) is not None)

w = sk.anti_automorphism_witness(S)
if w is None:
    print("star is an anti-automorphism here")
else:
    s, t = w
    lhs = int(S.star[S.meet(s, t)])
    rhs = S.meet(int(S.star[t]), int(S.star[s]))
    print(f"star is NOT an anti-automorphism: (s meet t)* = {divmod(lhs, nb)} "
          f"but t* meet s* = {divmod(rhs, nb)} for s={divmod(s, nb)}, t={divmod(t, nb)}")

for s in range(S.order):
    pos, neg = sk.plus_minus(S, s)
    print(f"  s={divmod(s, nb)}  s+ = {divmod(pos, nb)}  s- = {divmod(neg, nb)}")

suite = sk.generate_model_suite()
print(f"\nthe full desk-scale suite holds {len(suite)} pairwise distinct models")
print("first few:", ", ".join(inst.name for inst in suite[:6]))
