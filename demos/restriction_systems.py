#!/usr/bin/env python3
"""Groupoids whose objects form a skew lattice, with restriction and
extension maps linking the two layers."""

import numpy as np

import skewalg as sk
from skewalg.algebra import algebra_checkers
from skewalg.system import system_checkers


def families(checkers, structure):
    for family, checker in checkers:
        rep = checker(structure)
        required = [c for c in rep.checks() if c.required]
        print(f"  {family}: ok={rep.ok} ({len(required)} required checks)")


def describe(sysm, name):
    print(f"== {name} ==")
    print(f"objects: {sysm.object_count}, morphisms: {sysm.morphism_count}")
    families(system_checkers(), sysm)


# A discrete system: only identity morphisms, everything collapses.
chain = sk.chain_lattice(3)
describe(sk.discrete_system(chain), "discrete system over a 3-chain")
print()

# The interesting case: C2 swapping the two sides of a rectangular base.
action = sk.GroupAction(
    sk.cyclic_group(2),
    sk.enumerate_skew_lattices(2)[2],
    [[0, 1], [1, 0]],
)
sysm = sk.semidirect_groupoid(action)
describe(sysm, "semidirect groupoid, C2 on rectangular 2-element base")
print()

# The pseudoproducts, the products of the system's algebra, make the
# morphism set itself a skew lattice.
m = sysm.morphism_count
algebra = sk.build_algebra(sysm)
assoc = all(
    op(op(a, b), c) == op(a, op(b, c))
    for op in (algebra.meet, algebra.join)
    for a in range(m) for b in range(m) for c in range(m)
)
print("pseudoproducts associative over all morphism triples:", assoc)

# Partial restriction table: -1 marks undefined entries.
undef = int(np.count_nonzero(sysm.restL == -1))
total = sysm.restL.size
print(f"meet-restriction is partial: {undef}/{total} entries undefined")

# build_algebra fuses groupoid composition with the object skew lattice.
S = sk.build_algebra(sysm)
print("fused algebra passes its axioms:", sk.check_axioms(S).ok)
families(algebra_checkers(), S)
print("matches the direct construction:",
      sk.find_isomorphism(S, sk.semidirect_algebra(action)) is not None)
