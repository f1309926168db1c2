"""Census of every (2,2,1)-algebra of a small order, one per isomorphism class.

The search is the package's one table fill, with masks that state laws of
check_axioms as data, so that they only prune:

- one star per number of 2-cycles, (0 1)(2 3)... ;
- a cell (s, s) holds s only where s* = s (idempotent_self_star_*), and a
  meet cell (s, s*) holds only star-fixed values (positive_part_fixed);
- the meets kept are regular, (s∧s*)∧s = s (regularity_meet), and one per
  class of (meet, star);
- a join cell (s, s*) holds the meet's value there (positive_parts_agree).

Every (meet, join, star) candidate that passes check_axioms is kept, and the
classes are the distinct least relabellings of (join, meet, star).

orbit_sum gives the labelled count a list of classes stands for, by the
orbit–stabiliser theorem; labelled_count counts the labelled algebras
themselves, from the same fill without the reduction to classes.

Run as a script, ``python3 tests/census.py N COUNT`` takes the census of
order N and exits 1 unless it finds COUNT classes, equal to the model
suite's algebras of order N as sets of canonical keys; a class that fails
either round trip raises.
"""

import sys
from fractions import Fraction
from math import factorial

import numpy as np

from skewalg import (
    BiBandAlgebra, automorphisms_of, check_axioms, generate_model_suite, reconstruct, roundtrip_algebra,
    roundtrip_groupoid,
)
from skewalg.enumeration import _classes, _fill
from skewalg.isomorphism import canonical_tables


def stars(n):
    """One involution of range(n) per number k of 2-cycles, swapping 2i and
    2i + 1 for i < k, as a (n // 2 + 1, n) stack."""
    out = np.tile(np.arange(n), (n // 2 + 1, 1))
    for k, star in enumerate(out):
        star[: 2 * k] ^= 1
    return out


def _masks(stars):
    """allowed[r, s, t, v] under star r, with cell (s, s) holding s only
    where s* = s, and the index arrays (r, s, s*) of the cells (s, s*)."""
    count, n = stars.shape
    idx = np.arange(n)
    allowed = np.ones((count, n, n, n), dtype=bool)
    allowed[:, idx, idx, idx] = stars == idx
    return allowed, (np.arange(count)[:, None], idx, stars)


def _regular_meets(n):
    """(meets, swaps): every regular meet the fill keeps under each star of
    stars(n), labelled, with the number of 2-cycles of its star."""
    idx, star = np.arange(n), stars(n)
    allowed, pos = _masks(star)
    allowed[pos] &= (star == idx)[:, None]
    swaps, meets = _fill(allowed)
    star = star[swaps]
    k = np.arange(len(meets))[:, None]
    regular = (meets[k, meets[k, idx, star], idx] == idx).all(axis=1)
    return meets[regular], swaps[regular]


def _algebras(meets, star):
    """(joins, roots): every join over meets[r] under star[r] such that the
    three tables pass check_axioms, with its r."""
    idx = np.arange(meets.shape[1])
    allowed, pos = _masks(star)
    allowed[pos] = meets[pos][..., None] == idx
    roots, joins = _fill(allowed)
    ok = np.array([check_axioms(BiBandAlgebra(j, meets[r], star[r])).ok for r, j in zip(roots, joins)], dtype=bool)
    return joins[ok], roots[ok]


def census(n):
    """One BiBandAlgebra per isomorphism class of order n, in increasing
    order of canonical key: its join, meet and star least relabelled."""
    meets, swaps = _regular_meets(n)
    meets, star = _classes(n, [meets], [stars(n)[swaps]])
    joins, roots = _algebras(meets, star)
    joins, meets, star = _classes(n, [joins, meets[roots]], [star[roots]])
    return [BiBandAlgebra(*algebra) for algebra in zip(joins, meets, star)]


def labelled_count(n):
    """The number of (2,2,1)-algebras on 0..n-1 over every involution: the
    census fill without its reduction to classes, each algebra under the
    star with k 2-cycles weighted by the number of involutions with k
    2-cycles, n!/(k! 2^k (n - 2k)!), since relabelling carries the algebras
    under one star onto those under any star of its cycle type."""
    meets, swaps = _regular_meets(n)
    swaps = swaps[_algebras(meets, stars(n)[swaps])[1]]
    return sum(factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k)) for k in swaps.tolist())


def algebra_keys(algebras):
    """The set of canonical keys of algebras of one order, as tuples."""
    if not algebras:
        return set()
    n = algebras[0].order
    tables = [[a.join.array for a in algebras], [a.meet.array for a in algebras]]
    return set(map(tuple, canonical_tables(n, tables, [[a.star for a in algebras]]).tolist()))


def orbit_sum(n, classes):
    """Σ n!/|Aut(C)| over the classes C of order n: each class has that many
    labellings on 0..n-1, so the sum is the labelled count when the classes
    are distinct and complete and each automorphism group is right.  An
    exact fraction, so an automorphism list whose size does not divide n!
    shows as a sum that is no integer."""
    return sum(Fraction(factorial(n), len(automorphisms_of(c))) for c in classes)


def main(argv):
    n, expected = map(int, argv[1:3])
    classes = census(n)
    suite = [inst.algebra for inst in generate_model_suite() if inst.algebra.order == n]
    same = algebra_keys(classes) == algebra_keys(suite)
    for algebra in classes:
        roundtrip_algebra(algebra)
        roundtrip_groupoid(reconstruct(algebra))
    print("order", n, "classes", len(classes), "suite classes", len(suite), "equal", same)
    return 0 if same and len(classes) == len(suite) == expected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
