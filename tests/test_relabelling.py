"""Renaming the elements of a structure changes no checker verdict, and
conjugates its automorphism group."""

import numpy as np
from hypothesis import settings, given, strategies as st

from skewalg import (
    BiBandAlgebra,
    SkewLatticeTable,
    automorphisms_of,
    check_axioms,
    check_skehr,
    check_skew_lattice,
)

from oracles import relabel, relabel_unary


def _verdicts(report):
    """Each flag's ok.  Witnesses are not compared: the first failing index
    in row-major order is not carried along by a renaming."""
    return {name: check["ok"] for name, check in report.to_dict()["checks"].items()}


def _mutant(data, tables):
    """The tables with one drawn entry of one drawn table changed."""
    tables = [np.array(t) for t in tables]
    t = data.draw(st.sampled_from(tables))
    cell = tuple(data.draw(st.integers(0, k - 1)) for k in t.shape)
    t[cell] = (t[cell] + data.draw(st.integers(1, len(t) - 1))) % len(t)
    return tables


def _draw_tables(data, tables):
    """The tables as they are or, for orders above 1, as a mutant."""
    if len(tables[0]) > 1 and data.draw(st.booleans()):
        return _mutant(data, tables)
    return tables


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_renaming_keeps_every_skew_lattice_verdict(suite, data):
    lattice = data.draw(st.sampled_from(suite)).action.lattice
    meet, join = _draw_tables(data, [lattice.meet.array, lattice.join.array])
    perm = data.draw(st.permutations(range(len(meet))))
    moved = SkewLatticeTable(relabel(meet, perm), relabel(join, perm))
    assert _verdicts(check_skew_lattice(moved)) == _verdicts(check_skew_lattice(SkewLatticeTable(meet, join)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_renaming_keeps_every_algebra_verdict(suite, data):
    S = data.draw(st.sampled_from(suite)).algebra
    join, meet, star = _draw_tables(data, [S.join.array, S.meet.array, S.star])
    perm = data.draw(st.permutations(range(len(star))))
    original = BiBandAlgebra(join, meet, star)
    moved = BiBandAlgebra(relabel(join, perm), relabel(meet, perm), relabel_unary(star, perm))
    for checker in (check_axioms, check_skehr):
        assert _verdicts(checker(moved)) == _verdicts(checker(original))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_automorphisms_of_a_renamed_algebra_are_the_conjugates(suite, data):
    """Aut(πS) = {π∘α∘π⁻¹ : α in Aut(S)}, on suite algebras of every order
    up to 24, where no permutation oracle reaches."""
    S = data.draw(st.sampled_from(suite)).algebra
    perm = data.draw(st.permutations(range(S.order)))
    moved = BiBandAlgebra(
        relabel(S.join.array, perm), relabel(S.meet.array, perm), relabel_unary(S.star, perm)
    )
    inverse = np.argsort(perm)
    conjugates = sorted(tuple(perm[a[y]] for y in inverse) for a in automorphisms_of(S))
    assert automorphisms_of(moved) == conjugates
