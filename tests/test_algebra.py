"""Two-operation algebra checks, pinned against the scalar pair oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import PairOracle, biband_axiom_witnesses, inverses_loop, plus_minus_calculus, single_cell_mutants
from skewalg import (
    BiBandAlgebra,
    SkeletonNotClosedError,
    anti_automorphism_witness,
    check_axioms,
    check_skehr,
    enumerate_skew_lattices,
    find_isomorphism,
    idempotent_skeleton,
    inverses_of,
    plus_minus,
    semidirect_algebra,
)
from skewalg.models import GROUP_CATALOG, GroupAction


def swap_instance():
    rect = enumerate_skew_lattices(2)[2]
    return GroupAction(GROUP_CATALOG["C2"], rect, [[0, 1], [1, 0]])


def oracle_of(action):
    return PairOracle(
        action.group.table.tolist(),
        action.lattice.meet.tolist(),
        action.lattice.join.tolist(),
        action.act.tolist(),
    )


def test_semidirect_tables_match_pair_oracle(suite):
    # every table entry of every suite algebra against scalar arithmetic
    for inst in suite:
        S, A = inst.algebra, inst.action
        orc = oracle_of(A)
        nb = A.lattice.order
        enc = lambda p: p[0] * nb + p[1]
        for s in orc.pairs():
            for t in orc.pairs():
                assert int(S.meet.array[enc(s), enc(t)]) == enc(orc.wedge(s, t))
                assert int(S.join.array[enc(s), enc(t)]) == enc(orc.vee(s, t))
            assert int(S.star[enc(s)]) == enc(orc.star(s))


def test_axioms_hold_on_suite(suite):
    for inst in suite:
        report = check_axioms(inst.algebra)
        assert report.ok, f"{inst.name}: {report.first_failure()}"
        assert check_skehr(inst.algebra).ok, inst.name


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_axiom_flags_and_witnesses_match_the_scalar_laws(data):
    # arbitrary tables, most of them no algebra: every flag, in report order,
    # with its first row-major witness must be the scalar oracle's
    n = data.draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    row = st.lists(cell, min_size=n, max_size=n)
    join, meet = (data.draw(st.lists(row, min_size=n, max_size=n)) for _ in range(2))
    star = data.draw(row)
    report = check_axioms(BiBandAlgebra(join, meet, star))
    expect = biband_axiom_witnesses(join, meet, star)
    assert [(c.name, c.witness) for c in report.checks()] == expect
    assert report.ok == all(witness is None for _, witness in expect)


def test_axiom_flags_match_the_scalar_laws_on_suite_and_mutants(suite):
    # passing algebras, where every hypothesis is met somewhere, and each
    # with one entry of one table changed
    rng = random.Random(1810)
    for inst in rng.sample([inst for inst in suite if inst.algebra.order <= 12], 30):
        S = inst.algebra
        tables = [S.join.array, S.meet.array, S.star]
        variants = [tables]
        for k, table in enumerate(tables):
            changed = [t.copy() for t in tables]
            changed[k][tuple(rng.randrange(d) for d in table.shape)] = rng.randrange(S.order)
            variants.append(changed)
        for join, meet, star in variants:
            report = check_axioms(BiBandAlgebra(join, meet, star))
            expect = biband_axiom_witnesses(join.tolist(), meet.tolist(), star.tolist())
            assert [(c.name, c.witness) for c in report.checks()] == expect, inst.name


def test_plus_minus_calculus_matches_the_scalar_laws_on_suite_and_mutants(suite):
    # every suite algebra, then each of order at most 4 with one entry of its
    # meet, its join or its star changed: the whole report, every witness
    # included, must be the scalar oracle's
    algebras = [(S.join.tolist(), S.meet.tolist(), S.star.tolist()) for S in (inst.algebra for inst in suite)]
    variants = list(algebras)
    for join, meet, star in (a for a in algebras if len(a[2]) <= 4):
        variants += [(join, m, star) for m in single_cell_mutants(meet)]
        variants += [(j, meet, star) for j in single_cell_mutants(join)]
        n = len(star)
        variants += [(join, meet, star[:i] + [v] + star[i + 1 :]) for i in range(n) for v in range(n) if v != star[i]]
    for join, meet, star in variants:
        assert check_skehr(BiBandAlgebra(join, meet, star)).to_dict() == plus_minus_calculus(join, meet, star)

def test_idempotents_are_identity_headed_pairs(suite):
    for inst in suite[:60]:
        S, A = inst.algebra, inst.action
        nb, e = A.lattice.order, int(A.group.identity)
        mt = S.meet.array
        idem = [s for s in range(S.order) if int(mt[s, s]) == s]
        assert idem == [e * nb + a for a in range(nb)]


def test_idempotent_skeleton_is_the_base_lattice(suite):
    for inst in suite[:60]:
        skeleton, elements = idempotent_skeleton(inst.algebra)
        assert len(elements) == inst.action.lattice.order
        assert find_isomorphism(skeleton, inst.action.lattice) is not None


@pytest.mark.parametrize("meet, join, message", [
    # 1 ∧ 1 = 1 but 1 ∨ 1 = 0
    ([[0, 0], [0, 1]], [[0, 0], [0, 0]], "element 1 is idempotent for one operation only"),
    # idempotents 0 and 1, and 0 ∧ 1 = 2
    ([[0, 2, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
     "product of idempotents 0, 1 gives non-idempotent 2"),
    # the first open cell in row-major order is named: here a join cell
    ([[0, 0, 0, 0], [2, 1, 0, 0], [0] * 4, [0] * 4], [[0, 3, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4],
     "product of idempotents 0, 1 gives non-idempotent 3"),
    # and at one cell, the meet before the join
    ([[0, 2, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4], [[0, 3, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4],
     "product of idempotents 0, 1 gives non-idempotent 2"),
    # elements are named by their own index, not their place among the idempotents
    ([[1, 1, 1], [1, 1, 0], [1, 1, 2]], [[1, 1, 1], [1, 1, 1], [1, 1, 2]],
     "product of idempotents 1, 2 gives non-idempotent 0"),
    # closed, but a join equal to the meet breaks absorption
    ([[0, 0], [0, 1]], [[0, 0], [0, 1]], "idempotents violate skew lattice law absorb_join_meet"),
])
def test_idempotent_skeleton_names_the_first_failure(meet, join, message):
    star = list(range(len(meet)))
    with pytest.raises(SkeletonNotClosedError) as err:
        idempotent_skeleton(BiBandAlgebra(join, meet, star))
    assert str(err.value) == message


def test_positive_and_negative_parts():
    A = swap_instance()
    S = semidirect_algebra(A)
    nb = A.lattice.order
    gi, act, e = A.group.inverse, A.act, int(A.group.identity)
    for u in range(A.group.order):
        for a in range(nb):
            s = u * nb + a
            pos, neg = plus_minus(S, s)
            # ss* = (1, a^{u^{-1}}) and s*s = (1, a)
            assert pos == e * nb + int(act[a, gi[u]])
            assert neg == e * nb + a


def test_regularity_via_inverses(suite):
    for inst in suite[:40]:
        S = inst.algebra
        st = S.star
        for s in range(S.order):
            assert int(st[s]) in inverses_of(S, s)


def test_inverses_match_the_scalar_scan_on_suite_and_mutants(suite):
    # every suite algebra, then every single-cell mutant of the meet of
    # each of order at most 4
    variants = [(S.join.array, S.meet.array.tolist(), S.star) for S in (inst.algebra for inst in suite)]
    variants += [(j, m, st) for j, meet, st in variants if len(meet) <= 4 for m in single_cell_mutants(meet)]
    for join, meet, star in variants:
        S = BiBandAlgebra(join, meet, star)
        assert [inverses_of(S, s) for s in range(S.order)] == [inverses_loop(meet, s) for s in range(S.order)]


def test_lattice_base_gives_unique_inverses(suite):
    # commuting idempotents: orthodox plus unique inverses
    for inst in suite:
        B = inst.action.lattice
        if not np.array_equal(B.meet.array, B.meet.array.T):
            continue
        S = inst.algebra
        assert all(len(inverses_of(S, s)) == 1 for s in range(S.order))


def test_rectangular_base_gives_multiple_inverses(suite):
    found = False
    for inst in suite:
        B = inst.action.lattice
        if np.array_equal(B.meet.array, B.meet.array.T):
            continue
        S = inst.algebra
        if any(len(inverses_of(S, s)) > 1 for s in range(S.order)):
            found = True
            break
    assert found


def test_star_fails_as_anti_automorphism_on_noncommutative_base(suite):
    # witness exists exactly when the base is not a lattice
    for inst in suite:
        B, S = inst.action.lattice, inst.algebra
        commutative = np.array_equal(B.meet.array, B.meet.array.T)
        w = anti_automorphism_witness(S)
        assert (w is None) == commutative, inst.name
        if w is not None:
            s, t = w
            mt, jt, st = S.meet.array, S.join.array, S.star
            flipped_meet = int(mt[st[t], st[s]])
            flipped_join = int(jt[st[t], st[s]])
            assert (
                int(st[mt[s, t]]) != flipped_meet
                or int(st[jt[s, t]]) != flipped_join
            )


def test_witness_on_swap_instance_rechecked_by_hand():
    S = semidirect_algebra(swap_instance())
    w = anti_automorphism_witness(S)
    assert w is not None
    s, t = w
    orc = oracle_of(swap_instance())
    nb = 2
    sp, tp = divmod(s, nb), divmod(t, nb)
    meet_star = orc.star(orc.wedge(sp, tp))
    star_meet = orc.wedge(orc.star(tp), orc.star(sp))
    join_star = orc.star(orc.vee(sp, tp))
    star_join = orc.vee(orc.star(tp), orc.star(sp))
    assert meet_star != star_meet or join_star != star_join


def test_product_with_star_collapses_to_identity_head(suite):
    # (st)(st)* = (1, (a ∧ b^{v^{-1}})^{u^{-1}}) with both operations agreeing
    for inst in suite[:60]:
        S, A = inst.algebra, inst.action
        orc = oracle_of(A)
        nb, e = A.lattice.order, int(A.group.identity)
        for s in orc.pairs():
            for t in orc.pairs():
                u, a = s
                v, b = t
                prod = orc.wedge(s, t)
                band = orc.meet[a][orc.act[b][orc.inv[v]]]
                expect = (e, orc.act[band][orc.inv[u]])
                assert orc.wedge(prod, orc.star(prod)) == expect
                assert orc.vee(prod, orc.star(prod)) == expect


def test_both_reductions_happen_exactly_on_matching_parts(suite):
    # (st)(st)* = ss* and (st)*(st) = t*t together hold iff s*s = tt*
    for inst in suite:
        S = inst.algebra
        mt, st = S.meet.array, S.star
        n = S.order
        idx = np.arange(n)
        pos = mt[idx, st]
        neg = mt[st, idx]
        prod = mt
        lhs = (mt[prod, st[prod]] == pos[:, None]) & (mt[st[prod], prod] == neg[None, :])
        rhs = neg[:, None] == pos[None, :]
        assert np.array_equal(lhs, rhs), inst.name


def test_single_reduction_is_weaker_than_matching_parts(suite):
    # (st)(st)* = ss* alone does not force s*s = tt*
    for inst in suite:
        S = inst.algebra
        mt, st = S.meet.array, S.star
        n = S.order
        idx = np.arange(n)
        pos, neg = mt[idx, st], mt[st, idx]
        prod = mt
        one_sided = mt[prod, st[prod]] == pos[:, None]
        rhs = neg[:, None] == pos[None, :]
        if (one_sided & ~rhs).any():
            return
    pytest.fail("expected some instance where the one-sided reduction is strict")


def test_absorption_in_star_normal_form(suite):
    # s ∨ (s*s ∧ t*t) = s and s*s ∨ (s*s ∧ t*t) = s*s
    for inst in suite:
        S = inst.algebra
        mt, jt, st = S.meet.array, S.join.array, S.star
        n = S.order
        idx = np.arange(n)
        neg = mt[st, idx]
        inner = mt[neg[:, None], neg[None, :]]
        assert np.array_equal(jt[idx[:, None], inner], np.broadcast_to(idx[:, None], (n, n))), inst.name
        assert np.array_equal(jt[neg[:, None], inner], np.broadcast_to(neg[:, None], (n, n))), inst.name


def test_sandwich_multiplication_recovers_the_base():
    # with a top: (u,a) star-multiplied inside the block S_u is u(a∧b)
    from skewalg import chain_lattice

    chain = chain_lattice(3)
    A = GroupAction(GROUP_CATALOG["C2"], chain, [[0, 0], [1, 1], [2, 2]])
    S = semidirect_algebra(A)
    nb, top = 3, 2
    mt = S.meet.array
    for u in range(2):
        uinv_top = int(A.group.inverse[u]) * nb + top
        for a in range(nb):
            for b in range(nb):
                left = int(mt[mt[u * nb + a, uinv_top], u * nb + b])
                assert left == u * nb + int(chain.meet.array[a, b])


def test_an_algebra_keeps_its_own_tables_and_leaves_the_callers_writable(suite):
    S = suite[-1].algebra
    join, meet, star = (np.array(t) for t in (S.join.array, S.meet.array, S.star))
    T = BiBandAlgebra(join, meet, star)
    before = check_axioms(T).to_dict()
    for t in (join, meet, star):
        assert t.flags.writeable
        t[...] = 0
    assert T == S
    assert check_axioms(T).to_dict() == before
