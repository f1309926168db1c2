import numpy as np
import pytest
from hypothesis import given, strategies as st

from skewalg import (
    GroupTable,
    OperationTable,
    SkewLatticeTable,
    chain_lattice,
    check_band,
    check_skew_lattice,
    greens_relations,
    left_zero,
    natural_preorders,
    rectangular_skew,
    right_zero,
)
from skewalg.algebra import greens_l, greens_r


def test_left_zero_projects_onto_first_argument():
    t = left_zero(3)
    assert all(t(a, b) == a for a in range(3) for b in range(3))


def test_right_zero_projects_onto_second_argument():
    t = right_zero(3)
    assert all(t(a, b) == b for a in range(3) for b in range(3))


@given(st.integers(1, 6))
def test_chain_lattice_satisfies_skew_laws(n):
    assert check_skew_lattice(chain_lattice(n)).ok


@given(st.integers(1, 5))
def test_rectangular_skew_satisfies_skew_laws(n):
    assert check_skew_lattice(rectangular_skew(n)).ok


def test_rectangular_meet_is_left_zero_and_join_right_zero():
    s = rectangular_skew(3)
    assert s.meet == left_zero(3)
    assert s.join == right_zero(3)


def test_check_band_rejects_non_idempotent_table():
    assert not check_band(OperationTable([[1, 1], [1, 1]]))


def test_check_band_rejects_non_associative_table():
    from skewalg import associativity_witness

    # x*y = max(x,y) except 1*2 twisted
    t = OperationTable([[0, 1, 2], [1, 1, 0], [2, 2, 2]])
    assert not check_band(t)
    assert associativity_witness(t) is not None


def test_check_skew_lattice_flags_broken_absorption():
    from skewalg import SkewLatticeTable

    # join duplicated from meet: (0 ∧ 1) ∨ 1 lands on 0, not 1
    meet = [[0, 0], [0, 1]]
    join = [[0, 0], [0, 1]]
    report = check_skew_lattice(SkewLatticeTable(meet, join))
    assert not report.ok
    assert not report["absorb_meet_then_join"].ok


def test_natural_preorders_on_chain_match_numeric_order():
    pre = natural_preorders(chain_lattice(4))
    expect = np.arange(4)[:, None] <= np.arange(4)[None, :]
    assert np.array_equal(pre.le_left, expect)
    assert np.array_equal(pre.le_right, expect)
    assert np.array_equal(pre.ge_left, expect.T)
    assert np.array_equal(pre.ge_right, expect.T)


def test_natural_preorders_on_rectangular_split_by_side():
    # left-zero meet: a ∧ b = a always, but b ∧ a = b, so only the
    # left preorder is full; the right one collapses to equality
    pre = natural_preorders(rectangular_skew(3))
    eye = np.eye(3, dtype=bool)
    assert pre.le_left.all() and pre.ge_right.all()
    assert np.array_equal(pre.le_right, eye)
    assert np.array_equal(pre.ge_left, eye)


def test_greens_relations_left_zero():
    g = greens_relations(left_zero(3))
    # aS = {a}: R-classes are singletons; Sa = S: one L-class
    assert g.r_classes == ((0,), (1,), (2,))
    assert g.l_classes == ((0, 1, 2),)
    assert g.l_class_of[0] == g.l_class_of[2] and g.r_class_of[0] != g.r_class_of[2]


def test_greens_relations_chain_are_trivial():
    g = greens_relations(chain_lattice(3).meet)
    assert g.r_classes == ((0,), (1,), (2,))
    assert g.l_classes == ((0,), (1,), (2,))


def test_greens_relations_partitions_match_greens_r_and_l(suite):
    for inst in suite:
        for table in (inst.algebra.meet, inst.algebra.join):
            g = greens_relations(table)
            r_of, l_of = np.array(g.r_class_of), np.array(g.l_class_of)
            assert np.array_equal(greens_r(table.array), r_of[:, None] == r_of[None, :])
            assert np.array_equal(greens_l(table.array), l_of[:, None] == l_of[None, :])
            assert sorted(sum(g.r_classes, ())) == list(range(table.order))


def test_greens_relations_refuses_non_associative_table():
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1
    with pytest.raises(ValueError, match="associative"):
        greens_relations(OperationTable([[1, 0], [0, 0]]))


def test_group_table_finds_identity_and_inverses():
    g = GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.identity == 0
    assert g.inv(1) == 2 and g.inv(2) == 1


def test_group_table_rejects_non_group():
    with pytest.raises(ValueError):
        GroupTable([[0, 0], [0, 0]])


def test_a_skew_lattice_keeps_its_own_tables():
    chain = chain_lattice(3)
    meet, join = np.array(chain.meet.array), np.array(chain.join.array)
    s = SkewLatticeTable(meet, join)
    before = check_skew_lattice(s).to_dict()
    meet[0, 1] = 2  # would break a ∨ (a ∧ b) = a at (0, 1)
    assert meet.flags.writeable
    assert s == chain
    assert check_skew_lattice(s).to_dict() == before
    assert before["ok"]
