import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from skewalg import (
    ActionInvalidError,
    BiBandAlgebra,
    FiniteGroupoid,
    GroupAction,
    GroupTable,
    MalformedSystemError,
    OperationTable,
    RestrictionSystem,
    SkewLatticeTable,
    chain_lattice,
    check_band,
    check_skew_lattice,
    discrete_system,
    greens_relations,
    left_zero,
    rectangular_skew,
    right_zero,
)
from oracles import greens_partitions, group_identity_and_inverses, single_cell_mutants
from skewalg.models import GROUP_CATALOG
from skewalg.tables import greens_l, greens_r, out_of_range


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


@pytest.mark.parametrize("table, message", [
    (np.zeros((0, 0), int), "empty operation table"),
    (np.zeros((2, 3), int), r"operation table must be square, got shape \(2, 3\)"),
    ([[0, 2], [1, 1]], r"table entries must lie in 0\.\.n-1"),
])
def test_a_malformed_operation_table_is_refused(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OperationTable(table)


INT64 = np.iinfo(np.int64)


@st.composite
def ranged_arrays(draw):
    """(arr, lo, hi): an int64 array of 0-6 entries, 1-D or 2-D, drawn near
    lo and hi and at the int64 extremes, with lo from -1 up."""
    lo = draw(st.integers(-1, 3))
    hi = draw(st.integers(lo, lo + 4))
    near = st.integers(lo - 2, hi + 1) | st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max])
    values = draw(st.lists(near, max_size=6))
    shape = draw(st.sampled_from([(len(values),), (1, len(values)), (len(values), 1)]))
    return np.array(values, dtype=np.int64).reshape(shape), lo, hi


@given(ranged_arrays())
@example((np.zeros(0, dtype=np.int64), -1, 0))
@example((np.array([-1, 2], dtype=np.int64), -1, 3))
@example((np.array([3], dtype=np.int64), -1, 3))
@example((np.array([[INT64.min], [INT64.max]], dtype=np.int64), 0, 1))
def test_out_of_range_is_the_entrywise_definition(case):
    arr, lo, hi = case
    assert out_of_range(arr, lo, hi) is any(not lo <= v < hi for v in arr.ravel().tolist())


def _ending_in(table, value):
    """A copy of table with its last entry set to value."""
    out = np.array(table)
    out.flat[-1] = value
    return out


_S = discrete_system(chain_lattice(2))  # two objects, two morphisms


def _groupoid(k):
    """Build a groupoid on _S's two loops whose k-th table (dom, cod, comp, inv) ends in v."""
    tables = [_S.groupoid.dom, _S.groupoid.cod, np.full((2, 2), -1), _S.groupoid.inv]
    return lambda v: FiniteGroupoid(2, *[_ending_in(t, v) if i == k else t for i, t in enumerate(tables)])


def _system(k):
    """Build _S with its k-th operator table (restL, restR, extL, extR) ending in v."""
    tables = [_S.restL, _S.restR, _S.extL, _S.extR]
    ending = lambda v: [_ending_in(t, v) if i == k else t for i, t in enumerate(tables)]
    return lambda v: RestrictionSystem(_S.groupoid, _S.objects, *ending(v))


# site: (build with the site's last entry set to v, lo, hi, exception, message)
_RANGE_SITES = {
    "operation table": (lambda v: OperationTable(_ending_in([[0, 1], [1, 1]], v)), 0, 2, ValueError,
                        "table entries must lie in 0..n-1"),
    "star": (lambda v: BiBandAlgebra([[0, 1], [1, 1]], [[0, 0], [0, 1]], _ending_in([1, 0], v)), 0, 2,
             ValueError, "star entries out of range"),
    "dom": (_groupoid(0), 0, 2, MalformedSystemError, "dom entries out of range"),
    "cod": (_groupoid(1), 0, 2, MalformedSystemError, "cod entries out of range"),
    "composition": (_groupoid(2), -1, 2, MalformedSystemError, "composition entries out of range"),
    "inv": (_groupoid(3), 0, 2, MalformedSystemError, "inv entries out of range"),
    "restL": (_system(0), -1, 2, MalformedSystemError, "restL entries must lie in -1..1"),
    "restR": (_system(1), -1, 2, MalformedSystemError, "restR entries must lie in -1..1"),
    "extL": (_system(2), -1, 2, MalformedSystemError, "extL entries must lie in -1..1"),
    "extR": (_system(3), -1, 2, MalformedSystemError, "extR entries must lie in -1..1"),
    "action": (lambda v: GroupAction(GROUP_CATALOG["C2"], chain_lattice(2), _ending_in([[0, 0], [1, 1]], v)),
               0, 2, ActionInvalidError, "action entries out of range"),
}


@pytest.mark.parametrize("site", sorted(_RANGE_SITES))
def test_each_range_check_keeps_its_bounds_exception_and_message(site):
    build, lo, hi, error, message = _RANGE_SITES[site]
    for value in (lo, hi - 1):
        build(value)
    for value in (lo - 1, hi, INT64.min, INT64.max):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build(value)


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
    pre = chain_lattice(4).preorders
    expect = np.arange(4)[:, None] <= np.arange(4)[None, :]
    assert np.array_equal(pre.le_left, expect)
    assert np.array_equal(pre.le_right, expect)
    assert np.array_equal(pre.ge_left, expect.T)
    assert np.array_equal(pre.ge_right, expect.T)


def test_natural_preorders_on_rectangular_split_by_side():
    # left-zero meet: a ∧ b = a always, but b ∧ a = b, so only the
    # left preorder is full; the right one collapses to equality
    pre = rectangular_skew(3).preorders
    eye = np.eye(3, dtype=bool)
    assert pre.le_left.all() and pre.ge_right.all()
    assert np.array_equal(pre.le_right, eye)
    assert np.array_equal(pre.ge_left, eye)


def absorption_gives_converse_pairing(meet, join) -> bool:
    """Assert that absorption implies the converse pairing of the natural
    preorders, cell by cell and for the whole table; return whether the four
    absorb_ flags of check_skew_lattice all pass.

    a = a∧b gives a∨b = (a∧b)∨b = b, and b = a∨b gives a∧b = a∧(a∨b) = a,
    so le_left[a, b] = ge_right[b, a] wherever the two laws hold at (a, b);
    le_right[a, b] = ge_left[b, a] likewise from the other two at (b, a).
    """
    lattice = SkewLatticeTable(meet, join)
    m, j = lattice.meet.array, lattice.join.array
    idx = np.arange(lattice.order)
    col, row = idx[:, None], idx[None, :]
    pre = lattice.preorders
    left_laws = (j[m, row] == row) & (m[col, j] == col)
    right_laws = ((j[col, m] == col) & (m[j, row] == row)).T
    assert (pre.le_left == pre.ge_right.T)[left_laws].all()
    assert (pre.le_right == pre.ge_left.T)[right_laws].all()
    report = check_skew_lattice(lattice)
    absorbs = all(c.ok for c in report.checks() if c.name.startswith("absorb_"))
    if absorbs:
        assert np.array_equal(pre.le_left, pre.ge_right.T)
        assert np.array_equal(pre.le_right, pre.ge_left.T)
    return absorbs


def test_absorption_implies_converse_pairing_on_every_pair_of_order_2_tables():
    tables = [np.array(cells).reshape(2, 2) for cells in itertools.product(range(2), repeat=4)]
    absorbing = [absorption_gives_converse_pairing(m, j) for m in tables for j in tables]
    assert len(absorbing) == 256 and 0 < sum(absorbing) < 256
    # meet = join = the left-zero band fails both absorption and the pairing
    pre = SkewLatticeTable(left_zero(2), left_zero(2)).preorders
    assert not np.array_equal(pre.le_left, pre.ge_right.T)


@given(st.integers(3, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n), min_size=2, max_size=2)
))
def test_absorption_implies_converse_pairing_at_orders_3_and_4(cells):
    n = int(len(cells[0]) ** 0.5)
    absorption_gives_converse_pairing(*(np.array(c).reshape(n, n) for c in cells))


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


def _outcome(compute, table):
    try:
        return compute(table)
    except ValueError as error:
        return str(error)


def _tables_and_mutants(suite):
    """Every catalog group and every distinct meet and join table of the
    suite's algebras, then every single-cell mutant of each of those of
    order at most 4, as lists."""
    arrays = [g.table.array for g in GROUP_CATALOG.values()]
    arrays += [t for inst in suite for t in (inst.algebra.meet.array, inst.algebra.join.array)]
    tables = list({a.tobytes(): a.tolist() for a in arrays}.values())
    return tables + [m for t in tables if len(t) <= 4 for m in single_cell_mutants(t)]


def test_group_table_matches_the_scalar_search(suite):
    def found(table):
        g = GroupTable(table)
        return g.identity, g.inverse.tolist()

    groups = 0
    for table in _tables_and_mutants(suite):
        expected = _outcome(group_identity_and_inverses, table)
        assert _outcome(found, table) == expected, table
        groups += not isinstance(expected, str)
    assert groups >= len(GROUP_CATALOG)


def test_greens_relations_match_the_scalar_partition(suite):
    def found(table):
        g = greens_relations(OperationTable(table))
        return g.r_classes, g.l_classes, g.r_class_of, g.l_class_of

    for table in _tables_and_mutants(suite):
        assert _outcome(found, table) == _outcome(greens_partitions, table), table


def test_group_table_finds_identity_and_inverses():
    g = GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.identity == 0
    assert g.inverse.tolist() == [0, 2, 1]


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


def _bumped(values, n):
    """A copy of values whose first cell moves on to the next of 0..n-1."""
    out = np.array(values)
    out.flat[0] = (out.flat[0] + 1) % n
    return out


# per class: its structure in a suite instance, a copy rebuilt from its
# arrays, and a structure one cell away from it (for a group, which no
# one-cell change leaves a group, its opposite)
EQUALITY_CASES = {
    "OperationTable": (
        lambda inst: inst.action.group.table,
        lambda x: OperationTable(x.array),
        lambda x: OperationTable(_bumped(x.array, x.order)),
    ),
    "SkewLatticeTable": (
        lambda inst: inst.action.lattice,
        lambda x: SkewLatticeTable(x.meet.array, x.join.array),
        lambda x: SkewLatticeTable(x.meet.array, _bumped(x.join.array, x.order)),
    ),
    "GroupTable": (
        lambda inst: inst.action.group,
        lambda x: GroupTable(x.table.array),
        lambda x: GroupTable(x.table.array.T),
    ),
    "BiBandAlgebra": (
        lambda inst: inst.algebra,
        lambda x: BiBandAlgebra(x.join.array, x.meet.array, x.star),
        lambda x: BiBandAlgebra(x.join.array, x.meet.array, _bumped(x.star, x.order)),
    ),
    "FiniteGroupoid": (
        lambda inst: inst.system.groupoid,
        lambda x: FiniteGroupoid(x.object_count, x.dom, x.cod, x.comp, x.inv),
        lambda x: FiniteGroupoid(x.object_count, x.dom, x.cod, x.comp, _bumped(x.inv, x.morphism_count)),
    ),
    "GroupAction": (
        lambda inst: inst.action,
        lambda x: GroupAction(
            GroupTable(x.group.table.array), SkewLatticeTable(x.lattice.meet.array, x.lattice.join.array), x.act
        ),
        lambda x: GroupAction(x.group, x.lattice, _bumped(x.act, x.band_order)),
    ),
}


@pytest.mark.parametrize("kind", sorted(EQUALITY_CASES))
def test_structures_are_equal_by_value_within_their_class_and_unhashable(suite, kind):
    inst = next(i for i in suite if i.action.group_order == 6 and i.action.band_order > 1)
    part, rebuilt, mutant = EQUALITY_CASES[kind]
    x = part(inst)
    copy, other = rebuilt(x), mutant(x)
    assert copy is not x and (x == copy, copy == x, x != copy) == (True, True, False)
    assert type(copy) is type(x)
    assert (x == other, other == x, x != other) == (False, False, True)
    # the group and its OperationTable hold one array, yet differ in class
    for y in [p(inst) for k, (p, _, _) in EQUALITY_CASES.items() if k != kind] + [None]:
        assert (x == y, y == x, x != y, y != x) == (False, False, True, True), type(y)
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)
