import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewalg import (
    BiBandAlgebra,
    GroupTable,
    OperationTable,
    SignatureMismatchError,
    SkewLatticeTable,
    automorphisms_of,
    band_automorphisms,
    build_algebra,
    chain_lattice,
    find_isomorphism,
    group_automorphisms,
    left_zero,
    preserves_operations,
    rectangular_skew,
    right_zero,
    signature_of,
)
from skewalg.isomorphism import _joint_colours, relabel, relabel_unary

from oracles import least_isomorphism, refine_colours


def cyclic(n):
    return GroupTable([[(i + j) % n for j in range(n)] for i in range(n)])


def test_left_and_right_zero_are_not_isomorphic():
    assert find_isomorphism(left_zero(2), right_zero(2)) is None


def test_relabeled_band_is_recovered():
    t = left_zero(3)
    shuffled = OperationTable(relabel(t.array, (2, 0, 1)))
    iso = find_isomorphism(t, shuffled)
    assert iso is not None
    assert preserves_operations(signature_of(t), signature_of(shuffled), iso.mapping)


@given(st.permutations(list(range(4))))
def test_any_relabeling_of_a_skew_lattice_is_found(perm):
    base = chain_lattice(4)
    moved = SkewLatticeTable(
        relabel(base.meet.array, tuple(perm)),
        relabel(base.join.array, tuple(perm)),
    )
    iso = find_isomorphism(base, moved)
    assert iso is not None
    assert preserves_operations(signature_of(base), signature_of(moved), iso.mapping)


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatchError):
        find_isomorphism(left_zero(2), chain_lattice(2))


def test_chain_has_trivial_automorphisms():
    assert automorphisms_of(chain_lattice(3)) == [(0, 1, 2)]


def test_rectangular_automorphisms_are_full_symmetric_group():
    assert len(automorphisms_of(rectangular_skew(3))) == 6


def test_band_automorphisms_of_left_zero():
    assert len(band_automorphisms(left_zero(3))) == 6


def test_cyclic_group_automorphism_counts():
    # |Aut(C_n)| = phi(n)
    assert len(group_automorphisms(cyclic(2))) == 1
    assert len(group_automorphisms(cyclic(3))) == 2
    assert len(group_automorphisms(cyclic(4))) == 2
    assert len(group_automorphisms(cyclic(6))) == 2


def test_isomorphism_respects_unary_operation():
    g = cyclic(3)
    # the unique nontrivial automorphism of C3 swaps the generators
    autos = group_automorphisms(g)
    assert (0, 2, 1) in autos


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_relabeled_suite_algebra_is_found(suite, data):
    S = data.draw(st.sampled_from(suite)).algebra
    perm = tuple(data.draw(st.permutations(range(S.order))))
    moved = BiBandAlgebra(
        relabel(S.join.array, perm), relabel(S.meet.array, perm), relabel_unary(S.star, perm)
    )
    iso = find_isomorphism(S, moved)
    assert iso is not None
    assert preserves_operations(signature_of(S), signature_of(moved), iso.mapping)
    assert iso.mapping == _oracle(S, moved)


def _lists(sig):
    return [op.tolist() for op in sig[1]], [u.tolist() for u in sig[2]]


def _oracle(a, b):
    """tests/oracles.least_isomorphism on the signatures of a and b."""
    sig_a, sig_b = signature_of(a), signature_of(b)
    if sig_a[0] != sig_b[0]:
        return None
    return least_isomorphism(sig_a[0], *_lists(sig_a), *_lists(sig_b))


def _blocks(colours):
    """A colouring as its partition: each element's first class mate."""
    first = {}
    return tuple(first.setdefault(c, x) for x, c in enumerate(colours))


def _mapping(iso):
    return None if iso is None else iso.mapping


def _same_order_pairs(suite, count, seed):
    rng = random.Random(seed)
    algebras = [inst.algebra for inst in suite]
    by_order = {}
    for S in algebras:
        by_order.setdefault(S.order, []).append(S)
    pairs = []
    for _ in range(count):
        a = rng.choice(algebras)
        pairs.append((a, rng.choice(by_order[a.order])))
    return pairs


def test_search_matches_the_scalar_oracle_on_criterion_3_pairs(suite):
    for inst in suite:
        built = build_algebra(inst.system, check=False)
        assert _mapping(find_isomorphism(built, inst.algebra)) == _oracle(built, inst.algebra), inst.name


def test_search_matches_the_scalar_oracle_on_same_order_pairs(suite):
    outcomes = set()
    for a, b in _same_order_pairs(suite, 200, 5):
        mapping = _mapping(find_isomorphism(a, b))
        assert mapping == _oracle(a, b)
        outcomes.add(mapping is None)
    assert outcomes == {True, False}  # both isomorphic and non-isomorphic pairs


@st.composite
def random_algebras(draw, n):
    """A BiBandAlgebra with arbitrary tables: no law holds, so refinement
    rounds and both row and column codes matter."""
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    join, meet = (np.array(draw(cells)).reshape(n, n) for _ in range(2))
    star = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return BiBandAlgebra(join, meet, star)


@st.composite
def algebra_pairs(draw):
    """Two random algebras of one order, or one and a relabelling of it."""
    n = draw(st.integers(1, 6))
    a = draw(random_algebras(n))
    if draw(st.booleans()):
        return a, draw(random_algebras(n))
    perm = tuple(draw(st.permutations(range(n))))
    return a, BiBandAlgebra(
        relabel(a.join.array, perm), relabel(a.meet.array, perm), relabel_unary(a.star, perm)
    )


@settings(max_examples=150, deadline=None)
@given(algebra_pairs())
def test_search_matches_the_scalar_oracle_on_random_tables(pair):
    a, b = pair
    assert _mapping(find_isomorphism(a, b)) == _oracle(a, b)


@settings(max_examples=150, deadline=None)
@given(algebra_pairs())
def test_joint_refinement_restricts_to_each_sides_own_refinement(pair):
    sig_a, sig_b = (signature_of(x) for x in pair)
    n = sig_a[0]
    joint = _joint_colours(n, sig_a, sig_b).tolist()
    assert _blocks(joint[:n]) == _blocks(refine_colours(n, *_lists(sig_a)))
    assert _blocks(joint[n:]) == _blocks(refine_colours(n, *_lists(sig_b)))
