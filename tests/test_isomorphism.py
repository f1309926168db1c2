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
    chain_lattice,
    find_isomorphism,
    group_automorphisms,
    left_zero,
    preserves_operations,
    rectangular_skew,
    right_zero,
    signature_of,
)
from skewalg.isomorphism import relabel, relabel_unary


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
