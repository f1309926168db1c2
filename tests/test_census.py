"""The census of (2,2,1)-algebras against the model suite and a brute force."""

import pytest
from census import algebra_keys, census, labelled_count, orbit_sum, stars
from oracles import brute_force_biband_algebras, least_relabelling

from skewalg import check_axioms, check_skehr, reconstruct, roundtrip_algebra, roundtrip_groupoid

CLASSES = {1: 1, 2: 4, 3: 8}
# labelled algebras over every involution, by the brute force (order 3 in CI)
LABELED = {1: 1, 2: 6, 3: 23}


def test_one_star_per_number_of_two_cycles():
    assert stars(4).tolist() == [[0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 3, 2]]
    assert stars(1).tolist() == [[0]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_classes_are_the_suite_algebras_of_each_order(n, suite):
    classes = census(n)
    assert len(classes) == CLASSES[n]
    assert algebra_keys(classes) == algebra_keys([inst.algebra for inst in suite if inst.algebra.order == n])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_census_class_passes_the_axioms_and_both_round_trips(n):
    for algebra in census(n):
        assert check_axioms(algebra).ok
        assert check_skehr(algebra).ok
        roundtrip_algebra(algebra)
        roundtrip_groupoid(reconstruct(algebra))


@pytest.mark.parametrize("n", [1, 2])
def test_census_equals_the_brute_force_over_semigroups_and_involutions(n):
    labelled = brute_force_biband_algebras(n)
    assert len(labelled) == LABELED[n]
    keys = {least_relabelling(n, [join, meet], [star]) for join, meet, star in labelled}
    assert len(keys) == CLASSES[n]
    assert algebra_keys(census(n)) == keys


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_census_classes_stand_for_every_labelled_algebra(n):
    # orbit–stabiliser: the census keys, with each class's automorphisms,
    # account for every labelled algebra the brute force finds
    assert orbit_sum(n, census(n)) == LABELED[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_labelled_fill_counts_every_labelled_algebra(n):
    # the census fill without its class reduction, each star's algebras
    # weighted by the involutions of its cycle type (268 at order 4, offline)
    assert labelled_count(n) == LABELED[n]
