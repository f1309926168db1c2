"""Enumeration counts are frozen from the brute-force oracles in oracles.py."""

import hashlib
import itertools
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from census import orbit_sum
from oracles import (
    absorption_holds,
    associativity_ok,
    brute_force_bands,
    brute_force_skew_lattices,
    count_classes,
    count_skew_classes,
    fill_roots,
    fill_tables,
    is_associative,
    join_candidates,
    relabel,
)
from skewalg import (
    BoundExceededError,
    check_band,
    check_skew_lattice,
    enumerate_bands,
    enumerate_skew_lattices,
    labeled_bands,
)
from skewalg import enumeration
from skewalg.enumeration import _fill, _join_options

# oracle output, computed once and pinned
LABELED_BANDS = {1: 1, 2: 4, 3: 35}
BAND_CLASSES = {1: 1, 2: 3, 3: 10}
LABELED_SKEW = {1: 1, 2: 4, 3: 20}
SKEW_CLASSES = {1: 1, 2: 3, 3: 7}
LABELED_BANDS_4, LABELED_SKEW_4 = 604, 180
# sha256 over json.dumps of each labeled_bands(n) table, n = 1..4 in turn
LABELED_BANDS_ORDER_SHA256 = "c2fed303b1d2c8ab820e8202c14ed56d4c632fbaa120b4bd77097d0eb27c7619"


def as_tuples(table):
    return tuple(tuple(row) for row in table)


def labelled_pairs(n):
    """{(meet, join)} from the library's band search and join fill."""
    meets = [band.tolist() for band in labeled_bands(n)]
    roots, joins = _fill(_join_options(np.array(meets)))
    return {(as_tuples(meets[r]), as_tuples(join)) for r, join in zip(roots.tolist(), joins.tolist())}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_labeled_band_count_matches_oracle(n):
    oracle = brute_force_bands(n)
    assert len(oracle) == LABELED_BANDS[n]
    assert len(labeled_bands(n)) == LABELED_BANDS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_class_count_matches_oracle(n):
    assert count_classes(brute_force_bands(n)) == BAND_CLASSES[n]
    assert len(enumerate_bands(n)) == BAND_CLASSES[n]


def test_two_element_bands_are_exactly_three():
    assert len(enumerate_bands(2)) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skew_lattice_class_count_matches_oracle(n):
    pairs = brute_force_skew_lattices(n)
    assert len(pairs) == LABELED_SKEW[n]
    assert count_skew_classes(pairs) == SKEW_CLASSES[n]
    assert len(enumerate_skew_lattices(n)) == SKEW_CLASSES[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_representatives_satisfy_the_laws(n):
    for t in enumerate_bands(n):
        assert check_band(t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skew_representatives_satisfy_the_laws(n):
    for s in enumerate_skew_lattices(n):
        assert check_skew_lattice(s).ok


def test_band_representatives_pairwise_non_isomorphic():
    from itertools import permutations

    reps = [tuple(tuple(r) for r in t.tolist()) for t in enumerate_bands(3)]
    for i, a in enumerate(reps):
        orbit = {relabel(a, p) for p in permutations(range(3))}
        for b in reps[i + 1 :]:
            assert b not in orbit


def test_skew_representatives_pairwise_non_isomorphic():
    from itertools import permutations

    reps = [
        (tuple(tuple(r) for r in s.meet.tolist()), tuple(tuple(r) for r in s.join.tolist()))
        for s in enumerate_skew_lattices(3)
    ]
    for i, (m, j) in enumerate(reps):
        orbit = {(relabel(m, p), relabel(j, p)) for p in permutations(range(3))}
        for other in reps[i + 1 :]:
            assert other not in orbit


def test_order_above_bound_is_rejected():
    with pytest.raises(BoundExceededError):
        enumerate_bands(5)
    with pytest.raises(BoundExceededError):
        enumerate_skew_lattices(7, max_order=6)


@pytest.mark.parametrize("build, n", [(enumerate_bands, 0), (labeled_bands, -1)])
def test_non_positive_order_is_rejected(build, n):
    with pytest.raises(ValueError, match=f"^order must be positive, got {n}$"):
        build(n)


def test_bound_can_be_raised_explicitly():
    # n=4 is allowed by default; the guard is on the argument, not hardwired
    assert len(enumerate_bands(3, max_order=3)) == 10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_labelled_skew_lattices_equal_the_brute_force_set(n):
    assert labelled_pairs(n) == set(brute_force_skew_lattices(n))


def test_order_four_joins_are_exactly_the_absorbing_band_pairs():
    bands = [as_tuples(band.tolist()) for band in labeled_bands(4)]
    assert len(bands) == LABELED_BANDS_4
    expected = {(m, j) for m in bands for j in bands if absorption_holds(m, j)}
    assert len(expected) == LABELED_SKEW_4
    assert labelled_pairs(4) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labelled_counts_are_the_orbit_sums_of_the_classes(n):
    # orbit–stabiliser ties the labelled fill, the canonical keys and the
    # automorphism search together: merged or split classes, or a missed or
    # invented automorphism, move the sum off the labelled count
    bands, lattices = enumerate_bands(n), enumerate_skew_lattices(n)
    assert (len(bands), len(lattices)) == ({**BAND_CLASSES, 4: 46}[n], {**SKEW_CLASSES, 4: 21}[n])
    assert orbit_sum(n, bands) == len(labeled_bands(n)) == {**LABELED_BANDS, 4: LABELED_BANDS_4}[n]
    assert orbit_sum(n, lattices) == len(labelled_pairs(n)) == {**LABELED_SKEW, 4: LABELED_SKEW_4}[n]


def test_labeled_bands_keep_their_order():
    digest = hashlib.sha256()
    for n in range(1, 5):
        for band in labeled_bands(n):
            digest.update(json.dumps(band.tolist()).encode())
    assert digest.hexdigest() == LABELED_BANDS_ORDER_SHA256


def stacked_fill(allowed):
    roots, tables = _fill(np.array(allowed, dtype=bool))
    assert tables.shape == (len(roots), *np.shape(allowed)[1:3])
    return list(zip(roots.tolist(), tables.tolist()))


# labelled semigroups of order n (OEIS A023814)
LABELED_SEMIGROUPS = {1: 1, 2: 8, 3: 113, 4: 3492}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_an_all_ones_mask_fills_every_labelled_semigroup(n):
    tables = _fill(np.ones((1, n, n, n), dtype=bool))[1]
    assert len(tables) == LABELED_SEMIGROUPS[n]
    if n <= 3:
        # every one of the n^(n²) tables, 19683 at n = 3
        every = (np.reshape(t, (n, n)).tolist() for t in itertools.product(range(n), repeat=n * n))
        assert tables.tolist() == [t for t in every if is_associative(t)]


# the order tests also run with stacks grown in chunks of a few tables, so
# that the order across chunk boundaries is checked at small orders too
@pytest.mark.parametrize("chunk", [enumeration._CHUNK, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_band_fill_equals_the_depth_first_search_in_order(n, chunk, monkeypatch):
    monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    idempotent = lambda a, b: [a] if a == b else range(n)
    assert [band.tolist() for band in labeled_bands(n)] == fill_tables(n, idempotent)


@pytest.mark.parametrize("chunk", [enumeration._CHUNK, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_join_fill_equals_the_depth_first_search_in_order(n, chunk, monkeypatch):
    monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    meets = [band.tolist() for band in labeled_bands(n)]
    expected = [fill_tables(n, join_candidates(meet)) for meet in meets]
    assert stacked_fill(_join_options(np.array(meets))) == [
        (r, join) for r, joins in enumerate(expected) for join in joins
    ]


@st.composite
def option_masks(draw):
    """allowed[r][a][b][v] for 1-3 roots at order 1-4, at a drawn density."""
    n, roots = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    threshold = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 7), min_size=roots * n**3, max_size=roots * n**3))
    return np.array([c < threshold for c in cells]).reshape(roots, n, n, n).tolist()


def _with_empty_cell():
    allowed = np.ones((2, 3, 3, 3), dtype=bool)
    allowed[1, 1, 2] = False
    return allowed.tolist()


@settings(max_examples=80, deadline=None)
@given(option_masks(), st.sampled_from([3, enumeration._CHUNK]))
@example([[[[True]]], [[[False]]]], 1)
@example(_with_empty_cell(), 3)
def test_stacked_fill_equals_the_depth_first_search_on_random_masks(allowed, chunk):
    with patch.object(enumeration, "_CHUNK", chunk):
        assert stacked_fill(allowed) == fill_roots(allowed)


def _associative_by_scan(t, a, b, n):
    """The test associativity_ok makes, by a plain scan of all n³ triples."""
    for x, y, z in itertools.product(range(n), repeat=3):
        if (x, y) == (a, b) or (y, z) == (a, b) or (t[x][y] == a and z == b) or (x == a and t[y][z] == b):
            xy, yz = t[x][y], t[y][z]
            if xy >= 0 and yz >= 0 and min(t[xy][z], t[x][yz]) >= 0 and t[xy][z] != t[x][yz]:
                return False
    return True


@st.composite
def partial_tables(draw):
    """A table on 1-4 elements with -1 for undecided cells, and a cell (a, b)."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
    t = draw(st.lists(row, min_size=n, max_size=n))
    return t, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), n


@given(partial_tables())
def test_associativity_oracle_agrees_with_the_full_scan(case):
    assert associativity_ok(*case) == _associative_by_scan(*case)
