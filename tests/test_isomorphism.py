import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewalg import (
    GROUP_CATALOG,
    BiBandAlgebra,
    FiniteGroupoid,
    GroupTable,
    OperationTable,
    RestrictionSystem,
    SignatureMismatchError,
    SkewLatticeTable,
    automorphisms_of,
    build_algebra,
    chain_lattice,
    enumerate_skew_lattices,
    find_isomorphism,
    labeled_bands,
    left_zero,
    preserves_operations,
    rectangular_skew,
    right_zero,
    signature_of,
)
from skewalg.enumeration import _fill, _join_options
from skewalg.isomorphism import _CHUNK, _candidates, _idempotent_profile, _schedule, canonical_tables

from oracles import (
    automorphism_perms,
    least_isomorphism,
    least_relabelling,
    relabel,
    relabel_unary,
)


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
    with pytest.raises(SignatureMismatchError, match="unsupported structure type object"):
        signature_of(object())


def test_structures_of_unequal_order_are_not_isomorphic():
    assert find_isomorphism(chain_lattice(2), chain_lattice(3)) is None


@pytest.mark.parametrize("case", ["binary", "unary"])
def test_the_identity_fails_to_preserve_a_changed_operation(case):
    if case == "binary":
        a, b = signature_of(left_zero(2)), signature_of(right_zero(2))
    else:
        # C3 against a copy whose inverse map is the identity
        a = signature_of(cyclic(3))
        b = (3, a[1], (np.arange(3),))
    assert not preserves_operations(a, b, tuple(range(a[0])))


def test_chain_has_trivial_automorphisms():
    assert automorphisms_of(chain_lattice(3)) == [(0, 1, 2)]


def test_rectangular_automorphisms_are_full_symmetric_group():
    assert len(automorphisms_of(rectangular_skew(3))) == 6


def test_changing_the_returned_automorphisms_leaves_the_kept_ones():
    lattice = rectangular_skew(3)
    auts = automorphisms_of(lattice)
    expect = list(auts)
    auts.pop()
    auts[0] = (2, 1, 0)
    auts.append((0, 0, 0))
    assert automorphisms_of(lattice) == expect
    assert automorphisms_of(lattice) is not automorphisms_of(lattice)


def test_band_automorphisms_of_left_zero():
    assert len(automorphisms_of(left_zero(3))) == 6


def test_cyclic_group_automorphism_counts():
    # |Aut(C_n)| = phi(n)
    assert len(automorphisms_of(cyclic(2))) == 1
    assert len(automorphisms_of(cyclic(3))) == 2
    assert len(automorphisms_of(cyclic(4))) == 2
    assert len(automorphisms_of(cyclic(6))) == 2


def test_isomorphism_respects_unary_operation():
    g = cyclic(3)
    # the unique nontrivial automorphism of C3 swaps the generators
    autos = automorphisms_of(g)
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
    """A BiBandAlgebra with arbitrary tables: no law holds, so idempotent
    profiles vary freely and forcing through rows, columns and the star
    does the pruning."""
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    join, meet = (np.array(draw(cells)).reshape(n, n) for _ in range(2))
    star = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return BiBandAlgebra(join, meet, star)


@st.composite
def symmetric_algebras(draw, n):
    """A BiBandAlgebra with arbitrary tables that a drawn permutation g
    preserves, so its automorphism group contains <g>: each orbit of cells
    under <g> takes one drawn value v, fixed by every power fixing the
    cell, and its image under each power."""
    g = draw(st.permutations(range(n)))
    powers = [list(range(n))]
    while [g[x] for x in powers[-1]] != powers[0]:
        powers.append([g[x] for x in powers[-1]])

    def table(shape):
        out = np.full(shape, -1)
        for cell in np.ndindex(shape):
            if out[cell] < 0:
                stab = [h for h in powers if all(h[x] == x for x in cell)]
                v = draw(st.sampled_from([v for v in range(n) if all(h[v] == v for h in stab)]))
                for h in powers:
                    out[tuple(h[x] for x in cell)] = h[v]
        return out

    return BiBandAlgebra(table((n, n)), table((n, n)), table((n,)))


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


def _oracle_automorphisms(structure):
    """tests/oracles.automorphism_perms on the signature of a structure; a
    unary map u enters as the table (x, y) -> u[x], which a permutation
    preserves exactly when it preserves u."""
    n, binops, unops = signature_of(structure)
    tables = [op.tolist() for op in binops] + [[[v] * n for v in u.tolist()] for u in unops]
    return automorphism_perms([tuple(map(tuple, t)) for t in tables], n)


def test_automorphisms_match_the_permutation_oracle_on_lattices_and_groups():
    structures = [s for n in range(1, 5) for s in enumerate_skew_lattices(n)]
    for structure in structures + list(GROUP_CATALOG.values()):
        assert automorphisms_of(structure) == _oracle_automorphisms(structure)


def any_algebras(n):
    return random_algebras(n) | symmetric_algebras(n)


def sparse_tables(n):
    """One operation with most cells on one value: the profile leaves large
    classes, and an image forced by one cell may be the only check on it."""
    def around(c):
        cells = st.lists(st.sampled_from([c] * (3 * n) + list(range(n))), min_size=n * n, max_size=n * n)
        return cells.map(lambda t: OperationTable(np.reshape(t, (n, n))))

    return st.integers(0, n - 1).flatmap(around)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: any_algebras(n) | sparse_tables(n)))
def test_automorphisms_match_the_permutation_oracle_on_random_tables(structure):
    assert automorphisms_of(structure) == _oracle_automorphisms(structure)


@pytest.mark.parametrize(
    "table",
    [
        # 3 is only ever the value of 0.0, so the profile cannot tell it from
        # 2: only the image that cell forces on 3 rules out swapping them
        [[3, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
        # step 3 forces the image of 4 through 3.0, 3.1 and 3.2 at once, and
        # only their agreement rules out swapping 2 and 4
        [[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [4, 4, 4, 0, 2], [0, 0, 0, 0, 0]],
    ],
)
def test_forced_images_are_checked(table):
    t = OperationTable(table)
    assert automorphisms_of(t) == [tuple(range(len(table)))] == _oracle_automorphisms(t)


@pytest.mark.parametrize(
    "table",
    [
        # 0 -> 0 forces 2 -> 0.0 = 2, and 1 -> 2 forces nothing new, so at
        # step 2 every image is known: [0, 2, 2] preserves the table, and
        # only the bijection check refuses it
        [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
        # 0 -> 1 forces 1 -> 1.1 = 0 at step 0, so at step 1 the image
        # [1, 0] is known and a bijection; only the cells left refuse it:
        # 0.1 = 0 goes to 1.0 = 0, not to 0's image 1
        [[1, 0], [0, 0]],
    ],
)
def test_a_fully_forced_image_is_checked(table):
    t = OperationTable(table)
    assert automorphisms_of(t) == [tuple(range(len(table)))] == _oracle_automorphisms(t)
    assert _mapping(find_isomorphism(t, t)) == _oracle(t, t)


def test_a_structure_without_elements_has_the_empty_automorphism():
    groupoid = FiniteGroupoid(1, [], [], np.zeros((0, 0)), [])
    empty = np.zeros((0, 1))
    system = RestrictionSystem(groupoid, chain_lattice(1), empty.T, empty, empty.T, empty)
    assert automorphisms_of(system) == [()]
    assert find_isomorphism(system, system).mapping == ()


@pytest.mark.parametrize("binary, unary", [(1, 0), (2, 0), (1, 1), (2, 1)])
def test_the_schedule_of_a_shape_equals_its_scalar_definition(binary, unary):
    # the signatures of an operation table, a skew lattice, a group, and an
    # algebra or system: step x takes the cells (k, p, q) with max(p, q) = x
    # in flat order, only p = q in a unary block k >= binary
    for n in range(1, 7):
        cells, bounds = [], [0]
        for x in range(n):
            cells += [
                (k, p, q)
                for k in range(binary + unary)
                for p in range(n)
                for q in range(n)
                if max(p, q) == x and (k < binary or p == q)
            ]
            bounds.append(len(cells))
        positions, offsets, pq, got_bounds = _schedule(n, binary, unary)
        assert positions.tolist() == [k * n * n + p * n + q for k, p, q in cells]
        assert offsets.tolist() == [k * n * n for k, _, _ in cells]
        assert pq.tolist() == [[p for _, p, _ in cells], [q for _, _, q in cells]]
        assert got_bounds == tuple(bounds)
        assert not any(arr.flags.writeable for arr in (positions, offsets, pq))
        assert _schedule(n, binary, unary) is _schedule(n, binary, unary)


def test_grouped_candidates_equal_one_search_per_element(suite):
    # same-order suite algebras, and random profiles with classes b lacks
    rng = random.Random(20)
    profiles = [_idempotent_profile(signature_of(inst.algebra)) for inst in suite]
    pairs = []
    for a in rng.sample(profiles, 40):
        pairs.append((a, rng.choice([b for b in profiles if len(b) == len(a)])))
    pairs += [(np.array(rng.choices(range(4), k=n)), np.array(rng.choices(range(3), k=n))) for n in range(1, 25)]
    for profile_a, profile_b in pairs:
        expected = [np.flatnonzero(profile_b == c).tolist() for c in profile_a]
        assert _candidates(profile_a, profile_b) == expected


def _outgrow_a_chunk(items):
    """items repeated cyclically until there are more than one chunk of them."""
    return [items[i % len(items)] for i in range(max(len(items), _CHUNK + 1))]


def _assert_stack_keys(n, binops, unops, expected):
    """canonical_tables keys a stack longer than one chunk item by item as
    expected, and the reversed stack in reverse."""
    binops, unops = [np.array(t) for t in binops], [np.array(u) for u in unops]
    assert len(expected) > _CHUNK
    keys = canonical_tables(n, binops, unops)
    assert [tuple(key) for key in keys.tolist()] == expected
    reverse = canonical_tables(n, [t[::-1] for t in binops], [u[::-1] for u in unops])
    assert np.array_equal(reverse, keys[::-1])


def test_canonical_tables_match_the_oracle_on_labelled_bands_and_skew_lattices():
    # every labelled band, and every meet/join pair, of an order in one stack
    for n in range(1, 5):
        meets = [band.tolist() for band in labeled_bands(n)]
        bands = _outgrow_a_chunk(meets)
        _assert_stack_keys(n, [bands], [], [least_relabelling(n, [meet]) for meet in bands])
        roots, joins = _fill(_join_options(np.array(meets)))
        pairs = _outgrow_a_chunk([(meets[r], join) for r, join in zip(roots.tolist(), joins.tolist())])
        expected = [least_relabelling(n, pair) for pair in pairs]
        _assert_stack_keys(n, zip(*pairs), [], expected)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.lists(any_algebras(n), min_size=1, max_size=3)),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_canonical_tables_match_the_oracle_on_random_tables(bases, with_star, rnd):
    # relabelled copies of a few random algebras, more than one chunk of
    # them; each copy has the least relabelling of its base
    n = bases[0].order
    keys = [
        least_relabelling(n, [a.join.tolist(), a.meet.tolist()], [a.star.tolist()] if with_star else [])
        for a in bases
    ]
    size = rnd.randint(_CHUNK + 1, 2 * _CHUNK)
    picks = [(rnd.randrange(len(bases)), rnd.sample(range(n), n)) for _ in range(size)]
    binops = [[relabel(getattr(bases[b], op).array, perm) for b, perm in picks] for op in ("join", "meet")]
    unops = [[relabel_unary(bases[b].star, perm) for b, perm in picks]] if with_star else []
    _assert_stack_keys(n, binops, unops, [keys[b] for b, _ in picks])
