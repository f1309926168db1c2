import gc
import types
import weakref
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    action_law_witnesses,
    action_orbit_count,
    automorphism_perms,
    brute_force_action_maps,
    enumerate_actions_loop,
    greedy_separating_congruence,
    largest_congruence_inside_parts,
    orbit_representatives,
)
from skewalg import (
    ActionInvalidError,
    BiBandAlgebra,
    BoundExceededError,
    FiniteGroupoid,
    GroupTable,
    RestrictionSystem,
    SkewLatticeTable,
    automorphisms_of,
    check_action,
    chain_lattice,
    congruence_kernels,
    cyclic_group,
    dedupe_actions,
    discrete_system,
    enumerate_actions,
    enumerate_skew_lattices,
    generate_model_suite,
    klein_four,
    normal_form_report,
    rectangular_skew,
    semidirect_algebra,
    semidirect_groupoid,
    symmetric_group3,
    trivial_action,
)
from skewalg.models import (
    GROUP_CATALOG,
    GroupAction,
    _certificate,
    _element_words,
    _max_idempotent_separating_congruence,
    _unary_images,
)
from skewalg.serialize import structure_from_dict, structure_to_dict

SUITE_SIZE = 379          # |G| in {1,2,3,4,6}, |B| <= 4, deduped
SUITE_SIZE_BAND3 = 102    # same groups, |B| <= 3; equals the oracle count
SMALL_LATTICES = [lattice for nb in range(1, 5) for lattice in enumerate_skew_lattices(nb)]


def rect2():
    return enumerate_skew_lattices(2)[2]


def test_catalog_orders_and_shapes():
    orders = {name: g.order for name, g in GROUP_CATALOG.items()}
    assert orders == {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "V4": 4, "S3": 6}


def test_klein_four_is_elementary_abelian():
    g = klein_four()
    assert g.inverse.tolist() == [0, 1, 2, 3]
    assert np.array_equal(g.table.array, g.table.array.T)


def test_symmetric_group3_is_not_abelian():
    g = symmetric_group3()
    assert not np.array_equal(g.table.array, g.table.array.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_cyclic_group_table(n):
    g = cyclic_group(n)
    assert g.identity == 0
    assert all(g.table(i, j) == (i + j) % n for i in range(n) for j in range(n))


def test_trivial_action_passes_checks():
    a = trivial_action(GROUP_CATALOG["S3"], chain_lattice(3))
    assert check_action(a).ok


def test_trivial_action_and_discrete_system_take_a_meet_join_pair():
    lattice = chain_lattice(3)
    pair = (lattice.meet.array, lattice.join.array)
    group = GROUP_CATALOG["S3"]
    assert trivial_action(group, pair) == trivial_action(group, lattice)
    from_pair, from_lattice = discrete_system(pair), discrete_system(lattice)
    assert from_pair.objects == lattice
    for name in ("restL", "restR", "extL", "extR"):
        assert np.array_equal(getattr(from_pair, name), getattr(from_lattice, name))


def test_swap_action_passes_checks():
    a = GroupAction(GROUP_CATALOG["C2"], rect2(), [[0, 1], [1, 0]])
    assert check_action(a).ok


def test_action_shape_is_validated():
    with pytest.raises(ActionInvalidError):
        GroupAction(GROUP_CATALOG["C2"], rect2(), [[0, 1, 0], [1, 0, 1]])
    with pytest.raises(ActionInvalidError):
        GroupAction(GROUP_CATALOG["C2"], rect2(), [[0, 5], [1, 0]])


def test_non_action_table_fails_composition_law():
    # u=1 applied twice should return to the identity; this table does not
    a = GroupAction(GROUP_CATALOG["C3"], rect2(), [[0, 1, 1], [1, 0, 0]])
    report = check_action(a)
    assert not report.ok


def test_non_automorphism_fails_meet_law():
    # constant map is not injective on the rectangular pair
    a = GroupAction(GROUP_CATALOG["C2"], rect2(), [[0, 0], [1, 0]])
    report = check_action(a)
    assert not report.ok


@pytest.mark.parametrize("gname", ["C1", "C2", "C3", "C4", "V4", "S3"])
@pytest.mark.parametrize("nb", [1, 2, 3])
def test_action_classes_match_orbit_oracle(gname, nb):
    g = GROUP_CATALOG[gname]
    table = g.table.tolist()
    e = int(g.identity)
    for lattice in enumerate_skew_lattices(nb):
        meet, join = lattice.meet.tolist(), lattice.join.tolist()
        labeled = brute_force_action_maps(table, e, meet, join)
        found = enumerate_actions(g, lattice)
        assert len(found) == len(labeled)
        expect = action_orbit_count(labeled, table, meet, join)
        assert len(dedupe_actions(found)) == expect
        for actions in (found, found[::-1]):
            tables = [tuple(map(tuple, a.act.tolist())) for a in actions]
            kept = [tuple(map(tuple, a.act.tolist())) for a in dedupe_actions(actions)]
            assert kept == orbit_representatives(tables, table, meet, join)


def test_dedupe_refuses_actions_over_different_structures():
    # both pairs once deduped to one action, with the automorphisms of the
    # first action's structures read against the second's table
    c2 = GROUP_CATALOG["C2"]
    first = trivial_action(c2, chain_lattice(2))
    for other in (
        trivial_action(c2, rectangular_skew(2)),
        trivial_action(GROUP_CATALOG["C3"], chain_lattice(3)),
    ):
        for actions in ([first, other], [other, first]):
            with pytest.raises(ValueError, match="one group on one lattice"):
                dedupe_actions(actions)


def test_dedupe_compares_group_and_lattice_by_value():
    # an action read back from its dict holds its own group and lattice
    # objects, equal to the first action's but not the same objects
    actions = enumerate_actions(GROUP_CATALOG["C2"], enumerate_skew_lattices(3)[1])
    assert len(actions) == 2
    rebuilt = [structure_from_dict(structure_to_dict(a)) for a in actions]
    assert rebuilt[0].group is not rebuilt[1].group and rebuilt[0].lattice is not rebuilt[1].lattice
    assert _tables(dedupe_actions(rebuilt)) == _tables(dedupe_actions(actions))


def test_dedupe_of_no_actions_is_empty():
    assert dedupe_actions([]) == []


def test_dedupe_passes_a_lone_action_through_without_a_search(monkeypatch):
    import skewalg.models as models

    (action,) = enumerate_actions(GROUP_CATALOG["C3"], chain_lattice(2))

    def refuse(structure):
        raise AssertionError(f"searched {structure!r}")

    monkeypatch.setattr(models, "automorphisms_of", refuse)
    kept = dedupe_actions([action])
    assert kept == [action] and kept[0] is action


def _tables(actions):
    return [tuple(map(tuple, a.act.tolist())) for a in actions]


@pytest.mark.parametrize("salted", [False, True])
def test_batched_enumeration_matches_the_candidate_loop(salted):
    # every (group, lattice) pair of the suite, order 4 included; salted,
    # the list also holds permutations that are no automorphism, so the
    # meet and join laws have candidates to reject
    pairs = 0
    for lattice in SMALL_LATTICES:
        nb, meet, join = lattice.order, lattice.meet.tolist(), lattice.join.tolist()
        auts = automorphism_perms([tuple(map(tuple, meet)), tuple(map(tuple, join))], nb)
        others = [p for p in permutations(range(nb)) if p not in auts]
        perms = others[:1] + auts + others[1:2] if salted else auts
        candidates = lattice
        if salted:  # a fresh copy whose kept automorphisms are the salted list
            candidates = SkewLatticeTable(lattice.meet, lattice.join)
            candidates._automorphisms = tuple(perms)
            assert automorphisms_of(candidates) == perms
        for group in GROUP_CATALOG.values():
            gens, words = _element_words(group)
            found = _tables(enumerate_actions(group, candidates))
            expect = enumerate_actions_loop(
                group.table.tolist(), int(group.identity), meet, join, perms, gens, words
            )
            assert found == expect
            assert found == _tables(enumerate_actions(group, lattice))
            pairs += 1
    assert pairs == 192


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_action_flags_and_witnesses_match_the_scalar_laws(data):
    # arbitrary tables, most of them no action: each law's flag and first
    # witness must be the scalar oracle's, so the laws stay apart
    group = data.draw(st.sampled_from(list(GROUP_CATALOG.values())))
    lattice = data.draw(st.sampled_from(SMALL_LATTICES))
    nb = lattice.order
    act = data.draw(
        st.lists(st.lists(st.integers(0, nb - 1), min_size=group.order, max_size=group.order),
                 min_size=nb, max_size=nb)
    )
    report = check_action(GroupAction(group, lattice, act))
    expect = action_law_witnesses(
        act, group.table.tolist(), int(group.identity), lattice.meet.tolist(), lattice.join.tolist()
    )
    assert {c.name: c.witness for c in report.checks()} == expect
    assert report.ok == (not any(expect.values()))


def moved_identity(name):
    """Catalog group `name` with element x renamed (x + 1) % n, so that its
    identity is 1 and element 0 is not the identity."""
    group = GROUP_CATALOG[name]
    perm = (np.arange(group.order) + 1) % group.order
    back = np.argsort(perm)
    return GroupTable(perm[group.table.array[np.ix_(back, back)]])


MOVED = {name: moved_identity(name) for name in ("C3", "V4", "S3")}
LATTICES_TO_3 = [lattice for lattice in SMALL_LATTICES if lattice.order <= 3]


def test_relabelled_groups_keep_their_identity_away_from_0():
    for group in MOVED.values():
        gt, inv = group.table.array, group.inverse
        assert group.identity == 1
        assert (gt[np.arange(group.order), inv] == 1).all()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_action_laws_read_the_identity_of_a_relabelled_group(data):
    # a law that read element 0 as the identity would differ from the
    # scalar laws here, on arbitrary tables and on the group's own actions
    group = MOVED[data.draw(st.sampled_from(sorted(MOVED)))]
    lattice = data.draw(st.sampled_from(SMALL_LATTICES))
    nb = lattice.order
    arbitrary = st.lists(
        st.lists(st.integers(0, nb - 1), min_size=group.order, max_size=group.order),
        min_size=nb, max_size=nb,
    )
    actions = _tables(enumerate_actions(group, lattice))
    act = data.draw(st.sampled_from(actions) | arbitrary if actions else arbitrary)
    report = check_action(GroupAction(group, lattice, act))
    expect = action_law_witnesses(
        act, group.table.tolist(), group.identity, lattice.meet.tolist(), lattice.join.tolist()
    )
    assert {c.name: c.witness for c in report.checks()} == expect
    assert report.ok == (not any(expect.values()))


def test_a_group_finds_its_element_words_once():
    # enumerate_actions reads them once per lattice, 32 times per catalog
    # group in a suite build; a group object keeps the pair it found
    group = GroupTable(GROUP_CATALOG["S3"].table)
    words = _element_words(group)
    assert _element_words(group) is words
    assert enumerate_actions(group, SMALL_LATTICES[0]) and _element_words(group) is words
    assert words == _element_words(GroupTable(group.table))


@pytest.mark.parametrize("name", sorted(MOVED))
def test_enumeration_for_a_relabelled_group_matches_the_candidate_loop(name):
    group = MOVED[name]
    gens, words = _element_words(group)
    moved = 0  # actions where element 0, not the identity, moves a point
    for lattice in LATTICES_TO_3:
        nb, meet, join = lattice.order, lattice.meet.tolist(), lattice.join.tolist()
        auts = automorphism_perms([tuple(map(tuple, meet)), tuple(map(tuple, join))], nb)
        found = _tables(enumerate_actions(group, lattice))
        expect = enumerate_actions_loop(group.table.tolist(), 1, meet, join, auts, gens, words)
        assert found == expect
        moved += sum(any(row[0] != a for a, row in enumerate(act)) for act in found)
    assert moved


def test_suite_size_is_pinned(suite):
    assert len(suite) == SUITE_SIZE
    assert len({inst.name for inst in suite}) == SUITE_SIZE


def test_suite_size_at_band_three_matches_oracle_total():
    assert len(generate_model_suite(max_group=6, max_band=3)) == SUITE_SIZE_BAND3


def test_suite_bound_is_enforced():
    with pytest.raises(BoundExceededError):
        generate_model_suite(max_group=7)
    with pytest.raises(BoundExceededError):
        generate_model_suite(max_band=5)


def test_instances_carry_consistent_pieces(suite):
    for inst in suite[:50]:
        A = inst.action
        assert inst.algebra.order == A.group.order * A.lattice.order
        assert inst.system.morphism_count == A.group.order * A.lattice.order
        assert inst.system.object_count == A.lattice.order


def test_groupoid_morphisms_run_from_b_to_b_acted(suite):
    # morphism (b, g) has dom b and cod b^g
    for inst in suite[:50]:
        A, sysm = inst.action, inst.system
        ng = A.group.order
        for m in range(sysm.morphism_count):
            b, g = divmod(m, ng)
            assert int(sysm.groupoid.dom[m]) == b
            assert int(sysm.groupoid.cod[m]) == int(A.act[b, g])


def test_kernel_of_trivial_action_is_whole_group():
    a = trivial_action(GROUP_CATALOG["C3"], chain_lattice(3))
    kernels, report = congruence_kernels(a)
    assert report.ok
    assert all(k == frozenset({0, 1, 2}) for k in kernels.values())


def test_kernel_of_faithful_action_is_identity_alone():
    a = GroupAction(GROUP_CATALOG["C2"], rect2(), [[0, 1], [1, 0]])
    kernels, report = congruence_kernels(a)
    assert report.ok
    assert all(k == frozenset({0}) for k in kernels.values())


def test_kernel_of_action_through_quotient():
    # C4 acting through its order-2 quotient: kernel {0, 2}
    a = GroupAction(
        GROUP_CATALOG["C4"], rect2(), [[0, 1, 0, 1], [1, 0, 1, 0]]
    )
    kernels, report = congruence_kernels(a)
    assert report.ok
    assert all(k == frozenset({0, 2}) for k in kernels.values())


def test_kernels_agree_across_objects_and_are_normal(suite):
    for inst in suite:
        kernels, report = congruence_kernels(inst.action)
        assert report.ok, f"{inst.name}: {report.first_failure()}"
        values = set(kernels.values())
        assert len(values) == 1
        (k,) = values
        g = inst.action.group
        gt = g.table.array
        assert int(g.identity) in k
        for u in k:
            for w in range(g.order):
                assert gt[gt[w, u], g.inverse[w]] in k


def test_some_suite_instance_has_proper_nontrivial_kernel(suite):
    sizes = set()
    for inst in suite:
        kernels, _ = congruence_kernels(inst.action)
        k = next(iter(kernels.values()))
        if 1 < len(k) < inst.action.group.order:
            sizes.add(len(k))
    assert sizes, "expected proper nontrivial kernels somewhere in the suite"


def test_normal_form_with_top():
    a = trivial_action(GROUP_CATALOG["C2"], chain_lattice(2))
    report = normal_form_report(a)
    assert report.ok
    assert report["normal_form_meet"].ok and report["normal_form_meet"].required


def test_normal_form_skipped_without_top():
    a = GroupAction(GROUP_CATALOG["C2"], rect2(), [[0, 1], [1, 0]])
    report = normal_form_report(a)
    meet = report["normal_form_meet"]
    assert not meet.required
    assert meet.note


def test_kernels_and_normal_forms_use_the_pair_algebra_the_action_has(suite, monkeypatch):
    # each suite instance holds its action's pair algebra, so neither
    # congruence_kernels nor normal_form_report builds it again; every
    # build makes one BiBandAlgebra in skewalg.models
    import skewalg.models as models

    built = []
    monkeypatch.setattr(models, "BiBandAlgebra", lambda *tables: built.append(tables) or BiBandAlgebra(*tables))
    for inst in suite:
        assert semidirect_algebra(inst.action) is inst.algebra
        congruence_kernels(inst.action)
        normal_form_report(inst.action)
    assert built == []
    # a fresh action builds its algebra once, on the first call
    fresh = structure_from_dict(structure_to_dict(suite[-1].action))
    assert semidirect_algebra(fresh) is semidirect_algebra(fresh) == suite[-1].algebra
    assert len(built) == 1


def test_an_action_keeps_its_one_pair_algebra():
    # the action holds its algebra and the algebra holds nothing of the
    # action, so there is no cycle: with the cycle collector off, deleting
    # the suite frees its actions and their algebras at once
    def reachable(root):
        # ids of the objects root refers to, directly or not, short of
        # classes and modules
        seen, stack = set(), [root]
        while stack:
            obj = stack.pop()
            if id(obj) not in seen and not isinstance(obj, (type, types.ModuleType)):
                seen.add(id(obj))
                stack.extend(gc.get_referents(obj))
        return seen

    suite = generate_model_suite(max_group=2, max_band=2)
    for inst in suite:
        assert semidirect_algebra(inst.action) is semidirect_algebra(inst.action) is inst.algebra
        assert id(inst.algebra) in reachable(inst.action)
        assert id(inst.action) not in reachable(inst.algebra)
    refs = [weakref.ref(obj) for inst in suite for obj in (inst.action, inst.algebra)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del suite, inst
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def partition_of(labels):
    classes = {}
    for x, label in enumerate(labels):
        classes.setdefault(int(label), set()).add(x)
    return {frozenset(c) for c in classes.values()}


def test_congruence_matches_greedy_oracle_on_suite(suite):
    for inst in suite:
        S = inst.algebra
        labels, certified = _max_idempotent_separating_congruence(S)
        expect, is_max = greedy_separating_congruence(
            S.meet.tolist(), S.join.tolist(), S.star.tolist()
        )
        assert partition_of(labels) == expect, inst.name
        assert certified.all() and is_max, inst.name


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_refinement_is_the_largest_congruence_inside_parts(data):
    # arbitrary tables, most of them no algebra: the refinement must still
    # find the coarsest partition of E that every unary map respects
    n = data.draw(st.integers(1, 6))
    entry = st.integers(0, n - 1)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    meet, join = data.draw(square), data.draw(square)
    star = data.draw(st.lists(entry, min_size=n, max_size=n))
    labels, _ = _max_idempotent_separating_congruence(BiBandAlgebra(join, meet, star))
    assert partition_of(labels) == largest_congruence_inside_parts(meet, join, star)


def test_refinement_runs_until_no_class_splits():
    # E = {0}, {1..4}; the star shifts x to x-1, so each round splits off
    # one more element and only the fourth round leaves the count unchanged
    n = 5
    meet = [[0] * n for _ in range(n)]
    meet[0][0] = 1
    join = [[0] * n for _ in range(n)]
    star = [0, 0, 1, 2, 3]
    labels, _ = _max_idempotent_separating_congruence(BiBandAlgebra(join, meet, star))
    expect = {frozenset({x}) for x in range(n)}
    assert partition_of(labels) == expect == largest_congruence_inside_parts(meet, join, star)


def test_certificate_fails_when_one_label_is_corrupted(suite):
    # the partition is the maximum, so moving any one element into another
    # class gives a partition that is no separating congruence
    checked = 0
    for inst in suite[::19]:
        S = inst.algebra
        labels, certified = _max_idempotent_separating_congruence(S)
        assert certified.all()
        images = _unary_images(S)
        for x in range(S.order):
            for other in set(labels.tolist()) - {int(labels[x])}:
                broken = labels.copy()
                broken[x] = other
                assert not _certificate(S, broken, images).all(), (inst.name, x, other)
                checked += 1
    assert checked > 100



def test_public_builders_keep_their_guard():
    bad = GroupAction(GROUP_CATALOG["C3"], rect2(), [[0, 1, 1], [1, 0, 0]])
    for build in (semidirect_algebra, semidirect_groupoid):
        with pytest.raises(ActionInvalidError):
            build(bad)


def test_suite_checks_each_action_once(monkeypatch):
    # the action laws run once over each stack of candidates while they are
    # enumerated, and never on a kept action's stack of one: each kept action
    # carries the passing report, so no builder evaluates a law again
    import skewalg.models as models

    stacks = []
    laws = models._action_laws
    monkeypatch.setattr(models, "_action_laws", lambda acts, *rest: stacks.append(acts) or laws(acts, *rest))
    suite = generate_model_suite(max_group=3, max_band=2)
    groups = sum(g.order <= 3 for g in GROUP_CATALOG.values())
    lattices = sum(len(enumerate_skew_lattices(nb)) for nb in (1, 2))
    assert suite and len(stacks) == groups * lattices
    for inst in suite:
        semidirect_algebra(inst.action)
        semidirect_groupoid(inst.action)
    assert len(stacks) == groups * lattices
    monkeypatch.undo()
    for inst in suite:
        assert check_action(inst.action).ok
        assert semidirect_algebra(inst.action) is inst.algebra
        assert structure_to_dict(inst.system) == structure_to_dict(semidirect_groupoid(inst.action))


def test_suite_searches_each_structure_once(monkeypatch):
    # counts the automorphism searches themselves, each keyed by the first
    # table it reads, which belongs to one group or lattice object; the
    # catalog groups start unsearched, keep their automorphisms for the
    # process, and the second build's fresh lattices are searched anew.
    # C1 acts on each lattice in one way only, and dedupe_actions passes a
    # lone action through, so the trivial group is never searched
    import skewalg.isomorphism as isomorphism

    for group in GROUP_CATALOG.values():
        monkeypatch.delattr(group, "_automorphisms", raising=False)
    searches = Counter()
    search = isomorphism._isomorphisms

    def counted(sig_a, sig_b):
        searches[id(sig_a[1][0])] += 1
        return search(sig_a, sig_b)

    monkeypatch.setattr(isomorphism, "_isomorphisms", counted)
    groups = {id(group.table.array): 1 for name, group in GROUP_CATALOG.items() if name != "C1"}
    for _ in range(2):
        searches.clear()
        suite = generate_model_suite()
        lattices = {id(inst.action.lattice.meet.array): 1 for inst in suite}
        assert len(lattices) == len(SMALL_LATTICES)
        assert searches == Counter({**lattices, **groups})
        groups = {}


def test_groupoids_systems_and_actions_copy_the_callers_arrays(suite):
    inst = suite[-1]
    g, sys_ = inst.system.groupoid, inst.system
    arrays = [np.array(a) for a in (g.dom, g.cod, g.comp, g.inv)]
    tables = [np.array(t) for t in (sys_.restL, sys_.restR, sys_.extL, sys_.extR)]
    act = np.array(inst.action.act)
    groupoid = FiniteGroupoid(g.object_count, *arrays)
    system = RestrictionSystem(groupoid, sys_.objects, *tables)
    action = GroupAction(inst.action.group, inst.action.lattice, act)
    for a in arrays + tables + [act]:
        assert a.flags.writeable
        a[...] = 0
    assert structure_to_dict(system) == structure_to_dict(sys_)
    assert action == inst.action


def _writable_arrays(obj, path, seen):
    """Paths of every writeable ndarray reachable from obj through the
    attributes and slots of package objects, tuples and lists."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [path] if obj.flags.writeable else []
    if isinstance(obj, (tuple, list)):
        items = [(f"[{i}]", v) for i, v in enumerate(obj)]
    elif type(obj).__module__.startswith("skewalg"):
        fields = dict(getattr(obj, "__dict__", {}))
        for cls in type(obj).__mro__:
            fields.update({s: getattr(obj, s) for s in getattr(cls, "__slots__", ()) if hasattr(obj, s)})
        items = [(f".{k}", v) for k, v in fields.items()]
    else:
        return []
    return [p for key, v in items for p in _writable_arrays(v, path + key, seen)]


def test_no_array_of_a_suite_instance_or_catalog_group_is_writeable(suite):
    # groups are shared across the process, and a system caches its report,
    # so a writable derived array could change a verdict after the check;
    # a system derives its arrays on first use, so use every one first
    for inst in suite:
        assert inst.system.full_report().ok
    writable = {
        p
        for inst in suite
        for part in ("action", "algebra", "system")
        for p in _writable_arrays(getattr(inst, part), f"{inst.name}.{part}", set())
    }
    for name, group in GROUP_CATALOG.items():
        writable.update(_writable_arrays(group, name, set()))
    assert not writable
    with pytest.raises(ValueError):
        GROUP_CATALOG["C3"].inverse[1] = 1


def test_generating_the_suite_leaves_its_systems_underived():
    # writing a system out reads only its input tables
    assert not any("_sides" in vars(inst.system) for inst in generate_model_suite())
