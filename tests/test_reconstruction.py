import random
import re

import numpy as np
import pytest
from census import census
from oracles import brute_force_biband_algebras, reconstruct_skeleton, relabel, relabel_unary
from test_system import swap_action

from skewalg import (
    AxiomViolationError,
    BiBandAlgebra,
    CompositionAmbiguityError,
    SkeletonNotClosedError,
    build_algebra,
    check_axioms,
    check_skehr,
    find_isomorphism,
    reconstruct,
    roundtrip_algebra,
    roundtrip_groupoid,
    save_structure,
    semidirect_algebra,
    semidirect_groupoid,
    verify_derived_identities,
)
from skewalg.cli import dispatch


def triples(rec):
    """(d, s, r) per morphism s of a rebuilt system: the algebra elements of
    its domain and codomain objects around s itself."""
    g = rec.groupoid
    return [(int(g.identity_of[g.dom[s]]), s, int(g.identity_of[g.cod[s]])) for s in range(rec.morphism_count)]


def test_reconstructed_morphisms_are_the_elements():
    S = semidirect_algebra(swap_action())
    rec = reconstruct(S)
    assert rec.morphism_count == S.order
    jt, st = S.join.array, S.star
    assert triples(rec) == [(int(jt[s, st[s]]), s, int(jt[st[s], s])) for s in range(S.order)]


def test_reconstructed_objects_are_the_idempotents():
    S = semidirect_algebra(swap_action())
    rec = reconstruct(S)
    mt = S.meet.array
    objects = rec.groupoid.identity_of
    assert all(int(mt[b, b]) == b for b in objects)
    # each object's element lies at that object
    assert rec.groupoid.dom[objects].tolist() == list(range(rec.object_count))


def test_reconstructed_system_passes_derived_identities(suite):
    for inst in suite[:30]:
        assert verify_derived_identities(reconstruct(inst.algebra)).ok


def test_reconstruct_matches_direct_groupoid_construction(suite):
    # (s∨s*, s, s*∨s) triples against the (b, g, b^g) construction
    for inst in suite:
        if inst.algebra.order > 12:
            continue
        assert find_isomorphism(reconstruct(inst.algebra), inst.system) is not None, inst.name


def test_roundtrip_groupoid_is_identity_on_suite(suite):
    for inst in suite:
        iso = roundtrip_groupoid(inst.system)
        assert iso.mapping == tuple(range(inst.system.morphism_count)), inst.name


def test_roundtrip_algebra_is_identity_on_suite(suite):
    for inst in suite:
        iso = roundtrip_algebra(inst.algebra)
        assert iso.mapping == tuple(range(inst.algebra.order)), inst.name


def _reverse_direction(S):
    """The objects reconstruct(S) finds, as algebra elements, after checking
    that S passes the axioms and that both round trips through it are the
    identity."""
    assert check_axioms(S).ok
    rec = reconstruct(S)
    assert roundtrip_algebra(S).mapping == tuple(range(S.order))
    assert roundtrip_groupoid(rec).mapping == tuple(range(rec.morphism_count))
    return rec.groupoid.identity_of.tolist()


def test_every_labelled_algebra_of_order_at_most_2_round_trips():
    labelled = [BiBandAlgebra(*tables) for n in (1, 2) for tables in brute_force_biband_algebras(n)]
    assert len(labelled) == 7
    for S in labelled:
        _reverse_direction(S)


def relabelled(suite):
    """One relabelling of each suite algebra, by a seeded permutation."""
    rng = random.Random(1810)
    out = []
    for inst in suite:
        S = inst.algebra
        perm = rng.sample(range(S.order), S.order)
        out.append(BiBandAlgebra(
            relabel(S.join.array.tolist(), perm), relabel(S.meet.array.tolist(), perm),
            relabel_unary(S.star.tolist(), perm),
        ))
    return out


def test_a_relabelled_suite_algebra_round_trips(suite):
    # suite algebras come out of reconstruct with their objects in
    # increasing order; most relabellings do not
    unordered = 0
    for moved in relabelled(suite):
        objects = _reverse_direction(moved)
        unordered += objects != sorted(objects)
    assert unordered > len(suite) // 2


def test_reconstruct_objects_and_triples_match_the_skeleton_loop(suite):
    # on passing algebras the identity morphisms are the loop's objects in
    # its first-occurrence order, dom maps each object element to its
    # object, and the triples read back as (s∨s*, s, s*∨s)
    algebras = [inst.algebra for inst in suite] + relabelled(suite)
    algebras += [S for n in (1, 2, 3) for S in census(n)]
    for S in algebras:
        join, meet, star = S.join.tolist(), S.meet.tolist(), S.star.tolist()
        objects, object_index, *_ = reconstruct_skeleton(join, meet, star)
        rec = reconstruct(S)
        assert rec.groupoid.identity_of.tolist() == objects
        assert {e: int(rec.groupoid.dom[e]) for e in objects} == object_index
        assert triples(rec) == [(join[s][star[s]], s, join[star[s]][s]) for s in range(S.order)]
    assert len(algebras) == 2 * len(suite) + 1 + 4 + 8


def test_roundtrip_survives_build_algebra_composition():
    sysm = semidirect_groupoid(swap_action())
    S = build_algebra(sysm)
    assert build_algebra(reconstruct(S)) == S


def test_reconstruct_guard_rejects_failing_algebra():
    S = semidirect_algebra(swap_action())
    st = S.star.copy()
    st[2], st[3] = st[3], st[2]
    broken = BiBandAlgebra(S.join.array, S.meet.array, st)
    assert not check_axioms(broken).ok
    with pytest.raises(AxiomViolationError):
        reconstruct(broken)


def test_disagreeing_products_raise_ambiguity():
    S = semidirect_algebra(swap_action())
    jt = S.join.array.copy()
    idx = np.arange(S.order)
    d_el = jt[idx, S.star]
    r_el = jt[S.star, idx]
    st = S.star
    # a composable pair away from the s∨s* positions, so the endpoint data
    # is untouched and only the product value moves
    s, t = next(
        (s, t)
        for s in range(S.order)
        for t in range(S.order)
        if r_el[s] == d_el[t] and t != int(st[s]) and s != int(st[t])
    )
    jt[s, t] = (jt[s, t] + 1) % S.order
    broken = BiBandAlgebra(jt, S.meet.array, S.star)
    with pytest.raises(CompositionAmbiguityError):
        reconstruct(broken, check=False)


def test_an_order_5_algebra_that_does_not_reconstruct_fails_the_axioms(tmp_path):
    # two C5 products that share identity 4 and the inverse map; one object,
    # so every pair is composable, and meet and join disagree on (0, 0):
    # check_axioms refuses it by the law reconstruct needs
    meet = [[2, 4, 3, 1, 0], [4, 3, 0, 2, 1], [3, 0, 1, 4, 2], [1, 2, 4, 0, 3], [0, 1, 2, 3, 4]]
    join = [[3, 4, 1, 2, 0], [4, 2, 3, 0, 1], [1, 3, 0, 4, 2], [2, 0, 4, 1, 3], [0, 1, 2, 3, 4]]
    S = BiBandAlgebra(join, meet, [1, 0, 3, 2, 4])
    report = check_axioms(S)
    assert [c.name for c in report.checks() if not c.ok] == ["composable_products_agree"]
    assert report.first_failure().witness == (0, 0)
    assert check_skehr(S).ok
    message = "products disagree on composable pair (0, 0): 2 by meet, 3 by join"
    with pytest.raises(CompositionAmbiguityError, match=re.escape(message)):
        reconstruct(S, check=False)
    path = tmp_path / "order-5.json"
    save_structure(path, S)
    run, code = dispatch(["check-algebra", str(path)])
    checks = run["report"]["checks"]
    assert (code, run["ok"], len(checks), sum(c["ok"] for c in checks.values())) == (1, False, 35, 34)
    assert checks["composable_products_agree"] == {"ok": False, "witness": [0, 0], "required": True, "note": None}
    for command in ("reconstruct", "roundtrip"):
        run, code = dispatch([command, str(path)])
        assert (code, run["ok"]) == (1, False)
        assert run["report"]["checks"] == {
            "composable_products_agree": {"ok": False, "witness": [0, 0], "required": True, "note": None},
        }


def test_non_idempotent_object_products_raise_skeleton_error():
    # idempotents 0 and 1 meet at the non-idempotent 2
    meet = [[0, 2, 2], [2, 1, 2], [2, 2, 0]]
    join = [[0, 2, 2], [2, 1, 2], [2, 2, 0]]
    broken = BiBandAlgebra(join, meet, [0, 1, 2])
    with pytest.raises(SkeletonNotClosedError):
        reconstruct(broken, check=False)


def test_reconstruct_matches_the_skeleton_loop_on_suite_and_mutants(suite):
    # every suite algebra and two seeded mutants of each, with one to three
    # entries changed; the object tables, dom and cod must be the loop's, and
    # a skeleton error must carry the loop's message, hence its first failing
    # element or (i, j) in row-major order
    rng = random.Random(1905)
    algebras = []
    for inst in suite:
        S = inst.algebra
        algebras.append(S)
        for _ in range(2):
            tables = [S.join.array.copy(), S.meet.array.copy(), S.star.copy()]
            for _ in range(rng.randint(1, 3)):
                arr = rng.choice(tables)
                arr[tuple(rng.randrange(k) for k in arr.shape)] = rng.randrange(S.order)
            algebras.append(BiBandAlgebra(*tables))
    raised = {"codomain": 0, "objects": 0}
    for S in algebras:
        join, meet, star = S.join.tolist(), S.meet.tolist(), S.star.tolist()
        want = reconstruct_skeleton(join, meet, star)
        if isinstance(want, str):
            with pytest.raises(SkeletonNotClosedError) as exc:
                reconstruct(S, check=False)
            assert str(exc.value) == want
            raised[want.split()[0]] += 1
            continue
        try:
            rec = reconstruct(S, check=False)
        except CompositionAmbiguityError:
            continue
        _, _, obj_meet, obj_join, dom, cod = want
        assert rec.objects.meet.tolist() == obj_meet
        assert rec.objects.join.tolist() == obj_join
        assert rec.groupoid.dom.tolist() == dom
        assert rec.groupoid.cod.tolist() == cod
    assert all(raised.values()), raised
