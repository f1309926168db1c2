import random
import re

import numpy as np
import pytest
from oracles import reconstruct_skeleton

from skewalg import (
    AxiomViolationError,
    BiBandAlgebra,
    CompositionAmbiguityError,
    SkeletonNotClosedError,
    build_algebra,
    check_axioms,
    check_skehr,
    enumerate_skew_lattices,
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
from skewalg.models import GROUP_CATALOG, GroupAction


def swap_action():
    rect = enumerate_skew_lattices(2)[2]
    return GroupAction(GROUP_CATALOG["C2"], rect, [[0, 1], [1, 0]])


def test_reconstructed_morphisms_are_the_elements():
    S = semidirect_algebra(swap_action())
    rec = reconstruct(S)
    assert rec.system.morphism_count == S.order
    jt, st = S.join.array, S.star
    for s in range(S.order):
        d, mid, r = rec.triples[s]
        assert mid == s
        assert d == int(jt[s, st[s]])
        assert r == int(jt[st[s], s])


def test_reconstructed_objects_are_the_idempotents():
    S = semidirect_algebra(swap_action())
    rec = reconstruct(S)
    mt = S.meet.array
    assert all(int(mt[b, b]) == b for b in rec.objects)
    assert set(rec.object_index) == set(rec.objects)


def test_reconstructed_system_passes_derived_identities(suite):
    for inst in suite[:30]:
        rec = reconstruct(inst.algebra)
        assert verify_derived_identities(rec.system).ok


def test_reconstruct_matches_direct_groupoid_construction(suite):
    # (s∨s*, s, s*∨s) triples against the (b, g, b^g) construction
    for inst in suite:
        if inst.algebra.order > 12:
            continue
        rec = reconstruct(inst.algebra)
        assert find_isomorphism(rec.system, inst.system) is not None, inst.name


def test_roundtrip_groupoid_is_identity_on_suite(suite):
    for inst in suite:
        iso = roundtrip_groupoid(inst.system)
        assert iso.mapping == tuple(range(inst.system.morphism_count)), inst.name


def test_roundtrip_algebra_is_identity_on_suite(suite):
    for inst in suite:
        iso = roundtrip_algebra(inst.algebra)
        assert iso.mapping == tuple(range(inst.algebra.order)), inst.name


def test_roundtrip_survives_build_algebra_composition():
    sysm = semidirect_groupoid(swap_action())
    S = build_algebra(sysm)
    rec = reconstruct(S)
    T = build_algebra(rec.system)
    assert T == S


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


def test_an_order_5_algebra_passes_the_axioms_but_does_not_reconstruct(tmp_path):
    # two C5 products that share identity 4 and the inverse map; one object,
    # so every pair is composable.  check_axioms has no law that meet and
    # join agree on composable pairs, which reconstruct needs: this pins
    # that gap as it stands
    meet = [[2, 4, 3, 1, 0], [4, 3, 0, 2, 1], [3, 0, 1, 4, 2], [1, 2, 4, 0, 3], [0, 1, 2, 3, 4]]
    join = [[3, 4, 1, 2, 0], [4, 2, 3, 0, 1], [1, 3, 0, 4, 2], [2, 0, 4, 1, 3], [0, 1, 2, 3, 4]]
    S = BiBandAlgebra(join, meet, [1, 0, 3, 2, 4])
    assert check_axioms(S).ok and check_skehr(S).ok
    message = "products disagree on composable pair (0, 0): 2 by meet, 3 by join"
    with pytest.raises(CompositionAmbiguityError, match=re.escape(message)):
        reconstruct(S)
    path = tmp_path / "order-5.json"
    save_structure(path, S)
    run, code = dispatch(["check-algebra", str(path)])
    checks = run["report"]["checks"].values()
    assert (code, run["ok"], len(checks), sum(c["ok"] for c in checks)) == (0, True, 34, 34)
    for command in ("reconstruct", "roundtrip"):
        run, code = dispatch([command, str(path)])
        assert (code, run["ok"]) == (1, False)
        assert run["error"] == {"kind": "CompositionAmbiguityError", "message": message}


def test_non_idempotent_object_products_raise_skeleton_error():
    # idempotents 0 and 1 meet at the non-idempotent 2
    meet = [[0, 2, 2], [2, 1, 2], [2, 2, 0]]
    join = [[0, 2, 2], [2, 1, 2], [2, 2, 0]]
    broken = BiBandAlgebra(join, meet, [0, 1, 2])
    with pytest.raises(SkeletonNotClosedError):
        reconstruct(broken, check=False)


def test_reconstruct_matches_the_skeleton_loop_on_suite_and_mutants(suite):
    # every suite algebra and two seeded mutants of each, with one to three
    # entries changed; the objects, their tables, dom, cod and the triples
    # must be the loop's, and a skeleton error must carry the loop's message,
    # hence its first failing element or (i, j) in row-major order
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
        objects, object_index, obj_meet, obj_join, dom, cod = want
        assert rec.objects == tuple(objects)
        assert rec.object_index == object_index
        assert rec.system.objects.meet.tolist() == obj_meet
        assert rec.system.objects.join.tolist() == obj_join
        assert rec.system.groupoid.dom.tolist() == dom
        assert rec.system.groupoid.cod.tolist() == cod
        n = S.order
        assert rec.triples == tuple((join[s][star[s]], s, join[star[s]][s]) for s in range(n))
    assert all(raised.values()), raised
