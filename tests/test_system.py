"""Checks for the partial-operator layer: structure, axiom batteries,
derived identities, and the generalized total operations."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import order_axioms, partial_table_witnesses

import skewalg.algebra
import skewalg.groupoid
import skewalg.system
import skewalg.tables
from skewalg import (
    AxiomReport,
    AxiomViolationError,
    BiBandAlgebra,
    ElementIndexError,
    FiniteGroupoid,
    GroupTable,
    MalformedSystemError,
    RestrictionSystem,
    SkewLatticeTable,
    build_algebra,
    chain_lattice,
    check_axioms,
    check_extension_axioms,
    check_groupoid,
    check_linking,
    check_restriction_axioms,
    check_structure,
    discrete_system,
    enumerate_skew_lattices,
    find_isomorphism,
    group_system,
    inverses_of,
    plus_minus,
    roundtrip_groupoid,
    semidirect_algebra,
    semidirect_groupoid,
    trivial_action,
    verify_derived_identities,
)
from skewalg.errors import SkewalgError
from skewalg.models import GROUP_CATALOG, GroupAction
from skewalg.system import system_checkers


def swap_action():
    rect = enumerate_skew_lattices(2)[2]  # a rectangular pair
    return GroupAction(GROUP_CATALOG["C2"], rect, [[0, 1], [1, 0]])


def all_reports(sysm):
    return [
        check_structure(sysm),
        check_restriction_axioms(sysm),
        check_extension_axioms(sysm),
        check_linking(sysm),
        verify_derived_identities(sysm),
    ]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_discrete_system_passes_everything(n):
    from skewalg import chain_lattice, rectangular_skew

    for objects in (chain_lattice(n), rectangular_skew(n)):
        for report in all_reports(discrete_system(objects)):
            assert report.ok, report.summary()


def test_group_system_passes_everything():
    sysm = group_system(GROUP_CATALOG["S3"])
    for report in all_reports(sysm):
        assert report.ok, report.summary()


def test_swap_instance_passes_everything():
    sysm = semidirect_groupoid(swap_action())
    for report in all_reports(sysm):
        assert report.ok, report.summary()


def test_every_suite_instance_passes_everything(suite):
    for inst in suite:
        for report in all_reports(inst.system):
            assert report.ok, f"{inst.name}: {report.first_failure()}"


def test_join_extension_is_total_on_suite(suite):
    # a ∨ g is defined for every object a and morphism g
    for inst in suite:
        assert check_structure(inst.system)["join_pseudoproduct_total"].ok
        assert check_structure(inst.system)["meet_pseudoproduct_total"].ok


def test_pseudoproduct_closed_form_on_suite(suite):
    # (b,g)(c,h) has head b ∧ c^{g^{-1}} and group part gh; join dual
    for inst in suite:
        A, sysm = inst.action, inst.system
        gt, ginv = A.group.table.array, A.group.inverse
        mt, jt = A.lattice.meet.array, A.lattice.join.array
        ng = A.group.order
        m = sysm.morphism_count
        b, g = np.arange(m) // ng, np.arange(m) % ng
        twisted = A.act[b[None, :], ginv[g][:, None]]
        heads = gt[g[:, None], g[None, :]]
        assert np.array_equal(sysm._meet.P, mt[b[:, None], twisted] * ng + heads)
        assert np.array_equal(sysm._join.P, jt[b[:, None], twisted] * ng + heads)


def test_caution_observations_are_not_theorems(suite):
    # the four obs_ flags are advisory and every one fails somewhere
    names = [
        "obs_restriction_identity_left",
        "obs_restriction_identity_right",
        "obs_action_inverse",
        "obs_restrict_swap",
    ]
    seen_failing = {n: False for n in names}
    for inst in suite:
        report = verify_derived_identities(inst.system)
        for n in names:
            assert not report[n].required
            if not report[n].ok:
                seen_failing[n] = True
    assert all(seen_failing.values()), seen_failing


def test_observation_failures_do_not_break_ok(suite):
    for inst in suite:
        report = verify_derived_identities(inst.system)
        if any(not c.ok for c in report.observations()):
            assert report.ok
            break
    else:
        pytest.fail("expected at least one instance with a failing observation")


def damaged(sysm, table, where, value):
    arrays = {
        "restL": sysm.restL.copy(),
        "restR": sysm.restR.copy(),
        "extL": sysm.extL.copy(),
        "extR": sysm.extR.copy(),
    }
    arrays[table][where] = value
    return RestrictionSystem(
        sysm.groupoid, sysm.objects,
        arrays["restL"], arrays["restR"], arrays["extL"], arrays["extR"],
    )


def test_mutating_restL_trips_a_restriction_flag():
    sysm = semidirect_groupoid(swap_action())
    spot = tuple(np.argwhere(sysm.restL >= 0)[0])
    broken = damaged(sysm, "restL", spot, (int(sysm.restL[spot]) + 1) % sysm.morphism_count)
    ok = (
        check_structure(broken).ok
        and check_restriction_axioms(broken).ok
        and check_linking(broken).ok
    )
    assert not ok


def test_mutating_extR_trips_an_extension_flag():
    sysm = semidirect_groupoid(swap_action())
    spot = tuple(np.argwhere(sysm.extR >= 0)[-1])
    broken = damaged(sysm, "extR", spot, (int(sysm.extR[spot]) + 1) % sysm.morphism_count)
    ok = (
        check_structure(broken).ok
        and check_extension_axioms(broken).ok
        and check_linking(broken).ok
    )
    assert not ok


def test_undefining_an_entry_breaks_defined_iff():
    sysm = semidirect_groupoid(swap_action())
    spot = tuple(np.argwhere(sysm.extL >= 0)[0])
    broken = damaged(sysm, "extL", spot, -1)
    assert not check_structure(broken)["extL_defined_iff"].ok


def test_build_algebra_produces_passing_algebra(suite):
    for inst in suite[:40]:
        S = build_algebra(inst.system)
        assert check_axioms(S).ok


def test_build_algebra_matches_semidirect_algebra():
    A = swap_action()
    built = build_algebra(semidirect_groupoid(A))
    direct = semidirect_algebra(A)
    assert find_isomorphism(built, direct) is not None


def test_build_algebra_guard_rejects_damaged_system():
    sysm = semidirect_groupoid(swap_action())
    spot = tuple(np.argwhere(sysm.restR >= 0)[0])
    broken = damaged(sysm, "restR", spot, (int(sysm.restR[spot]) + 1) % sysm.morphism_count)
    with pytest.raises(AxiomViolationError):
        build_algebra(broken)


def test_full_report_hands_out_a_report_that_cannot_change_the_cache():
    sysm = discrete_system(chain_lattice(2))
    before = sysm.full_report().to_dict()
    handed = sysm.full_report()
    handed.record("caller_note", False)
    handed.extend(check_axioms(build_algebra(sysm)), prefix="caller_")
    assert sysm.full_report().to_dict() == before
    assert check_axioms(build_algebra(sysm)).ok
    assert sysm.pseudoproduct(0, 1) == 0


def test_pseudoproduct_is_the_built_algebra(suite):
    for sysm in [inst.system for inst in suite[::60]] + [group_system(GROUP_CATALOG["S3"])]:
        S = build_algebra(sysm)
        m = sysm.morphism_count
        for op, table in (("meet", S.meet.array), ("join", S.join.array)):
            got = [[sysm.pseudoproduct(f, g, op) for g in range(m)] for f in range(m)]
            assert got == table.tolist()
            assert {type(v) for row in got for v in row} == {int}


def test_pseudoproduct_refuses_an_unknown_op():
    sysm = semidirect_groupoid(swap_action())
    assert sysm.full_report().ok
    for op in ("product", "Meet", None):
        with pytest.raises(ValueError, match="op must be 'meet' or 'join'"):
            sysm.pseudoproduct(0, 0, op)


def test_broken_meet_is_named_by_the_preorder_pairing_witness():
    from skewalg import chain_lattice
    from skewalg.tables import SkewLatticeTable

    chain = chain_lattice(3)
    meet = chain.meet.array.copy()
    meet[2, 1] = 2
    report = check_structure(discrete_system(SkewLatticeTable(meet, chain.join.array)))
    pairing = report["preorder_converse_pairing"]
    assert not pairing.ok
    # (1, 2): 1 <=_R 2 reads the broken meet[2, 1], while 2 >=_L 1 still holds
    assert pairing.witness == (1, 2)


def test_axiom_families_match_scalar_oracle_on_suite_and_mutants(suite):
    # witnesses included: the first failing tuple in row-major order; each
    # operator table gets one mutant with a -1 hole and one with a new value
    rng = random.Random(1810)
    names = ("restL", "restR", "extL", "extR")
    for inst in rng.sample(suite, 60):
        sysm = inst.system
        variants = [sysm]
        for name in names:
            for value in (-1, rng.randrange(sysm.morphism_count)):
                tables = {t: getattr(sysm, t).copy() for t in names}
                tables[name][tuple(rng.randrange(k) for k in tables[name].shape)] = value
                variants.append(RestrictionSystem(sysm.groupoid, sysm.objects, **tables))
        for v in variants:
            g = v.groupoid
            args = (v.object_count, g.dom.tolist(), g.cod.tolist(), g.comp.tolist())
            for checker, side, op, left, right in (
                (check_restriction_axioms, "meet", v.objects.meet, v.restL, v.restR),
                (check_extension_axioms, "join", v.objects.join, v.extL, v.extR),
            ):
                want = order_axioms(*args, op.tolist(), left.tolist(), right.tolist(), side)
                assert checker(v).to_dict() == want, (inst.name, side)


def test_partial_table_flags_match_scalar_oracle_on_suite_and_mutants(suite):
    # the definedness and endpoint flags of check_structure, on suite systems
    # and on mutants with one -1 hole or one new value in one operator table
    rng = random.Random(1938)
    names = ("restL", "restR", "extL", "extR")
    for inst in rng.sample(suite, 60):
        sysm = inst.system
        variants = [sysm]
        for name in names:
            for value in (-1, rng.randrange(sysm.morphism_count)):
                tables = {t: getattr(sysm, t).copy() for t in names}
                tables[name][tuple(rng.randrange(k) for k in tables[name].shape)] = value
                variants.append(RestrictionSystem(sysm.groupoid, sysm.objects, **tables))
        for v in variants:
            report = check_structure(v)
            g = v.groupoid
            for side, op, left, right in (
                ("meet", v.objects.meet, v.restL, v.restR),
                ("join", v.objects.join, v.extL, v.extR),
            ):
                want = partial_table_witnesses(
                    v.object_count, g.dom.tolist(), g.cod.tolist(), op.tolist(),
                    left.tolist(), right.tolist(), side,
                )
                assert {name: report[name].witness for name in want} == want, (inst.name, side)


def test_discrete_and_group_systems_match_their_definitions():
    # morphism b of a discrete system is the identity at b, so restL[a][b]
    # is a∧b = a where a leL b, and so on; a group system has one object,
    # on which every operator is the identity
    for n in range(1, 4):
        for lattice in enumerate_skew_lattices(n):
            sysm = discrete_system(lattice)
            meet, join = lattice.meet.tolist(), lattice.join.tolist()
            idx = list(range(n))
            assert sysm.groupoid == FiniteGroupoid(
                n, idx, idx, [[a if a == b else -1 for b in idx] for a in idx], idx
            )
            for name, op in (("rest", meet), ("ext", join)):
                assert getattr(sysm, name + "L").tolist() == [
                    [a if op[a][b] == a else -1 for b in idx] for a in idx
                ]
                assert getattr(sysm, name + "R").tolist() == [
                    [a if op[b][a] == a else -1 for a in idx] for b in idx
                ]
    for group in GROUP_CATALOG.values():
        sysm = group_system(group)
        m = group.order
        assert sysm.objects == SkewLatticeTable([[0]], [[0]])
        assert sysm.groupoid == FiniteGroupoid(1, [0] * m, [0] * m, group.table.array, group.inverse)
        assert sysm.restL.tolist() == sysm.extL.tolist() == [list(range(m))]
        assert sysm.restR.tolist() == sysm.extR.tolist() == [[g] for g in range(m)]


def fresh(sysm):
    """A new system over the same tables, with nothing checked yet."""
    return RestrictionSystem(
        sysm.groupoid, sysm.objects, sysm.restL, sysm.restR, sysm.extL, sysm.extR
    )


# every entry point that reads a system's checked families
MEMO_CALLS = {
    **dict(system_checkers()),
    "full_report": RestrictionSystem.full_report,
    "build_algebra": build_algebra,
    "meet_pseudoproduct": lambda s: s.pseudoproduct(s.morphism_count - 1, 0),
    "join_pseudoproduct": lambda s: s.pseudoproduct(0, s.morphism_count - 1, "join"),
    "roundtrip_groupoid": roundtrip_groupoid,
}
FAMILY_TITLES = ("structure", "restriction axioms", "extension axioms", "linking axiom",
                 "derived identities")


def outcome(name, sysm, tamper=False):
    """One call's result as plain data, or its error's name, check, witness
    and message; with tamper, a returned report is changed afterwards."""
    try:
        value = MEMO_CALLS[name](sysm)
    except SkewalgError as exc:
        name_and_witness = getattr(exc, "check_name", None), getattr(exc, "witness", None)
        return type(exc).__name__, *name_and_witness, str(exc)
    if isinstance(value, AxiomReport):
        seen = value.to_dict()
        if tamper:
            value.record("caller_note", False, (0,))
            value.extend(value, prefix="caller_")
        return seen
    if isinstance(value, BiBandAlgebra):
        return value.join.tolist(), value.meet.tolist(), value.star.tolist()
    return getattr(value, "mapping", value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_call_order_sees_what_a_fresh_system_sees(suite, data):
    # a suite system, or one with a single operator-table entry changed; each
    # call in a drawn sequence, its reports changed by the caller in between,
    # must return what the same call returns on a system never checked before
    sysm = data.draw(st.sampled_from(suite)).system
    if data.draw(st.booleans()):
        table = data.draw(st.sampled_from(("restL", "restR", "extL", "extR")))
        where = tuple(data.draw(st.integers(0, k - 1)) for k in getattr(sysm, table).shape)
        sysm = damaged(sysm, table, where, data.draw(st.integers(-1, sysm.morphism_count - 1)))
    else:
        sysm = fresh(sysm)
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(sorted(MEMO_CALLS)), st.booleans()), min_size=1, max_size=12
    ))
    for name, tamper in calls:
        assert outcome(name, sysm, tamper) == outcome(name, fresh(sysm)), name


def test_each_family_runs_once_per_system(monkeypatch, suite):
    # count the reports each family body starts, in the certify-suite order
    # (the five checkers, build_algebra, the groupoid round trip) and with the
    # guarded calls first
    started = Counter()

    class Counting(AxiomReport):
        def __init__(self, title, checks=()):
            started[title] += 1
            super().__init__(title, checks)

    monkeypatch.setattr(skewalg.system, "AxiomReport", Counting)
    checkers = [checker for _, checker in system_checkers()]
    guarded = [build_algebra, roundtrip_groupoid, RestrictionSystem.full_report,
               lambda s: s.pseudoproduct(0, 0)]
    for inst in random.Random(9).sample(suite, 40):
        for calls in (checkers + guarded, guarded + checkers + checkers):
            sysm = fresh(inst.system)
            started.clear()
            for call in calls:
                call(sysm)
            assert [started[t] for t in FAMILY_TITLES] == [1] * 5, inst.name


@pytest.mark.parametrize("table", ["restL", "restR", "extL", "extR"])
@pytest.mark.parametrize("damage", ["shape", "below", "above"])
def test_a_bad_partial_table_is_refused_at_construction(table, damage):
    sysm = semidirect_groupoid(swap_action())
    tables = {name: getattr(sysm, name).copy() for name in ("restL", "restR", "extL", "extR")}
    if damage == "shape":
        tables[table] = tables[table][:, :-1]
    else:
        tables[table][0, 0] = -2 if damage == "below" else sysm.morphism_count
    with pytest.raises(MalformedSystemError, match=table):
        RestrictionSystem(sysm.groupoid, sysm.objects, *tables.values())


def _fresh_system(sysm) -> RestrictionSystem:
    """sysm over copies of its groupoid and lattice, which share no cache."""
    g, objects = sysm.groupoid, sysm.objects
    groupoid = FiniteGroupoid(g.object_count, g.dom, g.cod, g.comp, g.inv)
    lattice = SkewLatticeTable(objects.meet, objects.join)
    return RestrictionSystem(groupoid, lattice, sysm.restL, sysm.restR, sysm.extL, sysm.extR)


def test_a_system_derives_its_checker_state_on_first_use():
    sysm = _fresh_system(semidirect_groupoid(swap_action()))
    groupoid, lattice = sysm.groupoid, sysm.objects
    assert "_meet" not in vars(sysm) and "_join" not in vars(sysm)
    assert "padded" not in vars(groupoid) and "preorders" not in vars(lattice)
    meet = sysm._meet
    assert "_join" not in vars(sysm)
    # the side read the tables it needs from their owners, which now keep them
    assert vars(groupoid)["padded"] is groupoid.padded
    assert vars(lattice)["preorders"] is lattice.preorders
    assert meet.order[0] is lattice.preorders.le_left
    assert sysm._meet is meet and sysm._join.op == "join" and "_join" in vars(sysm)


def test_each_groupoid_table_is_padded_once(suite, monkeypatch):
    calls = []

    def counting(core):
        calls.append(core)
        return skewalg.tables.padded(core)

    monkeypatch.setattr(skewalg.groupoid, "padded", counting)
    monkeypatch.setattr(skewalg.system, "padded", counting)
    sysm = _fresh_system(max(suite, key=lambda inst: inst.system.morphism_count).system)
    g = sysm.groupoid
    assert check_groupoid(g).ok and check_groupoid(g).ok
    assert sysm.full_report().ok
    own = (g.dom, g.cod, g.inv, g.comp, g.identity_of)
    assert [sum(core is table for core in calls) for table in own] == [1] * 5


def test_a_checked_system_pads_fifteen_tables(suite, monkeypatch):
    # five groupoid tables, three per side, and the plus and minus of each
    # pseudoproduct; the derived identities read the sides' padded
    # pseudoproducts and reuse the meet side's plus and minus
    calls = []

    def counting(core):
        calls.append(core)
        return skewalg.tables.padded(core)

    for module in (skewalg.groupoid, skewalg.system, skewalg.algebra):
        monkeypatch.setattr(module, "padded", counting)
    for inst in suite[::40]:
        calls.clear()
        sysm = _fresh_system(inst.system)
        for _, checker in system_checkers():
            checker(sysm)
        assert len(calls) == 15


def test_the_system_a_groupoid_round_trip_rebuilds_stays_underived(monkeypatch):
    import skewalg.reconstruction

    rebuilt = []
    real = skewalg.reconstruction.reconstruct

    def spy(*args, **kwargs):
        rebuilt.append(real(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(skewalg.reconstruction, "reconstruct", spy)
    roundtrip_groupoid(semidirect_groupoid(swap_action()))
    assert len(rebuilt) == 1
    assert "_meet" not in vars(rebuilt[0].system)


def _scalar_entry_points() -> dict:
    """Each scalar entry point: the carrier size and calls taking one index."""
    sysm = semidirect_groupoid(swap_action())
    S = build_algebra(sysm)
    group = GROUP_CATALOG["S3"]
    one_object = group_system(group).groupoid  # every pair composes
    m = sysm.morphism_count
    return {
        "compose": (group.order, lambda i: one_object.compose(i, 0), lambda i: one_object.compose(0, i)),
        "invert": (m, sysm.groupoid.invert),
        "pseudoproduct": (m, lambda i: sysm.pseudoproduct(i, 0), lambda i: sysm.pseudoproduct(0, i, "join")),
        "operation table": (S.order, lambda i: S.meet(i, 0), lambda i: S.join(0, i)),
        "group": (group.order, lambda i: group(i, 0), group.inv),
        "plus_minus": (S.order, lambda i: plus_minus(S, i)),
        "inverses_of": (S.order, lambda i: inverses_of(S, i)),
        "isomorphism": (S.order, find_isomorphism(S, S)),
    }


@pytest.mark.parametrize("entry", [
    "compose", "invert", "pseudoproduct", "operation table", "group", "plus_minus", "inverses_of",
    "isomorphism",
])
def test_scalar_entry_points_refuse_indices_outside_the_carrier(entry):
    n, *calls = _scalar_entry_points()[entry]
    for call in calls:
        call(n - 1)  # the last index is fine
        for bad in (-1, n):
            with pytest.raises(ElementIndexError, match=f"index {bad} is outside 0..{n - 1}"):
                call(bad)
    assert issubclass(ElementIndexError, SkewalgError) and issubclass(ElementIndexError, IndexError)
