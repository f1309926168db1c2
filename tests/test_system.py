"""Checks for the partial-operator layer: structure, axiom batteries,
derived identities, and the generalized total operations."""

import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import derived_identities, linking_axiom, order_axioms, partial_table_witnesses, side_ops

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
    SignatureMismatchError,
    SkewLatticeTable,
    build_algebra,
    chain_lattice,
    check_axioms,
    check_extension_axioms,
    check_groupoid,
    check_linking,
    check_restriction_axioms,
    check_skehr,
    check_structure,
    discrete_system,
    enumerate_skew_lattices,
    find_isomorphism,
    group_system,
    inverses_of,
    plus_minus,
    roundtrip_algebra,
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
    """C2 acting on a rectangular pair by swapping it; the other test
    modules import this one."""
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
            assert report.ok, report.first_failure()


def test_group_system_passes_everything():
    sysm = group_system(GROUP_CATALOG["S3"])
    for report in all_reports(sysm):
        assert report.ok, report.first_failure()


def test_swap_instance_passes_everything():
    sysm = semidirect_groupoid(swap_action())
    for report in all_reports(sysm):
        assert report.ok, report.first_failure()


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
        built = build_algebra(sysm, check=False)
        assert np.array_equal(built.meet.array, mt[b[:, None], twisted] * ng + heads)
        assert np.array_equal(built.join.array, jt[b[:, None], twisted] * ng + heads)


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
        if any(not c.required and not c.ok for c in report.checks()):
            assert report.ok
            break
    else:
        pytest.fail("expected at least one instance with a failing observation")


def test_a_hole_fails_each_observation_that_reads_it(suite):
    # with restL[a0, f0] undefined, _a|f0 is a hole for every a with
    # a∧dom f0 = a0; a hole on either side of an observation fails it there,
    # as it fails every required law
    failed = Counter()
    for inst in suite:
        sysm = inst.system
        clean = verify_derived_identities(sysm)
        a0, f0 = map(int, np.argwhere(sysm.restL >= 0)[0])
        holed = verify_derived_identities(damaged(sysm, "restL", (a0, f0), -1))
        meet, dom = sysm.objects.meet.array, sysm.groupoid.dom
        # obs_restrict_swap's witness is (a, f), obs_action_inverse's (f, a)
        for name, step in (("obs_restrict_swap", 1), ("obs_action_inverse", -1)):
            if clean[name].ok:
                assert not holed[name].ok, (inst.name, name)
                a, f = holed[name].witness[::step]
                assert f == f0 and meet[a, dom[f0]] == a0, (inst.name, name)
                failed[name] += 1
    assert min(failed.values()) > 0, failed


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


def seeded_mutants(suite, seed=1):
    """Per suite system and operator table, one seeded one-cell mutant: a
    cell drawn uniformly, set to another value drawn from -1..m-1.  Yields
    (label, system) pairs in suite order."""
    rng = random.Random(seed)
    for inst in suite:
        m = inst.system.morphism_count
        for table in ("restL", "restR", "extL", "extR"):
            cells = getattr(inst.system, table)
            where = tuple(rng.randrange(k) for k in cells.shape)
            value = rng.choice([v for v in range(-1, m) if v != cells[where]])
            yield f"{inst.name}.{table}{list(where)}={value}", damaged(inst.system, table, where, value)


def algebra_mutants(suite, seed=1) -> list:
    """The seeded_mutants whose pseudoproducts are total, so that
    build_algebra(sys, check=False) accepts them, in suite order."""
    kept = []
    for label, broken in seeded_mutants(suite, seed):
        try:
            build_algebra(broken, check=False)
        except MalformedSystemError:
            continue
        kept.append((label, broken))
    return kept


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


def test_a_system_with_a_hole_has_no_algebra_and_no_signature(suite):
    # unchecked, the hole in restL reaches the meet pseudoproduct, whose
    # first hole build_algebra names; find_isomorphism refuses the partial table
    sysm = next(inst.system for inst in suite if inst.name == "C2xB2.2a1")
    holed = damaged(sysm, "restL", (0, 1), -1)
    with pytest.raises(MalformedSystemError, match=r"^meet pseudoproduct undefined at \(0, 1\)$"):
        build_algebra(holed, check=False)
    with pytest.raises(SignatureMismatchError, match="^system comparison needs total pseudoproducts$"):
        find_isomorphism(holed, sysm)


def test_full_report_hands_out_a_report_that_cannot_change_the_cache():
    sysm = discrete_system(chain_lattice(2))
    before = sysm.full_report().to_dict()
    handed = sysm.full_report()
    for report in (handed, check_structure(sysm)):
        for attr in ("ok", "title", "_checks", "caller_note"):
            with pytest.raises(AttributeError):
                setattr(report, attr, None)
        mutators = ("add", "record", "record_mask", "extend", "copy")
        assert not any(hasattr(report, name) for name in mutators)
    # the memo hands out its own report, and full_report shares its checks
    assert check_structure(sysm) is check_structure(sysm)
    assert all(a is b for a, b in zip(handed.checks(), check_structure(sysm).checks()))
    assert sysm.full_report().to_dict() == before
    assert check_axioms(build_algebra(sysm)).ok
    assert build_algebra(sysm).meet(0, 1) == 0


def test_pseudoproduct_is_the_built_algebra(suite):
    # each product of the built algebra, read one entry at a time, is the
    # scalar pseudoproduct (f|_c)∘(_c|g) of the system's own tables
    for sysm in [inst.system for inst in suite[::60]] + [group_system(GROUP_CATALOG["S3"])]:
        S = build_algebra(sysm)
        g = sysm.groupoid
        dom, cod, comp = g.dom.tolist(), g.cod.tolist(), g.comp.tolist()
        m = sysm.morphism_count
        for product, op, left, right in (
            (S.meet, sysm.objects.meet, sysm.restL, sysm.restR),
            (S.join, sysm.objects.join, sysm.extL, sysm.extR),
        ):
            pp = side_ops(dom, cod, comp, op.tolist(), left.tolist(), right.tolist())[2]
            got = [[product(f, h) for h in range(m)] for f in range(m)]
            assert got == [[pp(f, h) for h in range(m)] for f in range(m)]
            assert {type(v) for row in got for v in row} == {int}


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


def _with_single_entry_mutants(sysm, rng) -> list:
    """sysm, then for each operator table one copy with a -1 hole and one
    with a new value at a random entry."""
    names = ("restL", "restR", "extL", "extR")
    variants = [sysm]
    for name in names:
        for value in (-1, rng.randrange(sysm.morphism_count)):
            tables = {t: getattr(sysm, t).copy() for t in names}
            tables[name][tuple(rng.randrange(k) for k in tables[name].shape)] = value
            variants.append(RestrictionSystem(sysm.groupoid, sysm.objects, **tables))
    return variants


def test_axiom_families_match_scalar_oracle_on_suite_and_mutants(suite):
    # witnesses included: the first failing tuple in row-major order; each
    # operator table gets one mutant with a -1 hole and one with a new value
    rng = random.Random(1810)
    for inst in rng.sample(suite, 60):
        for v in _with_single_entry_mutants(inst.system, rng):
            g = v.groupoid
            args = (v.object_count, g.dom.tolist(), g.cod.tolist(), g.comp.tolist())
            for checker, side, op, left, right in (
                (check_restriction_axioms, "meet", v.objects.meet, v.restL, v.restR),
                (check_extension_axioms, "join", v.objects.join, v.extL, v.extR),
            ):
                want = order_axioms(*args, op.tolist(), left.tolist(), right.tolist(), side)
                assert checker(v).to_dict() == want, (inst.name, side)


def test_linking_and_derived_identities_match_scalar_oracles_on_suite_and_mutants(suite):
    # witnesses included; two of the largest systems are sampled apart from
    # the rest, as their laws over triples are where the gathers are widest
    rng = random.Random(2024)
    top = max(inst.system.morphism_count for inst in suite)
    sample = rng.sample([i for i in suite if i.system.morphism_count < top], 10)
    sample += rng.sample([i for i in suite if i.system.morphism_count == top], 2)
    for inst in sample:
        for v in _with_single_entry_mutants(inst.system, rng):
            g = v.groupoid
            args = (
                v.object_count, g.dom.tolist(), g.cod.tolist(), g.comp.tolist(), g.inv.tolist(),
                v.objects.meet.tolist(), v.objects.join.tolist(),
                *(t.tolist() for t in (v.restL, v.restR, v.extL, v.extR)),
            )
            assert check_linking(v).to_dict() == linking_axiom(*args), inst.name
            assert verify_derived_identities(v).to_dict() == derived_identities(*args), inst.name


def test_partial_table_flags_match_scalar_oracle_on_suite_and_mutants(suite):
    # the definedness and endpoint flags of check_structure, on suite systems
    # and on mutants with one -1 hole or one new value in one operator table
    rng = random.Random(1938)
    for inst in rng.sample(suite, 60):
        for v in _with_single_entry_mutants(inst.system, rng):
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


def opposite(sysm):
    """The opposite system: dom and cod swapped, composition and the object
    operations reversed, and each left operator the transposed right one."""
    g, objects = sysm.groupoid, sysm.objects
    return RestrictionSystem(
        FiniteGroupoid(g.object_count, g.cod, g.dom, g.comp.T, g.inv),
        (objects.meet.array.T, objects.join.array.T),
        sysm.restR.T, sysm.restL.T, sysm.extR.T, sysm.extL.T,
    )


_OTHER_HAND = {"restL": "restR", "restR": "restL", "extL": "extR", "extR": "extL", "left": "right", "right": "left"}


def other_hand(name):
    return re.sub("|".join(_OTHER_HAND), lambda hand: _OTHER_HAND[hand.group()], name)


def test_the_opposite_system_swaps_the_hands_of_every_two_handed_flag(suite):
    # the right-hand operators are the left-hand ones of the opposite
    # system; each flag of a hand reads its twin there with the same verdict
    # (compatibility, its own twin, too), and the laws whose masks share
    # their axes with the twin's give the same witness. The linking axiom's
    # lateral forms are its plain forms on the opposite system
    same_axes = ("_identity", "_preorder", "_transitivity")
    failing = 0
    for label, sysm in [(inst.name, inst.system) for inst in suite] + list(seeded_mutants(suite)):
        opp = opposite(sysm)
        for checker in (check_structure, check_restriction_axioms, check_extension_axioms):
            theirs = checker(opp)
            for c in checker(sysm).checks():
                twin = other_hand(c.name)
                if checker is check_structure and twin == c.name:
                    continue  # not a flag of one hand
                assert theirs[twin].ok == c.ok, (label, c.name)
                if c.name.endswith(same_axes):
                    assert theirs[twin].witness == c.witness, (label, c.name)
        mine, theirs = check_linking(sysm), check_linking(opp)
        for a, b in (("linking_meet_join", "linking_lateral"), ("linking_order_dual", "linking_order_lateral")):
            assert theirs[b] == mine[a]._replace(name=b) and theirs[a] == mine[b]._replace(name=a), (label, a)
            failing += (not mine[a].ok) + (not mine[b].ok)
    assert failing > 0  # mutants break the linking laws, so witnesses are compared too


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
    "meet_pseudoproduct": lambda s: build_algebra(s).meet(s.morphism_count - 1, 0),
    "join_pseudoproduct": lambda s: build_algebra(s).join(0, s.morphism_count - 1),
    "roundtrip_groupoid": roundtrip_groupoid,
    "check_axioms": lambda s: check_axioms(build_algebra(s, check=False)),
    "check_skehr": lambda s: check_skehr(build_algebra(s, check=False)),
}


def outcome(name, sysm, tamper=False):
    """One call's result as plain data, or its error's name, check, witness
    and message; with tamper, a returned report is then written to, which
    must raise."""
    try:
        value = MEMO_CALLS[name](sysm)
    except SkewalgError as exc:
        name_and_witness = getattr(exc, "check_name", None), getattr(exc, "witness", None)
        return type(exc).__name__, *name_and_witness, str(exc)
    if isinstance(value, AxiomReport):
        seen = value.to_dict()
        if tamper:
            with pytest.raises(AttributeError):
                value.ok = not value.ok
            with pytest.raises(AttributeError):
                value._checks = value.renamed("caller_")
        return seen
    if isinstance(value, BiBandAlgebra):
        return value.join.tolist(), value.meet.tolist(), value.star.tolist()
    return getattr(value, "mapping", value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_call_order_sees_what_a_fresh_system_sees(suite, data):
    # a suite system, or one with a single operator-table entry changed; each
    # call in a drawn sequence, with a caller's attempts to change its reports
    # in between, must return what the same call returns on a system never
    # checked before
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


def test_each_family_runs_once_per_system(suite):
    # count each family's memo misses, the calls that run its body, in the
    # certify-suite order (the five checkers, build_algebra, the groupoid
    # round trip) and with the guarded calls first
    misses = Counter()

    class CountingMemo(dict):
        def __setitem__(self, name, report):
            misses[name] += 1
            super().__setitem__(name, report)

    checkers = [checker for _, checker in system_checkers()]
    guarded = [build_algebra, roundtrip_groupoid, RestrictionSystem.full_report,
               lambda s: build_algebra(s).meet(0, 0)]
    for inst in random.Random(9).sample(suite, 40):
        for calls in (checkers + guarded, guarded + checkers + checkers):
            sysm = fresh(inst.system)
            sysm._reports = CountingMemo()
            misses.clear()
            for call in calls:
                call(sysm)
            assert [misses[checker.__name__] for checker in checkers] == [1] * 5, inst.name


# the algebra laws that verify_derived_identities checks on the pseudoproducts
SHARED_LAWS = [f"{law}_{op}" for law in ("assoc", "regularity") for op in ("meet", "join")] + [
    f"skehr_{op}_{part}" for op in ("meet", "join") for part in ("i", "ii", "iii", "iv", "v")
]


def test_a_built_algebra_reports_what_a_plain_algebra_of_its_tables_reports(suite):
    # every suite system and its seeded mutants with total pseudoproducts;
    # the derived family computed before build_algebra (the algebra keeps
    # the system's report object), after it and never (it keeps none)
    orders = {
        "before": lambda s: [verify_derived_identities(s), build_algebra(s, check=False)][1],
        "after": lambda s: [build_algebra(s, check=False), verify_derived_identities(s)][0],
        "never": lambda s: build_algebra(s, check=False),
    }
    failing = 0
    for name, sysm in [(inst.name, inst.system) for inst in suite] + algebra_mutants(suite):
        built = build_algebra(fresh(sysm), check=False)
        plain = BiBandAlgebra(built.join, built.meet, built.star)
        want = [check_axioms(plain).to_dict(), check_skehr(plain).to_dict()]
        for order, build in orders.items():
            system = fresh(sysm)
            built = build(system)
            derived = system._reports[verify_derived_identities.__name__] if order == "before" else None
            assert built._derived is derived, (name, order)
            assert [check_axioms(built).to_dict(), check_skehr(built).to_dict()] == want, (name, order)
        seen = {**want[0]["checks"], **want[1]["checks"]}
        failing += any(not seen[law]["ok"] for law in SHARED_LAWS)
    assert failing > 0  # some mutant fails a shared law, so witnesses are compared too


def test_each_shared_law_is_flagged_once_per_certify(suite, monkeypatch):
    # the certify-suite order on a system: the five checkers, build_algebra,
    # check_axioms and check_skehr on the built algebra, the groupoid round
    # trip; the derived family flags the 14 shared laws and the algebra
    # checkers take them from it
    flagged, statements = Counter(), Counter()
    real_flag, real_statements = skewalg.algebra.flag, skewalg.algebra.skehr_statement_flags

    def counting_flag(name, *args, **kwargs):
        flagged[name] += 1
        return real_flag(name, *args, **kwargs)

    def counting_statements(prefix, *args):
        statements[prefix] += 1
        return real_statements(prefix, *args)

    for module in (skewalg.algebra, skewalg.system):
        monkeypatch.setattr(module, "flag", counting_flag)
        monkeypatch.setattr(module, "skehr_statement_flags", counting_statements)
    for inst in random.Random(14).sample(suite, 40):
        sysm = fresh(inst.system)
        flagged.clear()
        statements.clear()
        for _, checker in system_checkers():
            checker(sysm)
        built = build_algebra(sysm)
        check_axioms(built)
        check_skehr(built)
        roundtrip_groupoid(sysm)
        assert statements == {"skehr_meet": 1, "skehr_join": 1}, inst.name
        assert [flagged[law] for law in SHARED_LAWS] == [1] * 14, inst.name


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
    assert "_sides" not in vars(sysm) and "_pseudoproducts" not in vars(sysm)
    assert "padded" not in vars(groupoid) and "preorders" not in vars(lattice)
    sides = sysm._sides
    # the first read derives both records, from tables their owners now keep
    assert vars(sysm)["_sides"] is sides and [side.op for side in sides] == ["meet", "join"]
    assert vars(groupoid)["padded"] is groupoid.padded
    assert vars(lattice)["preorders"] is lattice.preorders
    assert vars(sysm)["_pseudoproducts"] is sysm._pseudoproducts
    pre = lattice.preorders
    assert sides[0].order[0] is pre.le_left and sides[1].order[0] is pre.ge_left
    assert sides[1].preorder[0] is pre.ge_right and sides[1].partial[0] is sysm.extL
    assert sysm._sides is sides


def test_each_side_stores_its_tables_once_padded(suite):
    # each side keeps only read-only padded tables, its pseudoproduct the
    # system's own; a checker's working copy is contiguous and shares
    # nothing with them
    sysm = _fresh_system(max(suite, key=lambda inst: inst.system.morphism_count).system)
    assert len(sysm._sides) == len(sysm._pseudoproducts) == 2
    for side, product in zip(sysm._sides, sysm._pseudoproducts):
        assert side.P_p is product
        assert not any(hasattr(side, name) for name in ("L", "R", "P"))
        for pad in (side.L_p, side.R_p, side.P_p):
            assert not pad.flags.writeable
            assert (pad[-1] == -1).all() and (pad[:, -1] == -1).all()
            core = skewalg.system._core(pad)
            assert core.flags.c_contiguous and not np.shares_memory(core, pad)
            assert np.array_equal(core, pad[:-1, :-1])


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


def test_the_system_an_algebra_round_trip_rebuilds_derives_only_its_pseudoproducts(monkeypatch):
    import skewalg.reconstruction

    rebuilt = []
    real = skewalg.reconstruction.reconstruct

    def spy(*args, **kwargs):
        rebuilt.append(real(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(skewalg.reconstruction, "reconstruct", spy)
    S = semidirect_algebra(swap_action())
    assert roundtrip_algebra(S).mapping == tuple(range(S.order))
    sysm = rebuilt[0]
    assert "_pseudoproducts" in vars(sysm)
    assert "_sides" not in vars(sysm)


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
    assert "_sides" not in vars(rebuilt[0])


def _scalar_entry_points() -> dict:
    """Each scalar entry point: the carrier size and calls taking one index."""
    sysm = semidirect_groupoid(swap_action())
    S = build_algebra(sysm)
    group = GROUP_CATALOG["S3"]
    m = sysm.morphism_count
    return {
        "pseudoproduct": (m, lambda i: S.meet(i, 0), lambda i: S.join(0, i)),
        "operation table": (
            sysm.object_count, lambda i: sysm.objects.meet(i, 0), lambda i: sysm.objects.join(0, i)
        ),
        "group": (group.order, lambda i: group.table(i, 0), lambda i: group.table(0, i)),
        "plus_minus": (S.order, lambda i: plus_minus(S, i)),
        "inverses_of": (S.order, lambda i: inverses_of(S, i)),
    }


@pytest.mark.parametrize("entry", ["pseudoproduct", "operation table", "group", "plus_minus", "inverses_of"])
def test_scalar_entry_points_refuse_indices_outside_the_carrier(entry):
    n, *calls = _scalar_entry_points()[entry]
    for call in calls:
        assert call(n - 1) == call(np.int64(n - 1))  # the last index is fine, as any integer
        for bad in (-1, n, np.int64(n)):
            with pytest.raises(ElementIndexError, match=f"index {bad} is outside 0..{n - 1}"):
                call(bad)
        # numpy would read True as a mask and refuse a float with its own error
        for bad in (True, False, np.True_, 1.0, 1.5, np.float64(1.0), "1", None):
            with pytest.raises(ElementIndexError, match=re.escape(f"index {bad!r} is not an integer")):
                call(bad)
    assert issubclass(ElementIndexError, SkewalgError) and issubclass(ElementIndexError, IndexError)
