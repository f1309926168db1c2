"""Flag records: the mask-to-flag path, immutable checks and merged reports."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from skewalg import (
    AxiomReport,
    RestrictionSystem,
    chain_lattice,
    check_structure,
    discrete_system,
    verify_derived_identities,
)
from skewalg.report import Check, _passed, flag
from skewalg.system import system_checkers

masks = st.integers(0, 3).flatmap(
    lambda ndim: arrays(bool, array_shapes(min_dims=ndim, max_dims=ndim, min_side=0, max_side=4))
)


@given(mask=masks, required=st.booleans(), note=st.none() | st.text(max_size=5))
def test_flag_names_the_first_false_cell_in_row_major_order(mask, required, note):
    report = AxiomReport("masks", [flag("law", mask, required=required, note=note)])
    check = report["law"]
    assert check.ok is bool(mask.all())
    if mask.all():
        assert check.witness is None
    else:
        assert check.witness == tuple(int(i) for i in np.argwhere(~mask)[0])
        assert {type(i) for i in check.witness} <= {int}
    assert (check.required, check.note) == (required, note)
    assert report.to_dict()["checks"]["law"]["witness"] == (
        None if check.witness is None else list(check.witness)
    )


def test_a_check_cannot_be_changed():
    report = AxiomReport("frozen", [flag("law", np.array([True, False]))])
    with pytest.raises(AttributeError):
        report["law"].ok = True
    assert report["law"] == Check("law", False, (1,))


def test_a_repeated_name_is_refused_by_every_way_in():
    report = AxiomReport("names", [flag("law", np.ones(2, dtype=bool))])
    with pytest.raises(ValueError, match="duplicate check name: law"):
        AxiomReport("twice", [*report.checks(), flag("law", np.zeros(2, dtype=bool))])
    with pytest.raises(ValueError, match="duplicate check name: law"):
        AxiomReport("twice", [*report.checks(), Check("law", True)])
    with pytest.raises(ValueError, match="duplicate check name: law"):
        AxiomReport("twice", report.checks() * 2)
    with pytest.raises(ValueError, match="duplicate check name: p.law"):
        AxiomReport("prefixed", [Check("p.law", True), *report.renamed("p.")])
    assert [c.name for c in report.checks()] == ["law"]


def test_a_report_reads_back_as_text_and_by_name():
    report = AxiomReport("mixed", [
        Check("law", True, note="n"),
        Check("broken", False, (0, 1)),
        Check("seen", False, (2,), required=False),
    ])
    assert report.ok is False
    assert repr(report) == "<AxiomReport 'mixed' 1/3 ok>"
    assert report["broken"].witness == (0, 1) and not report["seen"].required
    with pytest.raises(KeyError, match="missing"):
        report["missing"]


def test_renaming_keeps_each_check_but_its_name():
    report = AxiomReport("mixed", [
        flag("law", np.ones(2, dtype=bool), note="n"),
        flag("bad", np.array([[True, False]]), required=False),
    ])
    renamed = report.renamed("p.")
    assert renamed == [Check("p.law", True, None, True, "n"), Check("p.bad", False, (0, 1), False)]
    assert renamed[0] is flag("p.law", np.ones(1, dtype=bool), note="n")
    assert [c._replace(name="p." + c.name) for c in report.checks()] == renamed


def test_full_report_refuses_two_families_that_share_a_name(monkeypatch):
    import skewalg.system

    sysm = discrete_system(chain_lattice(2))
    assert sysm.full_report().ok
    monkeypatch.setattr(skewalg.system, "check_linking", skewalg.system.check_structure)
    with pytest.raises(ValueError, match="duplicate check name: objects_"):
        sysm.full_report()


def test_full_report_holds_the_four_families_in_order():
    sysm = discrete_system(chain_lattice(2))
    families = [checker(sysm).checks() for _, checker in system_checkers()[:4]]
    assert sysm.full_report().checks() == [c for family in families for c in family]


def _checked(sysm, restL=None) -> dict[str, Check]:
    """Every check of a fresh system over sysm's tables (restL replaced if
    given): its full report, its derived identities, and its structure
    family under a prefix, as the CLI merges it."""
    fresh = RestrictionSystem(
        sysm.groupoid, sysm.objects, sysm.restL if restL is None else restL,
        sysm.restR, sysm.extL, sysm.extR,
    )
    report = AxiomReport("checked", [
        *fresh.full_report().checks(),
        *verify_derived_identities(fresh).checks(),
        *check_structure(fresh).renamed("structure."),
    ])
    return {c.name: c for c in report.checks()}


def test_a_passing_flag_is_one_check_shared_by_every_system(suite):
    small, large = (_checked(inst.system) for inst in (suite[0], suite[-1]))
    assert suite[0].system.morphism_count != suite[-1].system.morphism_count
    both = [name for name, check in small.items() if check.ok and large[name].ok]
    assert len(both) > 100 and any(name.startswith("structure.objects_") for name in both)
    assert all(small[name] is large[name] for name in both)


def test_a_failing_flag_keeps_its_own_witness(suite):
    sysm = max(suite, key=lambda inst: inst.system.morphism_count).system
    clean = _checked(sysm)
    witnesses = set()
    for spot in map(tuple, np.argwhere(sysm.restL >= 0)[:6]):
        restL = sysm.restL.copy()
        restL[spot] = (restL[spot] + 1) % sysm.morphism_count
        mutant = _checked(sysm, restL)
        failing = [c for c in mutant.values() if not c.ok]
        assert failing
        for check in failing:
            assert check.witness is not None and check is not clean[check.name]
            witnesses.add((check.name, check.witness))
        # the flags the single entry leaves passing are the clean system's own
        assert all(c is clean[c.name] for c in mutant.values() if c.ok and clean[c.name].ok)
    # each mutant's failing flags carry the witness its own damage gives
    assert len({witness for _, witness in witnesses}) > 1


def test_the_shared_passing_checks_stop_growing_after_one_round(suite):
    for inst in suite:
        _checked(inst.system)
    size = _passed.cache_info().currsize
    for inst in suite:
        _checked(inst.system)
    assert _passed.cache_info().currsize == size
