"""Flag records: the mask-to-flag path, immutable checks and merged reports."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from skewalg import AxiomReport, chain_lattice, discrete_system
from skewalg.report import Check
from skewalg.system import system_checkers

masks = st.integers(0, 3).flatmap(
    lambda ndim: arrays(bool, array_shapes(min_dims=ndim, max_dims=ndim, min_side=0, max_side=4))
)


@given(mask=masks, required=st.booleans(), note=st.none() | st.text(max_size=5))
def test_record_mask_flags_the_first_false_cell_in_row_major_order(mask, required, note):
    report = AxiomReport("masks")
    report.record_mask("law", mask, required=required, note=note)
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
    report = AxiomReport("frozen")
    report.record_mask("law", np.array([True, False]))
    with pytest.raises(AttributeError):
        report["law"].ok = True
    assert report["law"] == Check("law", False, (1,))


def test_a_repeated_name_is_refused_by_every_way_in():
    report = AxiomReport("names")
    report.record_mask("law", np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="duplicate check name: law"):
        report.record_mask("law", np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="duplicate check name: law"):
        report.record("law", True)
    with pytest.raises(ValueError, match="duplicate check name: law"):
        report.extend(report)
    with pytest.raises(ValueError, match="duplicate check name: p.law"):
        AxiomReport("prefixed", [Check("p.law", True)]).extend(report, prefix="p.")
    assert [c.name for c in report.checks()] == ["law"]


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
