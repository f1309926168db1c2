import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewalg import (
    BiBandAlgebra,
    FiniteGroupoid,
    MalformedSystemError,
    RestrictionSystem,
    SkewLatticeTable,
    chain_lattice,
    enumerate_skew_lattices,
    load_structure,
    save_structure,
    semidirect_algebra,
    semidirect_groupoid,
)
from skewalg.models import GROUP_CATALOG, GroupAction
from skewalg.serialize import json_text, structure_from_dict, structure_to_dict


def swap_action():
    rect = enumerate_skew_lattices(2)[2]
    return GroupAction(GROUP_CATALOG["C2"], rect, [[0, 1], [1, 0]])


def sample_structures():
    a = swap_action()
    sysm = semidirect_groupoid(a)
    return [chain_lattice(3), sysm.groupoid, sysm, semidirect_algebra(a), a]


@pytest.mark.parametrize("index", range(5))
def test_dict_roundtrip_preserves_every_structure(index):
    obj = sample_structures()[index]
    again = structure_from_dict(structure_to_dict(obj))
    if isinstance(obj, GroupAction):
        assert np.array_equal(again.act, obj.act)
        assert again.group.table == obj.group.table
        assert again.lattice == obj.lattice
    elif isinstance(obj, RestrictionSystem):
        assert again.groupoid == obj.groupoid
        assert again.objects == obj.objects
        for name in ("restL", "restR", "extL", "extR"):
            assert np.array_equal(getattr(again, name), getattr(obj, name))
    elif isinstance(obj, BiBandAlgebra):
        assert again == obj
    else:
        assert again == obj


@pytest.mark.parametrize("index", range(5))
def test_file_roundtrip(tmp_path, index):
    obj = sample_structures()[index]
    path = tmp_path / "structure.json"
    save_structure(path, obj)
    again = load_structure(path)
    assert type(structure_to_dict(again)) is dict
    assert structure_to_dict(again) == structure_to_dict(obj)


def test_dispatch_is_by_key_set():
    lattice = structure_from_dict({"order": 2, "ops": {"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]]}})
    assert isinstance(lattice, SkewLatticeTable)
    groupoid = structure_from_dict(
        {"objects": 1, "morphisms": [{"dom": 0, "cod": 0}], "comp": [[0]], "inv": [0]}
    )
    assert isinstance(groupoid, FiniteGroupoid)
    algebra = structure_from_dict(
        {"order": 1, "join": [[0]], "meet": [[0]], "star": [0]}
    )
    assert isinstance(algebra, BiBandAlgebra)


def test_extra_metadata_is_tolerated(tmp_path):
    path = tmp_path / "named.json"
    save_structure(path, chain_lattice(2), extra={"name": "two-chain"})
    raw = json.loads(path.read_text())
    assert raw["name"] == "two-chain"
    assert isinstance(load_structure(path), SkewLatticeTable)


def test_missing_keys_are_malformed():
    with pytest.raises(MalformedSystemError):
        structure_from_dict({"order": 2})
    with pytest.raises(MalformedSystemError):
        structure_from_dict({"objects": 1, "morphisms": [], "comp": [[0]]})


def test_more_objects_than_morphisms_is_malformed():
    # FiniteGroupoid itself accepts it; a file cannot, since each object needs its identity
    data = {"objects": 2, "morphisms": [{"dom": 0, "cod": 0}], "comp": [[0]], "inv": [0]}
    assert FiniteGroupoid(2, [0], [0], [[0]], [0]).identity_of.tolist() == [0, -1]
    with pytest.raises(MalformedSystemError, match="2 objects but 1 morphisms"):
        structure_from_dict(data)
    assert structure_from_dict({**data, "objects": 1}).object_count == 1


def test_bad_entries_are_malformed():
    with pytest.raises(MalformedSystemError):
        structure_from_dict(
            {"order": 2, "ops": {"meet": [[0, 0]], "join": [[0, 1], [1, 1]]}}
        )
    with pytest.raises(MalformedSystemError):
        structure_from_dict(
            {"order": 1, "join": [[0]], "meet": [[0]], "star": [4]}
        )


def test_unreadable_file_is_malformed(tmp_path):
    with pytest.raises(MalformedSystemError):
        load_structure(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedSystemError):
        load_structure(bad)


def test_json_output_is_plain_ints(tmp_path):
    # numpy scalars must not leak into the files
    path = tmp_path / "algebra.json"
    save_structure(path, semidirect_algebra(swap_action()))
    raw = json.loads(path.read_text())
    assert all(isinstance(v, int) for v in raw["star"])
    assert all(isinstance(v, int) for row in raw["meet"] for v in row)


KINDS = {
    "lattice": lambda inst: inst.action.lattice,
    "groupoid": lambda inst: inst.system.groupoid,
    "system": lambda inst: inst.system,
    "algebra": lambda inst: inst.algebra,
    "action": lambda inst: inst.action,
}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)))
def test_save_then_load_is_the_identity_for_every_kind(tmp_path, suite, data, kind):
    obj = KINDS[kind](data.draw(st.sampled_from(suite)))
    path = tmp_path / f"{kind}.json"
    save_structure(path, obj)
    again = load_structure(path)
    assert structure_to_dict(again) == structure_to_dict(obj)
    if kind != "system":  # RestrictionSystem defines no equality
        assert again == obj


def test_files_are_the_indent_one_json_of_their_dict_for_every_suite_dict(tmp_path, suite):
    extra = {"name": 'é"\\'}
    path = tmp_path / "structure.json"
    for inst in suite:
        for kind, part in KINDS.items():
            obj = part(inst)
            save_structure(path, obj, extra=extra)
            expect = json.dumps({**extra, **structure_to_dict(obj)}, indent=1) + "\n"
            assert path.read_bytes() == expect.encode(), (inst.name, kind)


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 2**63 - 1, -(2**63), 2**64, -(2**70) - 3])
    | st.text()
    | st.sampled_from(['é"\\', "a\nb", "\\\"", "\u2227\u2228", "\U0001f600", ""])
    | st.floats(allow_nan=False, allow_infinity=False)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_writer_is_json_dumps_with_indent_one(value):
    assert json_text(value) == json.dumps(value, indent=1)
