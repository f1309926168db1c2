import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


def _plain(value) -> bool:
    """True when value is built of dicts with str keys, lists and exact ints
    only: no ndarray, tuple or numpy scalar."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) is int


def test_structure_to_dict_is_plain_json_and_is_what_the_file_holds(tmp_path, suite):
    # files are written from the structures' arrays, the public dict from lists
    extra = {"name": "x"}
    path = tmp_path / "structure.json"
    objects = [part(inst) for inst in suite for part in KINDS.values()] + [FiniteGroupoid(0, [], [], np.empty((0, 0)), [])]
    for obj in objects:
        data = structure_to_dict(obj)
        assert _plain(data), type(obj).__name__
        save_structure(path, obj, extra=extra)
        saved = json.loads(path.read_bytes())
        assert {k: v for k, v in saved.items() if k not in extra} == data


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


array_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
int_arrays = st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8]).flatmap(
    lambda dtype: hnp.arrays(dtype, array_shapes, elements=st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max))
)
arrays = (
    int_arrays
    | hnp.arrays(np.bool_, array_shapes)
    | hnp.arrays(np.float64, array_shapes, elements=st.floats(-4, 4).map(lambda x: round(x * 2) / 2))
)


@settings(max_examples=200, deadline=None)
@given(arrays)
@example(np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]))
@example(np.zeros((2, 0, 3), dtype=np.int64))
@example(np.array([[True], [False]]))
@example(np.array([1.5, 1.0]))
def test_an_array_is_written_as_its_list(arr):
    plain = arr.tolist()
    assert json_text(arr) == json.dumps(plain, indent=1)
    nested = {"a": [arr, {"b": arr}], "c": arr}
    assert json_text(nested) == json.dumps({"a": [plain, {"b": plain}], "c": plain}, indent=1)


record_arrays = st.tuples(
    st.lists(st.sampled_from(["dom", "cod", "a", "é"]), min_size=1, max_size=3, unique=True),
    st.sampled_from([np.int8, np.int64]),
    st.integers(0, 4),
).flatmap(lambda spec: hnp.arrays(
    np.dtype([(name, spec[1]) for name in spec[0]]), spec[2],
    elements=st.tuples(*[st.integers(-128, 127)] * len(spec[0])),
))


@settings(max_examples=100, deadline=None)
@given(record_arrays)
@example(np.zeros(0, dtype=[("dom", np.int64), ("cod", np.int64)]))
def test_a_record_array_is_written_as_its_list_of_objects(rows):
    plain = [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]
    assert json_text(rows) == json.dumps(plain, indent=1)
    nested = {"a": [rows, {"b": rows}], "c": rows}
    assert json_text(nested) == json.dumps({"a": [plain, {"b": plain}], "c": plain}, indent=1)
