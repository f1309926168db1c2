"""End-to-end runs of the command line interface through dispatch()."""

import copy
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import skewalg

from skewalg import (
    BiBandAlgebra,
    FiniteGroupoid,
    RestrictionSystem,
    SkewLatticeTable,
    chain_lattice,
    check_extension_axioms,
    check_linking,
    check_restriction_axioms,
    check_structure,
    enumerate_skew_lattices,
    generate_model_suite,
    load_structure,
    rectangular_skew,
    save_structure,
    semidirect_algebra,
    semidirect_groupoid,
    trivial_action,
    verify_derived_identities,
)
from skewalg.cli import COMMANDS, _HelpShown, _parser, _UsageError, dispatch, main
from skewalg.models import GROUP_CATALOG, GroupAction
from skewalg.serialize import json_text, structure_to_dict


def swap_action():
    rect = enumerate_skew_lattices(2)[2]
    return GroupAction(GROUP_CATALOG["C2"], rect, [[0, 1], [1, 0]])


@pytest.fixture()
def swap_algebra_file(tmp_path):
    path = tmp_path / "swap-algebra.json"
    save_structure(path, semidirect_algebra(swap_action()))
    return str(path)


@pytest.fixture()
def swap_system_file(tmp_path):
    path = tmp_path / "swap-system.json"
    save_structure(path, semidirect_groupoid(swap_action()))
    return str(path)


def test_enum_bands_reports_three_classes():
    run, code = dispatch(["enum-bands", "2"])
    assert code == 0
    assert run["ok"] is True
    assert run["count"] == 3


def test_enum_skew_matches_library():
    run, code = dispatch(["enum-skew", "3"])
    assert code == 0
    assert run["count"] == 7


def test_check_algebra_passes_on_generated_instance(swap_algebra_file):
    run, code = dispatch(["check-algebra", swap_algebra_file])
    assert code == 0
    assert run["ok"] is True
    assert all(c["ok"] for c in run["report"]["checks"].values() if c["required"])


def test_check_system_passes_on_generated_instance(swap_system_file):
    run, code = dispatch(["check-system", swap_system_file])
    assert code == 0
    names = run["report"]["checks"]
    assert any(k.startswith("restriction.") for k in names)
    assert any(k.startswith("extension.") for k in names)
    assert any(k.startswith("linking.") for k in names)


def test_check_algebra_fails_with_exit_one(tmp_path):
    S = semidirect_algebra(swap_action())
    st = S.star.copy()
    st[2], st[3] = st[3], st[2]
    path = tmp_path / "broken.json"
    save_structure(path, BiBandAlgebra(S.join.array, S.meet.array, st))
    run, code = dispatch(["check-algebra", str(path)])
    assert code == 1
    assert run["ok"] is False
    assert any(not c["ok"] for c in run["report"]["checks"].values() if c["required"])


def test_inputs_carry_file_digest(swap_algebra_file):
    run, _ = dispatch(["check-algebra", swap_algebra_file])
    digest = run["inputs"][swap_algebra_file]
    assert digest.startswith("sha256:")
    assert len(digest) == len("sha256:") + 64


def test_missing_file_is_exit_two(tmp_path):
    run, code = dispatch(["check-algebra", str(tmp_path / "absent.json")])
    assert code == 2


def test_wrong_structure_kind_is_exit_two(tmp_path, swap_algebra_file):
    # check-system pointed at an algebra file
    run, code = dispatch(["check-system", swap_algebra_file])
    assert code == 2


def test_unknown_subcommand_is_exit_three():
    _, code = dispatch(["polish-the-tables"])
    assert code == 3


def test_missing_argument_is_exit_three():
    _, code = dispatch(["check-algebra"])
    assert code == 3


@pytest.mark.parametrize("argv", [["enum-bands", "0"], ["enum-skew", "0"], ["enum-skew", "-1"]])
def test_non_positive_order_is_exit_three(argv):
    run, code = dispatch(argv)
    assert code == 3
    assert run["error"]["kind"] == "usage"
    json.dumps(run)


def test_check_system_report_is_the_five_checkers_in_order(swap_system_file):
    sysm = load_structure(swap_system_file)
    families = [
        ("structure.", check_structure),
        ("restriction.", check_restriction_axioms),
        ("extension.", check_extension_axioms),
        ("linking.", check_linking),
        ("derived.", verify_derived_identities),
    ]
    run, _ = dispatch(["check-system", swap_system_file])
    expected = [p + c.name for p, checker in families for c in checker(sysm).checks()]
    assert list(run["report"]["checks"]) == expected
    axioms = [c.name for _, checker in families[:4] for c in checker(sysm).checks()]
    assert [c.name for c in sysm.full_report().checks()] == axioms


def test_out_that_cannot_be_a_directory_is_exit_three(swap_system_file):
    for out in (swap_system_file, os.path.join(swap_system_file, "x")):
        for argv in (["build-algebra", swap_system_file], ["gen-models", "--max-group", "1", "--max-band", "1"]):
            run, code = dispatch(argv + ["--out", out])
            assert code == 3
            assert run["error"]["kind"] == "usage"


def test_bound_violation_is_exit_four():
    run, code = dispatch(["enum-bands", "9"])
    assert code == 4
    assert run["error"]["kind"] == "bound"


@pytest.mark.parametrize("command", ["enum-bands", "enum-skew"])
@pytest.mark.parametrize("n", [128, 10**6])
def test_order_beyond_the_int8_fill_is_exit_four(command, n):
    # 127 is the largest order whose cells and undecided marker fit in int8
    run, code = dispatch([command, str(n), "--max", str(n)])
    assert code == 4
    assert run["error"] == {
        "kind": "bound", "message": f"order {n} exceeds 127, the largest order the int8 table fill holds",
    }
    json.dumps(run)


def test_reports_are_deterministic(swap_system_file):
    first, _ = dispatch(["check-system", swap_system_file])
    second, _ = dispatch(["check-system", swap_system_file])
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second


def test_run_report_key_order_puts_elapsed_last(swap_algebra_file):
    run, _ = dispatch(["check-algebra", swap_algebra_file])
    assert list(run)[:3] == ["command", "inputs", "ok"]
    assert list(run)[-1] == "elapsed_s"


def test_build_algebra_writes_loadable_output(tmp_path, swap_system_file):
    out = tmp_path / "built"
    run, code = dispatch(["build-algebra", swap_system_file, "--out", str(out)])
    assert code == 0
    (written,) = run["written"]
    assert isinstance(load_structure(written), BiBandAlgebra)


def test_reconstruct_writes_loadable_system(tmp_path, swap_algebra_file):
    out = tmp_path / "rebuilt"
    run, code = dispatch(["reconstruct", swap_algebra_file, "--out", str(out)])
    assert code == 0
    (written,) = run["written"]
    assert isinstance(load_structure(written), RestrictionSystem)


def test_roundtrip_accepts_both_kinds(swap_algebra_file, swap_system_file):
    for path in (swap_algebra_file, swap_system_file):
        run, code = dispatch(["roundtrip", path])
        assert code == 0
        assert run["ok"] is True


def _failed(run):
    return {name: c["witness"] for name, c in run["report"]["checks"].items() if not c["ok"]}


def test_check_skew_passes_a_lattice_and_names_a_failed_absorption(tmp_path):
    # meet = join = the left-zero band fails both absorptions ending in b
    for name, lattice, expect_code, failed in (
        ("valid", rectangular_skew(2), 0, {}),
        ("broken", SkewLatticeTable([[0, 0], [1, 1]], [[0, 0], [1, 1]]), 1,
         {"absorb_meet_then_join": [0, 1], "absorb_join_then_meet": [0, 1]}),
    ):
        path = tmp_path / f"{name}.json"
        save_structure(path, lattice)
        run, code = dispatch(["check-skew", str(path)])
        assert code == expect_code
        assert run["ok"] is (code == 0)
        assert run["report"]["title"] == "skew lattice"
        assert len(run["report"]["checks"]) == 8
        assert _failed(run) == failed


def test_check_groupoid_passes_a_suite_groupoid_and_fails_a_broken_one(tmp_path):
    groupoid = semidirect_groupoid(swap_action()).groupoid  # suite instance C2xB2.2a1
    # every morphism its own inverse, though (b, 1) runs between two objects
    broken = FiniteGroupoid(
        groupoid.object_count, groupoid.dom, groupoid.cod, groupoid.comp, np.arange(groupoid.morphism_count)
    )
    for name, g, expect_code, failed in (
        ("suite", groupoid, 0, {}),
        ("broken", broken, 1, {"inverse_laws": [1], "anti_involution": [0, 1]}),
    ):
        path = tmp_path / f"{name}.json"
        save_structure(path, g)
        run, code = dispatch(["check-groupoid", str(path)])
        assert code == expect_code
        assert run["ok"] is (code == 0)
        assert run["report"]["title"] == "groupoid laws"
        assert len(run["report"]["checks"]) == 7
        assert _failed(run) == failed


def test_the_empty_groupoid_survives_a_save_and_a_load(tmp_path):
    # its composition table is written as [], which must load as 0x0
    path = tmp_path / "empty.json"
    empty = FiniteGroupoid(0, [], [], np.empty((0, 0)), [])
    save_structure(path, empty)
    assert load_structure(path) == empty
    run, code = dispatch(["check-groupoid", str(path)])
    assert code == 0
    assert run["ok"] and run["report"]["title"] == "groupoid laws"


@pytest.mark.parametrize("kind", ["groupoid", "system", "algebra", "action"])
def test_a_system_whose_objects_hold_another_structure_is_exit_two(tmp_path, kind):
    action = swap_action()
    system = semidirect_groupoid(action)
    other = {"groupoid": system.groupoid, "system": system, "algebra": semidirect_algebra(action), "action": action}
    data = structure_to_dict(system)
    data["objects"] = structure_to_dict(other[kind])
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    run, code = dispatch(["check-system", str(path)])
    assert code == 2
    assert run["error"] == {
        "kind": "malformed",
        "message": "objects must be a SkewLatticeTable or a (meet, join) pair",
    }


def test_roundtrip_of_a_lattice_file_is_exit_two(tmp_path):
    path = tmp_path / "lattice.json"
    save_structure(path, rectangular_skew(2))
    run, code = dispatch(["roundtrip", str(path)])
    assert code == 2
    assert run["error"] == {
        "kind": "malformed", "message": f"{path} holds neither a restriction system nor an algebra"
    }


def _precondition(name, witness):
    check = {"ok": False, "witness": witness, "required": True, "note": None}
    return {"title": "precondition", "ok": False, "checks": {name: check}}


def test_failed_precondition_is_a_one_check_record(tmp_path):
    # reconstruct needs the algebra axioms, build-algebra and roundtrip a
    # system that passes its full report; each names the first failure
    S = semidirect_algebra(swap_action())
    st = S.star.copy()
    st[2], st[3] = st[3], st[2]
    sysm = semidirect_groupoid(swap_action())
    restL = sysm.restL.copy()
    restL[0, 1] = -1  # a hole although 0 leL dom 1
    holed = RestrictionSystem(sysm.groupoid, sysm.objects, restL, sysm.restR, sysm.extL, sysm.extR)
    for command, obj, expected in (
        ("reconstruct", BiBandAlgebra(S.join.array, S.meet.array, st), _precondition("positive_parts_agree", [2])),
        ("build-algebra", holed, _precondition("restL_defined_iff", [0, 1])),
        ("roundtrip", holed, _precondition("restL_defined_iff", [0, 1])),
    ):
        path = tmp_path / f"{command}.json"
        save_structure(path, obj)
        run, code = dispatch([command, str(path)])
        assert code == 1
        assert list(run) == ["command", "inputs", "ok", "report", "elapsed_s"]
        assert run["ok"] is False and run["inputs"] == {}
        assert json.dumps(run["report"]) == json.dumps(expected)


def test_witness_anti_finds_pair_on_rectangular(swap_algebra_file):
    run, code = dispatch(["witness-anti", swap_algebra_file])
    assert code == 0
    assert run["report"]["checks"]["witness_exists"]["witness"] == [0, 1]


def test_witness_anti_absent_on_commutative_base_is_exit_one(tmp_path):
    path = tmp_path / "comm.json"
    save_structure(
        path, semidirect_algebra(trivial_action(GROUP_CATALOG["C2"], chain_lattice(2)))
    )
    run, code = dispatch(["witness-anti", str(path)])
    assert code == 1
    assert run["report"]["checks"]["witness_exists"]["witness"] is None


@pytest.mark.parametrize(
    "argv",
    [["gen-models", "--max-band", "0"], ["gen-models", "--max-group", "0"], ["gen-models", "--max-band", "-3"]],
)
def test_non_positive_suite_bound_is_exit_three(argv):
    run, code = dispatch(argv)
    assert code == 3
    assert run["error"]["kind"] == "usage"
    assert "count" not in run


def test_gen_models_writes_three_files_per_instance(tmp_path):
    out = tmp_path / "models"
    run, code = dispatch(
        ["gen-models", "--max-group", "2", "--max-band", "2", "--out", str(out)]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert run["count"] * 3 == len(names)
    for stem in run["instances"]:
        for tag in ("action", "algebra", "system"):
            assert f"{stem}.{tag}.json" in names
    loaded = load_structure(out / f"{run['instances'][0]}.algebra.json")
    assert isinstance(loaded, BiBandAlgebra)


def test_gen_models_output_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    dispatch(["gen-models", "--max-group", "2", "--max-band", "2", "--out", str(a)])
    dispatch(["gen-models", "--max-group", "2", "--max-band", "2", "--out", str(b)])
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


def test_gen_models_writes_the_pinned_suite_files(tmp_path):
    # the whole suite byte for byte: sha256 over the files' sorted
    # (name, length, bytes), the recipe of the gen-models benchmark's check
    out = tmp_path / "models"
    _, code = dispatch(["gen-models", "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    h = hashlib.sha256()
    for name in names:
        data = (out / name).read_bytes()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    assert len(names) == 1137
    assert h.hexdigest() == "282f8b69036fb3b163ab21716525ad5d0e74aa865980ae76519e884b73c74e91"


def test_gen_models_bound_is_exit_four(tmp_path):
    _, code = dispatch(["gen-models", "--max-group", "12", "--out", str(tmp_path / "x")])
    assert code == 4
    assert not (tmp_path / "x").exists()


def test_gen_models_lists_and_writes_in_suite_order(tmp_path):
    out = tmp_path / "models"
    run, code = dispatch(["gen-models", "--max-group", "3", "--max-band", "2", "--out", str(out)])
    assert code == 0
    names = [inst.name for inst in generate_model_suite(3, 2)]
    assert run["instances"] == names and run["count"] == len(names)
    tags = ("action", "algebra", "system")
    assert run["written"] == [str(out / f"{name}.{tag}.json") for name in names for tag in tags]
    assert dispatch(["gen-models", "--max-group", "3", "--max-band", "2"])[0]["instances"] == names


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv, blocked", [
    # 13 kB in all: every frame is in the pipe before the writer fails
    (["gen-models", "--max-group", "2", "--max-band", "2"], "C2xB2.1a0.algebra.json"),
    # 296 kB in all: the writer stops at its first file while frames remain
    (["gen-models", "--max-group", "4", "--max-band", "3"], "C1xB1.0a0.action.json"),
    (["build-algebra", "SYSTEM"], "algebra.json"),
    (["reconstruct", "ALGEBRA"], "system.json"),
])
def test_a_failed_write_is_exit_three_naming_the_path(argv, blocked, tmp_path, capsys, swap_system_file, swap_algebra_file):
    # an output name already taken by a directory: the writer process fails
    # to open it, the record names the path, and no process is left behind
    argv = [{"SYSTEM": swap_system_file, "ALGEBRA": swap_algebra_file}.get(a, a) for a in argv]
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    run, code = dispatch([*argv, "--out", str(out)])
    assert code == 3
    assert run["error"] == {
        "kind": "usage", "message": f"cannot write under --out: [Errno 21] Is a directory: {str(out / blocked)!r}",
    }
    assert "written" not in run
    assert_no_child_process()
    assert main([*argv, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert_no_child_process()


def test_a_writer_that_stops_without_a_report_is_exit_three(tmp_path, monkeypatch):
    # a writer killed or failing before its loop reports nothing; its exit
    # status is the error, and it is waited for
    monkeypatch.setattr("skewalg.cli._WRITER", "import sys; sys.exit(5)")
    run, code = dispatch(["gen-models", "--max-group", "4", "--max-band", "3", "--out", str(tmp_path / "out")])
    assert code == 3
    assert run["error"]["message"] == "cannot write under --out: the file writer exited with status 5"
    assert_no_child_process()


def test_out_naming_a_regular_file_is_exit_three_without_a_process(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    argv = ["gen-models", "--max-group", "1", "--max-band", "1", "--out", str(out)]
    run, code = dispatch(argv)
    assert code == 3
    assert run["error"]["message"] == f"cannot write under --out: [Errno 17] File exists: {str(out)!r}"
    assert_no_child_process()
    assert main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert_no_child_process()


def test_main_prints_json_report(capsys, swap_algebra_file):
    code = main(["check-algebra", swap_algebra_file])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["ok"] is True


@pytest.mark.parametrize("command", ["help", "enum-skew", "passing", "failing"])
def test_main_prints_the_indent_one_json_of_its_run_record(command, capsys, monkeypatch, tmp_path, swap_algebra_file):
    S = semidirect_algebra(swap_action())
    star = S.star.copy()
    star[2], star[3] = star[3], star[2]
    broken = tmp_path / "broken.json"
    save_structure(broken, BiBandAlgebra(S.join.array, S.meet.array, star))
    argv = {
        "help": ["--help"],
        "enum-skew": ["enum-skew", "3"],
        "passing": ["check-algebra", swap_algebra_file],
        "failing": ["check-algebra", str(broken)],
    }[command]
    runs = []

    def recorded(argv):
        runs.append(dispatch(argv))
        return runs[-1]

    monkeypatch.setattr(skewalg.cli, "dispatch", recorded)
    code = main(argv)
    ((run, expect_code),) = runs
    assert code == expect_code == (1 if command == "failing" else 0)
    assert capsys.readouterr().out == json.dumps(run, indent=1) + "\n"


def test_main_text_format_is_human_summary(capsys, swap_algebra_file):
    # the human summary is on stderr on every run; stdout is the record
    code = main(["check-algebra", swap_algebra_file])
    shown = capsys.readouterr()
    assert code == 0
    assert json.loads(shown.out)["ok"] is True
    assert shown.err.startswith(f"skewalg check-algebra {swap_algebra_file}: ok\n")
    with pytest.raises(json.JSONDecodeError):
        json.loads(shown.err)


@pytest.mark.parametrize("case", ["witness", "error", "written"])
def test_main_text_format_after_an_equals_sign(case, capsys, tmp_path, swap_algebra_file, swap_system_file):
    # each summary line is on stderr, and --format=text before the command
    # is a usage error
    argv, code, line = {
        "witness": (["witness-anti", swap_algebra_file], 0, "  witness: [0, 1]"),
        "error": (["check-algebra", str(tmp_path / "absent.json")], 2, "  error (malformed): "),
        "written": (["build-algebra", swap_system_file, "--out", str(tmp_path / "out")], 0, "  wrote 1 file(s)"),
    }[case]
    assert main(argv) == code
    shown = capsys.readouterr()
    assert json.loads(shown.out)["command"] == argv
    assert shown.err.startswith(f"skewalg {argv[0]} ")
    assert any(err.startswith(line) for err in shown.err.splitlines())
    assert main(["--format=text", *argv]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "usage"


@pytest.mark.parametrize("argv", [
    ["--format", "text", "enum-bands", "2"],
    ["enum-bands", "2", "--format", "text"],
    ["--format=text", "enum-bands", "2"],
    ["enum-bands", "2", "--format=json"],
    ["enum-bands", "2", "--form", "text"],
    ["enum-bands", "2", "--f", "text"],
    ["enum-bands", "2", "--form=text"],
    ["enum-bands", "2", "--format", "json", "--format", "text"],
    ["enum-bands", "2", "--format", "text", "--format", "json"],
], ids=["before", "after", "equals-before", "equals-json", "prefix", "short-prefix", "prefix-equals",
        "json-then-text", "text-then-json"])
def test_every_format_spelling_is_a_usage_error_in_json(argv, capsys):
    assert main(argv) == 3
    shown = capsys.readouterr()
    run = json.loads(shown.out)
    assert (run["command"], run["ok"], run["error"]["kind"]) == (argv, False, "usage")
    assert shown.err.startswith(f"skewalg {' '.join(argv)}: FAILED\n  error (usage): ")


def test_an_unknown_format_is_a_usage_error_in_json(capsys):
    assert main(["enum-bands", "2", "--format", "xml"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "usage"


def test_seed_flag_is_a_usage_error(swap_algebra_file):
    run, code = dispatch(["--seed", "7", "check-algebra", swap_algebra_file])
    assert code == 3
    assert run["error"]["kind"] == "usage"


def chain2(meet=((0, 0), (0, 1)), order=2):
    return {"order": order, "ops": {"meet": [list(r) for r in meet], "join": [[0, 1], [1, 1]]}}


@pytest.mark.parametrize(
    "data, message",
    [
        (chain2(meet=((0, 0.7), (0, 1))), "0.7 is not an integer"),
        (chain2(meet=((False, 0), (0, True))), "False is not an integer"),
        (chain2(order=5), "order 5 does not match"),
        (chain2(meet=((0, 10**30), (0, 1))), "too large"),
    ],
    ids=["float", "boolean", "order-mismatch", "beyond-int64"],
)
def test_table_that_would_be_coerced_is_exit_two(tmp_path, data, message):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(data))
    run, code = dispatch(["check-skew", str(path)])
    assert code == 2
    assert run["error"]["kind"] == "malformed"
    assert message in run["error"]["message"]


def groupoid1(**changed):
    """The one-object, one-morphism groupoid's file dict, with keys replaced."""
    return {"objects": 1, "morphisms": [{"dom": 0, "cod": 0}], "comp": [[0]], "inv": [0], **changed}


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("check-algebra", {"join": [[0] * 4] * 4, "meet": [[0] * 3] * 3, "star": [0, 1, 2, 3]},
         "bad structure file: join order 4 != meet order 3"),
        ("check-algebra", {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]], "star": [0, 1, 0]},
         "bad structure file: star must have shape (2,)"),
        ("check-groupoid", groupoid1(inv=[]), "dom, cod, inv must have equal length"),
        ("check-groupoid", groupoid1(objects=-1), "negative object count"),
        ("check-groupoid", groupoid1(comp=[[99]]), "composition entries out of range"),
        ("check-skew", chain2(meet=((0, 9), (0, 1))), "bad structure file: table entries must lie in 0..n-1"),
        ("check-skew", {"ops": {"meet": [[0]], "join": [[0, 1], [1, 1]]}},
         "bad structure file: meet and join must share a carrier"),
        ("check-system", {
            "groupoid": groupoid1(objects=2, morphisms=[{"dom": 0, "cod": 0}, {"dom": 1, "cod": 1}],
                                  comp=[[0, -1], [-1, 1]], inv=[0, 1]),
            "objects": {"order": 1, "ops": {"meet": [[0]], "join": [[0]]}},
            "restL": [[0]], "restR": [[0]], "extL": [[0]], "extR": [[0]],
        }, "objects table order 1 != groupoid object count 2"),
    ],
    ids=["order-mismatch", "star-shape", "short-inv", "negative-objects", "comp-range",
         "lattice-range", "carrier-mismatch", "objects-order"],
)
def test_a_malformed_table_is_exit_two_with_its_message(tmp_path, command, data, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    run, code = dispatch([command, str(path)])
    assert code == 2
    assert run["error"] == {"kind": "malformed", "message": message}


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["--help"], "usage: skewalg [-h]"),
        (["-h"], "usage: skewalg [-h]"),
        (["check-skew", "--help"], "usage: skewalg check-skew [-h]"),
    ],
)
def test_help_returns_a_run_record(argv, usage, capsys):
    run, code = dispatch(argv)
    assert code == 0
    assert run["ok"] is True
    assert run["help"].startswith(usage)
    assert list(run) == ["command", "inputs", "ok", "help", "elapsed_s"]
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    shown = capsys.readouterr()
    assert json.loads(shown.out)["help"] == run["help"]
    assert usage in shown.err


def test_commands_in_a_row_match_single_runs(swap_algebra_file, swap_system_file):
    import skewalg.cli as cli

    commands = [
        ["enum-bands", "2"],
        ["--format", "text", "check-algebra", swap_algebra_file],
        ["check-system", swap_system_file, "--seed", "3"],
        ["check-algebra"],
        ["check-skew", "--help"],
        ["enum-skew", "3", "--max", "4"],
        ["roundtrip", swap_algebra_file],
        ["--help"],
        ["check-system", swap_algebra_file],
    ]

    def record(argv):
        run, code = dispatch(argv)
        run.pop("elapsed_s")
        return run, code

    in_a_row = [record(argv) for argv in commands]
    single = []
    for argv in commands:
        cli._parser.cache_clear()
        single.append(record(argv))
    assert in_a_row == single


def test_closed_stdout_pipe_exits_cleanly():
    # the reader is gone before the first write, as with `| head -c 10`
    src = os.path.dirname(os.path.dirname(skewalg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewalg.cli", "enum-skew", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    assert "enum-skew 4: ok" in err


FILE_COMMANDS = [
    "check-skew", "check-groupoid", "check-system", "check-algebra",
    "build-algebra", "reconstruct", "roundtrip", "witness-anti",
]

@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_more_objects_than_morphisms_is_exit_two(tmp_path, command):
    # every object needs its identity morphism; 10**12 objects would not fit in memory
    groupoid = {"objects": 10**12, "morphisms": [{"dom": 0, "cod": 0}], "comp": [[0]], "inv": [0]}
    system = {"groupoid": groupoid, "objects": {"order": 1, "ops": {"meet": [[0]], "join": [[0]]}},
              "restL": [[0]], "restR": [[0]], "extL": [[0]], "extR": [[0]]}
    for data in (groupoid, system):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        run, code = dispatch([command, str(path)])
        assert code == 2
        assert run["error"] == {
            "kind": "malformed",
            "message": "1000000000000 objects but 1 morphisms: every object needs an identity",
        }


@pytest.mark.parametrize(
    ("content", "message"),
    [
        (b'\xff\xfe{"order": 1}', "is not UTF-8 text"),
        (b"[" * 100000 + b"]" * 100000, "is nested too deeply to load"),
    ],
)
def test_an_undecodable_or_too_deep_file_is_exit_two(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in FILE_COMMANDS:
        run, code = dispatch([command, str(path)])
        assert code == 2
        assert run["error"]["kind"] == "malformed"
        assert run["error"]["message"].startswith(f"{path} {message}")
        json.loads(json_text(run))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _valid_dicts():
    a = swap_action()
    system = semidirect_groupoid(a)
    return [
        structure_to_dict(s)
        for s in (chain_lattice(2), system.groupoid, system, semidirect_algebra(a), a)
    ]


@st.composite
def near_valid_json(draw):
    """A valid structure dict with one value, anywhere in it, replaced."""
    data = copy.deepcopy(draw(st.sampled_from(_valid_dicts())))
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return data
        key = draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(json_values)
        return data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(FILE_COMMANDS), data=json_values | near_valid_json())
def test_dispatch_on_any_json_file_returns_a_record(tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    run, code = dispatch([command, str(path)])
    assert code in (0, 1, 2, 3, 4)
    assert run["command"] == [command, str(path)]
    assert json.loads(json.dumps(run)) == run


SUBCOMMANDS = ["enum-bands", "enum-skew", "gen-models", *FILE_COMMANDS]
# every integer is at most 4, so that no order or bound passes the default
NUMBERS = ["-99999999999999999999", "-1", "0", "1", "2", "3", "4", "+2", " 3", "4.0", "0x4", "1e2"]
WORDS = ["", "-", "--", "--help", "-h", "--bogus", "--format=text", "json", "nan", "é", "a b"]
# no digit, so int() reads none of them; no leading '-', so none abbreviates --out
odd_text = st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="\x00"), max_size=3
).filter(lambda t: not t.startswith("-"))


@st.composite
def argument_lists(draw, files, outs):
    """Mostly a subcommand with arguments from its own entry in cli.COMMANDS:
    its positional argument, then some of its options with drawn values.
    About one extra token in five is foreign: a flag the command line does
    not have (--seed, --format), a word from its vocabulary, another
    subcommand, an odd value or a file.  --out only ever names a place in
    outs, and gen-models, whose default is the whole suite, starts with
    small bounds that later options may replace."""
    values = {
        "file": st.sampled_from(files),
        "--out": st.sampled_from(outs),
        **dict.fromkeys(["n", "--max", "--max-group", "--max-band"], st.sampled_from(NUMBERS)),
    }
    foreign = {
        "--seed": st.sampled_from(NUMBERS),
        "--format": st.sampled_from(["json", "text"]) | odd_text,
    }
    command = draw(st.sampled_from(SUBCOMMANDS))
    arguments = [name for name, _ in COMMANDS[command][1]]
    options = [name for name in arguments if name.startswith("-")]
    argv = [command]
    if command == "gen-models":
        small = st.sampled_from(["-1", "0", "1", "2"])
        argv += ["--max-group", draw(small), "--max-band", draw(small)]
    argv += [draw(values[name]) for name in arguments if not name.startswith("-")]
    for kind in draw(st.lists(st.integers(0, 9), max_size=3)):
        if kind == 0:
            flag = draw(st.sampled_from(list(foreign)))
            argv += [flag, draw(foreign[flag])]
        elif kind == 1:
            argv.append(draw(st.sampled_from(SUBCOMMANDS + NUMBERS + WORDS + files) | odd_text))
        elif options:
            flag = draw(st.sampled_from(options))
            argv += [flag, draw(values[flag])]
    return argv


def _argument_files(tmp_path, swap_algebra_file, swap_system_file):
    """The files and --out places argument_lists draws from."""
    files = [swap_algebra_file, swap_system_file, str(tmp_path / "missing.json"), str(tmp_path)]
    # a new directory, an existing one, a file, and a path below a file
    outs = [str(tmp_path / "out"), str(tmp_path), swap_system_file, swap_system_file + "/x"]
    return files, outs


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dispatch_on_any_argument_list_returns_a_record(tmp_path, swap_algebra_file, swap_system_file, data):
    argv = data.draw(argument_lists(*_argument_files(tmp_path, swap_algebra_file, swap_system_file)))
    run, code = dispatch(argv)
    assert code in (0, 1, 2, 3, 4)
    assert run["command"] == argv
    assert json.loads(json.dumps(run)) == run


def test_most_drawn_argument_lists_get_past_the_parser(tmp_path, swap_algebra_file, swap_system_file):
    # the property above tests the handlers only on the draws that parse
    parsed = []

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(argv=argument_lists(*_argument_files(tmp_path, swap_algebra_file, swap_system_file)))
    def parse(argv):
        try:
            _parser().parse_args(argv)
        except (_HelpShown, _UsageError):
            parsed.append(False)
        else:
            parsed.append(True)

    parse()
    assert len(parsed) >= 200
    assert sum(parsed) >= len(parsed) / 2


WRITERS = ("build-algebra", "reconstruct", "gen-models")


@pytest.mark.parametrize("command", [c for c in FILE_COMMANDS if c not in WRITERS])
def test_out_on_a_command_that_writes_nothing_is_exit_three(tmp_path, command, swap_system_file):
    # each file holds what its command reads, so --out is the only fault
    system = load_structure(swap_system_file)
    structure = {"check-skew": rectangular_skew(2), "check-groupoid": system.groupoid,
                 "check-system": system}.get(command, semidirect_algebra(swap_action()))
    path = str(tmp_path / "input.json")
    save_structure(path, structure)
    assert dispatch([command, path])[1] == 0
    out = tmp_path / "out"
    run, code = dispatch([command, path, "--out", str(out)])
    assert code == 3
    assert run["error"] == {"kind": "usage", "message": f"unrecognized arguments: --out {out}"}
    assert not out.exists()


def test_help_shows_out_for_exactly_the_commands_that_write(tmp_path, swap_algebra_file, swap_system_file):
    for command in SUBCOMMANDS:
        run, code = dispatch([command, "--help"])
        assert code == 0
        assert ("[--out OUT]" in run["help"]) is (command in WRITERS)
    for argv in (
        ["build-algebra", swap_system_file],
        ["reconstruct", swap_algebra_file],
        ["gen-models", "--max-group", "1", "--max-band", "2"],
    ):
        out = tmp_path / argv[0]
        run, code = dispatch([*argv, "--out", str(out)])
        assert code == 0
        assert run["written"] and sorted(run["written"]) == sorted(map(str, out.iterdir()))


PINNED_INSTANCES = ("C1xB1.0a0", "C2xB3.1a1", "C2xB4.13a0", "C3xB4.3a0", "V4xB4.1a1", "S3xB4.20a3")
SYSTEM_COMMANDS = ("check-system", "build-algebra", "roundtrip")
ALGEBRA_COMMANDS = ("check-algebra", "reconstruct", "roundtrip", "witness-anti")
# sha256 of each run record (elapsed_s dropped, the input path replaced by
# the file's base name) and its exit code
PINNED_RECORDS = {
    "check-system C1xB1.0a0.system.json": (
        "315f3aec9dc041550fd24ecdfca5d103c221f297409cc9ed3775fa38dd53dfc4", 0,
    ),
    "build-algebra C1xB1.0a0.system.json": (
        "5e84a9ae4f1d0c686a1d2c3b1950db0cc49f51a63bea3c3ed6d17e720f691f7f", 0,
    ),
    "roundtrip C1xB1.0a0.system.json": (
        "3c10ca920464136f0731f472ef3fd278d2db159b499219e42dc8416acf1cc768", 0,
    ),
    "check-algebra C1xB1.0a0.algebra.json": (
        "c787f58eb523ba4c68dc204bcae2396c7d9941dca21378cbc4837ccfdcceffde", 0,
    ),
    "reconstruct C1xB1.0a0.algebra.json": (
        "e4da339fd4deed4b25c28dac19b767ca2455149781be041d5259932732f53050", 0,
    ),
    "roundtrip C1xB1.0a0.algebra.json": (
        "cd506b1f5848a922db3b6992678cec81ba215c3307aeea2e03c4b102bb57dc12", 0,
    ),
    "witness-anti C1xB1.0a0.algebra.json": (
        "5cdcd4ba941a03494e6fbb57210383abd77a307ca3fa96b1e530d13848a347e6", 1,
    ),
    "check-system C2xB3.1a1.system.json": (
        "4cf4ee56d3e8d62016db0ca674016e2ce7c51aa627d0950afdb78475ec5c4237", 0,
    ),
    "build-algebra C2xB3.1a1.system.json": (
        "664ba079f0d9748f636e5dd6c839bfc98059a3426b84c34f81a5889fd949a850", 0,
    ),
    "roundtrip C2xB3.1a1.system.json": (
        "bde07b2194a20eadb11cccd714382f99e14b91793994955c0fc3203fde5256b6", 0,
    ),
    "check-algebra C2xB3.1a1.algebra.json": (
        "fe33ab6ae774ec2265c4ebc7911be259eec0eb15e50d811c0ed4b9f6c869f289", 0,
    ),
    "reconstruct C2xB3.1a1.algebra.json": (
        "ca04092b9872601f3640cedf5dcb5dfa78e1e75d9b70c47fff355a3335b99b46", 0,
    ),
    "roundtrip C2xB3.1a1.algebra.json": (
        "d2a1be4cdd7ab5bf7a5925de0cc885ec83d70aaf8c2e64918e4ba65882bddcd0", 0,
    ),
    "witness-anti C2xB3.1a1.algebra.json": (
        "2b9f9d432abf30b72ed30a71884a60dc2db040b2be2a621afa7a3e46ed453003", 0,
    ),
    "check-system C2xB4.13a0.system.json": (
        "2b9a8078b9298cf91efd27fbb327bd3bbd38b25f01585396190e0e9b852fb55e", 0,
    ),
    "build-algebra C2xB4.13a0.system.json": (
        "81849e25e14f1ca8dd1bafe69494c19b4ecf3874140f9f5d2a5937187e5f47ef", 0,
    ),
    "roundtrip C2xB4.13a0.system.json": (
        "862cd3556d74ee7fb2f72f211a15999e8ddc375393e746957fc4f72b70d1adf9", 0,
    ),
    "check-algebra C2xB4.13a0.algebra.json": (
        "c617e120a5954ab25f223bb0ac47c9ac601e7acd7b1652a5b414cc93b4bb12bd", 0,
    ),
    "reconstruct C2xB4.13a0.algebra.json": (
        "05372b2d11fe510c7538b72108b7611852caeb6386de32fcb9e084bee3730f79", 0,
    ),
    "roundtrip C2xB4.13a0.algebra.json": (
        "7659e13fc5a396785a08fe9eb66aaea2afb3f464b542d1fe5f82456f148c1ee9", 0,
    ),
    "witness-anti C2xB4.13a0.algebra.json": (
        "f0a12310d661280084fe8da3a9cf7dd294c2ea7b931cbfe526b2656092bb3b83", 0,
    ),
    "check-system C3xB4.3a0.system.json": (
        "9fbc938354fee143988a92aadd16fb6f4ba2fb2289187c9b62c58e4c47d587ab", 0,
    ),
    "build-algebra C3xB4.3a0.system.json": (
        "67007674b07d1609fdb94b0246c48a268e908b28e93722c8f8ae302cef57dde0", 0,
    ),
    "roundtrip C3xB4.3a0.system.json": (
        "f1e11ba435359c3a089eaa0dd689a95f58da11faf9e56d532b32c4e32e5bf960", 0,
    ),
    "check-algebra C3xB4.3a0.algebra.json": (
        "cf71a4a2d018cb409a02db39b1d7f67b51ee4107f11ef601dc1c13e35326af01", 0,
    ),
    "reconstruct C3xB4.3a0.algebra.json": (
        "8b9518fad3142c85825d838c4f8dec9cf29cc7ee27054a8bf3cec73ac52ac2db", 0,
    ),
    "roundtrip C3xB4.3a0.algebra.json": (
        "e836bfab749225d5e7411fce3cb29ff849fc9f279e6b283455daba1b27835e09", 0,
    ),
    "witness-anti C3xB4.3a0.algebra.json": (
        "feb4a3d9da94bc8abd59a0a9a8d092dab710289329c29186dc70cd6f36ccfec3", 0,
    ),
    "check-system V4xB4.1a1.system.json": (
        "a5a12e865e6ea0b10cef1e44b8e966c88ccc7c5737a1b489d142e278bb8108b4", 0,
    ),
    "build-algebra V4xB4.1a1.system.json": (
        "f118bd73df9c2c72c443c936f54abcacfde322d31830a626a6742bafde60cfc7", 0,
    ),
    "roundtrip V4xB4.1a1.system.json": (
        "9fb1f6daaeb27a537dbc72942dea92ca15a82c2440581b61b5f7093cee3f59d8", 0,
    ),
    "check-algebra V4xB4.1a1.algebra.json": (
        "74ac4753f8ae77718e6d7f75fa5f2a7d2587ed35fe6223c8896bb60cdf549882", 0,
    ),
    "reconstruct V4xB4.1a1.algebra.json": (
        "dc6122fe47da834ec9fbffc318cc7aa0bba615cb63695ffdd33c482e61f96542", 0,
    ),
    "roundtrip V4xB4.1a1.algebra.json": (
        "544bbb7d719a79cddb914e61364a745ce77346cf25cea0a9d96b10f2dac2e21c", 0,
    ),
    "witness-anti V4xB4.1a1.algebra.json": (
        "618a7b0748f25498d25cdf8474bfe34095a87161b98a39b1095dd448c8d494b1", 0,
    ),
    "check-system S3xB4.20a3.system.json": (
        "7e6204b3f1d1b1081c156d00bcca33bf8c3dbb77200ff94cdb34a19a7fef96b5", 0,
    ),
    "build-algebra S3xB4.20a3.system.json": (
        "e7047be3798e40b2a45748a8fd7b53ed453c3c0598b643d7dac592c4eee7f06c", 0,
    ),
    "roundtrip S3xB4.20a3.system.json": (
        "0c3808f1eef6aee6e29d04d1473f0ada2aea328fed5b494242ce6395e6f9b963", 0,
    ),
    "check-algebra S3xB4.20a3.algebra.json": (
        "68ce7d602ef586d4e41664b241cc51a329e5fff62a996b61fdf3d30fd6ceb1a1", 0,
    ),
    "reconstruct S3xB4.20a3.algebra.json": (
        "7752ce9fd883d92e13203dbffceff8771943dfb44e966e6244498382d7283b25", 0,
    ),
    "roundtrip S3xB4.20a3.algebra.json": (
        "59ae6f469bdee1dcd06a46e71b50d5778a993b1640306a3d7bc19c3b7238a7ba", 0,
    ),
    "witness-anti S3xB4.20a3.algebra.json": (
        "583bef8452c8c0f97be03727046a53596e1ff87ef148743d245676746746df38", 0,
    ),
    "check-system mutant.system.json": (
        "cf7bede22581a266e363358c78f8d48debd4585bb5b7cd8a221bc36231bf53c9", 1,
    ),
    "build-algebra mutant.system.json": (
        "2a2d85e2b448ec1c6e0af1c36200ca08606166ad9bcef8c15c02c2241b83ce5d", 1,
    ),
    "roundtrip mutant.system.json": (
        "53581a952adeeebcab527397a1d57977ac77485edb0a0e029f25c15c7f850492", 1,
    ),
    "check-algebra mutant.algebra.json": (
        "5e378c5416ddd826a3bc471f7495084ace905f61d5cc91e1518195425df81b2a", 1,
    ),
    "reconstruct mutant.algebra.json": (
        "3ed668a99d670d08bd6da5ab77abcd2f5f6cd302c6fa096f867ee7a01293dd1f", 1,
    ),
    "roundtrip mutant.algebra.json": (
        "9df80404100d3b6f5b70406ecf7aad2655209f41f28d30b051aab9533445aba7", 1,
    ),
    "witness-anti mutant.algebra.json": (
        "4ab98ea265593f86ff7e2ce3d7237ab329f63a9d87f53e3297509946eb971534", 0,
    ),
}


def _pinned_files(suite, folder):
    """Six suite instances as system and algebra files, plus one system and
    one algebra with a single table cell changed so that a check fails."""
    by_name = {inst.name: inst for inst in suite}
    files = []
    for name in PINNED_INSTANCES:
        for kind in ("system", "algebra"):
            path = folder / f"{name}.{kind}.json"
            save_structure(path, getattr(by_name[name], kind))
            files.append((kind, path))
    sysm = by_name["C2xB3.1a1"].system
    restL = sysm.restL.copy()
    restL[0, 0] = (restL[0, 0] + 1) % sysm.morphism_count
    path = folder / "mutant.system.json"
    save_structure(path, RestrictionSystem(
        sysm.groupoid, sysm.objects, restL, sysm.restR, sysm.extL, sysm.extR))
    files.append(("system", path))
    S = by_name["C2xB4.13a0"].algebra
    meet = S.meet.array.copy()
    meet[1, 2] = (meet[1, 2] + 1) % S.order
    path = folder / "mutant.algebra.json"
    save_structure(path, BiBandAlgebra(S.join.array, meet, S.star))
    files.append(("algebra", path))
    return files


def _pinned_records(suite, folder) -> dict:
    seen = {}
    for kind, path in _pinned_files(suite, folder):
        for command in SYSTEM_COMMANDS if kind == "system" else ALGEBRA_COMMANDS:
            run, code = dispatch([command, str(path)])
            run.pop("elapsed_s")
            run["command"] = [command, path.name]
            run["inputs"] = list(run["inputs"].values())
            digest = hashlib.sha256(json.dumps(run).encode()).hexdigest()
            seen[f"{command} {path.name}"] = (digest, code)
    return seen


def test_run_records_of_suite_files_and_mutants_are_pinned(tmp_path, suite):
    seen = _pinned_records(suite, tmp_path)
    assert {code for _, code in seen.values()} == {0, 1}
    assert seen == PINNED_RECORDS
