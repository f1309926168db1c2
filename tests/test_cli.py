"""End-to-end runs of the command line interface through dispatch()."""

import copy
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
    RestrictionSystem,
    chain_lattice,
    check_extension_axioms,
    check_linking,
    check_restriction_axioms,
    check_structure,
    enumerate_skew_lattices,
    load_structure,
    save_structure,
    semidirect_algebra,
    semidirect_groupoid,
    trivial_action,
    verify_derived_identities,
)
from skewalg.cli import dispatch, main
from skewalg.models import GROUP_CATALOG, GroupAction
from skewalg.serialize import structure_to_dict


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


def test_gen_models_bound_is_exit_four(tmp_path):
    _, code = dispatch(["gen-models", "--max-group", "12", "--out", str(tmp_path / "x")])
    assert code == 4


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
    code = main(["--format", "text", "check-algebra", swap_algebra_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "check-algebra" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_global_flags_parse_after_subcommand(swap_algebra_file, capsys):
    code = main(["check-algebra", swap_algebra_file, "--format", "text"])
    assert code == 0
    assert "check-algebra" in capsys.readouterr().out


def test_seed_flag_is_accepted_and_unused(swap_algebra_file):
    run, code = dispatch(["--seed", "7", "check-algebra", swap_algebra_file])
    assert code == 0


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
    assert main(["--format", "text", *argv]) == 0
    assert usage in capsys.readouterr().out


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
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    assert "enum-skew 4: ok" in err


FILE_COMMANDS = [
    "check-skew", "check-groupoid", "check-system", "check-algebra",
    "build-algebra", "reconstruct", "roundtrip", "witness-anti",
]

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
    """Half the time a subcommand and its positional argument, then options
    with drawn values and bare words from the CLI's vocabulary, odd values
    and files.  --out only ever names a place in outs, and gen-models, whose
    default is the whole suite, comes with small bounds that later options
    may replace."""
    values = {
        "--out": st.sampled_from(outs),
        "--format": st.sampled_from(["json", "text"]) | odd_text,
        **dict.fromkeys(["--seed", "--max", "--max-group", "--max-band"], st.sampled_from(NUMBERS)),
    }

    def expand(word):
        if word != "gen-models":
            return [word]
        small = st.sampled_from(["-1", "0", "1", "2"])
        return [word, "--max-group", draw(small), "--max-band", draw(small)]

    argv = []
    if draw(st.booleans()):
        command = draw(st.sampled_from(SUBCOMMANDS))
        argv = expand(command)
        if command != "gen-models":
            argv.append(draw(st.sampled_from(NUMBERS if command.startswith("enum") else files)))
    for kind in draw(st.lists(st.integers(0, 3), max_size=3)):
        if kind:
            flag = draw(st.sampled_from(list(values)))
            argv += [flag, draw(values[flag])]
        else:
            argv += expand(draw(st.sampled_from(SUBCOMMANDS + NUMBERS + WORDS + files) | odd_text))
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dispatch_on_any_argument_list_returns_a_record(tmp_path, swap_algebra_file, swap_system_file, data):
    files = [swap_algebra_file, swap_system_file, str(tmp_path / "missing.json"), str(tmp_path)]
    # a new directory, an existing one, a file, and a path below a file
    outs = [str(tmp_path / "out"), str(tmp_path), swap_system_file, swap_system_file + "/x"]
    argv = data.draw(argument_lists(files, outs))
    run, code = dispatch(argv)
    assert code in (0, 1, 2, 3, 4)
    assert run["command"] == argv
    assert json.loads(json.dumps(run)) == run
