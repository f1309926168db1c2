"""Batch front end over the JSON table formats.

Each subcommand reads table files, runs the relevant constructions and
checkers, prints a machine-readable run report to standard output and a
human summary to standard error.  Reports are deterministic for identical
inputs apart from the trailing elapsed_s field.  Only build-algebra,
reconstruct and gen-models write files, under the directory --out names;
no other command takes --out.

The files are written by one writer process per run (`python -I -S`, which
starts in about 10 ms), which the command feeds (path, bytes) frames through
a pipe; gen-models feeds it each model instance as the instance is built, so
the kernel's file creation overlaps the building of the rest of the suite.
It is a process and not a thread because a thread's every return from a
write system call waits for the interpreter lock.  An OSError in the writer
(a name under --out taken by a directory, say) is sent back and raised in
this process again, so it is exit 3 with the same message as a failed write
here; no run leaves the process behind.

Exit codes: 0 all checks passed (or help was asked for; the record holds
the text under "help"), 1 a check failed (or a requested witness is
absent), 2 malformed input file, 3 usage error, 4 enumeration bound
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import time

from .algebra import BiBandAlgebra, algebra_checkers, anti_automorphism_witness
from .enumeration import DEFAULT_MAX_ORDER, enumerate_bands, enumerate_skew_lattices
from .errors import (
    ActionInvalidError,
    AxiomViolationError,
    BoundExceededError,
    MalformedSystemError,
    SkewalgError,
)
from .groupoid import FiniteGroupoid, check_groupoid
from .models import MAX_SUITE_BAND, MAX_SUITE_GROUP, model_instances
from .reconstruction import reconstruct, roundtrip_algebra, roundtrip_groupoid
from .report import AxiomReport, Check
from .serialize import json_text, read_structure, structure_text, structure_to_dict
from .system import RestrictionSystem, build_algebra, system_checkers
from .tables import SkewLatticeTable, check_skew_lattice

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_USAGE = 3
EXIT_BOUND = 4


class _UsageError(SkewalgError):
    pass


class _HelpShown(Exception):
    """--help was parsed; carries the help text instead of printing it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpShown(self.format_help())


def positive_int(text: str) -> int:
    """An enumeration order or suite bound: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"order must be positive, got {n}")
    return n


# The writer process's loop: read (path, bytes) frames from stdin, each an
# 8-byte header of two big-endian lengths, and write each file in turn; at
# the first OSError report (errno, strerror, path) on stdout and stop.
_WRITER = """\
import os, sys
frames, report = sys.stdin.buffer, sys.stdout.buffer
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
while len(head := frames.read(8)) == 8:
    path = frames.read(int.from_bytes(head[:4], "big"))
    data = memoryview(frames.read(int.from_bytes(head[4:], "big")))
    try:
        fd = os.open(path, flags, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        report.write(b"%d\\0%s\\0%s" % (exc.errno, exc.strerror.encode(), path))
        break
"""


def _saved(out: str | None, files) -> dict:
    """Write each (basename, structure, extra) drawn from files under the
    directory out, if given, through one writer process (see the module
    docstring); without out, draw them and write nothing.  The writer is
    waited for on every path out of here."""
    if not out:
        for _ in files:
            pass
        return {}
    import subprocess  # only a run that writes pays for the import

    os.makedirs(out, exist_ok=True)
    written = []
    child = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", _WRITER], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    try:
        for basename, obj, extra in files:
            path = os.path.join(out, basename)
            name, data = os.fsencode(path), structure_text(obj, extra).encode()
            child.stdin.write(len(name).to_bytes(4, "big") + len(data).to_bytes(4, "big") + name + data)
            written.append(path)
    except BrokenPipeError:
        pass  # the writer stopped at a failed write; its report says which
    finally:
        report = child.communicate()[0]  # closes its stdin and waits for it
    if report:
        errno, strerror, name = report.split(b"\0", 2)
        raise OSError(int(errno), strerror.decode(), os.fsdecode(name))
    if child.returncode:
        raise OSError(f"the file writer exited with status {child.returncode}")
    return {"written": written}


def _enum_bands(args, _):
    tables = enumerate_bands(args.n, max_order=args.max)
    return None, {"count": len(tables), "tables": [t.array.tolist() for t in tables]}


def _enum_skew(args, _):
    lattices = enumerate_skew_lattices(args.n, max_order=args.max)
    return None, {"count": len(lattices), "lattices": [structure_to_dict(s) for s in lattices]}


def _gen_models(args, _):
    instances = model_instances(args.max_group, args.max_band)  # raises on a bound before any write
    names: list[str] = []

    def files():
        for inst in instances:
            names.append(inst.name)
            for tag in ("action", "algebra", "system"):
                yield f"{inst.name}.{tag}.json", getattr(inst, tag), {"name": inst.name}

    written = _saved(args.out, files())
    return None, {"count": len(names), "instances": names, **written}


def _check_system(args, sys_):
    return AxiomReport("restriction system", [
        c for family, checker in system_checkers() for c in checker(sys_).renamed(f"{family}.")
    ]), {}


def _check_algebra(args, S):
    checks = [c for _, checker in algebra_checkers() for c in checker(S).checks()]
    return AxiomReport("algebra", checks), {}


def _build_algebra(args, sys_):
    S = build_algebra(sys_)
    return None, {"algebra": structure_to_dict(S), **_saved(args.out, [("algebra.json", S, None)])}


def _reconstruct(args, S):
    rec = reconstruct(S)
    payload = {"system": structure_to_dict(rec), "objects": rec.groupoid.identity_of.tolist()}
    return None, {**payload, **_saved(args.out, [("system.json", rec, None)])}


def _roundtrip(args, obj):
    if isinstance(obj, RestrictionSystem):
        name, iso = "roundtrip_groupoid", roundtrip_groupoid(obj)
    else:
        name, iso = "roundtrip_algebra", roundtrip_algebra(obj)
    return AxiomReport("roundtrip", [Check(name, True)]), {"mapping": list(iso.mapping)}


def _witness_anti(args, S):
    witness = anti_automorphism_witness(S)
    found = Check("witness_exists", witness is not None, witness)
    payload = {"witness": None if witness is None else list(witness)}
    return AxiomReport("anti-automorphism witness", [found]), payload


_FILE = ("file", {})
_ORDER = (("n", {"type": positive_int}), ("--max", {"type": int, "default": DEFAULT_MAX_ORDER}))
_DERIVED = (_FILE, ("--out", {"default": None, "help": "directory for derived files"}))
_LATTICE = (SkewLatticeTable, "does not contain a skew lattice")
_GROUPOID = (FiniteGroupoid, "does not contain a groupoid")
_SYSTEM = (RestrictionSystem, "does not contain a restriction system")
_ALGEBRA = (BiBandAlgebra, "does not contain an algebra")
_EITHER = ((RestrictionSystem, BiBandAlgebra), "holds neither a restriction system nor an algebra")

# name: (help line, arguments as (name, add_argument keywords) pairs, what
# the file argument must hold as (class or classes, complaint otherwise) or
# None without one, handler(args, structure or None) -> (report or None, payload))
COMMANDS = {
    "enum-bands": ("canonical idempotent operation tables", _ORDER, None, _enum_bands),
    "enum-skew": ("canonical skew lattices", _ORDER, None, _enum_skew),
    "check-skew": ("verify the skew lattice laws of a structure file", (_FILE,), _LATTICE,
                   lambda args, lattice: (check_skew_lattice(lattice), {})),
    "check-groupoid": ("verify the groupoid laws", (_FILE,), _GROUPOID,
                       lambda args, groupoid: (check_groupoid(groupoid), {})),
    "check-system": ("run every restriction-system checker", (_FILE,), _SYSTEM, _check_system),
    "check-algebra": ("verify the algebra axioms and the star calculus", (_FILE,), _ALGEBRA,
                      _check_algebra),
    "build-algebra": ("derive the two-operation algebra of a system", _DERIVED, _SYSTEM,
                      _build_algebra),
    "reconstruct": ("rebuild the groupoid of an algebra", _DERIVED, _ALGEBRA, _reconstruct),
    "roundtrip": ("certify the round trip for a system or algebra file", (_FILE,), _EITHER,
                  _roundtrip),
    "witness-anti": ("search for a pair where star fails to reverse a product", (_FILE,), _ALGEBRA,
                     _witness_anti),
    "gen-models": ("generate the semidirect model suite", (
        ("--max-group", {"type": positive_int, "default": MAX_SUITE_GROUP}),
        ("--max-band", {"type": positive_int, "default": MAX_SUITE_BAND}),
        ("--out", {"default": None, "help": "directory for instance files"}),
    ), None, _gen_models),
}


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once from COMMANDS; parse_args leaves it unchanged."""
    parser = _Parser(prog="skewalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_text, arguments, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
    return parser


def _run(args) -> tuple[dict, AxiomReport | None, dict]:
    """Execute one subcommand: returns (inputs, report-or-None, payload)."""
    _, _, reads, handler = COMMANDS[args.command]
    if reads is None:
        return {}, *handler(args, None)
    raw, obj = read_structure(args.file)
    if not isinstance(obj, reads[0]):
        raise MalformedSystemError(f"{args.file} {reads[1]}")
    return {args.file: "sha256:" + hashlib.sha256(raw).hexdigest()}, *handler(args, obj)


def dispatch(argv) -> tuple[dict, int]:
    """Run one command line; returns (run report, exit status)."""
    start = time.perf_counter()
    argv = list(argv)
    run: dict = {"command": argv, "inputs": {}, "ok": False}

    def finish(code: int) -> tuple[dict, int]:
        run["elapsed_s"] = round(time.perf_counter() - start, 6)
        return run, code

    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (try --help)")
        inputs, report, payload = _run(args)
    except _HelpShown as exc:
        run["ok"] = True
        run["help"] = str(exc)
        return finish(EXIT_OK)
    except _UsageError as exc:
        run["error"] = {"kind": "usage", "message": str(exc)}
        return finish(EXIT_USAGE)
    except BoundExceededError as exc:
        run["error"] = {"kind": "bound", "message": str(exc)}
        return finish(EXIT_BOUND)
    except (MalformedSystemError, ActionInvalidError) as exc:
        run["error"] = {"kind": "malformed", "message": str(exc)}
        return finish(EXIT_MALFORMED)
    except AxiomViolationError as exc:
        report = AxiomReport("precondition", [Check(exc.check_name, False, exc.witness)])
        run["report"] = report.to_dict()
        return finish(EXIT_CHECK_FAILED)
    except SkewalgError as exc:
        run["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        return finish(EXIT_CHECK_FAILED)
    except OSError as exc:  # a failed read is a MalformedSystemError, so a write under --out
        run["error"] = {"kind": "usage", "message": f"cannot write under --out: {exc}"}
        return finish(EXIT_USAGE)

    run["inputs"] = inputs
    run["ok"] = report.ok if report is not None else True
    if report is not None:
        run["report"] = report.to_dict()
    run.update(payload)
    return finish(EXIT_OK if run["ok"] else EXIT_CHECK_FAILED)


def _summary(run: dict) -> str:
    lines = [f"skewalg {' '.join(run['command'])}: {'ok' if run['ok'] else 'FAILED'}"]
    if "error" in run:
        lines.append(f"  error ({run['error']['kind']}): {run['error']['message']}")
    if "report" in run:
        checks = run["report"]["checks"]
        n_ok = sum(1 for c in checks.values() if c["ok"])
        lines.append(f"  checks: {n_ok}/{len(checks)} ok")
        for name, c in checks.items():
            if not c["ok"]:
                tag = "" if c["required"] else " (observation)"
                lines.append(f"    FAIL {name}{tag} witness={c['witness']}")
    if "count" in run:
        lines.append(f"  count: {run['count']}")
    if "witness" in run:
        lines.append(f"  witness: {run['witness']}")
    if "written" in run:
        lines.append(f"  wrote {len(run['written'])} file(s)")
    if "help" in run:
        lines.append(run["help"].rstrip())
    return "\n".join(lines)


def main(argv=None) -> int:
    run, code = dispatch(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.write(json_text(run) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (e.g. `| head`); point stdout at
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(_summary(run), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
