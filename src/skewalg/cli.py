"""Batch front end over the JSON table formats.

Each subcommand reads table files, runs the relevant constructions and
checkers, prints a machine-readable run report to standard output and a
human summary to standard error.  Reports are deterministic for identical
inputs apart from the trailing elapsed_s field.

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

from .algebra import (
    BiBandAlgebra,
    anti_automorphism_witness,
    check_axioms,
    check_skehr,
)
from .enumeration import DEFAULT_MAX_ORDER, enumerate_bands, enumerate_skew_lattices
from .errors import (
    ActionInvalidError,
    AxiomViolationError,
    BoundExceededError,
    MalformedSystemError,
    SkewalgError,
)
from .groupoid import FiniteGroupoid, check_groupoid
from .models import MAX_SUITE_BAND, MAX_SUITE_GROUP, generate_model_suite
from .reconstruction import reconstruct, roundtrip_algebra, roundtrip_groupoid
from .report import AxiomReport
from .serialize import json_text, load_structure, save_structure, structure_to_dict
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


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once; parse_args leaves it unchanged."""
    # global flags live on a parent so they parse on either side of the
    # subcommand; main reads --format from argv itself (_format_of)
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="reserved for future use; no command consumes randomness",
    )

    parser = _Parser(
        prog="skewalg", description=__doc__.splitlines()[0], parents=[common]
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser(
        "enum-bands", parents=[common],
        help="canonical idempotent operation tables",
    )
    p.add_argument("n", type=positive_int)
    p.add_argument("--max", type=int, default=DEFAULT_MAX_ORDER)

    p = sub.add_parser("enum-skew", parents=[common], help="canonical skew lattices")
    p.add_argument("n", type=positive_int)
    p.add_argument("--max", type=int, default=DEFAULT_MAX_ORDER)

    for name, help_text in (
        ("check-skew", "verify the skew lattice laws of a structure file"),
        ("check-groupoid", "verify the groupoid laws"),
        ("check-system", "run every restriction-system checker"),
        ("check-algebra", "verify the algebra axioms and the star calculus"),
        ("build-algebra", "derive the two-operation algebra of a system"),
        ("reconstruct", "rebuild the groupoid of an algebra"),
        ("roundtrip", "certify the round trip for a system or algebra file"),
        ("witness-anti", "search for a pair where star fails to reverse a product"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file")
        p.add_argument("--out", default=None, help="directory for derived files")

    p = sub.add_parser(
        "gen-models", parents=[common], help="generate the semidirect model suite"
    )
    p.add_argument("--max-group", type=positive_int, default=MAX_SUITE_GROUP)
    p.add_argument("--max-band", type=positive_int, default=MAX_SUITE_BAND)
    p.add_argument("--out", default=None, help="directory for instance files")
    return parser


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise MalformedSystemError(f"cannot read {path}: {exc}") from exc


def _load_typed(path: str, cls, what: str):
    obj = load_structure(path)
    if not isinstance(obj, cls):
        raise MalformedSystemError(f"{path} does not contain {what}")
    return obj


def _system_report(sys_: RestrictionSystem) -> AxiomReport:
    merged = AxiomReport("restriction system")
    for family, checker in system_checkers():
        merged.extend(checker(sys_), f"{family}.")
    return merged


def _algebra_report(S: BiBandAlgebra) -> AxiomReport:
    merged = AxiomReport("algebra")
    merged.extend(check_axioms(S))
    merged.extend(check_skehr(S))
    return merged


def _write_out(args, basename: str, obj, extra=None) -> dict:
    if not args.out:
        return {}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, basename)
    save_structure(path, obj, extra)
    return {"written": [path]}


def _run(args) -> tuple[dict, AxiomReport | None, dict]:
    """Execute one subcommand: returns (inputs, report-or-None, payload)."""
    cmd = args.command
    if cmd == "enum-bands":
        tables = enumerate_bands(args.n, max_order=args.max)
        return {}, None, {
            "count": len(tables),
            "tables": [t.array.tolist() for t in tables],
        }
    if cmd == "enum-skew":
        lattices = enumerate_skew_lattices(args.n, max_order=args.max)
        return {}, None, {
            "count": len(lattices),
            "lattices": [structure_to_dict(s) for s in lattices],
        }
    if cmd == "gen-models":
        suite = generate_model_suite(args.max_group, args.max_band)
        written = []
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for inst in suite:
                for tag, obj in (
                    ("action", inst.action),
                    ("algebra", inst.algebra),
                    ("system", inst.system),
                ):
                    path = os.path.join(args.out, f"{inst.name}.{tag}.json")
                    save_structure(path, obj, extra={"name": inst.name})
                    written.append(path)
        payload = {"count": len(suite), "instances": [i.name for i in suite]}
        if written:
            payload["written"] = written
        return {}, None, payload

    inputs = {args.file: _digest(args.file)}
    if cmd == "check-skew":
        lattice = _load_typed(args.file, SkewLatticeTable, "a skew lattice")
        return inputs, check_skew_lattice(lattice), {}
    if cmd == "check-groupoid":
        groupoid = _load_typed(args.file, FiniteGroupoid, "a groupoid")
        return inputs, check_groupoid(groupoid), {}
    if cmd == "check-system":
        sys_ = _load_typed(args.file, RestrictionSystem, "a restriction system")
        return inputs, _system_report(sys_), {}
    if cmd == "check-algebra":
        S = _load_typed(args.file, BiBandAlgebra, "an algebra")
        return inputs, _algebra_report(S), {}
    if cmd == "build-algebra":
        sys_ = _load_typed(args.file, RestrictionSystem, "a restriction system")
        S = build_algebra(sys_)
        payload = {"algebra": structure_to_dict(S)}
        payload.update(_write_out(args, "algebra.json", S))
        return inputs, None, payload
    if cmd == "reconstruct":
        S = _load_typed(args.file, BiBandAlgebra, "an algebra")
        rec = reconstruct(S)
        payload = {
            "system": structure_to_dict(rec.system),
            "objects": [int(o) for o in rec.objects],
        }
        payload.update(_write_out(args, "system.json", rec.system))
        return inputs, None, payload
    if cmd == "roundtrip":
        obj = load_structure(args.file)
        report = AxiomReport("roundtrip")
        if isinstance(obj, RestrictionSystem):
            iso = roundtrip_groupoid(obj)
            report.record("roundtrip_groupoid", True)
        elif isinstance(obj, BiBandAlgebra):
            iso = roundtrip_algebra(obj)
            report.record("roundtrip_algebra", True)
        else:
            raise MalformedSystemError(
                f"{args.file} holds neither a restriction system nor an algebra"
            )
        return inputs, report, {"mapping": list(iso.mapping)}
    if cmd == "witness-anti":
        S = _load_typed(args.file, BiBandAlgebra, "an algebra")
        witness = anti_automorphism_witness(S)
        report = AxiomReport("anti-automorphism witness")
        report.record("witness_exists", witness is not None, witness)
        return inputs, report, {
            "witness": list(witness) if witness is not None else None
        }
    raise _UsageError(f"unknown command {cmd!r}")


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
        report = AxiomReport("precondition")
        report.record(exc.check_name, False, exc.witness)
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


def _format_of(argv) -> str:
    for i, arg in enumerate(argv):
        if arg == "--format" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--format="):
            return arg.split("=", 1)[1]
    return "json"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    run, code = dispatch(argv)
    text = _format_of(argv) == "text"
    try:
        if text:
            print(_summary(run))
        else:
            sys.stdout.write(json_text(run) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (e.g. `| head`); point stdout at
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if not text:
        print(_summary(run), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
