"""The benchmark's workloads: set-up, one pass of operations, and the check
of every output against a known answer.

Each workload is one process, one client and a closed loop: the next
operation starts when the previous one has returned.  `setup` is timed as
set-up; `prepare` computes the expected answers and warms up, and is not
timed; `run_op` times only the calls into the package and returns
((start, end), problem), the `time.perf_counter()` readings around those
calls and None for a correct output or a message otherwise.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time

from oracles import algebra_violation, anti_automorphism_witness_exists, preserves_operations

SUITE_SIZE = 379
# sha256 over the sorted (file name, bytes) pairs that `gen-models --out`
# writes, recorded from the package's first release; the output must stay
# byte-identical
GEN_MODELS_DIGEST = "282f8b69036fb3b163ab21716525ad5d0e74aa865980ae76519e884b73c74e91"
GEN_MODELS_FILES = 3 * SUITE_SIZE
# untimed generations before the timed ones: the kernel's cost of writing
# the files grows from about 0.1 s to about 0.6 s a generation over the
# first generations after the file system has been idle, then stays
GEN_MODELS_WARMUP = 2


def size_bucket(morphisms: int) -> str:
    """Instance size class by morphism count: 1-8, 9-16, 17-24."""
    if morphisms <= 8:
        return "small"
    return "mid" if morphisms <= 16 else "large"


def algebra_lists(S):
    return S.join.array.tolist(), S.meet.array.tolist(), S.star.tolist()


def tree_digest(path: str) -> tuple[int, int, str]:
    """(file count, total bytes, sha256 over the sorted (file name, bytes)
    pairs) of a directory."""
    h = hashlib.sha256()
    names = sorted(os.listdir(path))
    size = 0
    for name in names:
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return len(names), size, h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.order_rng = random.Random(f"order-{seed}")

    def discard(self, round_: int) -> None:
        """Drop what set-up round `round_` left behind; not timed."""

    def setup(self, sk, cli, round_: int) -> None:
        self.sk, self.cli = sk, cli

    def prepare(self) -> None:
        pass

    def pass_ops(self) -> list:
        raise NotImplementedError

    def key(self, op):
        """What identifies an operation across passes."""
        raise NotImplementedError

    def bucket(self, op) -> str | None:
        return None

    def run_op(self, op) -> tuple[tuple[float, float], str | None]:
        raise NotImplementedError

    def named(self, e2e: dict) -> dict:
        """The end-to-end metrics under this workload's own names."""
        return {}

    def extra_metrics(self) -> dict:
        """Counts from the latest pass."""
        return {}


class CertifySuite(Workload):
    """One suite instance through the acceptance pipeline per operation."""

    name = "certify-suite"

    def setup(self, sk, cli, round_):
        super().setup(sk, cli, round_)
        self.suite = sk.generate_model_suite()

    def prepare(self):
        self.lists = {inst.name: algebra_lists(inst.algebra) for inst in self.suite}

    def pass_ops(self):
        sk = self.sk
        order = list(self.suite)
        self.order_rng.shuffle(order)
        # a fresh system per operation: a system caches its full report,
        # and a user certifies each instance once
        return [
            (inst, sk.RestrictionSystem(
                inst.system.groupoid, inst.system.objects,
                inst.system.restL, inst.system.restR,
                inst.system.extL, inst.system.extR,
            ))
            for inst in order
        ]

    def key(self, op):
        return op[0].name

    def bucket(self, op):
        return size_bucket(op[0].system.morphism_count)

    def named(self, e2e):
        return {
            "certify.inst_per_s": e2e["ops_per_s"],
            "certify.p50_ms": e2e["p50_ms"],
            "certify.p95_ms": e2e["p95_ms"],
        }

    def run_op(self, op):
        sk = self.sk
        inst, sysm = op
        start = time.perf_counter()
        reports = [
            sk.check_structure(sysm),
            sk.check_restriction_axioms(sysm),
            sk.check_extension_axioms(sysm),
            sk.check_linking(sysm),
            sk.verify_derived_identities(sysm),
        ]
        built = sk.build_algebra(sysm)
        reports += [sk.check_axioms(built), sk.check_skehr(built)]
        iso_g = sk.roundtrip_groupoid(sysm)
        iso_a = sk.roundtrip_algebra(inst.algebra)
        iso = sk.find_isomorphism(built, inst.algebra)
        kernels, kreport = sk.congruence_kernels(inst.action)
        span = (start, time.perf_counter())

        bad = [r.first_failure().name for r in reports + [kreport] if not r.ok]
        if bad:
            return span, f"{inst.name}: check {bad[0]} failed"
        if iso_g.mapping != tuple(range(sysm.morphism_count)):
            return span, f"{inst.name}: groupoid round trip is not the identity"
        if iso_a.mapping != tuple(range(inst.algebra.order)):
            return span, f"{inst.name}: algebra round trip is not the identity"
        if iso is None or not preserves_operations(
            list(iso.mapping), algebra_lists(built), self.lists[inst.name]
        ):
            return span, f"{inst.name}: no verified isomorphism"
        if len(set(kernels.values())) != 1:
            return span, f"{inst.name}: kernels differ between objects"
        return span, None


class GenModels(Workload):
    """One `gen-models --out <fresh dir>` per operation."""

    name = "gen-models"

    def setup(self, sk, cli, round_):
        super().setup(sk, cli, round_)
        self.runs = 0
        self.written = 0

    def prepare(self):
        for _ in range(GEN_MODELS_WARMUP):
            self.run_op(self.pass_ops()[0])

    def key(self, op):
        return "gen-models"

    def named(self, e2e):
        return {"gen.suite_s": e2e["p50_ms"] / 1e3}

    def extra_metrics(self):
        return {"serialize.save_structure.bytes": self.written}

    def pass_ops(self):
        self.runs += 1
        out = os.path.join(self.work_dir, f"gen-{self.seed}-{self.runs}")
        return [["gen-models", "--out", out]]

    def run_op(self, argv):
        start = time.perf_counter()
        run, code = self.cli.dispatch(argv)
        span = (start, time.perf_counter())
        out = argv[-1]
        try:
            problem = run_record_problem(run, code)
            if problem is None and code != 0:
                problem = f"exit {code}"
            if problem is None and run.get("count") != SUITE_SIZE:
                problem = f"{run.get('count')} instances, expected {SUITE_SIZE}"
            if problem is None:
                count, self.written, digest = tree_digest(out)
                if count != GEN_MODELS_FILES or digest != GEN_MODELS_DIGEST:
                    problem = f"{count} files with digest {digest}: output changed"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return span, problem


def run_record_problem(run, code) -> str | None:
    if not isinstance(run, dict) or not {"command", "ok", "elapsed_s"} <= run.keys():
        return "no JSON run record"
    if code not in (0, 1, 2):
        return f"exit {code} outside 0-2"
    return None


class CliBatch(Workload):
    """One `dispatch(argv)` over files written in set-up per operation."""

    name = "cli-batch"

    def setup(self, sk, cli, round_):
        super().setup(sk, cli, round_)
        suite = sk.generate_model_suite()
        folder = os.path.join(self.work_dir, f"files-{round_}")
        os.makedirs(folder)
        mutant_rng = random.Random(f"mutants-{self.seed}")
        self.calls = []
        self.mutants = {}
        for inst in suite:
            system = os.path.join(folder, f"{inst.name}.system.json")
            algebra = os.path.join(folder, f"{inst.name}.algebra.json")
            sk.save_structure(system, inst.system)
            sk.save_structure(algebra, inst.algebra)
            self.calls += [
                (["check-system", system], ("pass", None)),
                (["check-algebra", algebra], ("pass", None)),
                (["roundtrip", system], ("roundtrip", inst.system.morphism_count)),
                (["roundtrip", algebra], ("roundtrip", inst.algebra.order)),
                (["build-algebra", system], ("pass", None)),
                (["reconstruct", algebra], ("pass", None)),
                (["witness-anti", algebra], ("witness", inst.name)),
            ]
            if inst.algebra.order >= 4:
                tables = mutate(algebra_lists(inst.algebra), mutant_rng)
                path = os.path.join(folder, f"{inst.name}.mutant.json")
                sk.save_structure(path, sk.BiBandAlgebra(*tables))
                self.calls.append((["check-algebra", path], ("mutant", path)))
                self.mutants[path] = tables
        self.algebras = {inst.name: algebra_lists(inst.algebra) for inst in suite}

    def discard(self, round_):
        shutil.rmtree(os.path.join(self.work_dir, f"files-{round_}"))

    def prepare(self):
        # the expected exit of witness-anti comes from a brute-force search;
        # a mutant that breaks a law the scalar oracle checks must exit 1
        self.has_witness = {
            name: anti_automorphism_witness_exists(*tables)
            for name, tables in self.algebras.items()
        }
        self.must_reject = {
            path: algebra_violation(*tables) is not None
            for path, tables in self.mutants.items()
        }
        # every call loads exactly the file it names
        self.bytes_read = sum(os.path.getsize(argv[-1]) for argv, _ in self.calls)

    def pass_ops(self):
        self.detected = 0
        order = list(self.calls)
        self.order_rng.shuffle(order)
        return order

    def run_op(self, op):
        argv, (kind, arg) = op
        start = time.perf_counter()
        run, code = self.cli.dispatch(argv)
        span = (start, time.perf_counter())
        problem = run_record_problem(run, code)
        if problem is None:
            if kind == "pass" and code != 0:
                problem = f"exit {code} on a clean file"
            elif kind == "roundtrip" and (code != 0 or run.get("mapping") != list(range(arg))):
                problem = "round trip is not the identity"
            elif kind == "witness" and code != (0 if self.has_witness[arg] else 1):
                problem = f"exit {code} disagrees with the brute-force search"
            elif kind == "mutant":
                self.detected += code == 1
                if self.must_reject[arg] and code != 1:
                    problem = f"mutant accepted with exit {code}"
        return span, problem and f"{' '.join(argv)}: {problem}"

    def key(self, op):
        return tuple(op[0])

    def named(self, e2e):
        return {
            "cli.calls_per_s": e2e["ops_per_s"],
            "cli.p50_ms": e2e["p50_ms"],
            "cli.p95_ms": e2e["p95_ms"],
        }

    def extra_metrics(self):
        return {
            "cli.mutants_detected": self.detected,
            "serialize.load_structure.bytes": self.bytes_read,
        }


def mutate(tables, rng: random.Random):
    """Copy of (join, meet, star) with one entry changed to another value."""
    join, meet = ([row[:] for row in t] for t in tables[:2])
    star = list(tables[2])
    n = len(star)
    which = rng.randrange(3)
    if which == 2:
        i = rng.randrange(n)
        star[i] = rng.choice([v for v in range(n) if v != star[i]])
    else:
        table = (join, meet)[which]
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
    return join, meet, star


WORKLOADS = {w.name: w for w in (CertifySuite, GenModels, CliBatch)}
