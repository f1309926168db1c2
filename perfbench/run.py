"""Benchmark of the skewalg package, run from the root of a source checkout.

    python3 perfbench/run.py --workload certify-suite --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  The run sets the workload up several
times, measures whole passes over its operations for about --seconds (at
least two passes), checks every output, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, operation times in units of a
reference loop timed alongside (refclock.py); with --trace 1 the public
functions of the package are wrapped from outside and the metrics are per
layer, normalised per pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from refclock import RefClock
from spans import Tracer, layer_stats
from workloads import WORKLOADS

# set-up is repeated at least this often and for at least this long; its
# median round is reported
SETUP_ROUNDS = 3
SETUP_MIN_S = 1.0
# setup_s has to be in seconds: the set-up cost in ref times the reference
# loop's time on an unloaded host (2-vCPU Xeon VM, Python 3.11)
SETUP_S_PER_REF = 0.5e-3
# timed runs visit every operation at least this often and report the
# median visit, so that a slow moment of the host hits one visit only
MIN_PASSES = 2
# tail_ref is the mean of the slowest 5 % of distinct operations
TAIL_SHARE = 0.05

END_TO_END = {
    "setup_s": "s",
    "mean_ref": "ref",
    "iqm_ref": "ref",
    "tail_ref": "ref",
    "peak_rss_mb": "MB",
}

_CBS = ("calls", "busy_s", "self_s")
_BUCKETS = ("busy_s.small", "busy_s.mid", "busy_s.large")
# span name -> statistics reported for it
LAYER_STATS = {
    "isomorphism.find_isomorphism": _CBS + _BUCKETS,
    "models.congruence_kernels": ("calls", "busy_s") + _BUCKETS,
    "enumeration.enumerate_skew_lattices": ("calls", "busy_s"),
    "enumeration.labeled_bands": ("calls", "busy_s"),
    "isomorphism.automorphisms_of": ("calls", "busy_s"),
    **{
        f"models.{fn}": _CBS
        for fn in (
            "generate_model_suite", "enumerate_actions", "dedupe_actions",
            "check_action", "semidirect_algebra", "semidirect_groupoid",
        )
    },
    "serialize.save_structure": ("calls", "busy_s"),
    "serialize.load_structure": ("calls", "busy_s"),
    "cli.dispatch": _CBS,
    "groupoid.check_groupoid": _CBS,
    **{
        f"system.{fn}": _CBS
        for fn in (
            "check_structure", "check_restriction_axioms", "check_extension_axioms",
            "check_linking", "verify_derived_identities", "build_algebra",
        )
    },
    "system.RestrictionSystem.full_report": _CBS,
    **{
        f"algebra.{fn}": _CBS
        for fn in ("check_axioms", "check_skehr", "anti_automorphism_witness")
    },
    "tables.check_skew_lattice": _CBS,
    **{
        f"reconstruction.{fn}": _CBS
        for fn in ("reconstruct", "roundtrip_groupoid", "roundtrip_algebra")
    },
}
# counts the workloads take themselves, and the tracing overhead
WORKLOAD_COUNTS = {
    "serialize.save_structure.bytes": "B",
    "serialize.load_structure.bytes": "B",
    "cli.mutants_detected": "count",
}
OVERHEAD = {
    "bench.untraced_pass_s": "s",
    "bench.traced_pass_s": "s",
    "bench.trace_overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{name}.{stat}": "count" if stat == "calls" else "s"
        for name, stats in LAYER_STATS.items()
        for stat in stats
    }
    return {**units, **WORKLOAD_COUNTS, **OVERHEAD}


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    pass_busy: list = field(default_factory=list)
    op_bucket: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def mean_pass_s(self) -> float:
        return statistics.fmean(self.pass_busy)

    def by_key(self, values) -> dict:
        """Each distinct operation's values over its visits."""
        out: dict = {}
        for key, value in zip(self.keys, values):
            out.setdefault(key, []).append(value)
        return out

    def op_medians(self, values) -> list:
        """Each distinct operation's median value over its visits."""
        return [statistics.median(v) for v in self.by_key(values).values()]


def measure(workload, seconds: float, min_passes: int, tracer: Tracer | None = None):
    """Whole passes, at least `min_passes`, until the pass boundary nearest
    to `seconds`."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        busy = 0.0
        for op in workload.pass_ops():
            op_id = len(m.latencies)
            if tracer is not None:
                tracer.op = op_id
            bucket = workload.bucket(op)
            if bucket is not None:
                m.op_bucket[op_id] = bucket
            t0 = time.perf_counter()
            try:
                span, problem = workload.run_op(op)
            except Exception as exc:
                # a raised exception is a failed operation, not a crashed run
                span = (t0, time.perf_counter())
                problem = f"{type(exc).__name__}: {exc}"
                if not m.problems:
                    traceback.print_exc()
            elapsed = span[1] - span[0]
            m.latencies.append(elapsed)
            m.intervals.append(span)
            m.keys.append(workload.key(op))
            busy += elapsed
            if problem is not None:
                m.problems.append(problem)
        m.pass_busy.append(busy)
        wall = time.perf_counter() - start
        passes = len(m.pass_busy)
        if passes >= min_passes and wall + 0.5 * wall / passes >= seconds:
            return m


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values.  Operation times fall in
    clusters, and the median can sit in a gap between two of them, where a
    small shift moves it from one cluster to the other; this mean does not
    jump."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def tail_mean(values, share: float = TAIL_SHARE) -> float:
    """Mean of the slowest `share` of the values, at least one."""
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, round(len(ordered) * share)):])


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def fresh_import():
    """Import the package anew, so that each set-up round pays for it."""
    for name in [n for n in sys.modules if n == "skewalg" or n.startswith("skewalg.")]:
        del sys.modules[name]
    return importlib.import_module("skewalg"), importlib.import_module("skewalg.cli")


def git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, sk, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "skewalg": sk.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def named_unit(name: str) -> str:
    """Unit of a figure on the line before the result, from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), (".bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("_ratio") else "count"


def run(args, root: str, work_dir: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  -- loaded before timing: it is not the package's set-up

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    setups = []
    with RefClock() as setup_clock:
        while len(setups) < SETUP_ROUNDS or sum(b - a for a, b in setups) < SETUP_MIN_S:
            if setups:
                workload.discard(len(setups) - 1)
            start = time.perf_counter()
            sk, cli = fresh_import()
            workload.setup(sk, cli, len(setups))
            setups.append((start, time.perf_counter()))
    setups = setup_clock.scale(setups)
    if not os.path.realpath(sk.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported skewalg from {sk.__file__}, not from {src}")
    workload.prepare()
    info = {"workload": args.workload, "provenance": provenance(root, sk, args.seed)}

    if not args.trace:
        with RefClock() as clock:
            m = measure(workload, args.seconds, MIN_PASSES if args.seconds else 1)
        runs = [m]
        scaled = clock.scale(m.intervals)
        per_op_s = m.op_medians([net for net, _ in scaled])
        per_op_ref = m.op_medians([net / ref for net, ref in scaled])
        e2e = {
            "setup_s": statistics.median(net / ref for net, ref in setups) * SETUP_S_PER_REF,
            "mean_ref": statistics.fmean(per_op_ref),
            "iqm_ref": interquartile_mean(per_op_ref),
            "tail_ref": tail_mean(per_op_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: metric(v, END_TO_END[k]) for k, v in e2e.items()}
        wall = {
            "ops_per_s": len(per_op_s) / sum(per_op_s),
            "p50_ms": statistics.median(per_op_s) * 1e3,
            "p95_ms": percentile(per_op_s, 95) * 1e3,
        }
        named = {
            "setup_wall_s": statistics.median(net for net, _ in setups),
            "fail_ratio": len(m.problems) / len(m.latencies),
            "ref_loop_ms": clock.median_s() * 1e3,
            "ref_samples": len(clock.starts),
            **wall,
            **workload.named(wall),
            **workload.extra_metrics(),
        }
        info["named"] = {k: metric(v, named_unit(k)) for k, v in named.items()}
    else:
        # half the time untraced, half traced: the difference is the overhead
        base = measure(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install(sk)
        try:
            m = measure(workload, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        runs = [base, m]
        passes = len(m.pass_busy)
        stats = layer_stats(tracer.spans, m.op_bucket)
        values = {
            f"{name}.{stat}": stats.get(name, {}).get(stat, 0) / passes
            for name, wanted in LAYER_STATS.items()
            for stat in wanted
        }
        counts = workload.extra_metrics()
        values.update({k: counts.get(k, 0) for k in WORKLOAD_COUNTS})
        values.update({
            "bench.untraced_pass_s": base.mean_pass_s,
            "bench.traced_pass_s": m.mean_pass_s,
            "bench.trace_overhead_s": m.mean_pass_s - base.mean_pass_s,
        })
        units = per_layer_units()
        metrics = {k: metric(v, units[k]) for k, v in values.items()}
        out_dir = os.path.join(root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}.json")
        tracer.write(spans_path, {**info, "passes": passes})
        info["spans"] = {"count": len(tracer.spans), "file": os.path.relpath(spans_path, root)}

    problems = [p for r in runs for p in r.problems]
    attempted = sum(len(r.latencies) for r in runs)
    info["samples"] = len(m.latencies)
    info["passes"] = len(m.pass_busy)
    for problem in problems[:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(info))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be at least 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skewalg", "__init__.py")):
        print("perfbench: no package sources at ./src/skewalg; run from the "
              "root of a skewalg checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = run(args, root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
