"""Self-checks of the benchmark's own arithmetic, oracles and metric list.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import skewalg
from conftest import ROOT
from oracles import algebra_violation, anti_automorphism_witness_exists, preserves_operations
from refclock import RefClock
from run import END_TO_END, interquartile_mean, main, measure, per_layer_units, tail_mean
from spans import Tracer, covered, layer_stats
from workloads import Workload, algebra_lists, mutate, size_bucket

LEFT_ZERO = [[0, 0], [1, 1]]


@pytest.fixture(scope="module")
def suite():
    return skewalg.generate_model_suite()


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("d", 6.0, 7.0, 2, 0),
    ]
    stats = layer_stats(spans, {0: "large"})
    assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "busy_s.large": 10.0}
    assert stats["c"]["self_s"] == 3.0
    assert stats["d"]["self_s"] == stats["d"]["busy_s"] == 1.0


def test_recursive_calls_count_once_in_busy_time():
    spans = [("f", 0.0, 10.0, -1, 0), ("f", 2.0, 5.0, 0, 0), ("g", 6.0, 8.0, 0, 1)]
    stats = layer_stats(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["busy_s"] == 10.0
    assert stats["f"]["self_s"] == (10.0 - 5.0) + 3.0
    assert "busy_s.large" not in stats["f"]


def test_covered_merges_overlaps():
    assert covered([(5.0, 9.0), (1.0, 4.0), (3.0, 6.0)]) == 8.0
    assert covered([]) == 0.0


def test_tracer_catches_calls_between_modules_and_uninstalls():
    inst = skewalg.generate_model_suite(1, 2)[0]
    original = skewalg.roundtrip_groupoid
    original_build = skewalg.build_algebra
    tracer = Tracer()
    tracer.install(skewalg)
    try:
        assert skewalg.cli.dispatch.__wrapped__
        assert skewalg.reconstruction.build_algebra.__wrapped__ is original_build
        tracer.op = 7
        skewalg.roundtrip_groupoid(inst.system)
    finally:
        tracer.uninstall()
    assert skewalg.roundtrip_groupoid is original
    assert skewalg.reconstruction.build_algebra is original_build
    assert skewalg.system.RestrictionSystem.full_report.__name__ == "full_report"
    assert not hasattr(skewalg.system.RestrictionSystem.full_report, "__wrapped__")
    top = tracer.spans[0]
    assert top[0] == "reconstruction.roundtrip_groupoid" and top[3] == -1
    children = {s[0] for s in tracer.spans if s[3] == 0}
    assert {"system.RestrictionSystem.full_report", "system.build_algebra",
            "reconstruction.reconstruct"} <= children
    assert all(s[4] == 7 for s in tracer.spans)


class ThreeOps(Workload):
    def pass_ops(self):
        return ["a", "b", "c"]

    def key(self, op):
        return op

    def run_op(self, op):
        if op == "b":
            raise ValueError("broken")
        return (1.0, 1.5), "wrong answer" if op == "c" else None


def test_measure_counts_raised_and_wrong_operations_as_failed():
    m = measure(ThreeOps(0, ""), 0, 3)
    assert len(m.pass_busy) == 3 and len(m.latencies) == 9
    by_key = m.by_key(m.latencies)
    assert sorted(by_key) == ["a", "b", "c"]
    assert all(len(v) == 3 for v in by_key.values())
    assert by_key["a"] == by_key["c"] == [0.5] * 3
    assert len(m.problems) == 6
    assert m.problems[:2] == ["ValueError: broken", "wrong answer"]


def test_refclock_takes_out_handler_time_and_averages_nearby_samples():
    clock = RefClock()
    # samples of 1, 3, 1, 3, ... ms every 20 ms from t = 0
    clock.starts = [0.02 * i for i in range(20)]
    clock.ends = [s + (0.001 if i % 2 == 0 else 0.003) for i, s in enumerate(clock.starts)]
    (net, ref), = clock.scale([(0.015, 0.065)])
    # samples at 0.02, 0.04 and 0.06 (3, 1 and 3 ms) ran inside the interval
    assert net == pytest.approx(0.050 - 0.007)
    # samples at 0.00 .. 0.10 lie within 50 ms of it: 1, 3, 1, 3, 1, 3 ms
    assert ref == pytest.approx(0.002)
    (net, ref), = clock.scale([(0.3950, 0.3955)])
    # past the last sample: the three nearest, 3, 1 and 3 ms, none inside
    assert net == pytest.approx(0.0005)
    assert ref == pytest.approx(0.007 / 3)


def test_refclock_samples_during_a_run_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with RefClock(0.005) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) >= 5
    assert all(a < b <= c for a, b, c in zip(clock.starts, clock.ends, clock.starts[1:]))


def test_interquartile_and_tail_means():
    assert interquartile_mean([1, 2, 3, 4, 5, 6, 7, 100]) == 4.5
    assert interquartile_mean([7.0]) == 7.0
    assert tail_mean(list(range(1, 101))) == 98.0
    assert tail_mean([1, 2, 3]) == 3


def test_mutant_oracle_rejects_broken_and_accepts_suite(suite):
    broken_meet = (LEFT_ZERO, [[0, 1], [0, 0]], [0, 1])
    assert algebra_violation(*broken_meet) == "assoc_meet"
    assert algebra_violation(LEFT_ZERO, LEFT_ZERO, [1, 1]) == "star_involution"
    assert not skewalg.check_axioms(skewalg.BiBandAlgebra(*broken_meet)).ok
    assert all(algebra_violation(*algebra_lists(i.algebra)) is None for i in suite)


def test_witness_oracle_matches_library(suite):
    first = suite[0]
    assert first.name == "C1xB1.0a0"
    assert not anti_automorphism_witness_exists(*algebra_lists(first.algebra))
    found = [
        anti_automorphism_witness_exists(*algebra_lists(i.algebra)) for i in suite
    ]
    assert found == [skewalg.anti_automorphism_witness(i.algebra) is not None for i in suite]
    assert any(found)


def test_preservation_oracle(suite):
    inst = next(i for i in suite if i.algebra.order >= 3)
    tables = algebra_lists(inst.algebra)
    n = inst.algebra.order
    assert preserves_operations(list(range(n)), tables, tables)
    assert not preserves_operations([0] * n, tables, tables)
    built = skewalg.build_algebra(inst.system)
    iso = skewalg.find_isomorphism(built, inst.algebra)
    assert preserves_operations(list(iso.mapping), algebra_lists(built), tables)


def test_mutate_changes_exactly_one_entry():
    import random

    tables = (LEFT_ZERO, LEFT_ZERO, [0, 1])
    for seed in range(20):
        out = mutate(tables, random.Random(seed))
        diffs = sum(
            a != b
            for before, after in zip(tables[:2], out[:2])
            for row_a, row_b in zip(before, after)
            for a, b in zip(row_a, row_b)
        ) + sum(a != b for a, b in zip(tables[2], out[2]))
        assert diffs == 1
    assert tables == (LEFT_ZERO, LEFT_ZERO, [0, 1])


def test_size_buckets_split_the_suite(suite):
    counts = {}
    for inst in suite:
        key = size_bucket(inst.system.morphism_count)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {"small": 121, "mid": 184, "large": 74}


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["--workload", "gen-models", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
