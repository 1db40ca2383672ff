"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

SRC = os.path.join("x", "src", "repro")


def src(*parts: str) -> str:
    return os.path.join(SRC, *parts)


# -- module -> layer folding ---------------------------------------------------------

@pytest.mark.parametrize("path, layer", [
    (src("sim", "kernel.py"), "sim.kernel"),
    (src("sim", "cpu.py"), "sim.cpu"),
    (src("drivers", "netty_backend.py"), "drivers"),
    (src("core", "doubleface.py"), "core"),
    (src("faults", "resilience.py"), "faults"),
    (src("trace", "__init__.py"), "trace"),
    (src("messages.py"), "messages"),
    (src("experiments", "parallel.py"), "experiments.parallel"),
    (src("experiments", "transport.py"), "experiments.transport"),
    (src("experiments", "figures.py"), "other"),
    (src("sim", "__init__.py"), "other"),
    (src("sim", "heap.py"), "other"),
    (os.path.join("usr", "lib", "python3", "heapq.py"), "other"),
    ("~", "other"),
])
def test_layer_of_file(path, layer):
    assert measure.layer_of_file(path) == layer


def test_every_layer_is_reachable():
    for layer in measure.LAYERS:
        if layer == measure.OTHER:
            continue
        path = src(*layer.split(".")) + ".py"
        assert measure.layer_of_file(path) == layer


def _stats():
    kernel = (src("sim", "kernel.py"), 10, "run")
    cpu = (src("sim", "cpu.py"), 20, "stint")
    lib = (os.path.join("lib", "heapq.py"), 1, "merge")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    return {
        kernel: (5, 5, 2.0, 4.0, {}),
        cpu: (3, 3, 1.0, 1.5, {kernel: (3, 3, 1.0, 1.5)}),
        lib: (1, 1, 0.25, 0.5, {}),
        # 4 calls from the kernel (0.4 s), 2 from stdlib code (0.1 s).
        builtin: (6, 6, 0.5, 0.5, {kernel: (4, 4, 0.4, 0.4),
                                   lib: (2, 2, 0.1, 0.1)}),
    }


def test_fold_charges_outside_functions_to_the_direct_caller():
    folded = measure.fold_profile(_stats())
    assert folded["sim.kernel"] == pytest.approx([2.4, 9])
    assert folded["sim.cpu"] == pytest.approx([1.0, 3])
    assert folded["other"] == pytest.approx([0.35, 3])


def test_fold_conserves_self_time_and_calls():
    stats = _stats()
    folded = measure.fold_profile(stats)
    assert sum(v[0] for v in folded.values()) == pytest.approx(
        sum(s[2] for s in stats.values()))
    assert sum(v[1] for v in folded.values()) == sum(
        s[1] for s in stats.values())


def test_fold_ignores_function_names():
    renamed = {(f, line, "renamed"): value
               for (f, line, _name), value in _stats().items()}
    assert measure.fold_profile(renamed) == measure.fold_profile(_stats())


def test_merge_stats_adds_processes():
    merged = measure.merge_stats({}, _stats())
    measure.merge_stats(merged, _stats())
    folded = measure.fold_profile(merged)
    single = measure.fold_profile(_stats())
    for layer in measure.LAYERS:
        assert folded[layer] == pytest.approx([2 * v for v in single[layer]])


# -- digests ---------------------------------------------------------------------------

@dataclass
class FakeConfig:
    trace: bool = False
    label: str = "p"


@dataclass
class FakeResult:
    config: FakeConfig
    throughput: float
    percentiles: Dict[float, float]
    class_percentiles: Dict[str, Dict[float, float]]
    completed: float
    window: float
    latency_values: array = field(default_factory=lambda: array("d"))
    trace_summary: Optional[Dict[str, Any]] = None


def fake(**overrides) -> FakeResult:
    values = dict(
        config=FakeConfig(), throughput=30.0,
        percentiles={50.0: 1e-3, 99.0: 5e-3},
        class_percentiles={"Lfan": {50.0: 2e-3, 99.0: 6e-3}},
        completed=3.0, window=0.1,
        latency_values=array("d", [1e-3, 2e-3, 6e-3]))
    values.update(overrides)
    return FakeResult(**values)


def test_digest_is_stable_and_ignores_the_config():
    assert measure.result_digest(fake()) == measure.result_digest(fake())
    other_config = fake(config=FakeConfig(label="q"))
    assert measure.result_digest(other_config) == measure.result_digest(fake())


def test_digest_treats_counts_alike_whether_int_or_float():
    assert measure.canonical({"count": 3}) == measure.canonical({"count": 3.0})


def test_digest_ignores_mapping_order():
    a = fake(class_percentiles={"a": {50.0: 1.0}, "b": {50.0: 2.0}})
    b = fake(class_percentiles={"b": {50.0: 2.0}, "a": {50.0: 1.0}})
    assert measure.result_digest(a) == measure.result_digest(b)


def test_digest_sees_the_last_bit_of_a_float():
    bumped = array("d", [1e-3, 2e-3, 6e-3])
    bumped[2] = float.fromhex((6e-3).hex()[:-1] + "1")
    assert bumped[2] != 6e-3
    assert (measure.result_digest(fake(latency_values=bumped))
            != measure.result_digest(fake()))


def test_workload_digest_depends_on_point_order():
    assert (measure.workload_digest(["a", "b"])
            != measure.workload_digest(["b", "a"]))


# -- output checks -------------------------------------------------------------------

def test_check_result_accepts_a_consistent_point():
    assert measure.check_result(fake()) == []


def test_check_result_flags_each_invariant():
    assert measure.check_result(fake(completed=0.0, throughput=0.0,
                                     latency_values=array("d")))
    assert measure.check_result(fake(percentiles={50.0: 2.0, 99.0: 1.0}))
    assert measure.check_result(
        fake(class_percentiles={"Sfan": {50.0: 2.0, 99.0: 1.0}}))
    assert measure.check_result(fake(throughput=31.0))
    assert measure.check_result(fake(latency_values=array("d", [1.0])))
    assert measure.check_result(fake(config=FakeConfig(trace=True)))


def _summary(rt: float, breakdown: Dict[str, float]) -> Dict[str, Any]:
    return {"categories": list(breakdown),
            "classes": {"default": {"exemplars": [
                {"rt": rt, "request_id": 1, "breakdown": breakdown}]}}}


def test_check_result_requires_exact_critical_path_additivity():
    parts = {"network": 0.1, "service": 0.2}
    residual = 0.3
    residual -= 0.1
    residual -= 0.2
    exact = dict(parts, driver=residual)
    traced = FakeConfig(trace=True)
    assert measure.check_result(
        fake(config=traced, trace_summary=_summary(0.3, exact))) == []
    off = dict(exact, driver=residual + 1e-12)
    assert measure.check_result(
        fake(config=traced, trace_summary=_summary(0.3, off)))


def test_tail_samples_counts_strictly_beyond_the_percentile():
    assert measure.tail_samples(fake()) == 1


def test_relative_iqr():
    assert measure.relative_iqr([1.0] * 10) == 0.0
    assert measure.relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def test_calibration_loop_is_deterministic():
    assert measure.calibration_loop(500) == measure.calibration_loop(500)
    assert measure.calibration_loop(500) != measure.calibration_loop(501)


def test_block_scales_use_the_passes_around_each_block():
    ref = measure.REFERENCE_PASS_S
    passes = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    # Block k ran just before passes[k + 1].
    scales = measure.block_scales(passes, [1, 2, 3, 4, 5])
    # Medians of passes 0-2, 0-3, 1-4, 2-5 and 3-5.
    assert scales == pytest.approx([1.0, 1 / 1.5, 0.5, 0.5, 0.5])


# -- the benchmark definition ---------------------------------------------------------

def _metrics():
    return BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in _metrics()]
    assert all(measure.METRIC_NAME.match(name) for name in names)
    assert all(len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_every_layer_reports_self_time_and_calls():
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for layer in measure.LAYERS:
        assert f"{layer}.self_s" in names
        assert f"{layer}.calls" in names


def test_reference_lists_every_workload():
    declared = {w["name"] for w in BENCHMARK["workloads"]}
    assert declared == set(REFERENCE["workloads"])
    for entry in REFERENCE["workloads"].values():
        assert entry["digest"] == measure.workload_digest(entry["points"])


def test_reference_points_match_the_workload_definitions():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workloads = pytest.importorskip("workloads")
    for name, entry in REFERENCE["workloads"].items():
        workload = workloads.build(name, 42)
        assert len(workload.configs) == len(entry["points"])
        assert workload.jobs == entry["params"]["jobs"]
        assert {c.seed for c in workloads.build(name, 7).configs} == {7}
