"""Pure helpers of the benchmark: layer folding, digests, output checks,
host-speed calibration.

Nothing here imports ``repro``; the functions take plain values (result
objects are read only through their attributes), so the unit tests in
``perfbench/test_measure.py`` run without the simulator.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import re
import statistics
import time
from array import array
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The repo's modules, as benchmark layers.  A module of ``repro`` maps
#: to the longest entry that is a dotted prefix of its name (relative to
#: ``repro``); anything else is ``other``.
LAYERS = (
    "sim.kernel", "sim.cpu", "sim.network", "sim.syscalls", "sim.threads",
    "sim.resources", "sim.metrics", "sim.rng", "sim.params",
    "datastore", "drivers", "core", "workload", "faults", "trace", "obs",
    "messages",
    "experiments.runner", "experiments.parallel", "experiments.transport",
    "other",
)

OTHER = "other"

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

_SRC_MARK = os.sep + "repro" + os.sep


def module_of(filename: str) -> Optional[str]:
    """Dotted module name relative to ``repro`` for a source *filename*,
    or None when the file is not part of the ``repro`` package."""
    idx = filename.rfind(_SRC_MARK)
    if idx < 0 or not filename.endswith(".py"):
        return None
    rel = filename[idx + len(_SRC_MARK):-len(".py")]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: Optional[str]) -> str:
    """Layer of a ``repro``-relative module name (None -> ``other``)."""
    if module is None:
        return OTHER
    best = OTHER
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            if best == OTHER or len(layer) > len(best):
                best = layer
    return best


def layer_of_file(filename: str) -> str:
    return layer_of_module(module_of(filename))


def fold_profile(stats: Dict[Tuple[str, int, str], tuple]
                 ) -> Dict[str, List[float]]:
    """Fold ``pstats``-style raw stats into ``{layer: [self_s, calls]}``.

    *stats* maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with *callers* mapping each caller key to that caller's
    ``(cc, nc, tt, ct)`` share.  The key's *filename* alone decides the
    layer, so renaming or deleting a function never changes the fold.
    A function outside ``repro`` (builtin or stdlib) is charged, per
    caller, to the layer of its direct caller; what its non-``repro``
    callers account for goes to ``other``.
    """
    out = {layer: [0.0, 0.0] for layer in LAYERS}
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of_file(filename)
        if layer != OTHER:
            out[layer][0] += tt
            out[layer][1] += nc
            continue
        charged_t = 0.0
        charged_n = 0
        for caller, share in (callers or {}).items():
            caller_layer = layer_of_file(caller[0])
            if caller_layer == OTHER:
                continue
            out[caller_layer][0] += share[2]
            out[caller_layer][1] += share[1]
            charged_t += share[2]
            charged_n += share[1]
        out[OTHER][0] += tt - charged_t
        out[OTHER][1] += nc - charged_n
    return out


def merge_stats(into: Dict, stats: Dict) -> Dict:
    """Add one process's raw profile *stats* into *into* (same shape)."""
    for key, (cc, nc, tt, ct, callers) in stats.items():
        if key not in into:
            into[key] = (cc, nc, tt, ct, dict(callers))
            continue
        c0, n0, t0, s0, callers0 = into[key]
        for caller, share in callers.items():
            old = callers0.get(caller)
            callers0[caller] = share if old is None else tuple(
                a + b for a, b in zip(old, share))
        into[key] = (c0 + cc, n0 + nc, t0 + tt, s0 + ct, callers0)
    return into


# -- digests ----------------------------------------------------------------

def canonical(value: Any) -> str:
    """Deterministic text form of a measured value: numbers by the exact
    ``repr`` of their float value (the result transport carries counts
    as floats, so ``3`` and ``3.0`` must digest alike), mappings with
    sorted keys, arrays as float lists."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, int) and abs(value) <= 2 ** 53:
        return repr(float(value))
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, array):
        return "[" + ",".join(map(repr, value)) + "]"
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if is_dataclass(value):
        return canonical({f.name: getattr(value, f.name)
                          for f in fields(value)})
    raise TypeError(f"cannot digest {type(value).__name__}")


#: Every measured field of ``ExperimentResult`` when the benchmark was
#: defined (its ``config`` is the input, not a measurement).  A field
#: added later is not digested, so new per-point host figures such as
#: wall time cannot break the reference; a field that disappears
#: digests as None and so fails the reference.
MEASURED_FIELDS = (
    "throughput", "percentiles", "class_percentiles", "mean_rt",
    "cpu_utilization", "cpu_shares", "ctx_switches_per_sec",
    "avg_running_threads", "selector_stats", "selects_per_sec",
    "select_cpu_share", "pool_spawns", "completed", "window",
    "thread_times", "thread_values", "latency_times", "latency_values",
    "fault_counters", "trace_summary", "hedge_delays", "obs_names",
    "obs_times", "obs_values", "phases", "flame",
)


def result_digest(result: Any) -> str:
    """Digest of the measured fields of one result."""
    measured = {name: getattr(result, name, None) for name in MEASURED_FIELDS}
    return hashlib.sha256(canonical(measured).encode()).hexdigest()[:16]


def workload_digest(point_digests: Sequence[str]) -> str:
    return hashlib.sha256(",".join(point_digests).encode()).hexdigest()[:16]


# -- output checks ------------------------------------------------------------

def check_result(result: Any) -> List[str]:
    """Invariants every simulated point must satisfy; returns the
    violations (empty when the point is correct)."""
    errors = []
    if not result.completed > 0:
        errors.append(f"completed={result.completed}")
    tables = [("all", result.percentiles)] + sorted(
        result.class_percentiles.items())
    for name, table in tables:
        values = [table[q] for q in sorted(table)]
        if any(b < a for a, b in zip(values, values[1:])):
            errors.append(f"percentiles of {name} decrease in q")
    expected = result.completed / result.window
    if not math.isclose(result.throughput, expected, rel_tol=1e-9):
        errors.append(f"throughput {result.throughput!r} != "
                      f"completed/window {expected!r}")
    if len(result.latency_values) != result.completed:
        errors.append(f"{len(result.latency_values)} latency samples for "
                      f"{result.completed} completed requests")
    summary = result.trace_summary
    if result.config.trace:
        if summary is None:
            errors.append("traced point has no trace summary")
        else:
            errors.extend(_check_additivity(summary))
    return errors


def _check_additivity(summary: Dict[str, Any]) -> List[str]:
    """Each exemplar's critical-path categories, subtracted from its
    response time in the summary's category order, leave exactly 0."""
    errors = []
    categories = summary["categories"]
    for klass, entry in summary["classes"].items():
        for exemplar in entry["exemplars"]:
            residual = exemplar["rt"]
            for category in categories:
                residual -= exemplar["breakdown"][category]
            if residual != 0.0:
                errors.append(f"{klass} exemplar {exemplar['request_id']}: "
                              f"critical path misses rt by {residual!r}")
    return errors


def tail_samples(result: Any, q: float = 99.0) -> int:
    """Latency samples strictly beyond the result's q-th percentile."""
    cut = result.percentiles[q]
    return sum(1 for v in result.latency_values if v > cut)


# -- statistics -----------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the spread the
    benchmark's bounds are judged against)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# -- host speed -------------------------------------------------------------------

#: Events one calibration pass dispatches, and the seconds a pass is
#: taken to last at the reference speed the time metrics are scaled to.
CALIBRATION_EVENTS = 60_000
REFERENCE_PASS_S = 0.1


class _Timer:
    __slots__ = ("at", "kind", "payload")

    def __init__(self, at: float, kind: int, payload: List[int]) -> None:
        self.at = at
        self.kind = kind
        self.payload = payload


def calibration_loop(events: int = CALIBRATION_EVENTS) -> float:
    """A fixed pure-Python discrete-event loop (heap of timer objects,
    a handler call, dict and float updates per event) that shares no
    code with the program; returns its checksum."""
    heap = []
    tally: Dict[str, float] = {"fired": 0.0, "at": 0.0}
    for i in range(64):
        heapq.heappush(heap, (i * 1e-3, i, _Timer(i * 1e-3, i % 5, [i])))

    def fire(timer: _Timer) -> int:
        tally["fired"] += 1.0
        tally["at"] += timer.at * 1e-3
        return timer.payload[-1] + timer.kind

    x, seq = 12345, 64
    for _ in range(events):
        at, _seq, timer = heapq.heappop(heap)
        value = fire(timer)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        at += (x % 1000) * 1e-6 + 1e-6
        seq += 1
        heapq.heappush(heap, (at, seq, _Timer(at, seq % 5, [value, seq])))
    return tally["at"] + tally["fired"]


def calibration_pass() -> float:
    """Host seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


#: Calibration passes on either side of a block whose median scales it.
SCALE_WINDOW = 2


def block_scales(passes: Sequence[float], after: Sequence[int]) -> List[float]:
    """Factors that turn each block's host seconds into seconds at the
    reference speed.  Block k ran just before ``passes[after[k]]``; its
    factor divides ``REFERENCE_PASS_S`` by the median of the (up to)
    ``SCALE_WINDOW`` passes on either side of it."""
    return [REFERENCE_PASS_S / statistics.median(
        passes[max(0, j - SCALE_WINDOW):j + SCALE_WINDOW]) for j in after]
