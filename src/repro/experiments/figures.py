"""One function per paper exhibit (figure or table).

Every exhibit *declares* its experiment grid as a flat list of
(key, :class:`ExperimentConfig`) points, fans the configs out through
:func:`repro.experiments.parallel.run_experiments` (``jobs`` workers;
``jobs=1`` is the serial fallback with identical results), and then
assembles an :class:`ExhibitResult` holding both the rendered text (the
same rows/series the paper reports) and the raw data (asserted on by
the benchmark suite).  Results come back in submission order, so the
assembly step never depends on completion timing.

``quick=True`` (the default, used by the pytest-benchmark harness)
shrinks measurement windows and grids so the whole suite completes in
minutes; ``quick=False`` (the CLI's ``--full``) uses the full grids.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..faults import FaultConfig, ResilienceConfig
from ..obs import DEFAULT_OBS_PERIOD, prometheus_snapshot
from ..sim.params import KB
from .config import ExperimentConfig
from .parallel import BatchExecutor, resolve_jobs, run_experiments
from .report import (normalize, render_breakdown, render_flame,
                     render_series, render_table)

__all__ = ["ExhibitResult", "EXHIBITS", "run_exhibit", "run_exhibits",
           "fig04", "fig05", "fig07", "fig09", "fig13", "fig14",
           "fig15", "fig16", "fig17", "tab1", "tab2", "tab3",
           "fault_tail", "hedging", "fault_open", "ewma_route",
           "adaptive_hedge"]

#: When set (by :func:`run_exhibits`), every exhibit's point batch is
#: routed through this shared executor instead of a private pool, so
#: points from concurrently running exhibits interleave in one global
#: work queue.  Set before the exhibit threads start and cleared after
#: they join, never mutated while they run.
_BATCH_RUNNER: Optional[Callable[[List[ExperimentConfig]], List[Any]]] = None

#: When set (by :func:`run_exhibit` with ``trace=True``), every point
#: an exhibit declares runs with span tracing forced on
#: (``{"sample": rate, "exemplars": n, "summaries": {}, "flames": {},
#: "phases": {}}``), and each point's trace summary, flame
#: aggregation, and phase windows are stashed under a deterministic
#: ``label#index (key)`` name for the breakdown/flame tables and the
#: Chrome export.  Set before the exhibit call and restored after it.
_TRACE: Optional[Dict[str, Any]] = None

#: When set (by :func:`run_exhibit` with ``obs=True``), every point
#: runs with the telemetry ticker on (``{"period": s, "snapshots":
#: {}}``) and each point's Prometheus snapshot is stashed under the
#: same deterministic name vocabulary as the trace summaries.
_OBS: Optional[Dict[str, Any]] = None


@dataclass
class ExhibitResult:
    """Output of one exhibit run."""

    exhibit: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _run_points(points: List[Tuple[Any, ExperimentConfig]],
                jobs: Optional[int]) -> List[Tuple[Any, Any]]:
    """Run a declared point list; (key, result) pairs in declared order."""
    trace = _TRACE
    if trace is not None:
        points = [(key, replace(config, trace=True,
                                trace_sample=trace["sample"],
                                trace_exemplars=trace["exemplars"]))
                  for key, config in points]
    obs = _OBS
    if obs is not None:
        points = [(key, replace(config, obs=True,
                                obs_period=obs["period"]))
                  for key, config in points]
    runner = _BATCH_RUNNER
    if runner is not None:
        results = runner([config for _key, config in points])
    else:
        results = run_experiments([config for _key, config in points],
                                  jobs=jobs)
    pairs = [(key, result)
             for (key, _config), result in zip(points, results)]
    if trace is not None:
        summaries = trace["summaries"]
        for (key, config), (_key, result) in zip(points, pairs):
            if result.trace_summary is not None:
                name = f"{config.label}#{len(summaries):03d} ({key})"
                summaries[name] = result.trace_summary
                trace["flames"][name] = result.flame
                trace["phases"][name] = result.phases
    if obs is not None:
        snapshots = obs["snapshots"]
        for (key, config), (_key, result) in zip(points, pairs):
            name = f"{config.label}#{len(snapshots):03d} ({key})"
            snapshots[name] = prometheus_snapshot(result, label=name)
    return pairs


def _concurrency_grid(quick: bool) -> List[int]:
    return [1, 16, 64, 256] if quick else [1, 4, 16, 64, 256, 1024]


def _closed(server: str, datastore: str, conc: int, fanout: int,
            size: int, seed: int, quick: bool, **kw) -> ExperimentConfig:
    # Larger payloads and higher concurrency need longer windows for the
    # queues to reach steady state.
    slow = size >= 4 * KB
    warmup = (1.5 if slow else 0.3) + (1.0 if conc >= 256 else 0.0)
    duration = (3.0 if slow else 0.8) if quick else (8.0 if slow else 2.5)
    # Closed-loop exhibits only chart throughput/percentiles: keep the
    # pickled result payload small.
    kw.setdefault("keep_selector_stats", False)
    return ExperimentConfig(
        server=server, datastore=datastore, concurrency=conc, fanout=fanout,
        response_size=size, warmup=warmup, duration=duration, seed=seed, **kw)


# ---------------------------------------------------------------------------
# Figure 4 — thread-based vs asynchronous drivers per datastore family
# ---------------------------------------------------------------------------

def fig04(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Throughput vs. workload concurrency for DynamoDB, HBase, and
    MongoDB with thread-based vs. asynchronous drivers (fanout 5,
    0.1 kB responses)."""
    grid = _concurrency_grid(quick)
    # The async DynamoDB/HBase drivers are Type-1; MongoDB's default
    # async driver is the Type-2b AIO backend.
    families = [("dynamodb", "type1"), ("hbase", "type1"),
                ("mongodb", "aio")]
    points: List[Tuple[Any, ExperimentConfig]] = []
    for datastore, async_kind in families:
        for conc in grid:
            for label, kind in ((f"{datastore}-async", async_kind),
                                (f"{datastore}-thread", "threadbased")):
                points.append(((datastore, label), _closed(
                    kind, datastore, conc, fanout=5, size=100, seed=seed,
                    quick=quick)))
    data: Dict[str, Dict[str, List[float]]] = {
        datastore: {f"{datastore}-async": [], f"{datastore}-thread": []}
        for datastore, _async_kind in families}
    for (datastore, label), result in _run_points(points, jobs):
        data[datastore][label].append(result.throughput)
    sections = [render_series(
        f"Figure 4 ({datastore}): throughput [req/s] vs concurrency",
        "conc", grid, data[datastore]) for datastore, _ in families]
    return ExhibitResult("fig04", "Thread-based vs asynchronous drivers",
                         "\n\n".join(sections),
                         {"concurrency": grid, **data})


# ---------------------------------------------------------------------------
# Figure 5 — MongoDB driver comparison across response sizes
# ---------------------------------------------------------------------------

def fig05(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """AIOBackend vs NettyBackend vs Threadbased for MongoDB across
    response sizes 20 kB / 1 kB / 0.1 kB (fanout 5)."""
    grid = _concurrency_grid(quick)
    sizes = [(20 * KB, "20kB"), (1 * KB, "1kB"), (100, "0.1kB")]
    servers = (("AIOBackend", "aio"), ("NettyBackend", "netty"),
               ("Threadbased", "threadbased"))
    points: List[Tuple[Any, ExperimentConfig]] = []
    for size, size_label in sizes:
        for label, kind in servers:
            for conc in grid:
                points.append(((size_label, label), _closed(
                    kind, "mongodb", conc, fanout=5, size=size, seed=seed,
                    quick=quick)))
    data: Dict[str, Dict[str, List[float]]] = {
        size_label: {label: [] for label, _kind in servers}
        for _size, size_label in sizes}
    for (size_label, label), result in _run_points(points, jobs):
        data[size_label][label].append(result.throughput)
    sections = [render_series(
        f"Figure 5 ({size_label} responses): throughput [req/s]",
        "conc", grid, data[size_label]) for _size, size_label in sizes]
    return ExhibitResult("fig05", "MongoDB drivers across response sizes",
                         "\n\n".join(sections),
                         {"concurrency": grid, **data})


# ---------------------------------------------------------------------------
# Table 1 — perf breakdown at 20 kB
# ---------------------------------------------------------------------------

def tab1(quick: bool = True, seed: int = 42,
         jobs: Optional[int] = 1) -> ExhibitResult:
    """Context switches, running threads, lock and thread-init CPU for
    AIOBackend / NettyBackend / Threadbased (conc 100, fanout 5, 20 kB)."""
    duration = 4.0 if quick else 10.0
    points = [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=5, response_size=20 * KB,
        warmup=2.0, duration=duration, seed=seed,
        keep_selector_stats=False))
        for label, kind in (("AIOBackend", "aio"), ("NettyBackend", "netty"),
                            ("Threadbased", "threadbased"))]
    results = dict(_run_points(points, jobs))
    headers = ["metric"] + list(results.keys())
    rows = [
        ["Throughput [req/s]"] + [round(r.throughput) for r in results.values()],
        ["Concurrent running threads"] + [round(r.avg_running_threads, 1)
                                          for r in results.values()],
        ["Context switches [/s]"] + [round(r.ctx_switches_per_sec)
                                     for r in results.values()],
        ["Locking (mutex) CPU [%]"] + [round(100 * r.cpu_shares["lock"], 1)
                                       for r in results.values()],
        ["Thread initiation CPU [%]"] + [
            round(100 * r.cpu_shares["thread_init"], 1)
            for r in results.values()],
        ["ctx-switch CPU [%]"] + [round(100 * r.cpu_shares["ctx_switch"], 1)
                                  for r in results.values()],
    ]
    text = render_table(
        "Table 1: multithreading overhead (conc 100, fanout 5, 20kB)",
        headers, rows)
    return ExhibitResult("tab1", "Multithreading overhead breakdown", text,
                         {label: {
                             "throughput": r.throughput,
                             "running_threads": r.avg_running_threads,
                             "ctx_per_sec": r.ctx_switches_per_sec,
                             "lock_share": r.cpu_shares["lock"],
                             "thread_init_share": r.cpu_shares["thread_init"],
                         } for label, r in results.items()})


# ---------------------------------------------------------------------------
# Figure 7 — AIO vs Netty normalized throughput across fanout (20 kB)
# ---------------------------------------------------------------------------

def fig07(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Normalized throughput (NettyBackend = 1.0) vs fanout factor at
    20 kB responses, concurrency 100."""
    fanouts = [1, 5, 20]
    duration = 3.0 if quick else 8.0
    points: List[Tuple[Any, ExperimentConfig]] = []
    for fanout in fanouts:
        for label, kind in (("NettyBackend", "netty"), ("AIOBackend", "aio")):
            points.append((label, ExperimentConfig(
                server=kind, concurrency=100, fanout=fanout,
                response_size=20 * KB, warmup=2.0, duration=duration,
                seed=seed, keep_selector_stats=False)))
    series: Dict[str, List[float]] = {"NettyBackend": [], "AIOBackend": []}
    for label, result in _run_points(points, jobs):
        series[label].append(result.throughput)
    norm = normalize(series, "NettyBackend")
    text = render_series(
        "Figure 7: normalized throughput vs fanout (20kB, conc 100)",
        "fanout", fanouts, norm)
    return ExhibitResult("fig07", "AIO degradation with fanout", text,
                         {"fanout": fanouts, "throughput": series,
                          "normalized": norm})


# ---------------------------------------------------------------------------
# Table 2 — select() overhead at 0.1 kB
# ---------------------------------------------------------------------------

def tab2(quick: bool = True, seed: int = 42,
         jobs: Optional[int] = 1) -> ExhibitResult:
    """select() counts and CPU share, AIOBackend vs NettyBackend
    (conc 100, fanout 5, 0.1 kB).  The paper reports a 30 s runtime; we
    report per-30s-equivalent counts."""
    duration = 1.5 if quick else 5.0
    points = [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=5, response_size=100,
        warmup=0.5, duration=duration, seed=seed,
        keep_selector_stats=False))
        for label, kind in (("AIOBackend", "aio"), ("NettyBackend", "netty"))]
    results = dict(_run_points(points, jobs))
    headers = ["metric"] + list(results.keys())
    rows = [
        ["Throughput [req/s]"] + [round(r.throughput)
                                  for r in results.values()],
        ["# of select() [30s runtime]"] + [
            round(r.selects_per_sec * 30.0)
            for r in results.values()],
        ["select() CPU share [%]"] + [
            round(100 * r.select_cpu_share
                  * r.cpu_utilization, 1)
            for r in results.values()],
    ]
    text = render_table(
        "Table 2: select() overhead (conc 100, fanout 5, 0.1kB)",
        headers, rows)
    return ExhibitResult("tab2", "select() overhead", text,
                         {label: {
                             "throughput": r.throughput,
                             "selects_30s": r.selects_per_sec * 30.0,
                             "select_cpu_share": r.select_cpu_share,
                         } for label, r in results.items()},)


# ---------------------------------------------------------------------------
# Table 3 — Netty backend-reactor-count sensitivity
# ---------------------------------------------------------------------------

def tab3(quick: bool = True, seed: int = 42,
         jobs: Optional[int] = 1) -> ExhibitResult:
    """NettyBackend with 1 / 2 / 4 backend reactors: throughput and
    per-side select() efficiency (conc 100, fanout 5, 0.1 kB)."""
    duration = 1.5 if quick else 5.0
    cases = [("OneCase", 1), ("TwoCase", 2), ("FourCase", 4)]
    points = [(label, ExperimentConfig(
        server="netty", backend_reactors=n, concurrency=100, fanout=5,
        response_size=100, warmup=0.5, duration=duration, seed=seed))
        for label, n in cases]
    results = dict(_run_points(points, jobs))
    scale = 30.0 / duration

    def split(r):
        front = [s for s in r.selector_stats if "frontend" in s["name"]]
        back = [s for s in r.selector_stats if "backend" in s["name"]]
        f_sel = sum(s["selects"] for s in front)
        b_sel = sum(s["selects"] for s in back)
        f_ev = sum(s["events"] for s in front)
        b_ev = sum(s["events"] for s in back)
        return f_sel, b_sel, f_ev, b_ev

    headers = ["metric"] + [label for label, _n in cases]
    splits = {label: split(r) for label, r in results.items()}
    rows = [
        ["Throughput [req/s]"] + [round(r.throughput)
                                  for r in results.values()],
        ["total # select() [30s]"] + [
            round((splits[l][0] + splits[l][1]) * scale) for l, _ in cases],
        ["frontend select() [30s]"] + [round(splits[l][0] * scale)
                                       for l, _ in cases],
        ["backend select() [30s]"] + [round(splits[l][1] * scale)
                                      for l, _ in cases],
        ["events/select (frontend)"] + [
            round(splits[l][2] / splits[l][0], 1) if splits[l][0] else 0
            for l, _ in cases],
        ["events/select (backend)"] + [
            round(splits[l][3] / splits[l][1], 1) if splits[l][1] else 0
            for l, _ in cases],
    ]
    text = render_table(
        "Table 3: Netty backend reactor count (conc 100, fanout 5, 0.1kB)",
        headers, rows)
    return ExhibitResult("tab3", "Imbalanced reactor allocation", text,
                         {label: {
                             "throughput": r.throughput,
                             "frontend_selects": splits[label][0],
                             "backend_selects": splits[label][1],
                             "frontend_events": splits[label][2],
                             "backend_events": splits[label][3],
                         } for label, r in results.items()})


# ---------------------------------------------------------------------------
# Figure 9 — running-thread timelines
# ---------------------------------------------------------------------------

def fig09(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Concurrently-running-thread timeline, NettyBackend vs AIOBackend
    (conc 100, fanout 5, 20 kB)."""
    duration = 4.0 if quick else 10.0
    sample = 0.1
    points = [(label, ExperimentConfig(
        server=kind, concurrency=100, fanout=5, response_size=20 * KB,
        warmup=2.0, duration=duration, seed=seed,
        thread_sample_period=sample, keep_selector_stats=False))
        for label, kind in (("NettyBackend", "netty"), ("AIOBackend", "aio"))]
    samples = {}
    stats = {}
    for label, result in _run_points(points, jobs):
        samples[label] = result.thread_samples
        values = [v for (_t, v) in result.thread_samples]
        stats[label] = {
            "mean": sum(values) / len(values) if values else 0.0,
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
            "spread": (max(values) - min(values)) if values else 0.0,
        }
    xs = [round(t, 2) for (t, _v) in samples["NettyBackend"]]
    series = {label: [v for (_t, v) in pts] for label, pts in samples.items()}
    text = render_series(
        "Figure 9: concurrently running threads over time (20kB, conc 100)",
        "t[s]", xs, series)
    summary = render_table(
        "Figure 9 summary", ["server", "mean", "min", "max", "spread"],
        [[label, round(s["mean"], 1), s["min"], s["max"], s["spread"]]
         for label, s in stats.items()])
    return ExhibitResult("fig09", "Running-thread dynamics",
                         text + "\n\n" + summary,
                         {"samples": samples, "stats": stats})


# ---------------------------------------------------------------------------
# Figure 13 — DoubleFaceNetty vs baselines across fanout and size
# ---------------------------------------------------------------------------

def fig13(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Normalized throughput (DoubleFaceNetty = 1.0) across fanout
    factors 1/5/10/20 at 0.1 kB and 20 kB, concurrency 20."""
    fanouts = [1, 5, 20] if quick else [1, 5, 10, 20]
    servers = (("DoubleFaceNetty", "doubleface"), ("NettyBackend", "netty"),
               ("AIOBackend", "aio"))
    sizes = ((100, "0.1kB"), (20 * KB, "20kB"))
    points: List[Tuple[Any, ExperimentConfig]] = []
    for size, size_label in sizes:
        slow = size >= 4 * KB
        duration = (3.0 if quick else 8.0) if slow else (1.5 if quick else 4.0)
        warmup = 1.5 if slow else 0.5
        for label, kind in servers:
            for fanout in fanouts:
                points.append(((size_label, label), ExperimentConfig(
                    server=kind, concurrency=20, fanout=fanout,
                    response_size=size, warmup=warmup, duration=duration,
                    seed=seed, keep_selector_stats=False)))
    throughput: Dict[str, Dict[str, List[float]]] = {
        size_label: {label: [] for label, _kind in servers}
        for _size, size_label in sizes}
    for (size_label, label), result in _run_points(points, jobs):
        throughput[size_label][label].append(result.throughput)
    sections = []
    data = {}
    for _size, size_label in sizes:
        series = throughput[size_label]
        norm = normalize(series, "DoubleFaceNetty")
        data[size_label] = {"throughput": series, "normalized": norm}
        sections.append(render_series(
            f"Figure 13 ({size_label}): normalized throughput "
            "(DoubleFaceNetty = 1.0)", "fanout", fanouts, norm))
    return ExhibitResult("fig13", "DoubleFaceAD throughput comparison",
                         "\n\n".join(sections),
                         {"fanout": fanouts, **data})


# ---------------------------------------------------------------------------
# Figure 14 — CPU utilisation under RUBBoS-style open workload
# ---------------------------------------------------------------------------

def fig14(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """CPU utilisation vs. number of emulated users (fanout 20), for
    0.1 kB and 20 kB responses."""
    servers = (("DoubleFaceNetty", "doubleface"), ("NettyBackend", "netty"),
               ("AIOBackend", "aio"))
    cases = [
        # (size, label, users grid, think time, request business CPU)
        (100, "0.1kB", [100, 200, 300, 350], 0.32, 0.5e-3),
        (20 * KB, "20kB", [100, 200, 300], 6.5, 0.5e-3),
    ]
    duration = 6.0 if quick else 20.0
    grids: Dict[str, List[int]] = {}
    points: List[Tuple[Any, ExperimentConfig]] = []
    for size, size_label, users_grid, think, request_cpu in cases:
        if quick:
            users_grid = users_grid[1::2] if size_label == "0.1kB" else users_grid[::2]
        grids[size_label] = users_grid
        for label, kind in servers:
            for users in users_grid:
                points.append(((size_label, label), ExperimentConfig(
                    server=kind, workload="open", users=users,
                    think_time=think, fanout=20, response_size=size,
                    warmup=2.0, duration=duration, seed=seed,
                    keep_selector_stats=False,
                    params={"request_cpu": request_cpu})))
    cpu_util: Dict[str, Dict[str, List[float]]] = {
        size_label: {label: [] for label, _kind in servers}
        for _size, size_label, *_rest in cases}
    for (size_label, label), result in _run_points(points, jobs):
        cpu_util[size_label][label].append(
            round(100 * result.cpu_utilization, 1))
    sections = []
    data = {}
    for _size, size_label, *_rest in cases:
        data[size_label] = {"users": grids[size_label],
                            "cpu_util": cpu_util[size_label]}
        sections.append(render_series(
            f"Figure 14 ({size_label}): CPU utilisation [%] vs users "
            "(fanout 20)", "users", grids[size_label], cpu_util[size_label]))
    return ExhibitResult("fig14", "CPU overhead comparison",
                         "\n\n".join(sections), data)


# ---------------------------------------------------------------------------
# Figures 15/16/17 — percentile response time with the scheduler
# ---------------------------------------------------------------------------

#: Percentiles reported for the tail-latency exhibits.
TAIL_PERCENTILES = [50.0, 80.0, 90.0, 95.0, 99.0]

#: The four servers compared in Figures 15-17.
TAIL_SERVERS = (("w schedule", "doubleface"),
                ("w/o schedule", "doubleface-fifo"),
                ("AIOBackend", "aio"),
                ("NettyBackend", "netty"))


def _tail_exhibit(exhibit: str, title: str, lfan: int, sfan: int,
                  size: int, large_shards: bool, quick: bool, seed: int,
                  users: int = 600, think: float = 5.2,
                  request_cpu: float = 0.3e-3,
                  request_cpu_cv: float = 0.5,
                  response_cpu: float = 1.2e-3,
                  assemble_cpu: float = 0.3e-3,
                  jobs: Optional[int] = 1) -> ExhibitResult:
    duration = 15.0 if quick else 40.0
    # RUBBoS-style pages do real per-sub-result business work (fragment
    # handling dominates), datastore service times are heavy-tailed
    # (service_cv=2.5: the shard "variety" that motivates the paper's
    # scheduler), and the app server is reported in its single-core
    # configuration, where reactor-thread contention — the effect under
    # study — is sharpest.
    points = [(label, ExperimentConfig(
        server=kind, workload="open", users=users, think_time=think,
        lfan=lfan, sfan=sfan, response_size=size, reactors=1,
        large_shards=large_shards, warmup=4.0, duration=duration,
        seed=seed, keep_selector_stats=False,
        # Full tail windows record millions of latency samples; the
        # P-squared sketch bounds memory.  Quick runs stay exact so the
        # regression tests pin exact-mode numbers.
        latency_sketch=not quick,
        params={"app_cores": 1,
                           "request_cpu": request_cpu,
                           "request_cpu_cv": request_cpu_cv,
                           "response_base_cost": response_cpu,
                           "assemble_base_cost": assemble_cpu,
                           "service_cv": 2.5}))
        for label, kind in TAIL_SERVERS]
    results = dict(_run_points(points, jobs))
    series = {label: [1e3 * r.percentiles[q] for q in TAIL_PERCENTILES]
              for label, r in results.items()}
    text = render_series(
        f"{title}: percentile response time [ms]",
        "pctl", TAIL_PERCENTILES, series)
    summary = render_table(
        f"{title}: summary", ["server", "tput [req/s]", "p99 [ms]",
                              "CPU [%]"],
        [[label, round(r.throughput), round(1e3 * r.percentiles[99.0], 1),
          round(100 * r.cpu_utilization)] for label, r in results.items()])
    return ExhibitResult(
        exhibit, title, text + "\n\n" + summary,
        {label: {"p99": r.percentiles[99.0],
                 "p95": r.percentiles[95.0],
                 "p50": r.percentiles[50.0],
                 "throughput": r.throughput,
                 "cpu": r.cpu_utilization}
         for label, r in results.items()})


def fig15(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Percentile response time on YCSB with the fanout-aware scheduler:
    (a) Lfan/Sfan = 5/3 and (b) 7/1."""
    a = _tail_exhibit("fig15a", "Figure 15(a) Lfan/Sfan=5/3", 5, 3, 100,
                      False, quick, seed, jobs=jobs)
    b = _tail_exhibit("fig15b", "Figure 15(b) Lfan/Sfan=7/1", 7, 1, 100,
                      False, quick, seed, jobs=jobs)
    return ExhibitResult("fig15", "Scheduler tail-latency gains",
                         a.text + "\n\n" + b.text,
                         {"a": a.data, "b": b.data})


def fig16(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Figure 15(a)'s experiment with 10 GB shards (slower datastore
    service times)."""
    return _tail_exhibit("fig16", "Figure 16: large (10GB) shards",
                         5, 3, 100, True, quick, seed, jobs=jobs)


def fig17(quick: bool = True, seed: int = 42,
          jobs: Optional[int] = 1) -> ExhibitResult:
    """Percentile response time on the DBLP dataset (30 kB tuples)."""
    # DBLP tuples are 30 kB: payload decoding itself is the heavy
    # per-response work, no extra business cost is layered on.
    return _tail_exhibit("fig17", "Figure 17: DBLP dataset", 5, 3,
                         30 * KB, False, quick, seed,
                         users=600, think=8.4, request_cpu=0.3e-3,
                         response_cpu=12.0e-6, assemble_cpu=0.3e-3,
                         jobs=jobs)


# ---------------------------------------------------------------------------
# Fault exhibits — tail latency under failure (repro.faults)
# ---------------------------------------------------------------------------

#: The slow-shard fault both fault exhibits inject: two shards serve
#: 100x slower during "brown-out" windows covering ~30% of the run, so
#: a fanout-5 request over 20 shards hits an active slow shard often
#: enough to wreck p99 (~10x p50) while barely moving p50.
FAULT_SLOW_SHARDS = FaultConfig(
    slow_shards=2, slow_factor=100.0, slow_mean_on=0.3, slow_mean_off=0.7)

#: Per-sub-query deadline / retry budget shared by the resilient
#: policies below (calibrated well above the healthy sub-query tail,
#: well below the 30x brown-out service time).
_FAULT_DEADLINE = 5e-3
_FAULT_RETRY = dict(subquery_deadline=_FAULT_DEADLINE, max_retries=3,
                    backoff_base=0.5e-3, backoff_cap=2e-3)

#: Servers compared under failure.
FAULT_SERVERS = (("DoubleFaceNetty", "doubleface"),
                 ("NettyBackend", "netty"),
                 ("AIOBackend", "aio"))


def _fault_point(kind: str, resilience: Optional[ResilienceConfig],
                 quick: bool, seed: int, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        server=kind, concurrency=20, fanout=5, response_size=100,
        warmup=0.5, duration=1.5 if quick else 6.0, seed=seed,
        faults=FAULT_SLOW_SHARDS, resilience=resilience,
        replicas_per_shard=2, keep_selector_stats=False, **kw)


def _fault_summary(result) -> Dict[str, float]:
    counters = result.fault_counters
    return {
        "p50": result.percentiles[50.0],
        "p99": result.percentiles[99.0],
        "throughput": result.throughput,
        "retries": counters.get("resilience.retries", 0.0),
        "hedges": counters.get("resilience.hedges", 0.0),
        "hedge_wins": counters.get("resilience.hedge_wins", 0.0),
        "retry_wins": counters.get("resilience.retry_wins", 0.0),
        "deadline_misses": counters.get("resilience.deadline_misses", 0.0),
        "failovers": counters.get("resilience.failovers", 0.0),
        "failed_subqueries": counters.get(
            "resilience.failed_subqueries", 0.0),
        "degraded": counters.get("server.completed.degraded", 0.0),
    }


def fault_tail(quick: bool = True, seed: int = 42,
               jobs: Optional[int] = 1) -> ExhibitResult:
    """Tail latency under a slow-shard fault, with and without driver
    resilience.

    Three architectures x three policies (no resilience / deadline+retry
    with replica failover / the same plus an adaptive p95 hedge) under
    :data:`FAULT_SLOW_SHARDS` with two replicas per shard.  The headline
    result the benchmark suite pins: hedging+retry recovers >= 2x of the
    no-resilience p99.
    """
    policies = (
        ("no-resilience", None),
        ("retry", ResilienceConfig(**_FAULT_RETRY)),
        ("hedge+retry", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50, **_FAULT_RETRY)),
    )
    points: List[Tuple[Any, ExperimentConfig]] = [
        ((server_label, policy_label),
         _fault_point(kind, policy, quick, seed))
        for server_label, kind in FAULT_SERVERS
        for policy_label, policy in policies]
    data: Dict[str, Dict[str, Dict[str, float]]] = {
        server_label: {} for server_label, _kind in FAULT_SERVERS}
    for (server_label, policy_label), result in _run_points(points, jobs):
        data[server_label][policy_label] = _fault_summary(result)
    policy_labels = [label for label, _p in policies]
    sections = []
    for server_label, _kind in FAULT_SERVERS:
        rows = [[label,
                 round(1e3 * data[server_label][label]["p50"], 2),
                 round(1e3 * data[server_label][label]["p99"], 2),
                 round(data[server_label][label]["throughput"]),
                 round(data[server_label][label]["retries"]),
                 round(data[server_label][label]["hedges"]),
                 round(data[server_label][label]["failed_subqueries"])]
                for label in policy_labels]
        sections.append(render_table(
            f"Fault tail ({server_label}): slow-shard brown-out, "
            "2 replicas/shard",
            ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]",
             "retries", "hedges", "failed"], rows))
    return ExhibitResult("fault_tail",
                         "Tail latency under a slow-shard fault",
                         "\n\n".join(sections), data)


def hedging(quick: bool = True, seed: int = 42,
            jobs: Optional[int] = 1) -> ExhibitResult:
    """Hedging-policy sweep on DoubleFaceNetty under the slow-shard
    fault: no hedge, fixed hedge delays, and the adaptive p95 hedge,
    all on top of the same deadline+retry safety net."""
    policies = (
        ("no-hedge", ResilienceConfig(**_FAULT_RETRY)),
        ("hedge-2ms", ResilienceConfig(hedge_delay=2e-3, **_FAULT_RETRY)),
        ("hedge-4ms", ResilienceConfig(hedge_delay=4e-3, **_FAULT_RETRY)),
        ("hedge-p95", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50, **_FAULT_RETRY)),
    )
    points: List[Tuple[Any, ExperimentConfig]] = [
        (label, _fault_point("doubleface", policy, quick, seed))
        for label, policy in policies]
    data: Dict[str, Dict[str, float]] = {}
    for label, result in _run_points(points, jobs):
        data[label] = _fault_summary(result)
    rows = [[label,
             round(1e3 * data[label]["p50"], 2),
             round(1e3 * data[label]["p99"], 2),
             round(data[label]["throughput"]),
             round(data[label]["hedges"]),
             round(data[label]["hedge_wins"]),
             round(data[label]["retries"])]
            for label, _policy in policies]
    text = render_table(
        "Hedging policies (DoubleFaceNetty, slow-shard brown-out)",
        ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]", "hedges",
         "hedge wins", "retries"], rows)
    return ExhibitResult("hedging", "Hedged-request policy sweep", text,
                         data)


#: The correlated fault the open-workload exhibit injects: one of two
#: racks flips through short rack-wide brown-out windows (~50% duty,
#: 150 ms mean) where every replica it hosts serves 100x slower.  Under
#: the round-robin rack placement a 2-replica shard always spans both
#: racks, so for every shard exactly one replica stays healthy —
#: routing policy, not luck, decides whether the driver finds it.
FAULT_RACK = FaultConfig(
    rack_slow_racks=1, rack_slow_factor=100.0,
    rack_slow_mean_on=0.15, rack_slow_mean_off=0.15)

#: Racks / replicas the open-workload fault exhibit builds.
FAULT_OPEN_RACKS = 2

#: All five architectures face the rack fault.
FAULT_OPEN_SERVERS = (("DoubleFaceNetty", "doubleface"),
                      ("NettyBackend", "netty"),
                      ("AIOBackend", "aio"),
                      ("Type1Async", "type1"),
                      ("ThreadBased", "threadbased"))


def fault_open(quick: bool = True, seed: int = 42,
               jobs: Optional[int] = 1) -> ExhibitResult:
    """Open (RUBBoS-style Poisson) workload under a rack-wide fault.

    Every architecture runs three driver policies under
    :data:`FAULT_RACK` with two replicas per shard spanning two racks:

    - ``primary`` — primary-only routing, no resilience (the seed
      repo's behaviour);
    - ``primary+retry`` — primary-only routing with deadline+retry
      failover;
    - ``replica+hedge`` — least-outstanding replica routing plus the
      adaptive p95 hedge on top of the same retry budget.

    The headline the benchmark suite pins: ``replica+hedge`` beats
    ``primary`` on p99 by a fixed margin on every architecture, because
    least-outstanding routing drains load away from the browned-out
    rack *before* the deadline machinery has to fire.
    """
    policies = (
        ("primary", "primary", None),
        ("primary+retry", "primary", ResilienceConfig(**_FAULT_RETRY)),
        ("replica+hedge", "least_outstanding", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50, **_FAULT_RETRY)),
    )
    points: List[Tuple[Any, ExperimentConfig]] = [
        ((server_label, policy_label), ExperimentConfig(
            server=kind, workload="open", users=150, think_time=1.0,
            fanout=5, response_size=100,
            warmup=0.5, duration=1.5 if quick else 6.0, seed=seed,
            faults=FAULT_RACK, resilience=resilience,
            replicas_per_shard=2, racks=FAULT_OPEN_RACKS,
            replica_policy=replica_policy, keep_selector_stats=False))
        for server_label, kind in FAULT_OPEN_SERVERS
        for policy_label, replica_policy, resilience in policies]
    data: Dict[str, Dict[str, Dict[str, float]]] = {
        server_label: {} for server_label, _kind in FAULT_OPEN_SERVERS}
    for (server_label, policy_label), result in _run_points(points, jobs):
        summary = _fault_summary(result)
        summary["rack_slowed"] = result.fault_counters.get(
            "faults.rack_slowed_queries", 0.0)
        data[server_label][policy_label] = summary
    policy_labels = [label for label, _rp, _res in policies]
    sections = []
    for server_label, _kind in FAULT_OPEN_SERVERS:
        rows = [[label,
                 round(1e3 * data[server_label][label]["p50"], 2),
                 round(1e3 * data[server_label][label]["p99"], 2),
                 round(data[server_label][label]["throughput"]),
                 round(data[server_label][label]["rack_slowed"]),
                 round(data[server_label][label]["hedges"]),
                 round(data[server_label][label]["failovers"])]
                for label in policy_labels]
        sections.append(render_table(
            f"Rack fault, open workload ({server_label}): "
            "2 replicas/shard over 2 racks",
            ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]",
             "slowed", "hedges", "failovers"], rows))
    return ExhibitResult("fault_open",
                         "Open-workload tail latency under a rack fault",
                         "\n\n".join(sections), data)


# ---------------------------------------------------------------------------
# EWMA replica routing — latency-aware vs queue-aware under RTT asymmetry
# ---------------------------------------------------------------------------

def ewma_route(quick: bool = True, seed: int = 42,
               jobs: Optional[int] = 1) -> ExhibitResult:
    """Latency-aware (EWMA) replica routing vs least-outstanding under
    cross-rack RTT asymmetry, with span tracing attributing the gap.

    Two replicas per shard span two racks; round-robin placement puts
    exactly one replica of every shard in the app server's rack, the
    other across the spine (+0.5 ms each way).  ``least_outstanding``
    balances in-flight *counts* and so keeps paying the spine tax on
    half its sends; ``ewma`` learns each shard's near replica from the
    observed response latency and routes there.  Every point runs
    traced, so the critical-path breakdown shows the difference landing
    exactly in the ``network`` category.
    """
    duration = 1.5 if quick else 6.0
    policies = ("primary", "least_outstanding", "ewma")
    points: List[Tuple[Any, ExperimentConfig]] = [
        (policy, ExperimentConfig(
            server="doubleface", concurrency=20, fanout=5,
            response_size=100, warmup=0.5, duration=duration, seed=seed,
            replicas_per_shard=2, racks=2, replica_policy=policy,
            cross_rack_extra_latency=0.5e-3,
            trace=True, trace_sample=0.25, trace_exemplars=3,
            keep_selector_stats=False, label=policy))
        for policy in policies]
    data: Dict[str, Any] = {}
    summaries: Dict[str, Any] = {}
    for label, result in _run_points(points, jobs):
        data[label] = {
            "p50": result.percentiles[50.0],
            "p99": result.percentiles[99.0],
            "mean_rt": result.mean_rt,
            "throughput": result.throughput,
        }
        summaries[label] = result.trace_summary
    rows = [[label,
             round(1e3 * data[label]["p50"], 3),
             round(1e3 * data[label]["p99"], 3),
             round(data[label]["throughput"])]
            for label in policies]
    text = render_table(
        "EWMA routing: cross-rack asymmetry (2 replicas over 2 racks, "
        "+0.5ms spine)",
        ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]"], rows)
    text += "\n\n" + render_breakdown(
        "EWMA routing: critical-path breakdown (mean per request)",
        summaries)
    return ExhibitResult("ewma_route", "Latency-aware replica routing",
                         text, {**data, "trace_summaries": summaries})


# ---------------------------------------------------------------------------
# Attribution hedging — per-shard learned hedge delays vs one global window
# ---------------------------------------------------------------------------

def adaptive_hedge(quick: bool = True, seed: int = 42,
                   jobs: Optional[int] = 1) -> ExhibitResult:
    """Per-shard attribution hedging vs the global-percentile hedge
    under a slow-shard brown-out on a heterogeneous topology.

    Two replicas per shard span two racks with a +0.5 ms spine tax
    (``cross_rack_extra_latency``), so half the shards' primary attempts
    are structurally slower than the other half's — on top of
    :data:`FAULT_SLOW_SHARDS` browning out two shards at 100x.  The
    global p95 window has to pick one delay for both shard populations;
    ``hedge_policy="attribution"`` keeps a per-(shard, replica)
    attempt-latency digest and hedges each shard at its *own* p95.
    Every point runs traced, so the live critical-path breakdown trims
    the network + selector-wait share off the learned delays, and the
    exhibit prints what each policy converged to per shard.

    The headline ``benchmarks/bench_fault_tail.py --check`` pins:
    attribution's p99 rescue over retry-only is at least the global
    policy's.
    """
    policies = (
        ("retry-only", ResilienceConfig(**_FAULT_RETRY)),
        ("global-p95", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50, **_FAULT_RETRY)),
        ("attribution", ResilienceConfig(
            hedge_percentile=95.0, hedge_min_samples=50,
            hedge_policy="attribution", **_FAULT_RETRY)),
    )
    points: List[Tuple[Any, ExperimentConfig]] = [
        (label, _fault_point(
            "doubleface", policy, quick, seed,
            racks=2, cross_rack_extra_latency=0.5e-3,
            trace=True, trace_sample=0.25, trace_exemplars=3,
            label=label))
        for label, policy in policies]
    data: Dict[str, Any] = {}
    summaries: Dict[str, Any] = {}
    delays: Dict[str, Dict[int, float]] = {}
    for label, result in _run_points(points, jobs):
        summary = _fault_summary(result)
        summary["hedge_clamped"] = result.fault_counters.get(
            "resilience.hedge_clamped", 0.0)
        data[label] = summary
        summaries[label] = result.trace_summary
        delays[label] = result.hedge_delays
    labels = [label for label, _policy in policies]
    rows = [[label,
             round(1e3 * data[label]["p50"], 2),
             round(1e3 * data[label]["p99"], 2),
             round(data[label]["throughput"]),
             round(data[label]["hedges"]),
             round(data[label]["hedge_wins"]),
             round(data[label]["hedge_clamped"])]
            for label in labels]
    text = render_table(
        "Adaptive hedging (DoubleFaceNetty): slow-shard brown-out + "
        "cross-rack asymmetry",
        ["policy", "p50 [ms]", "p99 [ms]", "tput [req/s]", "hedges",
         "hedge wins", "clamped"], rows)
    text += "\n\n" + render_breakdown(
        "Adaptive hedging: critical-path breakdown (mean per request)",
        summaries, hedge_delays=delays)
    return ExhibitResult(
        "adaptive_hedge", "Attribution-driven per-shard hedge delays",
        text, {**data, "trace_summaries": summaries,
               "hedge_delays": delays})


#: Registry used by the CLI and the benchmark suite.
EXHIBITS: Dict[str, Callable[..., ExhibitResult]] = {
    "fig04": fig04, "fig05": fig05, "fig07": fig07, "fig09": fig09,
    "fig13": fig13, "fig14": fig14, "fig15": fig15, "fig16": fig16,
    "fig17": fig17, "tab1": tab1, "tab2": tab2, "tab3": tab3,
    "fault_tail": fault_tail, "hedging": hedging, "fault_open": fault_open,
    "ewma_route": ewma_route, "adaptive_hedge": adaptive_hedge,
}


def run_exhibit(name: str, quick: bool = True, seed: int = 42,
                jobs: Optional[int] = 1,
                trace: bool = False, trace_sample: float = 0.01,
                trace_exemplars: int = 3,
                obs: bool = False,
                obs_period: float = DEFAULT_OBS_PERIOD) -> ExhibitResult:
    """Run one exhibit by name (``fig04`` ... ``tab3``).

    ``jobs`` is forwarded to the parallel runner: 1 = serial (default),
    N = fan the exhibit's experiment points over N worker processes,
    0/None = one worker per CPU.  Results are identical for any
    ``jobs``.

    ``trace=True`` runs every point with span tracing at
    ``trace_sample`` probability: the exhibit's measured numbers are
    unchanged (tracing is observation-only), critical-path breakdown
    and flame tables are appended to the text, and the per-point
    summaries / flame aggregations / phase windows land in
    ``result.data["trace_summaries"]`` / ``["flames"]`` /
    ``["trace_phases"]`` (feed them to
    :func:`repro.trace.write_chrome_trace` /
    :func:`repro.trace.write_flame` for timelines and flame graphs).

    ``obs=True`` runs every point with the telemetry ticker sampling
    gauges each ``obs_period`` simulated seconds (also
    observation-only); per-point Prometheus snapshots land in
    ``result.data["prometheus"]``.
    """
    global _TRACE, _OBS
    if name not in EXHIBITS:
        raise KeyError(f"unknown exhibit {name!r}; choose from "
                       f"{sorted(EXHIBITS)}")
    previous_trace = _TRACE
    previous_obs = _OBS
    if trace:
        _TRACE = {"sample": trace_sample, "exemplars": trace_exemplars,
                  "summaries": {}, "flames": {}, "phases": {}}
    if obs:
        _OBS = {"period": obs_period, "snapshots": {}}
    try:
        result = EXHIBITS[name](quick=quick, seed=seed, jobs=jobs)
        if trace and _TRACE["summaries"]:
            result.data.setdefault("trace_summaries", _TRACE["summaries"])
            result.text += "\n\n" + render_breakdown(
                f"{name}: critical-path breakdown (mean per request, "
                f"{100 * trace_sample:g}% sampled)",
                _TRACE["summaries"])
        if trace and _TRACE["flames"]:
            result.data.setdefault("flames", _TRACE["flames"])
            result.data.setdefault("trace_phases", _TRACE["phases"])
            result.text += "\n\n" + render_flame(
                f"{name}: heaviest flame paths (self time, "
                f"{100 * trace_sample:g}% sampled)",
                _TRACE["flames"])
        if obs and _OBS["snapshots"]:
            result.data.setdefault("prometheus", _OBS["snapshots"])
        return result
    finally:
        _TRACE = previous_trace
        _OBS = previous_obs


#: Rough relative wall-clock cost of each exhibit (quick mode).  Used
#: only to start the expensive exhibits first so their long tail-window
#: points enter the shared queue early; correctness never depends on it.
_EXHIBIT_COST: Dict[str, int] = {
    "fig15": 100, "fig16": 60, "fig17": 60, "fig14": 40, "fig05": 30,
    "fig13": 20, "fig04": 15, "fig09": 10, "fig07": 8,
    "fault_tail": 6, "hedging": 4, "fault_open": 8, "ewma_route": 4,
    "adaptive_hedge": 4,
    "tab1": 5, "tab2": 4, "tab3": 4,
}


def run_exhibits(names: Iterable[str], quick: bool = True, seed: int = 42,
                 jobs: Optional[int] = 1,
                 trace: bool = False, trace_sample: float = 0.01,
                 trace_exemplars: int = 3,
                 obs: bool = False,
                 obs_period: float = DEFAULT_OBS_PERIOD
                 ) -> Dict[str, ExhibitResult]:
    """Run several exhibits, interleaving their points over one pool.

    With ``jobs > 1`` (or 0/None = per-CPU) every exhibit runs on its
    own submitter thread and all their (exhibit, key, config) points
    feed a single shared :class:`BatchExecutor`.  The 15 s
    tail-window points of fig15-17 overlap with the cheap table grids
    instead of each exhibit draining the pool in turn.  ``jobs=1``
    falls back to running the exhibits serially in-process.  Either
    way each exhibit's result is identical to a standalone
    :func:`run_exhibit` call with the same ``quick``/``seed``.
    """
    global _BATCH_RUNNER
    names = list(names)
    for name in names:
        if name not in EXHIBITS:
            raise ValueError(f"unknown exhibit {name!r}; choose from "
                             f"{sorted(EXHIBITS)}")
    if trace or obs or resolve_jobs(jobs) <= 1 or len(names) <= 1:
        # Traced/observed runs stay serial per exhibit: the
        # summary/snapshot-collection globals are per-exhibit state
        # that must not interleave across submitter threads (each
        # exhibit still fans its own points over ``jobs`` workers).
        return {name: run_exhibit(name, quick=quick, seed=seed, jobs=jobs,
                                  trace=trace,
                                  trace_sample=trace_sample,
                                  trace_exemplars=trace_exemplars,
                                  obs=obs, obs_period=obs_period)
                for name in names}
    results: Dict[str, ExhibitResult] = {}
    errors: Dict[str, BaseException] = {}

    def submit(name: str) -> None:
        try:
            results[name] = EXHIBITS[name](quick=quick, seed=seed, jobs=1)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors[name] = exc

    heavy_first = sorted(names, key=lambda n: -_EXHIBIT_COST.get(n, 1))
    with BatchExecutor(jobs) as executor:
        _BATCH_RUNNER = executor.run
        try:
            threads = [threading.Thread(target=submit, args=(name,),
                                        name=f"exhibit-{name}")
                       for name in heavy_first]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            _BATCH_RUNNER = None
    if errors:
        name = sorted(errors)[0]
        raise RuntimeError(f"exhibit {name!r} failed") from errors[name]
    return {name: results[name] for name in names}
