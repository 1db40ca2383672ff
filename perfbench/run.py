#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fanout-query simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed_fanout --seed 42 \\
        --seconds 30 --trace 0

A *round* runs every point of the workload once (``perfbench/
workloads.py``).  The run repeats rounds for ``--seconds`` and reports
medians over rounds.  The program in ``src/`` is driven only through
``run_experiment`` and ``run_experiments(..., jobs=)``.

``--trace 0`` prints the end-to-end host-time metrics: set-up, wall
and CPU seconds per round, simulated requests per host second and peak
memory.  The host times are scaled to a reference host speed measured
by calibration passes interleaved with the work (``run_round``); the
medians as measured are printed beside them.  ``--trace 1`` prints the
per-layer metrics: exact work counters, parallel/transport timers
taken from one untraced round, and host self time and calls per layer
from traced rounds, where a ``cProfile`` hook folds every function by
its source module.

Every point is checked (``measure.check_result``) and digested; the
digests must repeat across rounds and traced runs, and at the default
seed must match ``perfbench/reference.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Every process the run starts is stopped and reaped before it exits:
set-up probes run in a process group of their own that must be empty
before the next starts, and the run, probe or not, stops
``multiprocessing``'s resource tracker, which the standard library
would otherwise leave to outlive it.

Worker processes started by ``run_experiments`` import this file as
``__mp_main__`` (spawn start method); when the parent has set
``PERFBENCH_CHILD_DIR`` they install the same event tally (and, with
``PERFBENCH_CHILD_PROFILE=1``, the profiler) and leave their figures
in that directory for the parent to collect.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import marshal
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 42
#: Set-up probes per run (fresh interpreters); the median is reported.
SETUP_PROBES = 7
#: Untraced rounds a ``--trace 0`` run makes even past its deadline.
MIN_ROUNDS = 3
#: Range the profiled self times, summed over every layer, must cover
#: of the profiled wall time (parent rounds plus worker lifetimes).
ACCOUNTED = (0.9, 1.02)

CHILD_DIR_ENV = "PERFBENCH_CHILD_DIR"
CHILD_PROFILE_ENV = "PERFBENCH_CHILD_PROFILE"

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import measure  # noqa: E402  (pure helpers, no program import)


def import_program() -> None:
    """Put ``src/`` on the path and import the program, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.experiments  # noqa: F401


# -- instrumentation ------------------------------------------------------------

class Tally:
    """Counts events dispatched by wrapping ``Simulator.run`` and
    reading the simulator's own tally around each call.

    In a worker process (*out_dir* set) every ``run`` exit rewrites the
    worker's figures, and with *profile* its cumulative profile, into
    *out_dir* for the parent to read.
    """

    def __init__(self, out_dir: Optional[str] = None,
                 profile: Optional[cProfile.Profile] = None) -> None:
        self.events = 0
        self.first: Optional[float] = None
        self.out_dir = out_dir
        self.profile = profile
        self.started = time.time()

    def install(self) -> None:
        from repro.sim.kernel import Simulator
        original = Simulator.run
        tally = self

        def run(sim, until=None):
            if tally.first is None:
                tally.first = time.time()
            before = sim._event_count
            try:
                return original(sim, until)
            finally:
                tally.events += sim._event_count - before
                if tally.out_dir is not None:
                    tally.flush()

        Simulator.run = run

    def flush(self) -> None:
        base = os.path.join(self.out_dir, str(os.getpid()))
        if self.profile is not None:
            self.profile.create_stats()
            with open(base + ".prof.tmp", "wb") as fh:
                marshal.dump(self.profile.stats, fh)
            os.replace(base + ".prof.tmp", base + ".prof")
        record = {"events": self.events, "first": self.first,
                  "started": self.started, "flushed": time.time()}
        with open(base + ".json.tmp", "w") as fh:
            json.dump(record, fh)
        os.replace(base + ".json.tmp", base + ".json")
        if self.profile is not None:
            self.profile.enable()


def read_children(out_dir: str) -> Tuple[int, Optional[float], Dict, float]:
    """Sum the worker figures left in *out_dir*: events, earliest first
    simulated event, merged profile stats and profiled seconds."""
    events, first, stats, span = 0, None, {}, 0.0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path) as fh:
                record = json.load(fh)
            events += record["events"]
            if record["first"] is not None:
                first = (record["first"] if first is None
                         else min(first, record["first"]))
            span += record["flushed"] - record["started"]
        elif name.endswith(".prof"):
            with open(path, "rb") as fh:
                measure.merge_stats(stats, marshal.load(fh))
    return events, first, stats, span


class DecodeTimer:
    """Parent-side time spent rebuilding worker results, by wrapping
    the transport decoder the parallel runner calls.  ``available`` is
    False when the program has no such transport."""

    def __init__(self) -> None:
        self.seconds = 0.0
        from repro.experiments import parallel
        decode = getattr(parallel, "decode_result", None)
        self.available = decode is not None
        if decode is None:
            return
        timer = self

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return decode(*args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - t0

        parallel.decode_result = timed


def _child_hooks() -> None:
    """Worker-process side of the instrumentation (see module doc)."""
    import_program()
    profile = None
    if os.environ.get(CHILD_PROFILE_ENV) == "1":
        profile = cProfile.Profile()
    Tally(os.environ[CHILD_DIR_ENV], profile).install()
    if profile is not None:
        profile.enable()


if __name__ == "__mp_main__" and os.environ.get(CHILD_DIR_ENV):
    _child_hooks()


# -- rounds ---------------------------------------------------------------------------

class Round:
    """One pass over every point of a workload, with its host costs:
    ``wall`` and ``cpu`` as measured, per block in ``blocks``, and the
    calibration ``passes`` before the first block and after each;
    ``ref_wall`` and ``ref_cpu`` are filled in by ``scale_rounds``."""

    def __init__(self) -> None:
        self.results: List[Any] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.blocks: List[Tuple[float, float]] = []
        self.passes: List[float] = []
        self.ref_wall = 0.0
        self.ref_cpu = 0.0
        self.children_cpu = 0.0
        self.decode = 0.0
        self.events = 0
        self.child_stats: Dict = {}
        self.child_span = 0.0
        self.errors: List[str] = []


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_points(configs, jobs: int, rnd: Round) -> None:
    from repro.experiments import run_experiment, run_experiments
    if jobs == 1:
        for config in configs:
            try:
                rnd.results.append(run_experiment(config))
            except Exception as exc:  # a failed point is counted, not fatal
                rnd.results.append(None)
                rnd.errors.append(f"{config.label}: {exc!r}")
    else:
        try:
            rnd.results.extend(run_experiments(configs, jobs=jobs))
        except Exception as exc:  # the whole grid failed
            rnd.results.extend([None] * len(configs))
            rnd.errors.append(f"grid: {exc!r}")


def run_round(workload, tally: Tally, decode: DecodeTimer, work_dir: str,
              profile: Optional[cProfile.Profile] = None) -> Round:
    """Run every point once, in blocks: one point per block for a serial
    workload, the whole grid for a pooled one.

    The host's speed drifts by up to 2x over minutes, so an untraced
    round runs a calibration pass (``measure.calibration_pass``) before
    the first block and after each; ``scale_rounds`` turns them into
    per-block factors.  Traced rounds do not calibrate.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.environ[CHILD_DIR_ENV] = work_dir
    os.environ[CHILD_PROFILE_ENV] = "1" if profile is not None else "0"
    rnd = Round()
    tally.events = 0
    decode.seconds = 0.0
    blocks = ([[config] for config in workload.configs]
              if workload.jobs == 1 else [workload.configs])
    calibrate = profile is None
    if calibrate:
        rnd.passes.append(measure.calibration_pass())
    for block in blocks:
        self0 = _cpu(resource.RUSAGE_SELF)
        child0 = _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            run_points(block, workload.jobs, rnd)
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - t0
        children = _cpu(resource.RUSAGE_CHILDREN) - child0
        cpu = _cpu(resource.RUSAGE_SELF) - self0 + children
        if calibrate:
            rnd.passes.append(measure.calibration_pass())
        rnd.blocks.append((wall, cpu))
        rnd.wall += wall
        rnd.cpu += cpu
        rnd.children_cpu += children
    rnd.decode = decode.seconds
    events, _first, rnd.child_stats, rnd.child_span = read_children(work_dir)
    rnd.events = tally.events + events
    return rnd


def scale_rounds(rounds: List[Round]) -> None:
    """Fill ``ref_wall`` and ``ref_cpu`` of calibrated *rounds*, run back
    to back: every block is scaled by the passes nearest it in time
    (``measure.block_scales``), across round boundaries."""
    passes: List[float] = []
    after: List[int] = []
    owners: List[Tuple[Round, float, float]] = []
    for rnd in rounds:
        passes.append(rnd.passes[0])
        for (wall, cpu), later in zip(rnd.blocks, rnd.passes[1:]):
            passes.append(later)
            after.append(len(passes) - 1)
            owners.append((rnd, wall, cpu))
    for (rnd, wall, cpu), scale in zip(owners,
                                       measure.block_scales(passes, after)):
        rnd.ref_wall += wall * scale
        rnd.ref_cpu += cpu * scale
    print("calibration passes " + " ".join(f"{p:.4f}" for p in passes))
    print("block walls " + " ".join(f"{w:.4f}" for _r, w, _c in owners))


def check_round(rnd: Round) -> Tuple[List[str], List[bool]]:
    """Point digests and per-point pass/fail for one round."""
    digests, ok = [], []
    for result in rnd.results:
        if result is None:
            digests.append("failed")
            ok.append(False)
            continue
        errors = measure.check_result(result)
        for error in errors:
            rnd.errors.append(f"{result.config.label}: {error}")
        digests.append(measure.result_digest(result))
        ok.append(not errors)
    return digests, ok


# -- metrics --------------------------------------------------------------------------

def counters(rnd: Round) -> Dict[str, Tuple[float, str]]:
    """Exact work counters of one untraced round."""
    results = [r for r in rnd.results if r is not None]
    completed = sum(r.completed for r in results)
    selects = sum(s["selects"] for r in results for s in r.selector_stats)
    select_events = sum(s["events"] for r in results
                        for s in r.selector_stats)
    fc = [r.fault_counters for r in results]
    retries = sum(c.get("resilience.retries", 0.0) for c in fc)
    hedges = sum(c.get("resilience.hedges", 0.0) for c in fc)
    wins = sum(c.get("resilience.retry_wins", 0.0)
               + c.get("resilience.hedge_wins", 0.0) for c in fc)
    out = {
        "sim.kernel.events": (rnd.events, "count"),
        "sim.kernel.events_per_req": (
            rnd.events / completed if completed else 0.0, "events/req"),
        "sim.cpu.ctx_switches": (
            sum(round(r.ctx_switches_per_sec * r.window) for r in results),
            "count"),
        "sim.cpu.runnable_avg": (
            sum(r.avg_running_threads for r in results) / len(results)
            if results else 0.0, "threads"),
        "sim.syscalls.selects": (selects, "count"),
        "sim.syscalls.events_per_select": (
            select_events / selects if selects else 0.0, "events/select"),
        "sim.metrics.latency_samples": (
            sum(len(r.latency_values) for r in results), "count"),
        "sim.metrics.p99_tail_samples": (
            sum(measure.tail_samples(r) for r in results), "count"),
        "faults.retries": (retries, "count"),
        "faults.hedges": (hedges, "count"),
        "faults.useful_ratio": (
            wins / (retries + hedges) if retries + hedges else 0.0, "ratio"),
        "faults.failed_subqueries": (
            sum(c.get("resilience.failed_subqueries", 0.0) for c in fc),
            "count"),
    }
    return out


def pool_metrics(rnd: Round, jobs: int,
                 decode: DecodeTimer) -> Dict[str, Tuple[float, str]]:
    """Worker-pool and transport costs of one round, seen from the
    parent (zero for serial workloads, which start no pool)."""
    efficiency = idle = 0.0
    if jobs > 1:
        efficiency = rnd.children_cpu / (jobs * rnd.wall)
        idle = jobs * rnd.wall - rnd.children_cpu
    if not decode.available:
        print("experiments.transport.decode_s: absent "
              "(the program has no result transport)")
    return {"experiments.parallel.efficiency": (efficiency, "ratio"),
            "experiments.parallel.idle_s": (idle, "s"),
            "experiments.transport.decode_s": (rnd.decode, "s")}


# -- set-up probes -------------------------------------------------------------------

def probe_setup(workload) -> None:
    """Probe side: build the workload and run it shrunk until the first
    simulated event; print the wall-clock time of that event."""
    import workloads
    from repro.experiments import run_experiment, run_experiments
    tally = Tally()
    tally.install()
    small = workloads.shrunk(workload)
    if workload.jobs == 1:
        run_experiment(small.configs[0])
        first = tally.first
    else:
        work_dir = os.path.join(WORK_ROOT, f"probe-{os.getpid()}")
        os.makedirs(work_dir)
        os.environ[CHILD_DIR_ENV] = work_dir
        try:
            run_experiments(small.configs, jobs=small.jobs)
            first = read_children(work_dir)[1]
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"first": first}))


def setup_seconds(args) -> Tuple[List[float], List[float]]:
    """Host seconds from launching a fresh interpreter to its first
    simulated event, once per probe: as measured, and scaled to the
    reference speed by the calibration passes around the probes."""
    raw, ref = [], []
    env = {k: v for k, v in os.environ.items()
           if k not in (CHILD_DIR_ENV, CHILD_PROFILE_ENV)}
    passes = [measure.calibration_pass()]
    for _ in range(SETUP_PROBES):
        launched = time.time()
        code, stdout, stderr = run_isolated(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--jobs",
             str(args.jobs), "--setup-probe"], env, timeout=120)
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr}")
        first = json.loads(stdout.strip().splitlines()[-1])["first"]
        raw.append(first - launched)
        passes.append(measure.calibration_pass())
    scales = measure.block_scales(passes, range(1, len(passes)))
    return raw, [r * scale for r, scale in zip(raw, scales)]


# -- process hygiene -----------------------------------------------------------------

def run_isolated(cmd: List[str], env: Dict[str, str],
                 timeout: float) -> Tuple[int, str, str]:
    """Run *cmd* in a new process group and wait for it; whatever it
    leaves in the group is killed, and on every path out the group must
    be empty before this returns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            _kill_group(proc.pid)
            proc.communicate()
        _drain_group(proc.pid)
    return proc.returncode, stdout, stderr


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _drain_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until process group *pgid* is empty, killing what is left
    after a short wait; raise if it is still not empty after *grace*."""
    start = time.monotonic()
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        waited = time.monotonic() - start
        if waited > grace:
            raise RuntimeError(f"processes of group {pgid} did not end")
        if not killed and waited > 1.0:
            _kill_group(pgid)
            killed = True
        time.sleep(0.01)


def stop_children() -> None:
    """Stop and reap every process this one started: any pool worker
    still alive, then ``multiprocessing``'s resource tracker."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closes the tracker's pipe, which ends it, and reaps it.
    resource_tracker._resource_tracker._stop()


# -- the run -------------------------------------------------------------------------

def declared_metrics(section: str) -> List[Tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares in *section*."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def load_reference(workload: str) -> Dict[str, Any]:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


class Run:
    """Bookkeeping shared by both modes: attempts, failures, and the
    figures every round must repeat exactly (point digests and events
    dispatched), which at the default seed are also the reference's."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Optional[List[str]] = None
        self.last_digests: List[str] = []
        self.last_events = 0
        self.events: Optional[int] = None
        if seed == DEFAULT_SEED:
            reference = load_reference(workload.name)
            self.digests = reference["points"]
            self.events = reference["events"]

    def account(self, rnd: Round) -> None:
        """Count *rnd*'s points; a point fails on a broken invariant or
        on a digest that differs from the expected one."""
        digests, ok = check_round(rnd)
        if self.digests is None:
            self.digests = digests
        if self.events is None:
            self.events = rnd.events
        if len(self.digests) != len(digests):
            self.failed += 1
            rnd.errors.append("reference lists another number of points")
        if rnd.events != self.events:
            self.failed += 1
            rnd.errors.append(f"{rnd.events} events dispatched, "
                              f"expected {self.events}")
        for config, digest, good, want in zip(self.workload.configs,
                                              digests, ok, self.digests):
            if digest != want:
                good = False
                rnd.errors.append(f"{config.label}: digest {digest}, "
                                  f"expected {want}")
            self.attempted += 1
            self.failed += not good
        self.errors.extend(rnd.errors)
        self.last_digests = digests
        self.last_events = rnd.events


def timed_run(args, workload) -> Tuple[Run, Dict[str, Tuple[float, str]]]:
    run = Run(workload, args.seed)
    tally = Tally()
    tally.install()
    decode = DecodeTimer()
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    rounds: List[Round] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        rnd = run_round(workload, tally, decode, work_dir)
        run.account(rnd)
        rounds.append(rnd)
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and deadline - now < now - t0:
            break
    scale_rounds(rounds)
    completed = [sum(r.completed for r in rnd.results if r is not None)
                 for rnd in rounds]
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    raw_setups, setups = setup_seconds(args)
    print(f"rounds {len(rounds)}: wall " + " ".join(
        f"{r.wall:.3f}" for r in rounds) + " ref " + " ".join(
        f"{r.ref_wall:.3f}" for r in rounds))
    print("setup " + " ".join(f"{s:.3f}" for s in raw_setups) + " ref "
          + " ".join(f"{s:.3f}" for s in setups))
    print(f"measured medians: wall {measure.median(r.wall for r in rounds):.4f}"
          f" s, cpu {measure.median(r.cpu for r in rounds):.4f} s, setup "
          f"{measure.median(raw_setups):.4f} s")
    metrics = {
        "setup_s": (measure.median(setups), "s"),
        "wall_s": (measure.median(r.ref_wall for r in rounds), "s"),
        "sim_req_per_s": (measure.median(
            c / r.ref_wall for c, r in zip(completed, rounds)), "req/s"),
        "cpu_s": (measure.median(r.ref_cpu for r in rounds), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return run, metrics


def traced_run(args, workload) -> Tuple[Run, Dict[str, Tuple[float, str]]]:
    """One untraced round for the exact counters and pool timers, then
    profiled rounds for per-layer self time; the profiled rounds must
    reproduce the untraced round's digests and event count."""
    run = Run(workload, args.seed)
    tally = Tally()
    tally.install()
    decode = DecodeTimer()
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    deadline = time.perf_counter() + args.seconds
    base = run_round(workload, tally, decode, work_dir)
    run.account(base)
    metrics = counters(base)
    metrics.update(pool_metrics(base, workload.jobs, decode))

    profile = cProfile.Profile()
    traced: List[Round] = []
    stats: Dict = {}
    span = 0.0
    while True:
        rnd = run_round(workload, tally, decode, work_dir, profile)
        run.account(rnd)
        traced.append(rnd)
        measure.merge_stats(stats, rnd.child_stats)
        span += rnd.wall + rnd.child_span
        if deadline - time.perf_counter() < rnd.wall:
            break
    profile.create_stats()
    measure.merge_stats(stats, profile.stats)
    folded = measure.fold_profile(stats)
    n = len(traced)
    for layer in measure.LAYERS:
        self_s, calls = folded[layer]
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
        metrics[f"{layer}.calls"] = (calls / n, "count")
    accounted = sum(s for s, _c in folded.values()) / span
    traced_wall = measure.median(r.wall for r in traced)
    metrics["profile.wall_s"] = (traced_wall, "s")
    metrics["profile.overhead_x"] = (traced_wall / base.wall, "x")
    metrics["profile.accounted_frac"] = (accounted, "ratio")
    if not ACCOUNTED[0] <= accounted <= ACCOUNTED[1]:
        run.failed += 1
        run.errors.append(f"layer self times account for {accounted:.3f} "
                          "of the profiled wall time")
    print(f"untraced round {base.wall:.3f} s; traced rounds "
          + " ".join(f"{r.wall:.3f}" for r in traced))
    return run, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_fanout", "open_tail",
                                 "fault_parallel"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="override the workload's worker count "
                             "(0 = the workload's own)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    workload = workloads.build(args.workload, args.seed, args.jobs)
    args.jobs = workload.jobs
    try:
        if args.setup_probe:
            probe_setup(workload)
            return 0
        if args.trace:
            run, metrics = traced_run(args, workload)
        else:
            run, metrics = timed_run(args, workload)
    finally:
        stop_children()
        shutil.rmtree(os.path.join(WORK_ROOT, str(os.getpid())),
                      ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    section = "per_layer" if args.trace else "end_to_end"
    if [(name, unit) for name, (_v, unit) in metrics.items()] != \
            declared_metrics(section):
        run.errors.append(f"printed metrics differ from BENCHMARK.json's "
                          f"{section} list")
    for error in run.errors[:20]:
        print(f"FAIL {error}")
    print(f"digest {workload.name} seed {args.seed} events {run.last_events} "
          f"{measure.workload_digest(run.last_digests)} points "
          + " ".join(run.last_digests))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    # fail_frac is reported here and as failed/attempted in the result
    # line: BENCHMARK.json takes no metric that reads 0 on a good run.
    print(f"{'fail_frac':40s} {run.failed / max(run.attempted, 1):>16.6g} "
          "ratio")
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
