"""Parallel experiment execution over a multiprocessing worker pool.

Every paper exhibit sweeps many independent (architecture x
concurrency/fanout x seed) points; each point is a self-contained
deterministic simulation, so the sweep is embarrassingly parallel.
:func:`run_experiments` fans a list of :class:`ExperimentConfig`\\ s out
over a spawn-context ``multiprocessing.Pool`` and returns the results
**in submission order** — the merge is keyed by the config's position,
never by completion time, so parallel runs are byte-identical to serial
ones for the same configs and seeds.

Design notes:

- **spawn, not fork.**  Workers are started with the ``spawn`` start
  method so each child imports ``repro`` fresh; no module-level state
  (RNG singletons, metrics caches) leaks from the parent, which is what
  makes ``--jobs N`` results provably equal to ``--jobs 1``.
- **chunked dispatch.**  Configs are submitted in chunks (a few chunks
  per worker) so cheap points amortise IPC without one slow chunk
  serialising the tail.
- **heaviest points first.**  Within a batch, configs are dispatched in
  descending estimated cost (simulated seconds x load) so a grid's
  expensive corner (conc=256, long windows) starts immediately instead
  of landing on an almost-drained pool; results are re-ordered back to
  submission order before returning, so callers never see the shuffle.
- **explicit pickle protocol.**  Results cross the process boundary
  pre-pickled with ``pickle.HIGHEST_PROTOCOL`` (inside the worker)
  instead of the ``multiprocessing`` default, which is pinned to
  protocol 2-era framing; large ``ExperimentResult`` payloads (tail
  exhibits carry thousands of latency samples, stored as
  ``array('d')`` columns that pickle as raw bytes) serialise faster and
  smaller.
- **serial fallback.**  ``jobs=1`` (or a single config) never touches
  multiprocessing at all: the configs run in-process through
  :func:`run_experiment`, keeping tests and debugging simple.
  ``jobs=1`` is the identity path the pool is tested against.

``jobs=0`` (or ``None``) means "one worker per CPU".
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Iterable, List, Optional, Sequence

from .config import ExperimentConfig, ExperimentResult
from .runner import run_experiment

__all__ = ["run_experiments", "resolve_jobs", "BatchExecutor",
           "CHUNKS_PER_WORKER"]

#: Target number of chunks handed to each worker.  More than one chunk
#: per worker lets the pool rebalance when points have uneven cost
#: (e.g. conc=256 vs conc=1 grid ends) at a small IPC premium.
CHUNKS_PER_WORKER = 4

def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: 0/None -> CPU count, else itself.

    Negative values are rejected here — at the mouth of every pool
    construction — so they can never reach ``multiprocessing.Pool``,
    which reports them as an unhelpful ``ValueError`` of its own (or,
    for ``Pool.map`` chunking, arbitrary misbehaviour).
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _chunksize(n_configs: int, jobs: int) -> int:
    """Ceil-divide the points into ~CHUNKS_PER_WORKER chunks per worker."""
    return max(1, -(-n_configs // (jobs * CHUNKS_PER_WORKER)))


def _config_cost(config: ExperimentConfig) -> float:
    """Estimated relative wall-clock cost of one point: simulated
    seconds times offered load.  Only the *ordering* matters (heaviest
    dispatched first); correctness never depends on the estimate."""
    load = (config.concurrency if config.workload == "closed"
            else config.users)
    return (config.warmup + config.duration) * load


def _cost_order(configs: Sequence[ExperimentConfig]) -> List[int]:
    """Indices in descending estimated cost (ties keep submission
    order, keeping the dispatch deterministic)."""
    return sorted(range(len(configs)),
                  key=lambda i: (-_config_cost(configs[i]), i))


def _run_pickled(config: ExperimentConfig) -> bytes:
    """Worker entry point: run the point and pickle the result with the
    highest protocol *inside* the worker, so the bytes cross the pipe
    as-is instead of through multiprocessing's default pickler."""
    return pickle.dumps(run_experiment(config), pickle.HIGHEST_PROTOCOL)


def run_experiments(configs: Iterable[ExperimentConfig],
                    jobs: Optional[int] = 1) -> List[ExperimentResult]:
    """Run every config, returning results in the order configs came in.

    ``jobs=1`` runs serially in-process; ``jobs>1`` fans out over a
    spawn-context pool, heaviest points first; ``jobs=0``/``None`` uses
    one worker per CPU.  Both paths produce identical results for
    identical configs: each point is an isolated deterministic
    simulation keyed only by its own config (which carries the seed),
    parallel results are merged back by submission position, and
    pickling is an exact round trip.
    """
    configs = list(configs)
    jobs = min(resolve_jobs(jobs), len(configs))
    if jobs <= 1:
        return [run_experiment(config) for config in configs]
    order = _cost_order(configs)
    ordered = [configs[i] for i in order]
    chunk = _chunksize(len(configs), jobs)
    ctx = multiprocessing.get_context("spawn")
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    with ctx.Pool(processes=jobs) as pool:
        payloads = pool.map(_run_pickled, ordered, chunksize=chunk)
    for position, payload in zip(order, payloads):
        results[position] = pickle.loads(payload)
    return results


class BatchExecutor:
    """A shared worker pool that several submitters feed config batches
    into concurrently.

    This is the ``--exhibit all`` interleaving backend: each exhibit
    runs on its own (cheap, Python-side) thread and submits its point
    batch here, so the pool sees one global (exhibit, key, config)
    queue — slow tail-window points overlap with cheap table points
    instead of the pool draining per exhibit.  ``Pool.apply_async`` is
    thread-safe, and each batch's results are gathered positionally, so
    per-exhibit determinism is untouched: every batch returns exactly
    what :func:`run_experiments` would have returned for it.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool = multiprocessing.get_context("spawn").Pool(
            processes=self.jobs)

    def run(self, configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
        """Run one batch; results in the batch's submission order.

        The batch's points enter the shared queue heaviest-first (see
        :func:`_config_cost`) and come back as highest-protocol
        pickles; the positional gather restores submission order.
        """
        configs = list(configs)
        handles = {
            position: self._pool.apply_async(_run_pickled,
                                             (configs[position],))
            for position in _cost_order(configs)
        }
        return [pickle.loads(handles[position].get())
                for position in range(len(configs))]

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        """Kill the workers without draining the queue (error path)."""
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # A submitter raised (e.g. a poisoned config blew up inside
            # a worker): close() would block in join() behind every
            # still-queued point — and leak the pool if any submitter
            # thread is wedged on a .get().  Tear the workers down
            # instead; pending results are moot once the batch failed.
            self.terminate()
        else:
            self.close()
