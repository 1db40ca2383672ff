"""The benchmark's workloads: simulator points generated from a seed.

Each workload is a fixed list of :class:`ExperimentConfig` points (the
*round*); the seed only picks the simulation's random streams, so every
seed does the same kind and amount of work.  Points are built only from
config fields and server kinds the project keeps long term.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple

from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, ResilienceConfig


class Workload(NamedTuple):
    name: str
    #: Worker processes for ``run_experiments``; 1 runs points serially
    #: in the calling process through ``run_experiment``.
    jobs: int
    configs: List[ExperimentConfig]


#: Architectures of the paper's closed-loop comparison (Table 1).
CLOSED_SERVERS = ("doubleface", "netty", "aio", "type1", "threadbased")

#: Architectures of the open-loop tail comparison (Figure 15).
OPEN_SERVERS = ("doubleface", "netty", "aio")

#: Figure 15's RUBBoS-style cost model: one contended app core and
#: heavy-tailed datastore service.
_OPEN_PARAMS = {"app_cores": 1, "request_cpu": 0.3e-3,
                "request_cpu_cv": 0.5, "response_base_cost": 1.2e-3,
                "assemble_base_cost": 0.3e-3, "service_cv": 2.5}

_RETRY = dict(subquery_deadline=5e-3, max_retries=3,
              backoff_base=0.5e-3, backoff_cap=2e-3)

#: Two slow shards browning out at 100x; the on/off means are scaled
#: to the short window so every window sees several brown-outs.
_SLOW_SHARDS = dict(slow_shards=2, slow_factor=100.0,
                    slow_mean_on=0.03, slow_mean_off=0.07)


def closed_fanout(seed: int) -> Workload:
    configs = [ExperimentConfig(
        server=server, concurrency=100, fanout=5, n_shards=20,
        response_size=100, warmup=0.05, duration=0.15, seed=seed,
        keep_latency_samples=True, label=server)
        for server in CLOSED_SERVERS]
    return Workload("closed_fanout", 1, configs)


def open_tail(seed: int) -> Workload:
    configs = [ExperimentConfig(
        server=server, workload="open", users=600, think_time=5.2,
        lfan=5, sfan=3, response_size=100, reactors=1,
        warmup=2.0, duration=6.0, seed=seed, keep_latency_samples=True,
        params=dict(_OPEN_PARAMS), label=server)
        for server in OPEN_SERVERS]
    return Workload("open_tail", 1, configs)


def fault_parallel(seed: int) -> Workload:
    retry = ResilienceConfig(**_RETRY)
    global_hedge = ResilienceConfig(
        hedge_percentile=95.0, hedge_min_samples=50, **_RETRY)
    attribution_hedge = ResilienceConfig(
        hedge_percentile=95.0, hedge_min_samples=50,
        hedge_policy="attribution", **_RETRY)
    grid = (("doubleface", "retry", retry),
            ("doubleface", "global-hedge", global_hedge),
            ("doubleface", "attribution-hedge", attribution_hedge),
            ("netty", "retry", retry),
            ("netty", "global-hedge", global_hedge),
            ("aio", "retry", retry),
            ("aio", "global-hedge", global_hedge))
    configs = []
    for server, policy, resilience in grid:
        hedged = policy != "retry"
        configs.append(ExperimentConfig(
            server=server, concurrency=20, fanout=5, response_size=100,
            warmup=0.1, duration=0.15, seed=seed,
            faults=FaultConfig(**_SLOW_SHARDS), resilience=resilience,
            replicas_per_shard=2, racks=2, cross_rack_extra_latency=0.5e-3,
            trace=hedged, trace_sample=0.25, obs=hedged,
            keep_latency_samples=True, label=f"{server}/{policy}"))
    return Workload("fault_parallel", 2, configs)


BUILDERS = {"closed_fanout": closed_fanout, "open_tail": open_tail,
            "fault_parallel": fault_parallel}


def build(name: str, seed: int, jobs: int = 0) -> Workload:
    """Workload *name* at *seed*; *jobs* > 0 overrides its worker count
    (only ``fault_parallel`` runs through a pool)."""
    workload = BUILDERS[name](seed)
    if jobs > 0:
        workload = workload._replace(jobs=jobs)
    return workload


def shrunk(workload: Workload, window: float = 1e-3) -> Workload:
    """The same points with near-zero simulated windows: what a set-up
    probe runs, since set-up ends at the first simulated event."""
    return workload._replace(configs=[
        replace(config, warmup=window, duration=window)
        for config in workload.configs])
