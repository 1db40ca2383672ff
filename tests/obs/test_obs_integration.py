"""Observability invariants on real runs (the PR's acceptance bars):

- an observed run (tracing + flame + telemetry) reports measured
  results **float-identical** to the same run unobserved;
- the flame aggregation, gauge series, and phase windows are pure
  functions of the seed: identical across ``jobs=1`` / ``jobs=4``.
"""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_experiments
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig, ResilienceConfig


def _base(seed=17, **kw):
    return ExperimentConfig(
        server="doubleface", concurrency=6, n_shards=5, fanout=3,
        warmup=0.1, duration=0.25, seed=seed, **kw)


def _observed(config):
    return replace(config, trace=True, trace_sample=0.5, obs=True,
                   obs_period=0.01)


def _faulted(seed=17):
    return _base(
        seed=seed,
        faults=FaultConfig(slow_shards=2, slow_factor=10.0,
                           slow_mean_on=0.08, slow_mean_off=0.1),
        resilience=ResilienceConfig(hedge_delay=0.02, max_retries=1,
                                    subquery_deadline=0.15),
        replicas_per_shard=2, replica_policy="ewma")


def _measured(result):
    return (result.throughput, result.mean_rt, result.percentiles,
            result.class_percentiles, result.cpu_utilization,
            result.cpu_shares, result.ctx_switches_per_sec,
            result.avg_running_threads, result.selects_per_sec,
            result.completed, result.fault_counters,
            result.hedge_delays)


def _observed_outputs(result):
    return (result.obs_names, list(result.obs_times),
            [list(col) for col in result.obs_values],
            result.phases, result.flame)


class TestObservationOnly:
    def test_healthy_run_measures_identical(self):
        plain = run_experiment(_base())
        observed = run_experiment(_observed(_base()))
        assert _measured(plain) == _measured(observed)

    def test_faulted_run_measures_identical(self):
        plain = run_experiment(_faulted())
        observed = run_experiment(_observed(_faulted()))
        assert _measured(plain) == _measured(observed)
        # The observed run actually observed something.
        assert observed.flame is not None
        assert len(observed.obs_times) > 10
        assert any(name.startswith("fault:slow:")
                   for name, _s, _e in observed.phases)

    def test_trace_only_still_builds_flame_and_phases(self):
        result = run_experiment(replace(_base(), trace=True,
                                        trace_sample=0.5))
        assert result.flame is not None
        assert result.phases[0] == ("warmup", 0.0, 0.1)
        assert result.obs_names == ()


class TestSeedDeterminism:
    def test_jobs_1_vs_jobs_4_identical(self):
        configs = [_observed(_faulted(seed=s)) for s in (17, 18, 19)]
        serial = run_experiments(configs, jobs=1)
        fanned = run_experiments(
            [_observed(_faulted(seed=s)) for s in (17, 18, 19)], jobs=4)
        for a, b in zip(serial, fanned):
            assert _measured(a) == _measured(b)
            assert _observed_outputs(a) == _observed_outputs(b)

    def test_same_seed_same_observations(self):
        a = run_experiment(_observed(_faulted()))
        b = run_experiment(_observed(_faulted()))
        assert _observed_outputs(a) == _observed_outputs(b)

    def test_different_seed_different_observations(self):
        a = run_experiment(_observed(_faulted(seed=17)))
        b = run_experiment(_observed(_faulted(seed=99)))
        assert _observed_outputs(a) != _observed_outputs(b)
