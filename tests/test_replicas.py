"""Replica fan-out: pickling, seeding, aggregation, and the process pool.

The spawn-based pool requires every payload to round-trip through pickle
with the protocol/population *sharing one schema object* on the far side
(engines check schema identity); these tests pin that contract down
before exercising run_replicas / map_replicas serially and across real
worker processes.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.analysis import (
    ConvergenceStats,
    EngineTally,
    aggregate_convergence,
    aggregate_engine_stats,
)
from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import (
    EngineConfig,
    LazyTable,
    ReplicaSet,
    map_replicas,
    run_replicas,
)
from repro.engine.replicas import (
    ReplicaRecord,
    _resolve_processes,
    run_single_replica,
    spawn_seeds,
)
from repro.faults import ALWAYS, FaultPlan
from repro.workloads import build_workload


def make_epidemic():
    schema = StateSchema()
    schema.flag("I")
    protocol = single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )
    population = Population.from_groups(
        schema, [({"I": True}, 1), ({"I": False}, 299)]
    )
    return protocol, population


def all_infected(pop):
    return pop.all_satisfy(V("I"))


class TestPickling:
    def test_protocol_population_round_trip(self):
        protocol, population = make_epidemic()
        proto2, pop2 = pickle.loads(pickle.dumps((protocol, population)))
        # schema identity must survive the joint round-trip: engines verify
        # protocol.schema is population.schema
        assert proto2.schema is pop2.schema
        assert pop2.n == population.n
        assert pop2.count(V("I")) == 1

    def test_rules_usable_after_round_trip(self):
        protocol, population = make_epidemic()
        proto2, pop2 = pickle.loads(pickle.dumps((protocol, population)))
        from repro.engine import CountEngine

        eng = CountEngine(proto2, pop2, rng=np.random.default_rng(0))
        eng.run(stop=all_infected)
        assert pop2.count(V("I")) == 300

    def test_seed_sequences_pickle(self):
        seeds = spawn_seeds(7, 4)
        seeds2 = pickle.loads(pickle.dumps(seeds))
        for a, b in zip(seeds, seeds2):
            assert (
                np.random.default_rng(a).integers(1 << 30)
                == np.random.default_rng(b).integers(1 << 30)
            )


class TestSpawnSeeds:
    def test_independent_streams(self):
        seeds = spawn_seeds(0, 8)
        draws = {np.random.default_rng(s).integers(1 << 62) for s in seeds}
        assert len(draws) == 8

    def test_deterministic(self):
        a = [s.generate_state(2).tolist() for s in spawn_seeds(42, 3)]
        b = [s.generate_state(2).tolist() for s in spawn_seeds(42, 3)]
        assert a == b


class TestRunReplicas:
    def test_serial(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol,
            population,
            replicas=6,
            engine="count",
            seed=1,
            processes=1,
            stop=all_infected,
        )
        assert isinstance(rs, ReplicaSet)
        assert len(rs) == 6
        assert rs.converged_fraction == 1.0
        assert (rs.rounds > 0).all()
        assert (rs.interactions > 0).all()

    def test_replicas_are_independent(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=8, seed=0, processes=1,
            stop=all_infected,
        )
        assert len(set(rs.interactions.tolist())) > 1

    def test_deterministic_given_seed(self):
        protocol, population = make_epidemic()
        kwargs = dict(replicas=3, engine="count", seed=5, processes=1,
                      stop=all_infected)
        a = run_replicas(protocol, population, **kwargs)
        b = run_replicas(protocol, population, **kwargs)
        assert a.interactions.tolist() == b.interactions.tolist()

    def test_source_population_untouched(self):
        protocol, population = make_epidemic()
        before = dict(population.counts)
        run_replicas(protocol, population, replicas=2, seed=0, processes=1,
                     stop=all_infected)
        assert dict(population.counts) == before

    def test_engine_name_recorded(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=2, engine="batch", seed=0,
            processes=1, stop=all_infected,
        )
        assert all(r.extra["engine"] == "batch" for r in rs)

    def test_rejects_zero_replicas(self):
        protocol, population = make_epidemic()
        with pytest.raises(ValueError):
            run_replicas(protocol, population, replicas=0, stop=all_infected)

    def test_rounds_budget_without_stop(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=2, engine="count", seed=0,
            processes=1, rounds=2.0,
        )
        assert all(r.converged is None for r in rs)
        assert (rs.rounds >= 2.0).all()

    @pytest.mark.slow
    def test_process_pool(self):
        # real spawn workers: payloads and records cross process boundaries
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol,
            population,
            replicas=4,
            engine="count",
            seed=3,
            processes=2,
            stop=all_infected,
        )
        assert len(rs) == 4
        assert rs.converged_fraction == 1.0
        # same seeds => same trajectories as the serial path
        serial = run_replicas(
            protocol, population, replicas=4, engine="count", seed=3,
            processes=1, stop=all_infected,
        )
        assert rs.interactions.tolist() == serial.interactions.tolist()

    @pytest.mark.slow
    def test_determinism_across_process_counts(self):
        # the CI determinism smoke: same root seed, 1 vs 4 workers
        protocol, population = make_epidemic()
        kwargs = dict(replicas=8, engine="count", seed=12, stop=all_infected)
        serial = run_replicas(protocol, population, processes=1, **kwargs)
        pooled = run_replicas(protocol, population, processes=4, **kwargs)
        assert serial.interactions.tolist() == pooled.interactions.tolist()
        assert serial.rounds.tolist() == pooled.rounds.tolist()
        assert [r.converged for r in serial] == [r.converged for r in pooled]
        assert [r.seed for r in serial] == [r.seed for r in pooled]

    @pytest.mark.slow
    @pytest.mark.parametrize("processes", [2, None], ids=["two", "default"])
    def test_open_table_determinism_across_process_counts(self, processes):
        # serial replicas share one open table that grows as they run;
        # spawned workers each get a pickled (empty) copy — the records
        # must not depend on rows or indices an earlier replica added
        workload = build_workload("clock", n=2000)

        def sweep(procs):
            table = LazyTable(workload.protocol)
            config = EngineConfig(engine="batch", extra={"table": table})
            rs = run_replicas(
                workload.protocol, workload.population, replicas=2, seed=5,
                processes=procs, stop=workload.stop,
                config=config,
            )
            return [
                (r.index, r.seed, r.interactions, r.rounds, r.converged,
                 r.stats["events"], r.stats["batches"], r.stats["table_kind"])
                for r in rs
            ]

        serial = sweep(1)
        assert {row[-1] for row in serial} == {"lazy"}
        assert sum(row[-2] for row in serial) > 0  # the batch kernel ran
        assert sweep(processes) == serial


def _square(seed_seq, offset=0):
    value = int(np.random.default_rng(seed_seq).integers(100))
    return value * value + offset


class TestMapReplicas:
    def test_serial(self):
        results = map_replicas(_square, 5, seed=0, processes=1)
        assert len(results) == 5

    def test_partial_task(self):
        plain = map_replicas(_square, 3, seed=1, processes=1)
        shifted = map_replicas(
            functools.partial(_square, offset=7), 3, seed=1, processes=1
        )
        assert [s - 7 for s in shifted] == plain

    @pytest.mark.slow
    def test_process_pool_matches_serial(self):
        serial = map_replicas(_square, 4, seed=2, processes=1)
        pooled = map_replicas(_square, 4, seed=2, processes=2)
        assert pooled == serial


class TestAggregation:
    def _records(self):
        return [
            ReplicaRecord(index=k, rounds=10.0 + k, interactions=1000 + k,
                          wall=0.5, converged=k < 3)
            for k in range(4)
        ]

    def test_aggregate(self):
        stats = aggregate_convergence(self._records())
        assert isinstance(stats, ConvergenceStats)
        assert stats.replicas == 4
        assert stats.converged_fraction == 0.75
        assert stats.rounds.median == pytest.approx(11.5)
        assert stats.wall_total == pytest.approx(2.0)

    def test_accepts_dicts(self):
        stats = aggregate_convergence(
            [{"rounds": 5.0}, {"rounds": 7.0}]
        )
        assert stats.replicas == 2
        assert stats.interactions is None
        assert stats.converged_fraction is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_convergence([])

    def test_replica_set_summary(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=3, engine="count", seed=0,
            processes=1, stop=all_infected,
        )
        stats = rs.summary()
        assert stats.replicas == 3
        assert "3 replicas" in str(stats)

    def test_missing_rounds_raises_clear_error(self):
        records = [
            ReplicaRecord(index=0, rounds=5.0, interactions=10, wall=0.1),
            ReplicaRecord(index=7, rounds=None, interactions=10, wall=0.1),
        ]
        with pytest.raises(ValueError) as excinfo:
            aggregate_convergence(records)
        message = str(excinfo.value)
        assert "'rounds'" in message
        assert "record 1" in message
        assert "index 7" in message

    def test_missing_rounds_in_dict_records(self):
        with pytest.raises(ValueError, match="'rounds'"):
            aggregate_convergence([{"rounds": 3.0}, {"interactions": 9}])


class CountingStop:
    """Stop predicate that counts its evaluations (picklable)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, population):
        self.calls += 1
        return population.all_satisfy(V("I"))


class TestStopSingleEvaluation:
    """The worker reuses the engine's own stop verdict (no double eval)."""

    @pytest.mark.parametrize("engine", ["count", "batch"])
    def test_stop_not_reevaluated_on_final_population(self, engine):
        protocol, population = make_epidemic()
        stop = CountingStop()
        record = run_single_replica(
            0, np.random.SeedSequence(3), protocol, population,
            engine=engine, stop=stop,
        )
        assert record.converged is True
        # every call happened inside the engine loop: the engine's own
        # counter and the predicate's agree, so no extra post-hoc call
        assert record.stats["stop_evals"] == stop.calls

    def test_hysteresis_predicate_not_flipped(self):
        # a latch that answers True exactly once (the E4 clock-phase
        # shape): a second evaluation would flip the reported outcome
        class OneShot:
            fired = False

            def __call__(self, population):
                if self.fired:
                    return False
                if population.all_satisfy(V("I")):
                    self.fired = True
                    return True
                return False

        protocol, population = make_epidemic()
        record = run_single_replica(
            0, np.random.SeedSequence(4), protocol, population,
            engine="count", stop=OneShot(),
        )
        assert record.converged is True

    def test_silent_budget_run_still_fills_converged(self):
        # a rounds-budget run whose engine never evaluates stop falls
        # back to one (and only one) final evaluation
        protocol, population = make_epidemic()
        stop = CountingStop()
        record = run_single_replica(
            0, np.random.SeedSequence(5), protocol, population,
            engine="count", stop=stop, run_kwargs={"rounds": 400.0},
        )
        assert record.converged is not None


class TestResolveProcesses:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "1")
        assert _resolve_processes(3, replicas=8) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.replicas.available_cpus", lambda: 16
        )
        monkeypatch.setenv("REPRO_PROCESSES", "2")
        assert _resolve_processes(None, replicas=8) == 2

    def test_env_capped_at_affinity(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.replicas.available_cpus", lambda: 2
        )
        monkeypatch.setenv("REPRO_PROCESSES", "64")
        assert _resolve_processes(None, replicas=8) == 2

    def test_default_is_affinity(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        monkeypatch.setattr(
            "repro.engine.replicas.available_cpus", lambda: 4
        )
        assert _resolve_processes(None, replicas=8) == 4

    def test_capped_at_replicas(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        monkeypatch.setattr(
            "repro.engine.replicas.available_cpus", lambda: 64
        )
        assert _resolve_processes(None, replicas=3) == 3

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "many")
        with pytest.raises(ValueError, match="REPRO_PROCESSES"):
            _resolve_processes(None, replicas=8)


class TestEngineStatsThreading:
    def _replica_set(self, engine="batch"):
        protocol, population = make_epidemic()
        return run_replicas(
            protocol, population, replicas=4, engine=engine, seed=2,
            processes=1, stop=all_infected,
        )

    def test_records_carry_stats_and_seed(self):
        rs = self._replica_set()
        for record in rs:
            assert record.engine == "batch"
            assert record.stats["engine"] == "batch"
            assert record.stats["interactions"] == record.interactions
            assert record.seed["entropy"] == 2
            assert record.seed["spawn_key"] == [record.index]

    def test_summary_aggregates_per_engine(self):
        rs = self._replica_set()
        summary = rs.summary()
        assert set(summary.engines) == {"batch"}
        tally = summary.engines["batch"]
        assert isinstance(tally, EngineTally)
        assert tally.replicas == 4
        assert tally.counters["interactions"] == int(rs.interactions.sum())
        assert tally.counters["runs"] == 4
        assert "kernel_seconds" in tally.counters
        assert "batch x4" in str(summary)

    def test_stats_by_engine(self):
        rs = self._replica_set(engine="count")
        tallies = rs.stats_by_engine()
        assert set(tallies) == {"count"}
        assert tallies["count"].counters["events"] > 0
        assert "engine count (4 replicas)" in tallies["count"].format()

    def test_table_cache_provenance_tallied(self):
        rs = self._replica_set()
        tally = rs.stats_by_engine()["batch"]
        statuses = tally.categories.get("table_cache")
        assert statuses and sum(statuses.values()) == 4
        # one process: at most the first replica compiles, the rest
        # read the memo
        assert set(statuses) <= {"miss", "memo"}
        assert statuses.get("miss", 0) <= 1

    def test_records_without_stats_are_skipped(self):
        tallies = aggregate_engine_stats(
            [ReplicaRecord(index=0, rounds=1.0, interactions=5, wall=0.1)]
        )
        assert tallies == {}


# -- golden records -----------------------------------------------------------
#
# Every field a sweep's records are compared on across runs, pinned for two
# small sweeps: a bghkpu leader fight (one replica per supervised task) and
# an ensemble epidemic in blocks of three rows.  The faulted variants crash
# one task's first attempt (its retry succeeds on fresh seed children) and
# every attempt of another (the block is exhausted after one retry).

def _golden_sweep(kind, faulted, processes):
    if kind == "leader":
        workload = build_workload("leader", n=2000)
        config = EngineConfig(engine="bghkpu")
        replicas, crash = 5, {1: 1, 4: ALWAYS}
    else:
        workload = build_workload("epidemic", n=300)
        config = EngineConfig(engine="ensemble", ensemble_chunk=3)
        replicas, crash = 7, {1: 1, 6: ALWAYS}
    rs = run_replicas(
        workload.protocol, workload.population, replicas=replicas,
        config=config, seed=11, processes=processes, stop=workload.stop,
        max_retries=1, backoff=0.0,
        faults=FaultPlan(crash=crash) if faulted else None,
    )
    return [
        (r.index, r.status, r.attempts, r.seed, r.interactions,
         None if np.isnan(r.rounds) else r.rounds, r.converged, r.extra)
        for r in rs
    ]


def _seed(k, attempt=0):
    if attempt == 0:
        return {"entropy": 11, "spawn_key": [k]}
    return {"entropy": 11, "spawn_key": [k, attempt], "retry_of": [k]}


_BGHKPU = {"engine": "bghkpu", "support": 2}


def _ens(members):
    return {"engine": "ensemble", "ensemble_chunk": members, "support": 1}


GOLDEN = {
    ("leader", False): [
        (0, "ok", 1, _seed(0), 2922017, 1461.0085, True, _BGHKPU),
        (1, "ok", 1, _seed(1), 2576264, 1288.132, True, _BGHKPU),
        (2, "ok", 1, _seed(2), 3961021, 1980.5105, True, _BGHKPU),
        (3, "ok", 1, _seed(3), 3787945, 1893.9725, True, _BGHKPU),
        (4, "ok", 1, _seed(4), 4206515, 2103.2575, True, _BGHKPU),
    ],
    ("leader", True): [
        (0, "ok", 1, _seed(0), 2922017, 1461.0085, True, _BGHKPU),
        (1, "ok", 2, _seed(1, 1), 3789792, 1894.896, True, _BGHKPU),
        (2, "ok", 1, _seed(2), 3961021, 1980.5105, True, _BGHKPU),
        (3, "ok", 1, _seed(3), 3787945, 1893.9725, True, _BGHKPU),
        (4, "failed", 2, _seed(4, 1), 0, None, None, {}),
    ],
    ("ensemble", False): [
        (0, "ok", 1, _seed(0), 3660, 12.2, True, _ens([0, 1, 2])),
        (1, "ok", 1, _seed(1), 3824, 12.746666666666666, True,
         _ens([0, 1, 2])),
        (2, "ok", 1, _seed(2), 4364, 14.546666666666667, True,
         _ens([0, 1, 2])),
        (3, "ok", 1, _seed(3), 5648, 18.826666666666668, True,
         _ens([3, 4, 5])),
        (4, "ok", 1, _seed(4), 3792, 12.64, True, _ens([3, 4, 5])),
        (5, "ok", 1, _seed(5), 4145, 13.816666666666666, True,
         _ens([3, 4, 5])),
        (6, "ok", 1, _seed(6), 3764, 12.546666666666667, True, _ens([6])),
    ],
    ("ensemble", True): [
        (0, "ok", 2, _seed(0, 1), 3061, 10.203333333333333, True,
         _ens([0, 1, 2])),
        (1, "ok", 2, _seed(1, 1), 3734, 12.446666666666667, True,
         _ens([0, 1, 2])),
        (2, "ok", 2, _seed(2, 1), 4002, 13.34, True, _ens([0, 1, 2])),
        (3, "ok", 1, _seed(3), 5648, 18.826666666666668, True,
         _ens([3, 4, 5])),
        (4, "ok", 1, _seed(4), 3792, 12.64, True, _ens([3, 4, 5])),
        (5, "ok", 1, _seed(5), 4145, 13.816666666666666, True,
         _ens([3, 4, 5])),
        (6, "failed", 2, _seed(6, 1), 0, None, None,
         {"ensemble_chunk": [6]}),
    ],
}


class TestGoldenRecords:
    """Record fields pinned across runner refactors and worker counts."""

    # processes=None: REPRO_PROCESSES, else the usable CPU count; under
    # real workers an injected crash kills the worker process
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "processes", [1, 2, None], ids=["serial", "two", "default"]
    )
    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize("kind", ["leader", "ensemble"])
    def test_records(self, kind, faulted, processes):
        assert _golden_sweep(kind, faulted, processes) == GOLDEN[kind, faulted]

    def test_leader_endgame_at_1e8(self):
        # n = 1e8 runs the degenerate-epoch loop's batch branch for most
        # of the fight, which n = 2000 above barely reaches
        workload = build_workload("leader", n=10**8)
        rs = run_replicas(
            workload.protocol, workload.population, replicas=4,
            config=EngineConfig(engine="bghkpu"), seed=11, processes=1,
            stop=workload.stop,
        )
        assert [
            (r.interactions, r.rounds, r.stats["events"],
             r.stats["batches"], r.stats["stop_evals"])
            for r in rs
        ] == [
            (16583649810706463, 165836498.10706463, 99999999, 132, 209),
            (9573836758068361, 95738367.5806836, 99999999, 134, 203),
            (22077643135913225, 220776431.35913226, 99999999, 134, 210),
            (8779058282299301, 87790582.82299301, 99999999, 133, 210),
        ]
