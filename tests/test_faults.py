"""Fault injection and the supervised replica pool.

Chaos suite for `repro.faults` + `repro.engine.replicas.supervise`: a
deterministic FaultPlan crashes/hangs/corrupts specific replicas, and the
supervisor must retry on fresh spawned seeds, convert hangs into timeout
records, treat health-guard violations as non-retryable, and leave the
untouched replicas bit-identical.  Resume tests prove an interrupted or
faulted sweep finishes to the same statistics as an uninterrupted one.
"""

import math
import os
import re
import time

import numpy as np
import pytest

from repro import (
    EngineConfig,
    FaultPlan,
    load_manifest,
    resume_sweep,
    run_replicas,
)
from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import (
    SimulationHealthError,
    map_replicas,
    supervise,
)
from repro.engine.replicas import _retry_seed
from repro.faults import (
    ALWAYS,
    CRASH_EXIT_CODE,
    InjectedCrash,
    InjectedHang,
    corrupt_table,
)
from repro.obs import verify_fingerprint
from repro.workloads import build_workload


def make_epidemic(n=200):
    schema = StateSchema()
    schema.flag("I")
    protocol = single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )
    population = Population.from_groups(
        schema, [({"I": True}, 1), ({"I": False}, n - 1)]
    )
    return protocol, population


def all_infected(pop):
    return pop.all_satisfy(V("I"))


# top-level workers so the pool tests can pickle them
def _double(payload):
    return payload * 2


def _fail_if_negative(payload):
    if payload < 0:
        raise ValueError("bad payload {}".format(payload))
    return payload


def _timeout_if_negative(payload):
    if payload < 0:
        raise TimeoutError("simulated hang for {}".format(payload))
    return payload


def _health_error(payload):
    raise SimulationHealthError("conservation", "batch", 7, [1], "injected")


def _crash_worker(payload):
    if payload == "crash":
        os._exit(CRASH_EXIT_CODE)
    return payload


def _sleep_worker(payload):
    if payload == "sleep":
        time.sleep(30)
    return payload


def _flip_negative(key, base, attempt):
    return abs(base)


class TestFaultPlanSchedule:
    def test_due_counts_failing_attempts(self):
        plan = FaultPlan(crash={3: 1})
        assert plan._due(plan.crash, 3, 0) is True
        assert plan._due(plan.crash, 3, 1) is False
        assert plan._due(plan.crash, 4, 0) is False

    def test_always(self):
        plan = FaultPlan(hang={2: ALWAYS})
        assert all(plan._due(plan.hang, 2, a) for a in range(5))

    def test_touches(self):
        plan = FaultPlan(crash={0: 1}, hang={1: 1}, corrupt_table={2: "nan"})
        assert all(plan.touches(i) for i in range(3))
        assert not plan.touches(3)

    def test_simulated_crash_and_hang_raise(self):
        plan = FaultPlan(crash={0: ALWAYS}, hang={1: ALWAYS}).simulated()
        with pytest.raises(InjectedCrash):
            plan.before_run(0)
        with pytest.raises(InjectedHang):
            plan.before_run(1)
        plan.before_run(2)  # untouched index passes

    def test_injected_hang_is_a_timeout(self):
        assert issubclass(InjectedHang, TimeoutError)


class TestCorruptTable:
    def test_unknown_mode_rejected(self):
        from repro.engine import BatchCountEngine

        protocol, population = make_epidemic()
        eng = BatchCountEngine(protocol, population)
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_table(eng.table, "melt")

    def test_corruption_is_a_copy(self):
        from repro.engine import BatchCountEngine

        protocol, population = make_epidemic()
        eng = BatchCountEngine(protocol, population)
        table = eng.table
        bad = corrupt_table(table, "nan")
        assert np.isnan(bad.p_change_matrix).any()
        assert not np.isnan(table.p_change_matrix).any()
        bad = corrupt_table(table, "drop")
        assert bad.off.sum() == 0
        assert table.off.sum() != 0


class TestRetrySeeds:
    def test_disjoint_from_first_attempt_streams(self):
        root = np.random.SeedSequence(5)
        children = root.spawn(4)
        draws = {
            np.random.default_rng(s).integers(1 << 62) for s in children
        }
        for index in range(4):
            for attempt in (1, 2):
                retry = _retry_seed(root, index, attempt)
                assert list(retry.spawn_key) == [index, attempt]
                draws.add(np.random.default_rng(retry).integers(1 << 62))
        assert len(draws) == 4 + 4 * 2  # all streams distinct


class TestSuperviseSerial:
    def test_all_ok(self):
        outcomes = supervise(
            _double, [(k, k) for k in range(4)], processes=1
        )
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        assert all(o.attempts == 1 for o in outcomes)

    def test_retry_recovers(self):
        outcomes = supervise(
            _fail_if_negative, [("a", -5)], processes=1,
            max_retries=2, backoff=0.0, retry_payload=_flip_negative,
        )
        (outcome,) = outcomes
        assert outcome.status == "ok"
        assert outcome.value == 5
        assert outcome.attempts == 2

    def test_retries_exhausted(self):
        outcomes = supervise(
            _fail_if_negative, [("a", -5)], processes=1,
            max_retries=1, backoff=0.0,
        )
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "ValueError" in outcome.error

    def test_timeout_error_becomes_timeout_status(self):
        outcomes = supervise(
            _timeout_if_negative, [("a", -1)], processes=1,
            max_retries=0,
        )
        assert outcomes[0].status == "timeout"

    def test_health_error_is_nonretryable(self):
        outcomes = supervise(
            _health_error, [("a", 1)], processes=1,
            max_retries=5, backoff=0.0,
        )
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # never retried
        assert "conservation" in outcome.error

    def test_on_result_checkpoints(self):
        seen = []
        supervise(
            _double, [(k, k) for k in range(3)], processes=1,
            on_result=seen.append,
        )
        assert [o.key for o in seen] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            supervise(_double, [], processes=1, max_retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            supervise(_double, [], processes=1, timeout=0.0)


@pytest.mark.slow
class TestSupervisePool:
    def test_pool_matches_serial(self):
        serial = supervise(_double, [(k, k) for k in range(5)], processes=1)
        pooled = supervise(_double, [(k, k) for k in range(5)], processes=2)
        assert [o.value for o in pooled] == [o.value for o in serial]
        assert [o.key for o in pooled] == [o.key for o in serial]

    def test_worker_crash_detected_and_siblings_survive(self):
        outcomes = supervise(
            _crash_worker, [(0, "fine"), (1, "crash"), (2, "also fine")],
            processes=2, max_retries=0,
        )
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "failed"
        assert "died" in outcomes[1].error
        assert str(CRASH_EXIT_CODE) in outcomes[1].error
        assert outcomes[2].status == "ok"

    def test_crash_retried_to_success(self):
        # the retry payload swaps "crash" for a benign value, so the
        # respawned worker succeeds on attempt 2
        outcomes = supervise(
            _crash_worker, [(0, "crash")], processes=2,
            max_retries=1, backoff=0.0,
            retry_payload=lambda key, base, attempt: "recovered",
        )
        (outcome,) = outcomes
        assert outcome.status == "ok"
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_hung_worker_hits_the_deadline(self):
        start = time.monotonic()
        outcomes = supervise(
            _sleep_worker, [(0, "fine"), (1, "sleep")], processes=2,
            timeout=1.0, max_retries=0,
        )
        elapsed = time.monotonic() - start
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "timeout"
        assert "timeout" in outcomes[1].error
        assert elapsed < 20  # terminated, not slept out


class TestRunReplicasWithFaults:
    def test_replicas_must_be_positive(self):
        protocol, population = make_epidemic()
        with pytest.raises(ValueError, match="positive"):
            run_replicas(protocol, population, replicas=0, stop=all_infected)
        with pytest.raises(ValueError, match="positive"):
            map_replicas(_double, 0)

    def test_crash_retried_on_fresh_seed(self):
        protocol, population = make_epidemic()
        kwargs = dict(
            replicas=3, engine="count", seed=7, processes=1,
            stop=all_infected, backoff=0.0,
        )
        clean = run_replicas(protocol, population, **kwargs)
        faulted = run_replicas(
            protocol, population, faults=FaultPlan(crash={1: 1}), **kwargs
        )
        assert [r.status for r in faulted.records] == ["ok"] * 3
        retried = faulted.records[1]
        assert retried.attempts == 2
        assert retried.seed["spawn_key"] == [1, 1]
        assert retried.seed["retry_of"] == [1]
        # untouched replicas are bit-identical to the no-fault run
        for k in (0, 2):
            assert faulted.records[k].interactions == clean.records[k].interactions
            assert "retry_of" not in faulted.records[k].seed

    def test_crash_exhausts_to_failed_record(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=3, engine="count", seed=7,
            processes=1, stop=all_infected, backoff=0.0, max_retries=1,
            faults=FaultPlan(crash={1: ALWAYS}),
        )
        record = rs.records[1]
        assert record.status == "failed"
        assert record.attempts == 2
        assert "InjectedCrash" in record.error
        assert math.isnan(record.rounds)
        assert len(rs.ok) == 2
        summary = rs.summary()
        assert summary.failures == {"failed": 1}
        assert summary.retries == 1  # two attempts = one retry
        assert summary.converged_fraction == 1.0  # over the ok records
        assert "1 failed" in str(summary)

    def test_hang_becomes_timeout_record(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=3, engine="count", seed=7,
            processes=1, stop=all_infected, backoff=0.0, max_retries=0,
            faults=FaultPlan(hang={2: ALWAYS}),
        )
        assert rs.records[2].status == "timeout"
        assert rs.summary().failures == {"timeout": 1}

    def test_corrupt_table_is_nonretryable(self):
        protocol, population = make_epidemic()
        rs = run_replicas(
            protocol, population, replicas=2, engine="batch", seed=7,
            processes=1, stop=all_infected, backoff=0.0, max_retries=2,
            config=EngineConfig(guards=True),
            faults=FaultPlan(corrupt_table={0: "nan"}),
        )
        record = rs.records[0]
        assert record.status == "failed"
        assert record.attempts == 1  # deterministic failure: never retried
        assert "finite-probabilities" in record.error
        assert rs.records[1].status == "ok"

    def test_map_replicas_raises_on_failure(self):
        with pytest.raises(RuntimeError, match="ValueError"):
            map_replicas(
                lambda seed: _fail_if_negative(-1), 2, processes=1
            )


class TestResumableSweeps:
    def _sweep(self, tmp_path, faults=None, **overrides):
        workload = build_workload("epidemic", n=120)
        path = str(tmp_path / "run.jsonl")
        kwargs = dict(
            replicas=4, engine="batch", seed=9, processes=1,
            stop=workload.stop, manifest=path,
            manifest_meta={"workload": workload.spec()},
            backoff=0.0, max_retries=0,
        )
        kwargs.update(overrides)
        rs = run_replicas(
            workload.protocol, workload.population, faults=faults, **kwargs
        )
        return workload, path, rs

    def test_resume_is_bit_identical(self, tmp_path):
        _, clean_path, clean = self._sweep(tmp_path / "clean")
        plan = FaultPlan(crash={1: ALWAYS}, hang={2: ALWAYS})
        _, path, faulted = self._sweep(tmp_path / "faulted", faults=plan)
        manifest = load_manifest(path)
        assert manifest.missing_indices() == [1, 2]
        resumed = resume_sweep(path, processes=1)
        assert [r.status for r in resumed.records] == ["ok"] * 4
        assert [r.interactions for r in resumed.records] == [
            r.interactions for r in clean.records
        ]
        # the summaries agree bit-for-bit (same bootstrap resamples)
        # once nondeterministic wall timings are masked out
        def no_walls(summary):
            return re.sub(r"\d+\.\d+s", "_s", str(summary))

        assert no_walls(resumed.summary()) == no_walls(clean.summary())

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        _, path, rs = self._sweep(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])
            handle.write(lines[-1][: len(lines[-1]) // 2])  # torn write
        manifest = load_manifest(path)
        assert len(manifest) == len(rs) - 1
        assert manifest.missing_indices() == [rs.records[-1].index]
        resumed = resume_sweep(path, processes=1)
        assert [r.interactions for r in resumed.records] == [
            r.interactions for r in rs.records
        ]

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        _, path, _ = self._sweep(tmp_path)
        other = build_workload("leader", n=120)
        manifest = load_manifest(path)
        with pytest.raises(ValueError, match="fingerprint"):
            verify_fingerprint(manifest, other.protocol, other.population)

    def test_manifest_records_failures_and_supervisor(self, tmp_path):
        plan = FaultPlan(crash={0: ALWAYS})
        _, path, _ = self._sweep(
            tmp_path, faults=plan, max_retries=1, timeout=30.0
        )
        manifest = load_manifest(path)
        header = manifest.header
        assert header["supervisor"] == {
            "timeout": 30.0, "max_retries": 1, "backoff": 0.0,
        }
        record = manifest.record(0)
        assert record.status == "failed"
        assert record.attempts == 2
        assert record.seed["retry_of"] == [0]
        assert "InjectedCrash" in record.error
