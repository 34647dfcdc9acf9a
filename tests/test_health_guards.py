"""Engine health guards (`repro.engine.health`).

A HealthMonitor threaded through Engine.run must catch corrupted
transition tables (NaN probability rows, dropped/bit-flipped outcome
windows) with a structured SimulationHealthError naming the engine and
the interaction index — while leaving a clean run's trajectory
bit-identical to an unguarded one.
"""

import pickle

import numpy as np
import pytest

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import (
    BatchCountEngine,
    CountEngine,
    HealthMonitor,
    SimulationHealthError,
    resolve_guards,
)
from repro.faults import corrupt_table


def make_epidemic(n=300):
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


class TestResolveGuards:
    def test_off(self):
        assert resolve_guards(None) is None
        assert resolve_guards(False) is None

    def test_on(self):
        assert isinstance(resolve_guards(True), HealthMonitor)

    def test_instance_passthrough(self):
        monitor = HealthMonitor()
        assert resolve_guards(monitor) is monitor

    def test_config_dict(self):
        monitor = resolve_guards({"conservation": False, "check_every": 8})
        assert monitor.conservation is False
        assert monitor.check_every == 8

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="guards"):
            resolve_guards("yes")

    def test_rejects_bad_check_every(self):
        with pytest.raises(ValueError, match="check_every"):
            HealthMonitor(check_every=0)


class TestCleanRunUnchanged:
    @pytest.mark.parametrize("engine_cls", [BatchCountEngine, CountEngine])
    def test_trajectory_bit_identical(self, engine_cls):
        protocol, population = make_epidemic()
        results = []
        for guards in (None, True):
            proto, pop = make_epidemic()
            eng = engine_cls(
                proto, pop, rng=np.random.default_rng(11), guards=guards
            )
            eng.run(stop=all_infected)
            results.append((eng.interactions, eng.rounds))
        assert results[0] == results[1]

    def test_repeated_runs_keep_expected_n(self):
        # attach() is idempotent: a second run() must not re-baseline
        protocol, population = make_epidemic()
        eng = BatchCountEngine(
            protocol, population, rng=np.random.default_rng(0), guards=True
        )
        eng.run(rounds=2.0)
        eng.run(rounds=2.0)
        assert eng.guards._expected_n == 300


class TestGuardsCatchCorruption:
    def _guarded_engine(self, mode):
        protocol, population = make_epidemic(n=400)
        eng = BatchCountEngine(
            protocol, population, rng=np.random.default_rng(0), guards=True
        )
        eng.table = corrupt_table(eng.table, mode)
        return eng

    def test_nan_table_caught_at_attach(self):
        eng = self._guarded_engine("nan")
        with pytest.raises(SimulationHealthError) as excinfo:
            eng.run(stop=all_infected)
        err = excinfo.value
        assert err.check == "finite-probabilities"
        assert err.engine == eng.name
        assert err.interactions == 0
        assert err.engine in str(err)

    def test_dropped_outcomes_break_conservation(self):
        eng = self._guarded_engine("drop")
        with pytest.raises(SimulationHealthError) as excinfo:
            eng.run(stop=all_infected)
        err = excinfo.value
        assert err.check == "conservation"
        assert "population started with 400" in str(err)
        assert err.interactions > 0

    def test_unguarded_engine_does_not_notice(self):
        # the control: without guards the same corruption passes silently
        protocol, population = make_epidemic(n=400)
        eng = BatchCountEngine(
            protocol, population, rng=np.random.default_rng(0)
        )
        eng.table = corrupt_table(eng.table, "drop")
        eng.run(rounds=5.0)  # no error raised; agents silently vanish

    def test_error_pickles_with_structure(self):
        err = SimulationHealthError(
            "conservation", "batch", 123, [4, 5], "lost agents"
        )
        back = pickle.loads(pickle.dumps(err))
        assert back.check == "conservation"
        assert back.engine == "batch"
        assert back.interactions == 123
        assert back.codes == [4, 5]
        assert "lost agents" in str(back)


class TestIndividualChecks:
    def test_headroom(self):
        monitor = HealthMonitor()
        protocol, population = make_epidemic()
        eng = BatchCountEngine(protocol, population, guards=monitor)
        monitor.attach(eng)
        monitor.check_batch(eng, 10)  # fine
        with pytest.raises(SimulationHealthError, match="int64-headroom"):
            monitor.check_batch(eng, 2 ** 62 + 1)

    def test_nan_weights(self):
        monitor = HealthMonitor()
        protocol, population = make_epidemic()
        eng = BatchCountEngine(protocol, population, guards=monitor)
        monitor.attach(eng)
        weights = np.ones((2, 2))
        monitor.check_weights(eng, weights)  # fine
        weights[0, 1] = np.nan
        with pytest.raises(SimulationHealthError, match="finite"):
            monitor.check_weights(eng, weights)

    def test_stall_watchdog(self):
        protocol, population = make_epidemic(n=50)
        monitor = HealthMonitor(stall_rounds=1.0, check_every=1)
        eng = CountEngine(
            protocol, population, rng=np.random.default_rng(0), guards=monitor
        )
        monitor.attach(eng)
        counts, _ = monitor._counts_vector(eng)
        if counts is None:
            pytest.skip("engine exposes no count vector")
        monitor._check_counts(eng)  # baseline snapshot
        # freeze the counts while claiming lots of scheduler progress
        eng.interactions += 10 * population.n
        with pytest.raises(SimulationHealthError, match="stall"):
            monitor._check_counts(eng)

    def test_negative_counts(self):
        protocol, population = make_epidemic(n=40)
        monitor = HealthMonitor(conservation=False)
        eng = BatchCountEngine(
            protocol, population, rng=np.random.default_rng(0), guards=monitor
        )
        monitor.attach(eng)
        counts, _ = monitor._counts_vector(eng)
        counts[0] = -1
        with pytest.raises(SimulationHealthError, match="nonnegative"):
            monitor._check_counts(eng)
