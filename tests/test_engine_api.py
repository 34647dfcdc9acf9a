"""Engine protocol conformance: every engine honours the unified API.

All engines must accept the uniform keyword-only constructor
``Engine(protocol, population, *, rng=None, table=None)``, expose the
shared ``n`` / ``rounds`` / ``interactions`` / ``population`` surface, run
under every budget style (``rounds=``, ``interactions=``, ``stop=``), feed
observers on a uniform time grid, and reject budget-less runs.
:class:`~repro.engine.ensemble.EnsembleEngine` takes the budget tests too;
it rejects observers by design, so it skips the observer tests.
"""

import numpy as np
import pytest

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import (
    ArrayEngine,
    BatchCountEngine,
    BGHKPUEngine,
    CountEngine,
    Engine,
    MatchingEngine,
    Trace,
)
from repro.engine.api import require_budget
from repro.engine.ensemble import EnsembleEngine
from repro.engine.table import LazyTable

ALL_ENGINES = [
    CountEngine, BatchCountEngine, BGHKPUEngine, ArrayEngine, MatchingEngine,
]

#: every engine, parametrizing a test over the classes above
each_engine = pytest.mark.parametrize("engine_cls", ALL_ENGINES)
#: the engines of the budget tests: every engine plus the ensemble
each_budgeted = pytest.mark.parametrize(
    "engine_cls", ALL_ENGINES + [EnsembleEngine]
)


@pytest.fixture
def epidemic():
    schema = StateSchema()
    schema.flag("I")
    return single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )


def epidemic_population(schema, n, infected=1):
    return Population.from_groups(
        schema, [({"I": True}, infected), ({"I": False}, n - infected)]
    )


def all_infected(pop):
    return pop.all_satisfy(V("I"))


class TestConformance:
    @each_engine
    def test_is_engine_subclass(self, engine_cls):
        assert issubclass(engine_cls, Engine)
        assert isinstance(engine_cls.name, str) and engine_cls.name

    @each_engine
    def test_uniform_constructor(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = engine_cls(
            epidemic, pop, rng=np.random.default_rng(0), table=LazyTable(epidemic)
        )
        assert eng.n == 100
        assert eng.rounds == 0.0
        assert eng.interactions == 0

    @each_engine
    def test_positional_rng_rejected(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        with pytest.raises(TypeError):
            engine_cls(epidemic, pop, np.random.default_rng(0))

    @each_engine
    def test_schema_mismatch_rejected(self, engine_cls, epidemic):
        other = StateSchema()
        other.flag("I")
        pop = epidemic_population(other, 100)
        with pytest.raises(ValueError):
            engine_cls(epidemic, pop)

    @each_engine
    def test_tiny_population_rejected(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 1)
        with pytest.raises(ValueError):
            engine_cls(epidemic, pop)

    @each_budgeted
    def test_requires_budget_or_stop(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            eng.run()

    @each_budgeted
    def test_runs_to_stop(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 300)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(2))
        eng.run(stop=all_infected)
        assert eng.population.count(V("I")) == 300
        assert eng.interactions > 0
        assert eng.rounds > 0.0

    @each_budgeted
    def test_rounds_budget(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(3))
        eng.run(rounds=3)
        assert eng.rounds >= 3.0 - 1e-9
        # engines may overshoot by at most one scheduling quantum
        assert eng.rounds < 5.0

    @each_budgeted
    def test_interactions_budget(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(4))
        eng.run(interactions=500)
        assert 500 <= eng.interactions < 500 + 200

    @each_budgeted
    def test_rounds_tracks_interactions(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(5))
        eng.run(rounds=4)
        if engine_cls is MatchingEngine:
            # one matching round performs at most n/2 interactions
            assert eng.interactions <= eng.rounds * (eng.n // 2)
        else:
            assert eng.rounds == pytest.approx(eng.interactions / eng.n)

    @each_budgeted
    def test_population_reflects_final_state(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 150)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(6))
        eng.run(stop=all_infected)
        final = eng.population
        assert final.n == 150
        assert final.count(V("I")) == 150

    @each_budgeted
    def test_run_until(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 150)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(7))
        assert eng.run_until(all_infected, max_rounds=500.0)

    @each_engine
    def test_observer_uniform_grid(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(8))
        trace = Trace({"I": V("I")})
        eng.run(rounds=10, observer=trace, observe_every=1.0)
        if engine_cls is MatchingEngine:
            # one matching step is one round; samples follow the steps
            assert len(trace) >= 10
            assert (np.diff(trace.times) > 0).all()
            return
        # the sequential scheduler: exactly t = 0, 1, ..., 10, and the
        # sample at t = 0 is the initial configuration
        assert list(trace.times) == [float(t) for t in range(11)]
        assert trace.series("I")[0] == 1
        # a continuation run starts on the first grid point at or after
        # its start (t = 12.5 here), not one interaction past it
        eng.run(rounds=2.5)
        more = Trace({"I": V("I")})
        eng.run(rounds=3, observer=more, observe_every=1.0)
        assert list(more.times) == [13.0, 14.0, 15.0]

    @each_budgeted
    def test_continuation_accumulates(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(9))
        eng.run(rounds=2)
        first = eng.interactions
        eng.run(rounds=2)
        assert eng.interactions >= first
        assert eng.rounds >= 4.0 - 1e-9


class CountingStop:
    """Stop predicate that counts its evaluations (picklable)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, population):
        self.calls += 1
        return all_infected(population)


class OneShotStop:
    """Hysteresis predicate: answers True exactly once, then False.

    Models the clock-phase stops used in E4, which latch on a phase
    crossing — re-evaluating them after the engine has stopped flips the
    answer and misreports convergence.
    """

    def __init__(self):
        self.fired = False

    def __call__(self, population):
        if self.fired:
            return False
        if all_infected(population):
            self.fired = True
            return True
        return False


class TestStopVerdict:
    """The engine's own stop evaluation is captured once and reused."""

    @each_budgeted
    def test_verdict_recorded(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 120)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(0))
        eng.run(stop=all_infected)
        assert eng.stop_verdict is True

    @each_budgeted
    def test_verdict_false_when_budget_exhausted(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 500)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(1))
        eng.run(rounds=0.5, stop=all_infected)
        if eng.stop_verdict is not None:
            assert eng.stop_verdict is False

    @each_budgeted
    def test_verdict_reset_between_runs(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 120)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(2))
        eng.run(stop=all_infected)
        assert eng.stop_verdict is True
        held_at = eng.interactions
        eng.run(rounds=1.0)
        assert eng.stop_verdict is None
        # the continuation steps again (the silent configuration is
        # found silent again and fast-forwarded)
        assert eng.interactions > held_at

    @each_budgeted
    def test_run_until_does_not_reevaluate(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 120)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(3))
        stop = CountingStop()
        assert eng.run_until(stop, max_rounds=500.0)
        # every recorded call came from inside the engine loop: the
        # wrapper's count and the predicate's own count must agree
        assert stop.calls == eng.stats.stop_evals

    @each_budgeted
    def test_run_until_honours_hysteresis(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 120)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(4))
        stop = OneShotStop()
        # the engine stops on the single True; a second evaluation would
        # return False and misreport convergence
        assert eng.run_until(stop, max_rounds=500.0) is True

    @each_budgeted
    def test_stop_evals_counter(self, engine_cls, epidemic):
        pop = epidemic_population(epidemic.schema, 120)
        eng = engine_cls(epidemic, pop, rng=np.random.default_rng(5))
        stop = CountingStop()
        eng.run(stop=stop)
        assert eng.stats.stop_evals == stop.calls > 0


class TestRequireBudget:
    def test_rejects_all_none(self):
        with pytest.raises(ValueError):
            require_budget(None, None, None)

    def test_accepts_any_criterion(self):
        require_budget(1.0, None, None)
        require_budget(None, 10, None)
        require_budget(None, None, lambda p: True)
        require_budget(None, None, None, 5)
