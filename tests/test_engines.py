"""Cross-engine tests: exactness, agreement and instrumentation.

The three stochastic engines sample related processes (CountEngine and
ArrayEngine the sequential scheduler exactly; MatchingEngine the
random-matching scheduler) — on a simple epidemic their hitting times must
agree statistically, and conserved quantities must be conserved exactly.
"""

import numpy as np
import pytest

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import ArrayEngine, CountEngine, MatchingEngine, Trace
from repro.engine.batch import _collision_free_prefix
from repro.engine.compiled import compile_table
from repro.engine.table import LazyTable


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


class TestCountEngine:
    def test_runs_to_completion(self, epidemic):
        pop = epidemic_population(epidemic.schema, 500)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(0))
        eng.run(stop=lambda p: p.all_satisfy(V("I")))
        assert pop.count(V("I")) == 500

    def test_population_size_conserved(self, epidemic):
        pop = epidemic_population(epidemic.schema, 300)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(1))
        eng.run(rounds=5)
        assert pop.n == 300

    def test_silent_protocol_fast_forwards(self, epidemic):
        pop = Population.uniform(epidemic.schema, 100, {"I": True})
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(2))
        eng.run(rounds=50)
        assert eng.rounds == pytest.approx(50.0)
        assert eng.events == 0

    def test_budget_respected(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(3))
        eng.run(rounds=2)
        assert eng.rounds == pytest.approx(2.0, abs=0.01)

    def test_interactions_budget(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(3))
        eng.run(interactions=500)
        assert eng.interactions == 500

    def test_max_events(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(4))
        eng.run(max_events=10, rounds=1000)
        assert eng.events <= 10
        # one rule on every count engine: a run stops at the first step
        # that brings its events to max_events, and no batch is planned to
        # fire more than the events left, so the last few step exactly.
        # At 5% spread the n = 1e5 epidemic batches from the first step.
        from repro.engine import BatchCountEngine, BGHKPUEngine
        from repro.engine.ensemble import EnsembleEngine

        for k in (10, 1000):
            for cls in (CountEngine, BatchCountEngine, BGHKPUEngine, EnsembleEngine):
                pop = epidemic_population(epidemic.schema, 100_000, 5_000)
                eng = cls(epidemic, pop, rng=np.random.default_rng(4))
                eng.run(max_events=k, rounds=1000)
                if cls is CountEngine:
                    assert eng.events == k
                assert k <= eng.events <= 2 * k, (cls.name, k, eng.events)

    def test_requires_budget_or_stop(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            eng.run()

    def test_tiny_population_rejected(self, epidemic):
        pop = epidemic_population(epidemic.schema, 1)
        with pytest.raises(ValueError):
            CountEngine(epidemic, pop)

    def test_observer_grid_is_uniform(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(6))
        trace = Trace({"I": V("I")})
        eng.run(rounds=10, observer=trace, observe_every=1.0)
        # snapshots at t = 0, 1, ..., 10 inclusive
        assert len(trace) == 11
        assert np.allclose(np.diff(trace.times), 1.0)

    def test_observer_sees_monotone_epidemic(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(7))
        trace = Trace({"I": V("I")})
        eng.run(rounds=30, observer=trace, observe_every=0.5)
        series = trace.series("I")
        assert (np.diff(series) >= 0).all()

    def test_continuation_resumes_budget(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = CountEngine(epidemic, pop, rng=np.random.default_rng(8))
        eng.run(rounds=1)
        eng.run(rounds=1)
        assert eng.rounds == pytest.approx(2.0, abs=0.01)


class TestArrayEngine:
    def test_runs_to_completion(self, epidemic):
        pop = epidemic_population(epidemic.schema, 500)
        eng = ArrayEngine(epidemic, pop, rng=np.random.default_rng(0))
        eng.run(stop=lambda p: p.all_satisfy(V("I")), stop_every=1.0)
        assert eng.population.count(V("I")) == 500

    def test_population_property_counts(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = ArrayEngine(epidemic, pop, rng=np.random.default_rng(1))
        assert eng.population.n == 100

    def test_budget(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = ArrayEngine(epidemic, pop, rng=np.random.default_rng(2))
        eng.run(rounds=3)
        assert eng.rounds >= 3.0

    def test_collision_free_prefix_simple(self):
        idx_a = np.array([0, 2, 4])
        idx_b = np.array([1, 3, 5])
        assert _collision_free_prefix(idx_a, idx_b) == 3

    def test_collision_free_prefix_detects_repeat(self):
        idx_a = np.array([0, 2, 0])
        idx_b = np.array([1, 3, 5])
        assert _collision_free_prefix(idx_a, idx_b) == 2

    def test_collision_free_prefix_within_pair_boundary(self):
        idx_a = np.array([0, 1])
        idx_b = np.array([1, 2])
        assert _collision_free_prefix(idx_a, idx_b) == 1


class TestMatchingEngine:
    def test_one_round_touches_half(self, epidemic):
        # starting from 50% infected, a single matching infects many
        pop = epidemic_population(epidemic.schema, 1000, infected=500)
        eng = MatchingEngine(epidemic, pop, rng=np.random.default_rng(0))
        changed = eng.step()
        assert changed > 50

    def test_rounds_counter(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = MatchingEngine(epidemic, pop, rng=np.random.default_rng(1))
        eng.run(rounds=7)
        assert eng.rounds == 7.0

    def test_odd_population_leaves_idler(self, epidemic):
        pop = epidemic_population(epidemic.schema, 101)
        eng = MatchingEngine(epidemic, pop, rng=np.random.default_rng(2))
        eng.run(rounds=5)
        assert eng.population.n == 101


class TestEngineAgreement:
    """CountEngine and ArrayEngine sample the same sequential process."""

    @staticmethod
    def _hitting_times(engine_cls, protocol, n, seeds):
        times = []
        for seed in seeds:
            pop = epidemic_population(protocol.schema, n)
            eng = engine_cls(protocol, pop, rng=np.random.default_rng(seed))
            if engine_cls is CountEngine:
                eng.run(stop=lambda p: p.all_satisfy(V("I")))
            else:
                eng.run(stop=lambda p: p.all_satisfy(V("I")), stop_every=0.25)
            times.append(eng.rounds)
        return np.asarray(times)

    def test_sequential_engines_agree(self, epidemic):
        n = 300
        count_times = self._hitting_times(CountEngine, epidemic, n, range(12))
        array_times = self._hitting_times(ArrayEngine, epidemic, n, range(100, 112))
        # full-epidemic time concentrates near 2 ln n; medians must agree
        assert abs(np.median(count_times) - np.median(array_times)) < 4.0

    def test_epidemic_time_scale(self, epidemic):
        n = 1000
        times = self._hitting_times(CountEngine, epidemic, n, range(8))
        expected = 2 * np.log(n)
        assert 0.6 * expected < np.median(times) < 1.8 * expected


class TestTables:
    def test_lazy_table_caches(self, epidemic):
        table = LazyTable(epidemic)
        idx = table.indices(np.array([0, 1], dtype=np.int64))
        row = table.rows(idx[:1], idx[1:])
        misses = table.misses
        assert table.rows(idx[:1], idx[1:]).tolist() == row.tolist()
        assert table.misses == misses

    def test_dense_and_lazy_agree(self, epidemic):
        """An open table and the compiled closure agree pair by pair."""
        lazy = LazyTable(epidemic)
        dense = compile_table(epidemic, [0, 1])
        a, b = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        p = []
        for table in (lazy, dense):
            rows = table.rows(table.indices(a), table.indices(b))
            p.append(table.p_row[rows].tolist())
        assert p[0] == pytest.approx(p[1])

    def test_dense_apply_matches_distribution(self, epidemic):
        dense = LazyTable(epidemic)
        rng = np.random.default_rng(0)
        agents = dense.indices(np.array([1, 0, 1, 0, 1, 0], dtype=np.int64))
        # initiators infected (1), responders susceptible (0): always infects
        dense.apply(agents, np.array([0, 2, 4]), np.array([1, 3, 5]), rng)
        assert dense.codes[agents].sum() == 6


def _oscillator_population(schema, n):
    from repro.oscillator import strong_value, weak_value

    c1, c2 = int(0.8 * (n - 3)), int(0.17 * (n - 3))
    return Population.from_groups(
        schema,
        [
            ({"osc": strong_value(0)}, c1),
            ({"osc": weak_value(1)}, c2),
            ({"osc": weak_value(2)}, (n - 3) - c1 - c2),
            ({"osc": weak_value(0), "X": True}, 3),
        ],
    )


class _CodeTable(LazyTable):
    """The agent engines' table contract on *code* arrays, pair by pair.

    ``indices`` keeps the codes, ``apply`` draws one uniform per pair and
    reads each pair's row on its own, and ``census`` counts codes with
    ``np.unique``: an engine built on it is the code-array engine the
    index path must reproduce.
    """

    def indices(self, codes):
        return codes.copy()

    def census(self, codes):
        return Population.from_agent_array(self.protocol.schema, codes).counts

    def apply(self, agents, idx_a, idx_b, rng):
        if len(idx_a) == 0:
            return 0
        u = rng.random(len(idx_a))
        changed = 0
        for a, b, draw in zip(idx_a.tolist(), idx_b.tolist(), u.tolist()):
            i = self.state_index(int(agents[a]))
            j = self.state_index(int(agents[b]))
            row = int(self.rows(np.array([i]), np.array([j]))[0])
            lo, hi = int(self.off[row]), int(self.off[row + 1])
            cum = np.cumsum(self.out_p[lo:hi])
            if hi > lo and draw < cum[-1]:
                pick = lo + min(int(np.searchsorted(cum, draw, side="right")), hi - lo - 1)
                agents[a] = self.codes[self.out_a[pick]]
                agents[b] = self.codes[self.out_b[pick]]
                changed += 1
        return changed


class TestAgentArrayIndices:
    """Agents are dense table indices; the population view maps them back."""

    @pytest.mark.parametrize("cls", [ArrayEngine, MatchingEngine])
    @pytest.mark.parametrize("table", ["default", "closed"])
    def test_population_equals_code_array_reference(self, cls, table):
        from repro.oscillator import make_oscillator_protocol

        protocol = make_oscillator_protocol()
        pop = _oscillator_population(protocol.schema, 301)
        opts = {}
        if table == "closed":
            opts["table"] = compile_table(protocol, pop.counts.keys())
        eng = cls(protocol, pop, rng=np.random.default_rng(5), **opts)
        ref = cls(protocol, pop, rng=np.random.default_rng(5), table=_CodeTable(protocol))
        for _ in range(4):
            eng.run(rounds=3)
            ref.run(rounds=3)
            assert eng.interactions == ref.interactions
            assert list(eng.population.counts.items()) == list(ref.population.counts.items())
        assert eng.agents.max() < eng.table.num_states
        np.testing.assert_array_equal(eng.table.codes[eng.agents], ref.agents)


class TestAgentEngineGolden:
    """Oscillator sample paths of the agent-array engines, pinned.

    One uniform draw per pair, in pair order, makes the paths independent
    of the table's index order, so open and closed tables give the same.
    """

    GOLDEN = {
        "array": (
            15000,
            [
                ((1, 397), (2, 84), (4, 16), (6, 3)),
                ((0, 8), (1, 356), (2, 107), (3, 20), (4, 6), (6, 3)),
                ((0, 8), (1, 302), (2, 140), (3, 42), (4, 5), (6, 3)),
                ((0, 7), (1, 230), (2, 185), (3, 71), (4, 4), (6, 3)),
            ],
        ),
        "matching": (
            10000,
            [
                ((0, 8), (1, 377), (2, 93), (3, 9), (4, 10), (6, 3)),
                ((0, 12), (1, 352), (2, 109), (3, 17), (4, 7), (6, 3)),
                ((0, 16), (1, 324), (2, 121), (3, 31), (4, 5), (6, 3)),
                ((0, 10), (1, 297), (2, 143), (3, 43), (4, 4), (6, 3)),
            ],
        ),
    }
    RUNS = {"array": (ArrayEngine, 11, 30), "matching": (MatchingEngine, 12, 40)}

    @pytest.mark.parametrize("kind", ["array", "matching"])
    @pytest.mark.parametrize("table", ["default", "closed"])
    def test_sample_path(self, kind, table):
        from repro.oscillator import make_oscillator_protocol

        protocol = make_oscillator_protocol()
        pop = _oscillator_population(protocol.schema, 500)
        opts = {}
        if table == "closed":
            opts["table"] = compile_table(protocol, pop.counts.keys())
        cls, seed, rounds = self.RUNS[kind]
        eng = cls(protocol, pop, rng=np.random.default_rng(seed), **opts)
        snaps = []
        eng.run(
            rounds=rounds,
            observer=lambda t, p: snaps.append(tuple(sorted(p.counts.items()))),
            observe_every=10,
        )
        assert (eng.interactions, snaps) == self.GOLDEN[kind]
