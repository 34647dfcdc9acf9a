"""BatchCountEngine: exactness at batch=1, invariants, and statistical
equivalence of the multinomial jump approximation.

The jump engine must (a) reproduce CountEngine's event stream exactly when
``batch=1``, (b) conserve population size and protocol invariants under
arbitrarily large batches, and (c) in adaptive mode be statistically
indistinguishable from the exact engines on convergence-time
distributions (two-sample KS over >= 50 independent seeds).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.baselines.approx_majority import (
    approx_majority_population,
    make_approx_majority,
)
from repro.clocks import ClockParams, majority_phase, make_clock_protocol
from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import ArrayEngine, BatchCountEngine, CountEngine
from repro.oscillator import (
    make_oscillator_protocol,
    species,
    strong_value,
    weak_value,
)

KS_SEEDS = 50
KS_ALPHA = 0.01


@pytest.fixture
def epidemic():
    schema = StateSchema()
    schema.flag("I")
    return single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )


@pytest.fixture
def leader_fight():
    schema = StateSchema()
    schema.flag("L")
    return single_thread(
        "leader-fight", schema, [Rule(V("L"), V("L"), None, {"L": False})]
    )


def epidemic_population(schema, n, infected=1):
    return Population.from_groups(
        schema, [({"I": True}, infected), ({"I": False}, n - infected)]
    )


class TestExactMode:
    def test_batch_one_matches_count_engine_stream(self, epidemic):
        n = 2000
        stop = lambda p: p.all_satisfy(V("I"))
        jump = BatchCountEngine(
            epidemic,
            epidemic_population(epidemic.schema, n),
            rng=np.random.default_rng(11),
            batch=1,
        )
        jump.run(stop=stop)
        exact = CountEngine(
            epidemic,
            epidemic_population(epidemic.schema, n),
            rng=np.random.default_rng(11),
        )
        exact.run(stop=stop)
        # identical RNG consumption: the exact fallback path is the
        # CountEngine path, so the whole trajectory coincides
        assert jump.interactions == exact.interactions
        assert jump.events == exact.events
        assert jump.batches == 0

    def test_batch_validation(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        with pytest.raises(ValueError):
            BatchCountEngine(epidemic, pop, batch=0)
        with pytest.raises(ValueError):
            BatchCountEngine(epidemic, pop, accuracy=0.0)
        with pytest.raises(ValueError):
            BatchCountEngine(epidemic, pop, accuracy=1.5)


class TestInvariants:
    def test_population_size_conserved(self, epidemic):
        pop = epidemic_population(epidemic.schema, 50000)
        eng = BatchCountEngine(epidemic, pop, rng=np.random.default_rng(0))
        eng.run(rounds=10)
        assert eng.population.n == 50000

    def test_monotone_epidemic_counts(self, epidemic):
        # infections never reverse: every batch delta keeps I monotone
        pop = epidemic_population(epidemic.schema, 30000)
        eng = BatchCountEngine(epidemic, pop, rng=np.random.default_rng(1))
        last = pop.count(V("I"))
        for _ in range(20):
            eng.run(rounds=eng.rounds + 1)
            now = eng.population.count(V("I"))
            assert now >= last
            assert 0 <= now <= 30000
            last = now

    def test_cancellation_conserves_difference(self):
        # A + B -> blank + blank conserves #A - #B exactly; batched
        # multinomial deltas must preserve it too (they fire the rule k
        # times, each k preserving the invariant)
        schema = StateSchema()
        schema.enum("c", 3, values=("A", "B", "blank"))
        cancel = single_thread(
            "cancel",
            schema,
            [
                Rule(V("c", "A"), V("c", "B"), {"c": "blank"}, {"c": "blank"}),
                Rule(V("c", "B"), V("c", "A"), {"c": "blank"}, {"c": "blank"}),
            ],
        )
        pop = Population.from_groups(
            schema, [({"c": "A"}, 30000), ({"c": "B"}, 20000)]
        )
        eng = BatchCountEngine(cancel, pop, rng=np.random.default_rng(2))
        eng.run(rounds=200)
        final = eng.population
        assert final.count(V("c", "A")) - final.count(V("c", "B")) == 10000
        assert final.count(V("c", "B")) == 0  # silent: minority extinct
        assert eng.batches > 0

    def test_uses_batches_at_scale(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100000)
        eng = BatchCountEngine(epidemic, pop, rng=np.random.default_rng(3))
        eng.run(stop=lambda p: p.all_satisfy(V("I")))
        # O(q^2 log n / accuracy) batches replace ~n events
        assert eng.batches > 0
        assert eng.batches < eng.events / 10

    def test_silent_configuration_fast_forwards(self, epidemic):
        pop = Population.uniform(epidemic.schema, 1000, {"I": True})
        eng = BatchCountEngine(epidemic, pop, rng=np.random.default_rng(4))
        eng.run(rounds=50)
        assert eng.rounds == pytest.approx(50.0)
        assert eng.events == 0


#: BatchCountEngine(oscillator, n=5000, seed 777, cache=None),
#: run(rounds=15.0) — captured before the batch kernels were factored out
#: of the engine; any change to the draw sequence breaks it.
GOLDEN_BATCH = {
    "interactions": 75000,
    "events": 3514,
    "batches": 30,
    "species": [1676, 1651, 1670],
}


def oscillator_population(schema, n):
    third = (n - 3) // 3
    return Population.from_groups(
        schema,
        [
            ({"osc": weak_value(0)}, third + (n - 3) - 3 * third),
            ({"osc": weak_value(1)}, third),
            ({"osc": weak_value(2)}, third),
            ({"osc": weak_value(0), "X": True}, 3),
        ],
    )


class TestGolden:
    def test_bit_identical_to_prerefactor(self):
        protocol = make_oscillator_protocol()
        eng = BatchCountEngine(
            protocol,
            oscillator_population(protocol.schema, 5000),
            rng=np.random.default_rng(777),
            cache=None,
        )
        eng.run(rounds=15.0)
        assert eng.interactions == GOLDEN_BATCH["interactions"]
        assert eng.events == GOLDEN_BATCH["events"]
        assert eng.batches == GOLDEN_BATCH["batches"]
        got = [eng.population.count(species(i)) for i in range(3)]
        assert got == GOLDEN_BATCH["species"]


def _hitting_times(engine_factory, make_pop, stop, seeds, **run_kwargs):
    times = []
    for seed in seeds:
        eng = engine_factory(make_pop(), np.random.default_rng(seed))
        eng.run(stop=stop, **run_kwargs)
        times.append(eng.rounds)
    return np.asarray(times)


class TestStatisticalEquivalence:
    """Adaptive jump sampling vs the exact engines, two-sample KS."""

    def test_approx_majority_equivalence(self):
        protocol = make_approx_majority()
        n, count_a, count_b = 200, 120, 60

        def make_pop():
            return approx_majority_population(protocol.schema, n, count_a, count_b)

        def consensus(pop):
            return pop.count(V("am", "A")) in (0, pop.n) or pop.count(
                V("am", "B")
            ) in (0, pop.n)

        seeds = range(KS_SEEDS)
        exact = _hitting_times(
            lambda p, r: CountEngine(protocol, p, rng=r),
            make_pop, consensus, seeds,
        )
        jump = _hitting_times(
            lambda p, r: BatchCountEngine(protocol, p, rng=r),
            make_pop, consensus, (s + 1000 for s in seeds),
        )
        array = _hitting_times(
            lambda p, r: ArrayEngine(protocol, p, rng=r),
            make_pop, consensus, (s + 2000 for s in seeds), stop_every=0.25,
        )
        assert ks_2samp(exact, jump).pvalue > KS_ALPHA
        assert ks_2samp(exact, array).pvalue > KS_ALPHA

    def test_leader_fight_equivalence(self, leader_fight):
        # L + L -> L + follower: Theta(n)-round tail dominated by the last
        # few leader meetings — exercises the exact-fallback crossover
        n = 100

        def make_pop():
            return Population.uniform(leader_fight.schema, n, {"L": True})

        def unique(pop):
            return pop.count(V("L")) == 1

        seeds = range(KS_SEEDS)
        exact = _hitting_times(
            lambda p, r: CountEngine(leader_fight, p, rng=r),
            make_pop, unique, seeds,
        )
        jump = _hitting_times(
            lambda p, r: BatchCountEngine(leader_fight, p, rng=r),
            make_pop, unique, (s + 1000 for s in seeds),
        )
        batch_one = _hitting_times(
            lambda p, r: BatchCountEngine(leader_fight, p, rng=r, batch=1),
            make_pop, unique, (s + 2000 for s in seeds),
        )
        assert ks_2samp(exact, jump).pvalue > KS_ALPHA
        assert ks_2samp(exact, batch_one).pvalue > KS_ALPHA

    def test_epidemic_equivalence(self, epidemic):
        n = 500
        stop = lambda p: p.all_satisfy(V("I"))

        def make_pop():
            return epidemic_population(epidemic.schema, n)

        seeds = range(KS_SEEDS)
        exact = _hitting_times(
            lambda p, r: CountEngine(epidemic, p, rng=r),
            make_pop, stop, seeds,
        )
        jump = _hitting_times(
            lambda p, r: BatchCountEngine(epidemic, p, rng=r),
            make_pop, stop, (s + 1000 for s in seeds),
        )
        assert ks_2samp(exact, jump).pvalue > KS_ALPHA

    def test_oscillator_equivalence(self):
        # E3 workload: DK18 oscillator from a deep A1-dominant start; the
        # statistic is the parallel time until A1 loses its majority (the
        # first leg of the rotation), a hitting time that exercises the
        # compiled active-pair batch math on a 7-state protocol whose
        # interactions are mostly effective (no null-skipping shelter).
        protocol = make_oscillator_protocol()
        schema = protocol.schema
        n = 400
        a1 = species(0)

        def make_pop():
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

        def dominance_lost(pop):
            return pop.count(a1) < n // 2

        seeds = range(KS_SEEDS)
        exact = _hitting_times(
            lambda p, r: CountEngine(protocol, p, rng=r),
            make_pop, dominance_lost, seeds,
        )
        jump = _hitting_times(
            lambda p, r: BatchCountEngine(protocol, p, rng=r),
            make_pop, dominance_lost, (s + 1000 for s in seeds),
        )
        assert ks_2samp(exact, jump).pvalue > KS_ALPHA

    def test_phase_clock_equivalence(self):
        # E4 workload: the composed oscillator + phase clock C_o (k=2 ring,
        # q = 168 reachable states); the statistic is the time of the first
        # clock tick (majority phase leaving 0). This is the many-state
        # regime the compiled kernels exist for — the legacy batch path
        # degenerates to per-event stepping here.
        params = ClockParams(module=12, k=2)
        protocol = make_clock_protocol(params=params)
        schema = protocol.schema
        n = 300

        def make_pop():
            c1, c2 = int(0.8 * (n - 3)), int(0.17 * (n - 3))
            return Population.from_groups(
                schema,
                [
                    ({"osc": strong_value(0), "clk": 0}, c1),
                    ({"osc": weak_value(1), "clk": 0}, c2),
                    ({"osc": weak_value(2), "clk": 0}, (n - 3) - c1 - c2),
                    ({"osc": weak_value(0), "X": True, "clk": 0}, 3),
                ],
            )

        def ticked(pop):
            phase, frac = majority_phase(pop, params)
            return phase != 0 and frac >= 0.5

        seeds = range(KS_SEEDS)
        exact = _hitting_times(
            lambda p, r: CountEngine(protocol, p, rng=r),
            make_pop, ticked, seeds,
        )
        jump = _hitting_times(
            lambda p, r: BatchCountEngine(protocol, p, rng=r),
            make_pop, ticked, (s + 1000 for s in seeds),
        )
        assert ks_2samp(exact, jump).pvalue > KS_ALPHA
