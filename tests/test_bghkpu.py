"""BGHKPU engine: registry wiring, exactness, fidelity, stats, fallbacks.

The frozen-epoch batch engine must be a drop-in member of the engine
registry (config round-trip, CLI name, replica runner), agree with the
``batch`` engine distributionally (pooled KS on the leader-fight
convergence times and on the oscillator observer grid, the repo's
standard equivalence gates), step the endgame exactly (events = n − 1
on the leader fight), and surface its collision/epoch counters as
first-class :class:`EngineStats` fields that the replica tally
aggregates.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.analysis import aggregate_convergence
from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import BGHKPUEngine, CountEngine, Trace, compiled
from repro.engine.api import Horizon
from repro.engine.config import EngineConfig
from repro.engine.health import HealthMonitor, SimulationHealthError
from repro.simulate import engine_names, make_engine, resolve_engine

KS_ALPHA = 0.001


def leader_fight():
    schema = StateSchema()
    schema.flag("L")
    protocol = single_thread(
        "leader-fight", schema, [Rule(V("L"), V("L"), None, {"L": False})]
    )
    return protocol, schema


def leader_population(schema, n):
    return Population.uniform(schema, n, {"L": True})


def run_leader(engine, n, seed, **opts):
    protocol, schema = leader_fight()
    pop = leader_population(schema, n)
    cfg = EngineConfig(engine=engine, **opts)
    eng = make_engine(protocol, pop, engine=cfg, rng=np.random.default_rng(seed))
    eng.run(stop=lambda p: p.count(V("L")) == 1)
    return eng, pop


class TestRegistry:
    def test_name_registered(self):
        assert "bghkpu" in engine_names()
        assert resolve_engine("bghkpu") is BGHKPUEngine

    def test_config_round_trip(self):
        cfg = EngineConfig(engine="bghkpu", batch=64, guards=True)
        assert EngineConfig.from_dict(cfg.as_dict()) == cfg

    def test_kwargs_projection(self):
        cfg = EngineConfig(engine="bghkpu", batch=64)
        assert cfg.engine_kwargs(BGHKPUEngine) == {"batch": 64}
        # engines without batching never see the batch size
        assert cfg.engine_kwargs(CountEngine) == {}

    def test_stored_knobs_follow_the_constants(self, monkeypatch):
        """A stored knob upgrades only while it equals the live constant."""
        monkeypatch.setattr(BGHKPUEngine, "COLLISION_FRAC", 0.15)
        monkeypatch.setattr(BGHKPUEngine, "ALIAS_REBUILD_TOL", 0.02)
        monkeypatch.setattr(BGHKPUEngine, "DENSE_TOP_K", 128)
        stored = {
            "engine": "bghkpu", "collision_frac": 0.15,
            "alias_rebuild_tol": 0.02, "dense_top_k": 128,
            "alias_patch_frac": 0.0, "batch_autotune": True,
        }
        assert EngineConfig.from_dict(stored) == EngineConfig(engine="bghkpu")
        with pytest.raises(ValueError, match="batch_autotune=False"):
            EngineConfig.from_dict(dict(stored, batch_autotune=False))
        with pytest.raises(ValueError, match="collision_frac=0.2"):
            EngineConfig.from_dict(dict(stored, collision_frac=0.2))
        with pytest.raises(ValueError, match="alias_patch_frac=0.1"):
            EngineConfig.from_dict(dict(stored, alias_patch_frac=0.1))

    def test_constants_drive_the_sampler(self, monkeypatch):
        monkeypatch.setattr(BGHKPUEngine, "COLLISION_FRAC", 0.15)
        monkeypatch.setattr(BGHKPUEngine, "ALIAS_REBUILD_TOL", 0.02)
        eng, pop = run_leader("bghkpu", 50_000, seed=9)
        assert eng._sampler.tol == 0.02
        assert pop.count(V("L")) == 1
        assert eng.events == 49_999


class TestExactness:
    @pytest.mark.parametrize("n", [100, 5_000, 200_000])
    def test_leader_fight_event_count_exact(self, n):
        """Every effective event kills exactly one leader: events = n − 1."""
        eng, pop = run_leader("bghkpu", n, seed=11)
        assert pop.count(V("L")) == 1
        assert eng.events == n - 1
        assert eng.fallbacks == 0

    def test_conservation_under_guards(self):
        eng, pop = run_leader("bghkpu", 20_000, seed=5, guards=True)
        assert pop.n == 20_000
        assert pop.count(V("L")) == 1

    def test_one_pair_loop_hands_over_when_a_firing_creates_a_state(self):
        """A + A -> A + B starts as one live pair, and the B it creates
        reacts with A (B + A -> B + B).  The one-pair endgame loop must
        hand over to a fresh epoch at that firing, or no A ever meets a
        B and the A's die out like leaders (~n/t after t rounds)."""
        schema = StateSchema()
        schema.flag("B")
        protocol = single_thread("spawn-spread", schema, [
            Rule(~V("B"), ~V("B"), None, {"B": True}),
            Rule(V("B"), ~V("B"), None, {"B": True}),
        ])
        pop = Population.uniform(schema, 100_000, {"B": False})
        eng = make_engine(
            protocol, pop, engine="bghkpu", rng=np.random.default_rng(4)
        )
        eng.run(rounds=200, stop=lambda p: p.count(~V("B")) == 0)
        assert pop.count(~V("B")) == 0
        assert eng.rounds < 60

    def test_deterministic_in_seed(self):
        a, _ = run_leader("bghkpu", 30_000, seed=123)
        b, _ = run_leader("bghkpu", 30_000, seed=123)
        assert a.interactions == b.interactions
        assert a.events == b.events
        assert a.batches == b.batches
        assert a.collision_events == b.collision_events

    def test_batch_one_delegates_to_exact_path(self):
        a, _ = run_leader("bghkpu", 500, seed=7, batch=1)
        b, _ = run_leader("batch", 500, seed=7, batch=1)
        assert a.interactions == b.interactions
        assert a.events == b.events == 499

    def test_batch_one_bit_identity_with_dense_knobs(self, monkeypatch):
        """batch=1 stays on the exact path with every dense constant set."""
        monkeypatch.setattr(BGHKPUEngine, "DENSE_TOP_K", 512)
        a, _ = run_leader("bghkpu", 500, seed=7, batch=1)
        b, _ = run_leader("batch", 500, seed=7, batch=1)
        assert a.interactions == b.interactions
        assert a.events == b.events == 499

    def test_compile_limit_fallback(self, monkeypatch):
        """An uncompilable closure falls back to the parent wholesale."""
        monkeypatch.setattr(compiled, "COMPILE_STATE_LIMIT", 1)
        eng, pop = run_leader("bghkpu", 2_000, seed=3)
        assert not eng.table.closed
        assert pop.count(V("L")) == 1
        assert eng.events == 1_999

    def test_silent_configuration_fast_forwards(self):
        protocol, schema = leader_fight()
        pop = leader_population(schema, 1_000)
        eng = make_engine(
            protocol, pop, engine="bghkpu", rng=np.random.default_rng(0)
        )
        eng.run(stop=lambda p: p.count(V("L")) == 1)
        assert pop.count(V("L")) == 1
        before = eng.interactions
        eng.run(interactions=10**9)  # nothing left to fire
        assert eng.interactions == before + 10**9
        assert eng.events == 999


class TestOnePairLoop:
    """Exits and write-back of the degenerate epoch's scalar loop."""

    def test_leader_fight_builds_its_epoch_once(self):
        """F pairs with nothing, so creating it does not end the loop."""
        eng, pop = run_leader("bghkpu", 10**8, seed=3)
        assert pop.count(V("L")) == 1
        assert eng._sampler.rebuilds == 1
        assert eng._sampler.refreshes == 0
        assert eng.stats.alias_rebuilds == 1

    def test_guards_keep_the_loop(self):
        """Armed guards (the sweep default) check the loop's batches and its
        written-back counts without leaving it: the records are equal."""
        guarded, pop_g = run_leader("bghkpu", 10**8, seed=4, guards=True)
        plain, pop_p = run_leader("bghkpu", 10**8, seed=4)
        assert guarded.guards is not None and plain.guards is None
        assert pop_g.counts == pop_p.counts
        for name in ("interactions", "events", "batches", "stop_evals",
                     "collision_events", "alias_rebuilds"):
            assert getattr(guarded.stats, name) == getattr(plain.stats, name), name
        assert guarded.stats.alias_rebuilds == plain.stats.alias_rebuilds == 1

    def test_guards_check_the_loops_counts(self):
        protocol, schema = leader_fight()
        pop = leader_population(schema, 10**8)
        eng = make_engine(
            protocol, pop, engine=EngineConfig(engine="bghkpu", guards=True),
            rng=np.random.default_rng(4),
        )
        seen = []
        check = eng.guards.after_batch

        def after_batch(engine):
            ct = engine.table
            seen.append([float(engine._full_c[ct.state_index(c)]) for c in (0, 1)])
            check(engine)

        eng.guards.after_batch = after_batch
        eng.run(stop=lambda p: p.count(V("L")) == 1)
        # one check, on the written-back counts at the loop's exit
        assert seen == [[float(pop.counts[0]), 1.0]]

    @pytest.mark.parametrize("limits", [
        {"stop": lambda p: p.count(V("L")) == 1},
        {"rounds": 10**6},  # no stop: the last pair drains
        {"rounds": 3.0},
        {"max_events": 5_000, "rounds": 10**6},
    ], ids=["halt", "drained", "target", "max-events"])
    def test_counts_written_back_on_every_exit(self, limits):
        protocol, schema = leader_fight()
        pop = leader_population(schema, 10_000)
        eng = make_engine(
            protocol, pop, engine="bghkpu", rng=np.random.default_rng(8)
        )
        eng.run(**limits)
        assert 0 < eng.events < 10_000
        ct = eng.table
        for code in ct.codes.tolist():
            assert eng._full_c[ct.state_index(code)] == pop.counts.get(code, 0)
        assert pop.n == 10_000

    def test_continuation_rebuilds_over_the_created_state(self):
        eng, pop = run_leader("bghkpu", 10_000, seed=6)
        assert eng._sampler.rebuilds == 1
        follower = eng.table.state_index(
            next(code for code in pop.counts if not pop.schema.truth(V("L"))[code])
        )
        assert follower not in eng._sampler.act
        eng.run(rounds=1.0)
        assert eng._sampler.rebuilds == 2
        assert follower in eng._sampler.act

    def test_hands_over_when_a_grown_state_pairs_with_itself(self):
        """A + B -> A + A on a lone A: the firing lights the A + A cell
        (A + A -> E + A), so the loop must stop after it."""
        schema = StateSchema()
        schema.flag("A")
        schema.flag("E")
        a_, b_ = V("A") & ~V("E"), ~V("A") & ~V("E")
        protocol = single_thread("grow-and-pair", schema, [
            Rule(a_, b_, None, {"A": True}),
            Rule(a_, a_, {"A": False, "E": True}, None),
        ])
        pop = Population.from_groups(
            schema, [({"A": True}, 1), ({}, 99_999)]
        )
        eng = BGHKPUEngine(
            protocol, pop, rng=np.random.default_rng(1)
        )
        eng._pick_step()  # freezes the one-pair epoch
        assert eng._sampler.cells_nz is not None
        h = Horizon(eng.n, eng.interactions, rounds=100.0)
        assert eng._one_pair_steps(h) is True
        assert eng.events == 1 and pop.count(a_) == 2
        assert eng._need_rebuild


class TestApplyDeltaLean:
    """The lean delta apply writes ``Population.counts`` directly."""

    def engine(self, n=100):
        protocol, schema = leader_fight()
        pop = leader_population(schema, n)
        eng = make_engine(
            protocol, pop, engine="bghkpu", rng=np.random.default_rng(0)
        )
        return eng, pop

    def test_moves_conserve_n_and_drop_drained_states(self):
        eng, pop = self.engine()
        leader = eng.table.state_index(next(iter(pop.counts)))
        follower = 1 - leader  # the closure is {L, F}
        for moved, left in ((30, 70), (70, 0)):
            delta = np.zeros(eng.table.num_states, dtype=np.int64)
            delta[leader], delta[follower] = -moved, moved
            eng._apply_delta_lean(delta)
            assert pop.n == 100 and pop.count(V("L")) == left
        assert int(eng.table.codes[leader]) not in pop.counts
        assert eng._full_c[leader] == 0.0

    def test_underflow_raises(self):
        eng, pop = self.engine()
        leader = eng.table.state_index(next(iter(pop.counts)))
        delta = np.zeros(eng.table.num_states, dtype=np.int64)
        delta[leader], delta[1 - leader] = -101, 101
        with pytest.raises(ValueError, match="cannot remove 101 agents"):
            eng._apply_delta_lean(delta)


class TestObserverGrid:
    def test_grid_matches_batch_engine(self):
        protocol, schema = leader_fight()

        def trace_of(engine):
            pop = leader_population(schema, 4_000)
            trace = Trace({"L": V("L")})
            eng = make_engine(
                protocol, pop, engine=engine, rng=np.random.default_rng(2)
            )
            eng.run(rounds=10.0, observer=trace, observe_every=0.5)
            return trace

        batch, bghkpu = trace_of("batch"), trace_of("bghkpu")
        np.testing.assert_array_equal(batch.times, bghkpu.times)


class TestStats:
    def test_counters_surface(self):
        eng, _ = run_leader("bghkpu", 50_000, seed=9)
        assert eng.collision_events > 0
        assert eng.alias_rebuilds >= 1
        assert eng.alias_build_seconds >= 0.0
        stats = eng.stats.as_dict()
        assert stats["engine"] == "bghkpu"
        assert stats["collision_events"] == eng.collision_events
        assert stats["alias_rebuilds"] == eng.alias_rebuilds
        assert stats["alias_build_seconds"] == pytest.approx(
            eng.alias_build_seconds
        )

    def test_tally_aggregates_new_counters(self):
        records = []
        for seed in (1, 2):
            eng, _ = run_leader("bghkpu", 20_000, seed=seed)
            records.append(
                {
                    "rounds": eng.rounds,
                    "interactions": eng.interactions,
                    "wall": 0.1,
                    "converged": True,
                    "stats": eng.stats.as_dict(),
                }
            )
        agg = aggregate_convergence(records)
        tally = agg.engines["bghkpu"]
        assert tally.replicas == 2
        assert tally.counters["collision_events"] == sum(
            r["stats"]["collision_events"] for r in records
        )
        assert tally.counters["alias_rebuilds"] == sum(
            r["stats"]["alias_rebuilds"] for r in records
        )
        assert agg.interactions_total == sum(
            r["interactions"] for r in records
        )
        assert isinstance(agg.interactions_total, int)

    def test_interactions_headroom_guard(self):
        protocol, schema = leader_fight()
        pop = leader_population(schema, 100)
        eng = make_engine(
            protocol, pop, engine="bghkpu", rng=np.random.default_rng(0)
        )
        eng.run(interactions=50)
        monitor = HealthMonitor()
        monitor.attach(eng)
        monitor.after_batch(eng)  # sane counter passes
        eng.interactions = 2**62 + 1
        with pytest.raises(SimulationHealthError, match="int64-headroom"):
            monitor.after_batch(eng)


class TestKSEquivalence:
    """The repo's standard cross-engine distributional gates."""

    def test_leader_fight_convergence_times(self):
        n, reps = 2_000, 60
        pooled = {}
        for engine in ("batch", "bghkpu"):
            rounds = np.empty(reps)
            for r in range(reps):
                eng, _ = run_leader(engine, n, seed=1000 + r)
                rounds[r] = eng.rounds
            pooled[engine] = rounds
        assert ks_2samp(pooled["batch"], pooled["bghkpu"]).pvalue > KS_ALPHA

    def test_oscillator_observer_series(self):
        from repro.oscillator import make_oscillator_protocol, species, weak_value

        protocol = make_oscillator_protocol()
        n, third = 600, (600 - 3) // 3

        def trace_of(engine, seed):
            pop = Population.from_groups(
                protocol.schema,
                [
                    ({"osc": weak_value(0)}, third + (n - 3) - 3 * third),
                    ({"osc": weak_value(1)}, third),
                    ({"osc": weak_value(2)}, third),
                    ({"osc": weak_value(0), "X": True}, 3),
                ],
            )
            trace = Trace(
                {"A1": species(0), "A2": species(1), "A3": species(2)}
            )
            eng = make_engine(
                protocol, pop, engine=engine, rng=np.random.default_rng(seed)
            )
            eng.run(rounds=30.0, observer=trace)
            return trace

        pooled = {"batch": [], "bghkpu": []}
        for engine in pooled:
            for seed in range(10):
                trace = trace_of(engine, 300 + seed)
                for name in ("A1", "A2", "A3"):
                    pooled[engine].append(trace.series(name))
        batch = np.concatenate(pooled["batch"])
        bghkpu = np.concatenate(pooled["bghkpu"])
        assert ks_2samp(batch, bghkpu).pvalue > KS_ALPHA

    def test_oscillator_observer_series_hybrid_forced(self, monkeypatch):
        """E3 with the hybrid split forced on (the grid is too small to
        engage it at the default ``DENSE_TOP_K``): same pooled KS gate."""
        from repro.oscillator import make_oscillator_protocol, species, weak_value

        protocol = make_oscillator_protocol()
        n, third = 600, (600 - 3) // 3
        # the batch engine never reads the bghkpu constants
        monkeypatch.setattr(BGHKPUEngine, "DENSE_TOP_K", 16)

        def trace_of(engine, seed):
            pop = Population.from_groups(
                protocol.schema,
                [
                    ({"osc": weak_value(0)}, third + (n - 3) - 3 * third),
                    ({"osc": weak_value(1)}, third),
                    ({"osc": weak_value(2)}, third),
                    ({"osc": weak_value(0), "X": True}, 3),
                ],
            )
            trace = Trace(
                {"A1": species(0), "A2": species(1), "A3": species(2)}
            )
            eng = make_engine(
                protocol, pop, engine=engine, rng=np.random.default_rng(seed)
            )
            eng.run(rounds=30.0, observer=trace)
            return trace, eng

        pooled = {"batch": [], "dense": []}
        hybrid_engaged = False
        for key, engine in (("batch", "batch"), ("dense", "bghkpu")):
            for seed in range(10):
                trace, eng = trace_of(engine, 700 + seed)
                if key == "dense" and eng._sampler is not None:
                    hybrid_engaged |= eng._sampler.heavy_cells is not None
                for name in ("A1", "A2", "A3"):
                    pooled[key].append(trace.series(name))
        assert hybrid_engaged  # the forced top-K partition actually ran
        batch = np.concatenate(pooled["batch"])
        dense = np.concatenate(pooled["dense"])
        assert ks_2samp(batch, dense).pvalue > KS_ALPHA

    def test_phase_clock_observer_series_dense_defaults(self):
        """E4 composed oscillator + clock vs ``batch``, constants at defaults.

        The 168-state composed protocol is the dense-support shape the
        hybrid sampler targets; the pooled KS over the species observer
        series is the standard equivalence gate.
        """
        from repro.oscillator import species
        from repro.workloads import build_workload

        def trace_of(engine, seed):
            wl = build_workload("clock", n=2_000)
            trace = Trace(
                {"A1": species(0), "A2": species(1), "A3": species(2)}
            )
            eng = make_engine(
                wl.protocol, wl.population, engine=engine,
                rng=np.random.default_rng(seed),
            )
            eng.run(rounds=20.0, observer=trace)
            return trace

        pooled = {"batch": [], "bghkpu": []}
        for engine in pooled:
            for seed in range(8):
                trace = trace_of(engine, 500 + seed)
                for name in ("A1", "A2", "A3"):
                    pooled[engine].append(trace.series(name))
        batch = np.concatenate(pooled["batch"])
        bghkpu = np.concatenate(pooled["bghkpu"])
        assert ks_2samp(batch, bghkpu).pvalue > KS_ALPHA
