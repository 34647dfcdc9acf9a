"""Compiled sparse transition kernels (`repro.engine.compiled`).

Covers: deterministic reachable-closure ordering, bit-identical agreement
of the closed table's CSR arrays with an open LazyTable, the vectorized
apply path, the fingerprint memo (miss / memo, invalidation on protocol
mutation, digests recorded manifests carry), the closure-limit fallback
rule, and the uniform EngineStats surface.
"""

import time

import numpy as np
import pytest

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import (
    ArrayEngine,
    BatchCountEngine,
    CountEngine,
    EngineConfig,
    EngineStats,
    EnsembleEngine,
    LazyTable,
    MatchingEngine,
    compile_table,
    protocol_fingerprint,
    reachable_codes,
    run_replicas,
)
from repro.engine import compiled
from repro.engine.compiled import _MEMO, acquire_table
from repro.oscillator import make_oscillator_protocol, strong_value, weak_value
from repro.simulate import make_engine
from repro.workloads import build_workload


@pytest.fixture
def oscillator():
    return make_oscillator_protocol()


def oscillator_population(schema, n):
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


def leader_fight(weight=1.0):
    schema = StateSchema()
    schema.flag("L")
    return single_thread(
        "leader-fight",
        schema,
        [Rule(V("L"), V("L"), None, {"L": False}, weight=weight)],
    )


class TestReachableOrder:
    def test_order_is_deterministic(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        codes = list(pop.counts.keys())
        first = reachable_codes(oscillator, codes)
        again = reachable_codes(oscillator, reversed(codes))
        as_set = reachable_codes(make_oscillator_protocol(), set(codes))
        assert first == again == as_set
        # initial support leads, sorted; each later wave is sorted too
        assert first[: len(codes)] == sorted(int(c) for c in codes)

    def test_order_is_the_closed_tables_index_order(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        codes = list(pop.counts.keys())
        order = reachable_codes(oscillator, codes)
        table = compile_table(oscillator, codes)
        assert order == table.codes.tolist()


class TestCompiledArrays:
    def test_csr_layout_is_consistent(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        ct = compile_table(oscillator, pop.counts.keys())
        q = ct.num_states
        assert ct.off[0] == 0
        assert ct.off[-1] == len(ct.out_p)
        assert (np.diff(ct.off) >= 0).all()
        assert len(ct.off) == q * q + 1
        assert ((ct.out_a >= 0) & (ct.out_a < q)).all()
        assert ((ct.out_b >= 0) & (ct.out_b < q)).all()
        assert (ct.out_p > 0).all()

    def test_matches_lazy_table_bit_for_bit(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        ct = compile_table(oscillator, pop.counts.keys())
        lazy = LazyTable(oscillator)
        q = ct.num_states
        # every pair read through rows(), in the closure's order on both
        idx = np.arange(q)
        mine = ct.rows(np.repeat(idx, q), np.tile(idx, q))
        idx = lazy.indices(ct.codes)
        ref = lazy.rows(np.repeat(idx, q), np.tile(idx, q))
        for r_mine, r_ref in zip(mine.tolist(), ref.tolist()):
            lo, hi = ct.off[r_mine], ct.off[r_mine + 1]
            lo_ref, hi_ref = lazy.off[r_ref], lazy.off[r_ref + 1]
            assert np.array_equal(
                ct.codes[ct.out_a[lo:hi]], lazy.codes[lazy.out_a[lo_ref:hi_ref]]
            )
            assert np.array_equal(
                ct.codes[ct.out_b[lo:hi]], lazy.codes[lazy.out_b[lo_ref:hi_ref]]
            )
            # identical floats (not approx): exact engine paths running
            # on a compiled table must consume the rng identically
            assert np.array_equal(ct.out_p[lo:hi], lazy.out_p[lo_ref:hi_ref])
            assert ct.p_row[r_mine] == lazy.p_row[r_ref]


class TestVectorizedApply:
    def test_apply_matches_dense_table_stream(self, oscillator):
        """Closed and open tables apply the same stream (one ``u`` per pair)."""
        n = 600
        pop = oscillator_population(oscillator.schema, n)
        ct = compile_table(oscillator, pop.counts.keys())
        dense = LazyTable(oscillator)
        start = pop.to_agent_array(np.random.default_rng(7))
        # each table's apply reads and writes its own dense indices
        agents_c = ct.indices(start)
        agents_d = dense.indices(start)
        rng_c = np.random.default_rng(42)
        rng_d = np.random.default_rng(42)
        perm = np.random.default_rng(5).permutation(n)
        idx_a, idx_b = perm[: n // 2], perm[n // 2 :]
        for _ in range(5):
            changed_c = ct.apply(agents_c, idx_a, idx_b, rng_c)
            changed_d = dense.apply(agents_d, idx_a, idx_b, rng_d)
            assert changed_c == changed_d
            assert np.array_equal(ct.codes[agents_c], dense.codes[agents_d])
        assert (ct.codes[agents_c] != start).any()

    def test_apply_rejects_states_outside_closure(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        ct = compile_table(oscillator, pop.counts.keys())
        outside = [
            c for c in range(oscillator.schema.num_states) if c not in ct.index
        ]
        if not outside:  # pragma: no cover
            pytest.skip("every packed state is reachable")
        # engines hold table indices, so an outside state is caught where
        # the population is indexed: at engine construction
        mixed = Population(
            oscillator.schema, {outside[0]: 2, next(iter(pop.counts)): 2}
        )
        for cls in (
            ArrayEngine, MatchingEngine, CountEngine, BatchCountEngine, EnsembleEngine
        ):
            with pytest.raises(ValueError, match="outside the compiled reachable"):
                cls(oscillator, mixed, rng=np.random.default_rng(0), table=ct)

    def test_engines_accept_compiled_table(self, oscillator):
        n = 300
        pop = oscillator_population(oscillator.schema, n)
        ct = compile_table(oscillator, pop.counts.keys())
        for cls in (ArrayEngine, MatchingEngine):
            eng = cls(
                oscillator,
                oscillator_population(oscillator.schema, n),
                rng=np.random.default_rng(1),
                table=ct,
            )
            eng.run(rounds=3)
            assert eng.population.n == n


class TestFingerprintCache:
    def test_miss_then_memo(self):
        protocol = leader_fight()
        pop = Population.uniform(protocol.schema, 50, {"L": True})
        codes = list(pop.counts.keys())
        _MEMO.pop(protocol_fingerprint(protocol, codes), None)

        first, source = acquire_table(protocol, codes)
        assert source.cache == "miss"
        assert source.seconds == first.compile_seconds > 0

        second, source = acquire_table(protocol, list(reversed(codes)))
        assert source == ("memo", 0.0)
        assert second is first

    def test_mutated_protocol_misses_the_cache(self):
        pop_codes = None
        fingerprints = set()
        for weight in (1.0, 2.0):
            protocol = leader_fight(weight=weight)
            pop = Population.uniform(protocol.schema, 50, {"L": True})
            pop_codes = list(pop.counts.keys())
            fingerprints.add(protocol_fingerprint(protocol, pop_codes))
        assert len(fingerprints) == 2

        # a rule-set mutation (extra rule) also changes the fingerprint
        schema = StateSchema()
        schema.flag("L")
        mutated = single_thread(
            "leader-fight",
            schema,
            [
                Rule(V("L"), V("L"), None, {"L": False}),
                Rule(~V("L"), V("L"), {"L": True}, None),
            ],
        )
        fingerprints.add(protocol_fingerprint(mutated, pop_codes))
        assert len(fingerprints) == 3

        # and each variant is a memo miss that compiles its own table
        for fingerprint in fingerprints:
            _MEMO.pop(fingerprint, None)
        tables = []
        for protocol in (leader_fight(1.0), leader_fight(2.0), mutated):
            table, source = acquire_table(protocol, pop_codes)
            assert source.cache == "miss"
            tables.append(table)
        assert {t.fingerprint for t in tables} == fingerprints
        assert all(_MEMO[t.fingerprint] is t for t in tables)

    def test_initial_support_changes_fingerprint(self):
        protocol = leader_fight()
        all_l = Population.uniform(protocol.schema, 50, {"L": True})
        mixed = Population.from_groups(
            protocol.schema, [({"L": True}, 25), ({"L": False}, 25)]
        )
        assert protocol_fingerprint(
            protocol, all_l.counts.keys()
        ) != protocol_fingerprint(protocol, mixed.counts.keys())

    @pytest.mark.parametrize("name, digest", [
        ("epidemic",
         "6f92c6afa059a5f59b7654d627d2deaec32254136dfe9605dc6915e5754fb957"),
        ("leader",
         "c9477c5d3b8897b6adb6bcde996052c1f62fb645846bcfeadd6917115204e2b4"),
        ("clock",
         "975727829cb4e0545c827f34beb016b289830c4cf7da281f6ff2f33ab8956ea0"),
    ])
    def test_recorded_fingerprints_are_stable(self, name, digest):
        """Manifests carry these digests; ``verify_fingerprint`` must keep
        accepting them (clock is the 168-state E4 closure)."""
        workload = build_workload(name)
        assert protocol_fingerprint(
            workload.protocol, workload.population.counts.keys()
        ) == digest


class TestFallbackRule:
    def test_closure_limit_raises(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        with pytest.raises(RuntimeError):
            compile_table(oscillator, pop.counts.keys(), limit=2)

    def test_engine_falls_back_to_lazy_table(self, oscillator, monkeypatch):
        monkeypatch.setattr(compiled, "COMPILE_STATE_LIMIT", 2)
        pop = oscillator_population(oscillator.schema, 20000)
        eng = BatchCountEngine(
            oscillator, pop, rng=np.random.default_rng(3)
        )
        assert not eng.table.closed
        assert eng.table_source is None
        eng.run(rounds=5)
        assert eng.population.n == 20000
        assert eng.batches > 0  # the open table runs the active-pair path
        assert eng.stats.table_kind == "lazy"

    def test_explicit_table_disables_compilation(self, oscillator):
        pop = oscillator_population(oscillator.schema, 200)
        table = LazyTable(oscillator)
        eng = BatchCountEngine(
            oscillator, pop, rng=np.random.default_rng(0), table=table
        )
        assert eng.table is table
        assert not table.closed
        assert eng.table_source is None


class TestEngineStats:
    def test_batch_engine_reports_compiled_counters(self, oscillator):
        pop = oscillator_population(oscillator.schema, 20000)
        eng = BatchCountEngine(
            oscillator, pop, rng=np.random.default_rng(0)
        )
        eng.run(rounds=20)
        stats = eng.stats.as_dict()
        assert stats["engine"] == "batch"
        assert stats["runs"] == 1
        assert stats["run_seconds"] > 0
        assert stats["interactions"] == eng.interactions
        assert stats["table_kind"] == "compiled"
        assert stats["table_states"] == eng.table.num_states
        assert stats["table_cache"] in ("miss", "memo")
        assert stats["batches"] == eng.batches
        if eng.batches:
            assert stats["active_states"] >= 1
            assert stats["active_pairs_max"] >= stats["active_pairs_mean"] > 0
            assert stats["kernel_seconds"] > 0
        text = eng.stats.format()
        assert "table_kind" in text and "compiled" in text

    @pytest.mark.parametrize(
        "engine", ["count", "batch", "bghkpu", "ensemble", "array", "matching"]
    )
    def test_every_exposed_counter_reaches_as_dict(self, oscillator, engine):
        """record_run reads the engine counters off ``_ORDER`` itself: any
        ``_ORDER`` field an engine exposes under that name is reported."""
        pop = oscillator_population(oscillator.schema, 3000)
        eng = make_engine(
            oscillator, pop, engine=engine, rng=np.random.default_rng(4)
        )
        eng.run(rounds=5)
        stats = eng.stats.as_dict()
        exposed = {
            name: getattr(eng, name)
            for name in EngineStats._ORDER
            if name not in EngineStats._OWN
            and getattr(eng, name, None) is not None
        }
        assert {"interactions", "rounds"} <= set(exposed)
        if engine == "bghkpu":
            assert {
                "alias_rebuilds", "alias_build_seconds",
                "alias_refresh_seconds", "cell_draw_seconds",
                "outcome_split_seconds", "collision_events", "repair_events",
            } <= set(exposed)
        for name, value in exposed.items():
            assert stats[name] == value, name

    def test_compile_seconds_count_once_per_sweep(self, oscillator):
        """The first replica compiles; the others reuse the memo and
        report no compile time."""
        n, replicas = 300, 24
        pop = oscillator_population(oscillator.schema, n)
        _MEMO.pop(protocol_fingerprint(oscillator, pop.counts.keys()), None)
        start = time.perf_counter()
        rs = run_replicas(
            oscillator, pop, replicas=replicas, seed=1, processes=1,
            rounds=0.2, config=EngineConfig(engine="batch"),
        )
        wall = time.perf_counter() - start
        seconds = [r.stats["table_compile_seconds"] for r in rs.records]
        assert 0 < sum(seconds) <= wall
        assert seconds[1:] == [0.0] * (replicas - 1)
        assert [r.stats["table_cache"] for r in rs.records] == (
            ["miss"] + ["memo"] * (replicas - 1)
        )

    def test_compile_seconds_are_per_acquisition(self, oscillator):
        pop = oscillator_population(oscillator.schema, 300)
        _MEMO.pop(protocol_fingerprint(oscillator, pop.counts.keys()), None)
        first = BatchCountEngine(oscillator, pop)
        second = BatchCountEngine(oscillator, pop)
        assert second.table is first.table
        for eng in (first, second):
            eng.run(rounds=0.1)
        built, reused = first.stats, second.stats
        assert built.table_cache == "miss"
        assert built.table_compile_seconds == first.table.compile_seconds > 0
        assert reused.table_cache == "memo"
        assert reused.table_compile_seconds == 0.0

    def test_every_engine_populates_stats(self, oscillator):
        n = 200
        for cls in (CountEngine, BatchCountEngine, ArrayEngine, MatchingEngine):
            pop = oscillator_population(oscillator.schema, n)
            eng = cls(oscillator, pop, rng=np.random.default_rng(1))
            eng.run(rounds=2)
            stats = eng.stats.as_dict()
            assert stats["engine"] == cls.name
            assert stats["runs"] == 1
            assert stats["interactions"] > 0
            assert "table_kind" in stats

    def test_stats_accumulate_across_runs(self, oscillator):
        pop = oscillator_population(oscillator.schema, 200)
        eng = CountEngine(oscillator, pop, rng=np.random.default_rng(2))
        eng.run(rounds=1)
        eng.run(rounds=1)
        assert eng.stats.runs == 2
        assert eng.stats.rounds == pytest.approx(eng.rounds)
