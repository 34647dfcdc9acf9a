"""Compiled sparse transition kernels (`repro.engine.compiled`).

Covers: deterministic reachable-closure ordering, bit-identical agreement
of the closed table's CSR arrays with an open LazyTable, the vectorized
apply path, the fingerprinted disk cache (hit / miss / memo, invalidation
on protocol mutation, corruption recovery), the closure-limit fallback
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
    TransitionTable,
    compile_table,
    protocol_fingerprint,
    reachable_codes,
    run_replicas,
)
from repro.engine import compiled
from repro.engine.compiled import _MEMO, acquire_table
from repro.obs import load_manifest
from repro.oscillator import make_oscillator_protocol, strong_value, weak_value
from repro.simulate import make_engine


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
        table = compile_table(oscillator, codes, cache=None)
        assert order == table.codes.tolist()


class TestCompiledArrays:
    def test_csr_layout_is_consistent(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        ct = compile_table(oscillator, pop.counts.keys(), cache=None)
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
        ct = compile_table(oscillator, pop.counts.keys(), cache=None)
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
        ct = compile_table(oscillator, pop.counts.keys(), cache=None)
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
        ct = compile_table(oscillator, pop.counts.keys(), cache=None)
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
        ct = compile_table(oscillator, pop.counts.keys(), cache=None)
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
    def test_miss_then_hit_then_memo(self, tmp_path):
        protocol = leader_fight()
        pop = Population.uniform(protocol.schema, 50, {"L": True})
        codes = list(pop.counts.keys())
        fp = protocol_fingerprint(protocol, codes)
        _MEMO.pop(fp, None)

        first, source = acquire_table(protocol, codes, cache=str(tmp_path))
        assert source.cache == "miss"
        assert (tmp_path / (fp + ".npz")).exists()

        _MEMO.pop(fp, None)
        second, source = acquire_table(protocol, codes, cache=str(tmp_path))
        assert source.cache == "hit"
        assert np.array_equal(second.codes, first.codes)
        assert np.array_equal(second.out_p, first.out_p)
        assert np.array_equal(second.p_change_matrix, first.p_change_matrix)

        third, source = acquire_table(protocol, codes, cache=str(tmp_path))
        assert source.cache == "memo"
        assert third is second

    def test_mutated_protocol_misses_the_cache(self, tmp_path):
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

        # and each variant gets its own cache file
        for weight in (1.0, 2.0):
            protocol = leader_fight(weight=weight)
            pop = Population.uniform(protocol.schema, 50, {"L": True})
            _MEMO.pop(protocol_fingerprint(protocol, pop.counts.keys()), None)
            _, source = acquire_table(
                protocol, pop.counts.keys(), cache=str(tmp_path)
            )
            assert source.cache == "miss"
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_initial_support_changes_fingerprint(self):
        protocol = leader_fight()
        all_l = Population.uniform(protocol.schema, 50, {"L": True})
        mixed = Population.from_groups(
            protocol.schema, [({"L": True}, 25), ({"L": False}, 25)]
        )
        assert protocol_fingerprint(
            protocol, all_l.counts.keys()
        ) != protocol_fingerprint(protocol, mixed.counts.keys())

    def test_corrupt_cache_entry_recompiles(self, tmp_path):
        protocol = leader_fight()
        pop = Population.uniform(protocol.schema, 50, {"L": True})
        codes = list(pop.counts.keys())
        fp = protocol_fingerprint(protocol, codes)
        _MEMO.pop(fp, None)
        compile_table(protocol, codes, cache=str(tmp_path))
        path = tmp_path / (fp + ".npz")
        path.write_bytes(b"not an npz file")
        _MEMO.pop(fp, None)
        table, source = acquire_table(protocol, codes, cache=str(tmp_path))
        assert source.cache == "corrupt"  # corrupt file dropped, rebuilt
        assert source.corrupt == 1
        assert table.num_states == 2
        # the rebuilt table was re-saved, so a fresh load is a clean hit
        _MEMO.pop(fp, None)
        _, source = acquire_table(protocol, codes, cache=str(tmp_path))
        assert source.cache == "hit"


    def test_impossible_probabilities_recompile(self, tmp_path):
        """A cache entry with intact shapes but lying values is corrupt."""
        protocol = leader_fight()
        pop = Population.uniform(protocol.schema, 50, {"L": True})
        codes = list(pop.counts.keys())
        fp = protocol_fingerprint(protocol, codes)
        _MEMO.pop(fp, None)
        good = compile_table(protocol, codes, cache=str(tmp_path))
        path = tmp_path / (fp + ".npz")

        def poison(**bad):
            arrays = dict(
                codes=good.codes, p_change=good.p_change_matrix, off=good.off,
                out_a=good.out_a, out_b=good.out_b, out_p=good.out_p,
            )
            arrays.update(bad)
            np.savez(str(path)[: -len(".npz")], **arrays)

        p = good.p_change_matrix
        cases = [
            dict(p_change=np.full_like(p, 7.5)),
            dict(p_change=np.where(p > 0, np.nan, p)),
            dict(out_p=-0.3 * np.ones_like(good.out_p)),
            dict(out_p=good.out_p / 2),  # rows no longer sum to p_change
        ]
        for case in cases:
            poison(**case)
            assert TransitionTable.load(protocol, fp, str(tmp_path)) is None
            assert not path.exists()  # the lying entry was unlinked
            poison(**case)
            _MEMO.pop(fp, None)
            table, source = acquire_table(protocol, codes, cache=str(tmp_path))
            assert source.cache == "corrupt"
            assert np.array_equal(table.p_change_matrix, p)
            assert np.array_equal(table.out_p, good.out_p)


class TestFallbackRule:
    def test_closure_limit_raises(self, oscillator):
        pop = oscillator_population(oscillator.schema, 100)
        with pytest.raises(RuntimeError):
            compile_table(oscillator, pop.counts.keys(), limit=2, cache=None)

    def test_engine_falls_back_to_lazy_table(self, oscillator, monkeypatch):
        monkeypatch.setattr(compiled, "COMPILE_STATE_LIMIT", 2)
        pop = oscillator_population(oscillator.schema, 20000)
        eng = BatchCountEngine(
            oscillator, pop, rng=np.random.default_rng(3), cache=None
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
            oscillator, pop, rng=np.random.default_rng(0), cache=None
        )
        eng.run(rounds=20)
        stats = eng.stats.as_dict()
        assert stats["engine"] == "batch"
        assert stats["runs"] == 1
        assert stats["run_seconds"] > 0
        assert stats["interactions"] == eng.interactions
        assert stats["table_kind"] == "compiled"
        assert stats["table_states"] == eng.table.num_states
        assert stats["table_cache"] == "off"
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

    def test_compile_seconds_count_once_per_sweep(self, oscillator, tmp_path):
        """Replicas reusing a shared table report no compile time."""
        n, replicas = 300, 24
        pop = oscillator_population(oscillator.schema, n)
        _MEMO.pop(protocol_fingerprint(oscillator, pop.counts.keys()), None)
        start = time.perf_counter()
        rs = run_replicas(
            oscillator, pop, replicas=replicas, seed=1, processes=1,
            rounds=0.2, config=EngineConfig(engine="batch", cache=str(tmp_path)),
        )
        wall = time.perf_counter() - start
        seconds = [r.stats["table_compile_seconds"] for r in rs.records]
        assert sum(seconds) <= wall
        # the runner's prewarm built the table; no replica did
        assert seconds == [0.0] * replicas
        assert {r.stats["table_cache"] for r in rs.records} == {"prewarmed"}

    def test_prewarm_shows_in_the_sweep_and_its_header(self, oscillator, tmp_path):
        """The records say "prewarmed"; the sweep and its manifest header
        say how the parent's prewarm got the table and what it cost."""
        pop = oscillator_population(oscillator.schema, 300)
        fingerprint = protocol_fingerprint(oscillator, pop.counts.keys())
        config = EngineConfig(engine="batch", cache=str(tmp_path / "tables"))
        seen = []
        for k in range(2):
            _MEMO.pop(fingerprint, None)  # the second sweep reads the disk
            path = str(tmp_path / "run{}.jsonl".format(k))
            rs = run_replicas(
                oscillator, pop, replicas=2, seed=1, processes=1,
                rounds=0.2, config=config, manifest=path,
            )
            assert {r.stats["table_cache"] for r in rs.records} == {"prewarmed"}
            assert load_manifest(path).header["table_prewarm"] == rs.table_prewarm
            seen.append(rs.table_prewarm)
        cold, warm = seen
        assert cold["table_cache"] == "miss"
        assert cold["table_compile_seconds"] > 0
        assert warm == {"table_cache": "hit", "table_compile_seconds": 0.0}
        path = str(tmp_path / "off.jsonl")
        rs = run_replicas(
            oscillator, pop, replicas=1, seed=1, processes=1, rounds=0.2,
            config=EngineConfig(engine="batch", cache=None), manifest=path,
        )
        assert rs.table_prewarm is None
        assert load_manifest(path).header["table_prewarm"] is None

    def test_compile_seconds_are_per_acquisition(self, oscillator, tmp_path):
        pop = oscillator_population(oscillator.schema, 300)
        _MEMO.pop(protocol_fingerprint(oscillator, pop.counts.keys()), None)
        first = BatchCountEngine(oscillator, pop, cache=str(tmp_path))
        second = BatchCountEngine(oscillator, pop, cache=str(tmp_path))
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
