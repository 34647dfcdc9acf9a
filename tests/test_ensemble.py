"""EnsembleEngine: stacked rows, exact fallback, chunked replica fan-out.

Covers the four contracts the vectorized ensemble engine makes:

* ``batch=1`` rows are **bit-identical** to solo ``CountEngine`` runs
  under the same per-row seed streams (the exact-fallback path is the
  only sampler).
* Stacked rows agree with per-replica engines **in distribution** —
  pooled two-sample KS on the E3 oscillator species counts and on
  epidemic hitting times.
* The chunked replica runner preserves the supervision contract:
  process-count invariance, crash-retry with fresh per-row seed children
  and ``retry_of`` provenance, whole-chunk failure records, manifest
  resume equivalence, and chunk-level replay bit-identity.
* The parent-process table prewarm relabels worker cache provenance as
  ``"prewarmed"``.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.core import Population
from repro.engine import (
    DEFAULT_ENSEMBLE_CHUNK,
    CountEngine,
    EngineConfig,
    EnsembleEngine,
    run_replicas,
)
from repro.engine.ensemble import VectorizedStop
from repro.engine.replicas import ensemble_chunk_members, map_replicas
from repro.faults import ALWAYS, FaultPlan
from repro.obs import load_manifest, replay_replica, resume_sweep
from repro.oscillator import make_oscillator_protocol, species, weak_value
from repro.simulate import make_engine
from repro.workloads import build_workload

KS_ALPHA = 0.001


def epidemic(n=300):
    wl = build_workload("epidemic", n=n)
    return wl.protocol, wl.population, wl.stop


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


class TestEnsembleCore:
    def test_single_row_runs_like_an_engine(self):
        # n large enough that the accuracy cap admits stacked batches
        protocol, population, stop = epidemic(n=2000)
        eng = EnsembleEngine(
            protocol, population, rng=np.random.default_rng(0)
        )
        eng.run(stop=stop, rounds=200.0)
        assert eng.stop_verdict is True
        assert eng.interactions == eng.row_interactions_of(0)
        stats = eng.stats.as_dict()
        assert stats["ensemble_rows"] == 1
        assert stats["batches"] >= 1

    def test_rows_share_one_compiled_table(self):
        protocol, population, _ = epidemic(n=120)
        eng = EnsembleEngine(
            protocol, population, rng=np.random.default_rng(1), rows=5
        )
        eng.run(rounds=5.0)
        for r in range(5):
            assert eng.row_interactions_of(r) == 5 * 120
            assert eng.row_population(r).n == 120
        assert eng.row_stats(2).ensemble_rows == 5

    def test_batch1_rows_bit_identical_to_count_engine(self):
        protocol, population, stop = epidemic(n=150)
        rows = 4
        seeds = [np.random.SeedSequence(9, spawn_key=(k,)) for k in range(rows)]
        eng = EnsembleEngine(
            protocol,
            population.copy(),
            rng=np.random.default_rng(123),
            rows=rows,
            row_rngs=[np.random.default_rng(s) for s in seeds],
            batch=1,
        )
        eng.run(stop=stop, rounds=400.0)
        for k in range(rows):
            solo = CountEngine(
                protocol, population.copy(), rng=np.random.default_rng(seeds[k])
            )
            solo.run(stop=stop, rounds=400.0)
            assert eng.row_interactions_of(k) == solo.interactions
            assert eng.row_verdict(k) == solo.stop_verdict
            assert (
                eng.row_population(k).counts == solo.population.counts
            )

    def test_vectorized_stop_uses_fast_path(self):
        protocol, population, stop = epidemic(n=100)
        eng = EnsembleEngine(
            protocol, population, rng=np.random.default_rng(2), rows=3
        )
        vstop = VectorizedStop(stop, eng._ct, protocol.schema)
        assert vstop._fast is not None
        verdicts = vstop(eng._C)
        assert verdicts.tolist() == [False, False, False]

    def test_scalar_stop_fallback_matches_predicate(self):
        protocol, population, _ = epidemic(n=80)

        # a plain predicate without a vectorize hook: per-row Populations
        def no_healthy(pop):
            return all(
                protocol.schema.unpack(code)["I"] or count == 0
                for code, count in pop.counts.items()
            )

        eng = EnsembleEngine(
            protocol, population, rng=np.random.default_rng(3), rows=2
        )
        vstop = VectorizedStop(no_healthy, eng._ct, protocol.schema)
        assert vstop._fast is None
        assert vstop(eng._C).tolist() == [False, False]

    def test_rejects_observers_and_bad_params(self):
        protocol, population, _ = epidemic(n=60)
        with pytest.raises(ValueError):
            EnsembleEngine(protocol, population, rows=0)
        with pytest.raises(ValueError):
            EnsembleEngine(protocol, population, batch=0)
        with pytest.raises(ValueError):
            EnsembleEngine(protocol, population, accuracy=0.0)
        eng = EnsembleEngine(
            protocol, population, rng=np.random.default_rng(4), rows=2
        )
        with pytest.raises(ValueError, match="observer"):
            eng.run(rounds=1.0, observer=lambda *a: None)

    def test_requires_compilable_closure(self):
        protocol, population, _ = epidemic(n=60)
        with pytest.raises(RuntimeError):
            EnsembleEngine(protocol, population, compile_limit=1)

    def test_row_rngs_length_checked(self):
        protocol, population, _ = epidemic(n=60)
        with pytest.raises(ValueError, match="one generator per row"):
            EnsembleEngine(
                protocol, population, rows=3,
                row_rngs=[np.random.default_rng(0)],
            )


#: EnsembleEngine(oscillator, n=1200, rows=8, seed 12345, cache=None),
#: run(rounds=12.0) — captured before the stacked kernels were factored
#: out of the engine; any change to the draw sequence breaks it.
GOLDEN_ENSEMBLE = {
    "events": 5453,
    "batches": 192,
    "row_interactions": 14400,
    "species": [
        [416, 387, 394],
        [413, 379, 405],
        [397, 386, 414],
        [413, 412, 372],
        [381, 415, 401],
        [408, 415, 374],
        [403, 404, 390],
        [390, 396, 411],
    ],
}


class TestEnsembleGolden:
    def test_bit_identical_to_prerefactor(self):
        protocol = make_oscillator_protocol()
        eng = EnsembleEngine(
            protocol,
            oscillator_population(protocol.schema, 1200),
            rng=np.random.default_rng(12345),
            rows=8,
            cache=None,
        )
        eng.run(rounds=12.0)
        assert eng.events == GOLDEN_ENSEMBLE["events"]
        assert eng.batches == GOLDEN_ENSEMBLE["batches"]
        for r in range(8):
            assert (
                eng.row_interactions_of(r)
                == GOLDEN_ENSEMBLE["row_interactions"]
            )
            pop = eng.row_population(r)
            got = [pop.count(species(i)) for i in range(3)]
            assert got == GOLDEN_ENSEMBLE["species"][r]

    def test_rows1_batch1_matches_solo_count_engine(self):
        """A one-row batch=1 ensemble is bit-identical to a solo CountEngine."""
        protocol = make_oscillator_protocol()
        seed = np.random.SeedSequence(42, spawn_key=(0,))
        ens = EnsembleEngine(
            protocol,
            oscillator_population(protocol.schema, 900),
            rng=np.random.default_rng(42),
            rows=1,
            row_rngs=[np.random.default_rng(seed)],
            cache=None,
            batch=1,
        )
        ens.run(rounds=10.0)
        solo = CountEngine(
            protocol,
            oscillator_population(protocol.schema, 900),
            rng=np.random.default_rng(seed),
        )
        solo.run(rounds=10.0)
        row = ens.row_population(0)
        assert row.counts == solo.population.counts
        assert ens.row_interactions_of(0) == solo.interactions


class TestEnsembleDistribution:
    @pytest.mark.slow
    def test_oscillator_species_counts_pooled_ks(self):
        """E3 oscillator: stacked rows vs solo batch engines at a fixed
        horizon must agree in distribution (pooled over species)."""
        n, rounds, rows = 600, 30.0, 30
        protocol = make_oscillator_protocol()
        population = oscillator_population(protocol.schema, n)
        eng = EnsembleEngine(
            protocol, population.copy(), rng=np.random.default_rng(77),
            rows=rows,
        )
        eng.run(rounds=rounds)
        formulas = {name: species(i) for i, name in enumerate(("A1", "A2", "A3"))}
        stacked = [
            eng.row_population(r).count(f)
            for r in range(rows)
            for f in formulas.values()
        ]
        solo = []
        for k in range(rows):
            ref = make_engine(
                protocol, population.copy(), engine="batch",
                rng=np.random.default_rng(500 + k),
            )
            ref.run(rounds=rounds)
            solo.extend(ref.population.count(f) for f in formulas.values())
        assert ks_2samp(stacked, solo).pvalue > KS_ALPHA

    def test_epidemic_hitting_times_pooled_ks(self):
        """Convergence-time distribution matches the per-replica engines."""
        protocol, population, stop = epidemic(n=300)
        replicas = 24
        ens = run_replicas(
            protocol, population.copy(), replicas=replicas, engine="ensemble",
            seed=5, processes=1, stop=stop, rounds=400.0,
            config=EngineConfig(ensemble_chunk=8),
        )
        ref = run_replicas(
            protocol, population.copy(), replicas=replicas, engine="batch",
            seed=6, processes=1, stop=stop, rounds=400.0,
        )
        assert len(ens.ok) == len(ref.ok) == replicas
        assert ks_2samp(ens.rounds, ref.rounds).pvalue > KS_ALPHA


class TestEnsembleRunner:
    def _sweep(self, tmp_path=None, **kwargs):
        protocol, population, stop = epidemic(n=200)
        defaults = dict(
            replicas=10, engine="ensemble", seed=42, processes=1,
            stop=stop, rounds=300.0, config=EngineConfig(ensemble_chunk=4),
        )
        defaults.update(kwargs)
        return run_replicas(protocol, population.copy(), **defaults)

    def test_chunk_membership_is_fixed_blocks(self):
        assert ensemble_chunk_members(0, 4, 10) == [0, 1, 2, 3]
        assert ensemble_chunk_members(2, 4, 10) == [8, 9]

    def test_records_carry_chunk_provenance(self):
        rs = self._sweep()
        assert len(rs.ok) == 10
        for record in rs.ok:
            members = record.extra["ensemble_chunk"]
            assert record.index in members
            assert members == ensemble_chunk_members(
                record.index // 4, 4, 10
            )
            assert record.seed["spawn_key"] == [record.index]
            assert record.stats["ensemble_rows"] == len(members)
            assert record.stats["table_cache"] == "prewarmed"

    def test_default_chunk_size_applies(self):
        rs = self._sweep(replicas=3, config=EngineConfig())
        assert all(
            r.extra["ensemble_chunk"] == [0, 1, 2] for r in rs.ok
        )
        assert DEFAULT_ENSEMBLE_CHUNK == 16

    def test_results_invariant_under_indices_subset(self):
        full = self._sweep()
        part = self._sweep(indices=[1, 5, 9])
        by_index = {r.index: r for r in full.records}
        assert sorted(r.index for r in part.records) == [1, 5, 9]
        for record in part.records:
            assert record.interactions == by_index[record.index].interactions
            assert record.rounds == by_index[record.index].rounds

    @pytest.mark.slow
    def test_results_invariant_under_process_count(self):
        serial = self._sweep()
        pooled = self._sweep(processes=3)
        assert [
            (r.index, r.interactions, r.rounds) for r in serial.records
        ] == [(r.index, r.interactions, r.rounds) for r in pooled.records]

    def test_chunk_crash_is_retried_with_fresh_seeds(self):
        rs = self._sweep(
            replicas=6, config=EngineConfig(ensemble_chunk=3),
            faults=FaultPlan(crash={2: 1}), max_retries=2,
        )
        assert len(rs.ok) == 6
        retried = [r for r in rs.records if r.index in (0, 1, 2)]
        for record in retried:
            assert record.attempts == 2
            assert record.seed["retry_of"] == [record.index]
            assert record.seed["spawn_key"] == [record.index, 1]
        for record in rs.records:
            if record.index in (3, 4, 5):
                assert record.attempts == 1
                assert "retry_of" not in record.seed

    def test_exhausted_chunk_fails_every_member(self):
        rs = self._sweep(
            replicas=6, config=EngineConfig(ensemble_chunk=3),
            faults=FaultPlan(crash={1: ALWAYS}), max_retries=1,
        )
        failed = rs.failures
        assert sorted(r.index for r in failed) == [0, 1, 2]
        for record in failed:
            assert record.status == "failed"
            assert record.extra["ensemble_chunk"] == [0, 1, 2]
            assert record.seed["retry_of"] == [record.index]
        assert sorted(r.index for r in rs.ok) == [3, 4, 5]

    def test_corrupt_table_fails_chunk_nonretryably(self):
        rs = self._sweep(
            replicas=4, config=EngineConfig(ensemble_chunk=2, guards=True),
            faults=FaultPlan(corrupt_table={0: "nan"}), max_retries=2,
        )
        failed = rs.failures
        assert sorted(r.index for r in failed) == [0, 1]
        assert all(r.attempts == 1 for r in failed)

    def test_manifest_resume_matches_uninterrupted(self, tmp_path):
        protocol, population, stop = epidemic(n=200)
        path = str(tmp_path / "full.jsonl")
        full = run_replicas(
            protocol, population.copy(), replicas=10, engine="ensemble",
            seed=42, processes=1, stop=stop, rounds=300.0,
            config=EngineConfig(ensemble_chunk=4), manifest=path,
            manifest_meta={"workload": {"name": "epidemic",
                                        "params": {"n": 200}}},
        )
        # simulate a kill mid-chunk: keep the header and the first three
        # replica lines (a partial chunk), then resume
        lines = open(path).readlines()
        cut = str(tmp_path / "cut.jsonl")
        with open(cut, "w") as handle:
            handle.writelines(lines[:4])
        resumed = resume_sweep(cut, processes=1)
        assert sorted(r.index for r in resumed.ok) == list(range(10))
        by_index = {r.index: r for r in full.records}
        for record in resumed.ok:
            assert record.interactions == by_index[record.index].interactions
            assert record.rounds == by_index[record.index].rounds
            assert record.converged == by_index[record.index].converged

    def test_replay_replica_is_bit_identical(self, tmp_path):
        protocol, population, stop = epidemic(n=200)
        path = str(tmp_path / "run.jsonl")
        rs = run_replicas(
            protocol, population.copy(), replicas=6, engine="ensemble",
            seed=13, processes=1, stop=stop, rounds=300.0,
            config=EngineConfig(ensemble_chunk=3), manifest=path,
            manifest_meta={"workload": {"name": "epidemic",
                                        "params": {"n": 200}}},
        )
        manifest = load_manifest(path)
        for index in (0, 4):
            original = rs.records[index]
            fresh = replay_replica(manifest, index)
            assert fresh.interactions == original.interactions
            assert fresh.rounds == original.rounds
            assert fresh.converged == original.converged

    def test_prewarm_labels_batch_engine_workers_too(self):
        protocol, population, stop = epidemic(n=200)
        rs = run_replicas(
            protocol, population.copy(), replicas=3, engine="batch",
            seed=2, processes=1, stop=stop, rounds=300.0,
        )
        assert all(
            r.stats["table_cache"] == "prewarmed" for r in rs.ok
        )

    def test_map_replicas_chunked_matches_unchunked(self):
        a = map_replicas(_draw_int, 11, seed=3, processes=1, chunk=1)
        b = map_replicas(_draw_int, 11, seed=3, processes=1, chunk=4)
        assert a == b
        with pytest.raises(ValueError):
            map_replicas(_draw_int, 4, chunk=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="ensemble_chunk"):
            self._sweep(config=EngineConfig(ensemble_chunk=0))


def _draw_int(seed_seq):
    return int(np.random.default_rng(seed_seq).integers(0, 10 ** 6))
