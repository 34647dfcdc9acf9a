"""Run manifests and workloads: write → load → replay round-trips.

A manifest must let any single replica of a sweep be re-seeded and
replayed bit-identically (rounds, interactions, convergence verdict), and
the CLI ``sweep`` / ``replay`` subcommands must expose the same loop.
"""

import json

import numpy as np
import pytest

from repro.core import V

from repro import (
    EngineConfig,
    FaultPlan,
    build_workload,
    load_manifest,
    replay_replica,
    run_replicas,
    write_manifest,
)
from repro.__main__ import main
from repro.obs import SCHEMA_VERSION, Manifest, replica_seed
from repro.workloads import WORKLOADS, Workload


class TestWorkloads:
    def test_registry_names(self):
        assert "epidemic" in WORKLOADS
        assert "leader" in WORKLOADS

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_build(self, name):
        workload = build_workload(name, n=50)
        assert isinstance(workload, Workload)
        assert workload.population.n == 50
        assert workload.spec() == {"name": name, "params": {"n": 50}}
        # the stop predicate is meaningful on the initial population
        assert workload.stop(workload.population) is False

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("nope")

    def test_stop_predicates_are_picklable(self):
        import pickle

        for name in WORKLOADS:
            workload = build_workload(name, n=20)
            assert pickle.loads(pickle.dumps(workload.stop)) is workload.stop


def sweep(tmp_path, replicas=3, engine="batch", seed=9, **run_kwargs):
    workload = build_workload("epidemic", n=120)
    path = str(tmp_path / "run.jsonl")
    rs = run_replicas(
        workload.protocol,
        workload.population,
        replicas=replicas,
        engine=engine,
        seed=seed,
        processes=1,
        stop=workload.stop,
        manifest=path,
        manifest_meta={"workload": workload.spec()},
        **run_kwargs,
    )
    return workload, path, rs


class TestManifestRoundTrip:
    def test_header_and_records(self, tmp_path):
        _, path, rs = sweep(tmp_path)
        manifest = load_manifest(path)
        assert isinstance(manifest, Manifest)
        assert manifest.header["schema_version"] == SCHEMA_VERSION
        assert manifest.header["config"] == {"engine": "batch"}
        assert manifest.header["root_entropy"] == 9
        assert manifest.header["workload"] == {
            "name": "epidemic", "params": {"n": 120},
        }
        assert manifest.header["protocol"]["name"] == "epidemic"
        assert len(manifest.header["protocol"]["fingerprint"]) == 64
        assert len(manifest) == len(rs)
        for original, loaded in zip(rs, manifest):
            assert loaded.index == original.index
            assert loaded.rounds == original.rounds
            assert loaded.interactions == original.interactions
            assert loaded.converged == original.converged
            assert loaded.stats == original.stats
            assert loaded.seed == original.seed

    def test_replica_set_summary_from_manifest(self, tmp_path):
        _, path, rs = sweep(tmp_path)
        loaded = load_manifest(path).replica_set()
        assert str(loaded.summary()) == str(rs.summary())
        assert "batch" in loaded.stats_by_engine()

    def test_seed_coordinates_rebuild_stream(self, tmp_path):
        _, path, _ = sweep(tmp_path)
        manifest = load_manifest(path)
        root = np.random.SeedSequence(9)
        for k, child in enumerate(root.spawn(len(manifest))):
            rebuilt = replica_seed(manifest.record(k))
            assert (
                np.random.default_rng(rebuilt).integers(1 << 62)
                == np.random.default_rng(child).integers(1 << 62)
            )

    def test_unserializable_run_kwargs_become_repr(self, tmp_path):
        workload = build_workload("epidemic", n=60)
        rs = run_replicas(
            workload.protocol, workload.population, replicas=1,
            engine="count", seed=0, processes=1, rounds=2.0,
            observer=lambda t, p: None,
        )
        path = str(tmp_path / "m.jsonl")
        write_manifest(
            path, rs, seed_entropy=0, engine="count",
            run_kwargs={"rounds": 2.0, "observer": lambda t, p: None},
        )
        header = load_manifest(path).header
        assert header["run_kwargs"]["rounds"] == 2.0
        assert set(header["run_kwargs"]["observer"]) == {"!repr"}


class TestReplay:
    def test_bit_identical(self, tmp_path):
        _, path, rs = sweep(tmp_path)
        manifest = load_manifest(path)
        for record in rs:
            fresh = replay_replica(manifest, record.index)
            assert fresh.rounds == record.rounds
            assert fresh.interactions == record.interactions
            assert fresh.converged == record.converged

    def test_replay_with_explicit_protocol(self, tmp_path):
        workload, path, rs = sweep(tmp_path)
        manifest = load_manifest(path)
        fresh = replay_replica(
            manifest, 1, protocol=workload.protocol,
            population=workload.population, stop=workload.stop,
        )
        assert fresh.interactions == rs.records[1].interactions

    def test_replay_respects_run_kwargs(self, tmp_path):
        _, path, rs = sweep(tmp_path, rounds=500.0)
        fresh = replay_replica(load_manifest(path), 0)
        assert fresh.rounds == rs.records[0].rounds

    @pytest.mark.parametrize("config", [
        {"engine": "bghkpu"},
        {"engine": "ensemble", "ensemble_chunk": 3},
    ], ids=["single", "ensemble"])
    def test_retried_record_replays_bit_identically(self, tmp_path, config):
        # replica 1's first attempt crashes, so its record (and, for the
        # ensemble, every row of its block) comes from the retry seeds
        workload = build_workload("leader", n=400)
        path = str(tmp_path / "retried.jsonl")
        run_replicas(
            workload.protocol, workload.population, replicas=5,
            config=EngineConfig.from_dict(config), seed=4, processes=1,
            stop=workload.stop, manifest=path,
            manifest_meta={"workload": workload.spec()},
            backoff=0.0, faults=FaultPlan(crash={1: 1}),
        )
        manifest = load_manifest(path)
        original = manifest.record(1)
        assert original.attempts == 2
        assert original.seed["retry_of"] == [1]
        fresh = replay_replica(manifest, 1)

        def fields(r):
            return (r.index, r.status, r.attempts, r.seed, r.interactions,
                    r.rounds, r.converged, r.extra)

        assert fields(fresh) == fields(original)

    def test_replay_without_workload_spec(self, tmp_path):
        workload = build_workload("epidemic", n=60)
        rs = run_replicas(
            workload.protocol, workload.population, replicas=1,
            engine="count", seed=0, processes=1, stop=workload.stop,
        )
        path = str(tmp_path / "bare.jsonl")
        write_manifest(path, rs, seed_entropy=0, engine="count")
        with pytest.raises(ValueError, match="workload spec"):
            replay_replica(load_manifest(path), 0)


class TestLoaderValidation:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "replica", "index": 0, "rounds": 1.0,
                        "interactions": 5, "wall": 0.1}) + "\n"
        )
        with pytest.raises(ValueError, match="no header"):
            load_manifest(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="unknown kind"):
            load_manifest(str(path))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_manifest(str(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "run", "schema_version": 999}) + "\n"
        )
        with pytest.raises(ValueError, match="schema_version"):
            load_manifest(str(path))

    def test_missing_index_key(self, tmp_path):
        _, path, _ = sweep(tmp_path, replicas=2)
        manifest = load_manifest(path)
        with pytest.raises(KeyError):
            manifest.record(99)


class TestCli:
    def test_sweep_writes_manifest(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        code = main([
            "sweep", "epidemic", "--n", "100", "--replicas", "3",
            "--processes", "1", "--seed", "4", "--manifest", path, "--stats",
        ])
        assert code == 0
        out = capsys.readouterr()
        assert "sweep epidemic" in out.out
        assert "100% converged" in out.out
        assert "engine batch" in out.err  # --stats prints per-engine tallies
        assert len(load_manifest(path)) == 3

    def test_sweep_stats_show_the_compile(self, tmp_path, capsys, monkeypatch):
        """A cold sweep's first replica compiles the table and the rest
        read the memo; nothing is written outside the manifest."""
        from repro.engine.compiled import _MEMO, protocol_fingerprint

        workload = build_workload("epidemic", n=100)
        _MEMO.pop(protocol_fingerprint(
            workload.protocol, workload.population.counts.keys()
        ), None)
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        args = ["sweep", "epidemic", "--n", "100", "--replicas", "2",
                "--processes", "1", "--engine", "batch", "--stats"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "table_cache            1x memo, 1x miss\n" in err
        assert "table prewarm" not in err
        seconds = [line for line in err.splitlines()
                   if line.split()[:1] == ["table_compile_seconds"]]
        assert len(seconds) == 1 and float(seconds[0].split()[1]) > 0
        assert main(args) == 0
        assert "table_cache            2x memo\n" in capsys.readouterr().err
        assert list(home.iterdir()) == []

    def test_replay_matches(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        assert main([
            "sweep", "epidemic", "--n", "100", "--replicas", "2",
            "--processes", "1", "--seed", "4", "--manifest", path,
        ]) == 0
        assert main(["replay", path, "--index", "1"]) == 0
        assert "MATCH" in capsys.readouterr().out


class TestFingerprintDiagnostics:
    def test_mismatch_names_path_and_both_fingerprints(self, tmp_path):
        from repro.engine.compiled import protocol_fingerprint
        from repro.obs import verify_fingerprint

        _, path, _ = sweep(tmp_path)
        other = build_workload("leader", n=64)
        manifest = load_manifest(path)
        recorded = manifest.header["protocol"]["fingerprint"]
        current = protocol_fingerprint(
            other.protocol, other.population.counts.keys()
        )
        with pytest.raises(ValueError) as err:
            verify_fingerprint(manifest, other.protocol, other.population)
        message = str(err.value)
        # a service stores many runs: the error must say which manifest,
        # which fingerprints, and what each side actually was
        assert path in message
        assert recorded in message
        assert current in message
        assert "'epidemic'" in message  # the recorded run ...
        assert "n=120" in message
        assert "'leader-fight'" in message  # ... vs the freshly built one
        assert "n=64" in message
        assert "workload" in message  # the header's workload spec rides along
        assert "check_fingerprint=False" in message

    def test_replay_and_resume_surface_the_context(self, tmp_path):
        from repro.obs import resume_sweep

        _, path, _ = sweep(tmp_path)
        other = build_workload("leader", n=64)
        with pytest.raises(ValueError, match="n=64"):
            replay_replica(
                load_manifest(path), 0, protocol=other.protocol,
                population=other.population, stop=other.stop,
            )
        with pytest.raises(ValueError, match=path.replace("\\", "\\\\")):
            resume_sweep(
                path, protocol=other.protocol,
                population=other.population, stop=other.stop, processes=1,
            )

    def test_matching_fingerprint_passes(self, tmp_path):
        from repro.obs import verify_fingerprint

        workload, path, _ = sweep(tmp_path)
        verify_fingerprint(
            load_manifest(path), workload.protocol, workload.population
        )


class TestReplayObserver:
    def observed_sweep(self, tmp_path, grid):
        workload = build_workload("epidemic", n=150)
        path = str(tmp_path / "observed.jsonl")
        rs = run_replicas(
            workload.protocol,
            workload.population,
            replicas=1,
            engine="batch",
            seed=11,
            processes=1,
            stop=workload.stop,
            manifest=path,
            manifest_meta={"workload": workload.spec()},
            observer=lambda t, p: grid.append((t, p.count(V("I")))),
            observe_every=0.5,
        )
        return workload, path, rs

    def test_observer_passthrough_restores_bit_identity(self, tmp_path):
        # observer presence arms the engines' observation grid and with it
        # the batch boundaries, so a run recorded with an observer replays
        # bit-identically only when the replay re-supplies one
        original_grid = []
        _, path, rs = self.observed_sweep(tmp_path, original_grid)
        record = rs.records[0]
        assert original_grid, "observer never fired"

        replay_grid = []
        fresh = replay_replica(
            load_manifest(path), 0,
            observer=lambda t, p: replay_grid.append((t, p.count(V("I")))),
        )
        assert fresh.interactions == record.interactions
        assert fresh.rounds == record.rounds
        assert fresh.converged == record.converged
        assert replay_grid == original_grid

    def test_ensemble_manifest_rejects_observer(self, tmp_path):
        workload = build_workload("epidemic", n=80)
        path = str(tmp_path / "ens.jsonl")
        run_replicas(
            workload.protocol,
            workload.population,
            replicas=2,
            engine="ensemble",
            seed=5,
            processes=1,
            stop=workload.stop,
            manifest=path,
            manifest_meta={"workload": workload.spec()},
        )
        with pytest.raises(ValueError, match="does not support observers"):
            replay_replica(
                load_manifest(path), 0, observer=lambda t, p: None
            )
