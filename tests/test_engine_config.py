"""EngineConfig: the typed engine-construction path.

One frozen config carries engine name + construction knobs through
``make_engine`` / ``simulate`` / ``run_replicas``, into manifest headers
and service journals, and back out through ``replay_replica`` /
``resume_sweep`` / service recovery.  Records written by older releases
(``engine``/``engine_opts`` headers, configs naming a ``backend``) still
replay bit-identically, and so do configs naming a retired fidelity
knob at the value its engine constant now fixes.
"""

import http.client
import json
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from repro import (
    EngineConfig,
    build_workload,
    load_manifest,
    make_engine,
    replay_replica,
    resume_sweep,
    run_replicas,
    simulate,
)
from repro.engine import BatchCountEngine, CountEngine, EnsembleEngine
from repro.obs import _header_config
from repro.service import JobQueue, ServiceApp, SubmitRequest
from repro.service.store import RunStore


def epidemic(n=120):
    workload = build_workload("epidemic", n=n)
    return workload


# -- construction + projection ----------------------------------------------


class TestEngineConfig:
    def test_defaults_project_nothing(self):
        cfg = EngineConfig()
        assert cfg.engine == "auto"
        assert cfg.engine_kwargs(BatchCountEngine) == {}

    def test_typed_knobs_reach_supporting_engines(self):
        cfg = EngineConfig(engine="batch", batch=8, guards=True)
        kwargs = cfg.engine_kwargs(BatchCountEngine)
        assert kwargs == {"batch": 8, "guards": True}

    def test_inapplicable_knob_is_dropped_silently(self):
        # CountEngine has no batching; the config describes intent
        cfg = EngineConfig(engine="count", batch=8)
        assert "batch" not in cfg.engine_kwargs(CountEngine)

    def test_extra_passes_through_and_typos_fail_loudly(self):
        workload = epidemic()
        cfg = EngineConfig(engine="batch", extra={"definitely_not_a_knob": 1})
        with pytest.raises(TypeError):
            make_engine(workload.protocol, workload.population, cfg)

    def test_round_trip_as_dict_from_dict(self):
        cfg = EngineConfig(
            engine="ensemble",
            batch=4,
            guards=True,
            ensemble_chunk=8,
            extra={"rows": 3},
        )
        assert EngineConfig.from_dict(cfg.as_dict()) == cfg

    def test_from_dict_unknown_keys_survive_into_extra(self):
        cfg = EngineConfig.from_dict({"engine": "batch", "rows": 7})
        assert cfg.engine == "batch"
        assert cfg.extra == {"rows": 7}

    def test_picklable(self):
        cfg = EngineConfig(engine="batch", guards=True)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_from_dict_drops_retired_backend_key(self):
        for value in ("numpy", "cupy", "jax"):
            cfg = EngineConfig.from_dict({"engine": "batch", "backend": value})
            assert cfg == EngineConfig(engine="batch")

    def test_from_dict_drops_retired_cache_key(self):
        # the key chose where a compiled table was stored, never a path
        for value in ("auto", None, False, "/some/dir"):
            cfg = EngineConfig.from_dict({"engine": "batch", "cache": value})
            assert cfg == EngineConfig(engine="batch")
            assert "cache" not in cfg.as_dict()


class TestCoerce:
    def test_config_in_engine_slot_is_canonical(self):
        cfg = EngineConfig(engine="batch")
        assert EngineConfig.coerce(cfg) is cfg

    def test_config_plus_config_kwarg_conflicts(self):
        cfg = EngineConfig(engine="batch")
        with pytest.raises(ValueError, match="not both"):
            EngineConfig.coerce(cfg, config=cfg)

    def test_engine_name_adopted_when_config_is_auto(self):
        cfg = EngineConfig()
        assert EngineConfig.coerce("batch", config=cfg).engine == "batch"

    def test_conflicting_engine_names_raise(self):
        cfg = EngineConfig(engine="count")
        with pytest.raises(ValueError, match="conflicting engine"):
            EngineConfig.coerce("batch", config=cfg)


# -- one way to configure an engine ------------------------------------------


class TestDeprecation:
    def test_config_path_is_warning_free(self):
        workload = epidemic()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_engine(
                workload.protocol, workload.population.copy(),
                EngineConfig(engine="batch", batch=2), seed=0,
            )

    def test_loose_engine_kwargs_are_rejected(self):
        workload = epidemic()
        with pytest.raises(TypeError):
            make_engine(
                workload.protocol, workload.population.copy(),
                engine="batch", seed=0, batch=2,
            )
        with pytest.raises(TypeError):
            simulate(
                workload.protocol, workload.population.copy(),
                engine="batch", seed=0, engine_opts={"batch": 2}, rounds=1.0,
            )


# -- make_engine / simulate integration --------------------------------------


class TestMakeEngine:
    def test_config_selects_engine(self):
        workload = epidemic()
        eng = make_engine(
            workload.protocol, workload.population.copy(),
            EngineConfig(engine="batch", batch=4), seed=0,
        )
        assert isinstance(eng, BatchCountEngine)
        assert eng.batch == 4
        eng = make_engine(
            workload.protocol, workload.population.copy(),
            EngineConfig(engine="ensemble"), seed=0,
        )
        assert isinstance(eng, EnsembleEngine)

    def test_plain_engine_name_stays_first_class(self):
        workload = epidemic()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            eng = make_engine(
                workload.protocol, workload.population.copy(),
                engine="count", seed=0,
            )
        assert isinstance(eng, CountEngine)


# -- manifest round-trip ------------------------------------------------------


def sweep(tmp_path, config, replicas=3, seed=9, **kwargs):
    workload = epidemic()
    path = str(tmp_path / "run.jsonl")
    rs = run_replicas(
        workload.protocol,
        workload.population,
        replicas=replicas,
        seed=seed,
        processes=1,
        stop=workload.stop,
        config=config,
        manifest=path,
        manifest_meta={"workload": workload.spec()},
        **kwargs,
    )
    return workload, path, rs


class TestManifestConfig:
    def test_header_records_config(self, tmp_path):
        cfg = EngineConfig(engine="batch", guards=True)
        _, path, _ = sweep(tmp_path, cfg)
        header = load_manifest(path).header
        assert header["config"] == {"engine": "batch", "guards": True}
        assert "engine" not in header and "engine_opts" not in header
        assert _header_config(header) == cfg

    def test_replay_restores_exact_config(self, tmp_path):
        cfg = EngineConfig(engine="batch", guards=True)
        _, path, rs = sweep(tmp_path, cfg)
        manifest = load_manifest(path)
        for record in rs.records:
            fresh = replay_replica(manifest, record.index)
            assert fresh.rounds == record.rounds
            assert fresh.interactions == record.interactions
            assert fresh.converged == record.converged

    def test_ensemble_config_round_trip(self, tmp_path):
        cfg = EngineConfig(engine="ensemble", ensemble_chunk=2)
        _, path, rs = sweep(tmp_path, cfg, replicas=4)
        manifest = load_manifest(path)
        assert _header_config(manifest.header) == cfg
        fresh = replay_replica(manifest, 1)
        assert fresh.interactions == rs.records[1].interactions
        assert fresh.rounds == rs.records[1].rounds

    def test_resume_restores_config(self, tmp_path):
        cfg = EngineConfig(engine="batch", guards=True)
        workload, full_path, full = sweep(tmp_path, cfg, replicas=4, seed=11)
        partial_path = str(tmp_path / "partial.jsonl")
        run_replicas(
            workload.protocol,
            workload.population,
            replicas=4,
            seed=11,
            processes=1,
            stop=workload.stop,
            config=cfg,
            manifest=partial_path,
            manifest_meta={"workload": workload.spec()},
            indices=[0, 2],
        )
        resumed = resume_sweep(partial_path, processes=1)
        by_index = {r.index: r for r in resumed.records}
        for record in full.records:
            assert by_index[record.index].interactions == record.interactions
            assert by_index[record.index].rounds == record.rounds
        header = load_manifest(partial_path).header
        assert _header_config(header) == cfg


# -- records written by 1.3.0 and earlier ------------------------------------


def _rewrite_header(path, edit):
    with open(path) as fh:
        lines = fh.readlines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _v2_header(header):
    """Schema-2 shape: no config, only the flat engine/engine_opts keys."""
    del header["config"]
    header["schema_version"] = 2
    header["engine"] = "batch"
    header["engine_opts"] = {"backend": "numpy", "guards": True}


def _v3_backend_header(header):
    """Schema-3 shape of 1.3.0: the config still names its array backend."""
    header["config"]["backend"] = "numpy"


def _v3_compiled_header(header):
    """Schema-3 shape of 1.3.0 with the retired ``compiled: true`` knob."""
    header["config"]["compiled"] = True


def _v3_compile_limit_header(header):
    """Schema-3 shape of 1.3.0 with a ``compile_limit`` the closure fits."""
    header["config"]["compile_limit"] = 64


def _v3_accuracy_header(header):
    """A config naming the retired ``accuracy`` knob at its constant."""
    header["config"]["accuracy"] = 0.05


def _v3_cache_header(header):
    """Schema-3 shape written while closed tables were cached on disk:
    the config names its ``cache`` directory, and the header carries the
    sweep's ``table_prewarm`` block after ``protocol``."""
    config = header["config"]
    config = dict(engine=config.pop("engine"), cache="/tmp/tables", **config)
    edited = {}
    for key, value in header.items():
        edited[key] = config if key == "config" else value
        if key == "protocol":
            edited["table_prewarm"] = {
                "table_cache": "miss", "table_compile_seconds": 0.00062,
            }
    header.clear()
    header.update(edited)


class TestOldRecords:
    CFG = EngineConfig(engine="batch", guards=True)

    @pytest.mark.parametrize(
        "edit",
        [_v2_header, _v3_backend_header, _v3_compiled_header,
         _v3_compile_limit_header, _v3_accuracy_header, _v3_cache_header],
        ids=["v2-engine-opts", "v3-config-backend", "v3-compiled-true",
             "v3-compile-limit", "v3-accuracy-default", "v3-cache-prewarm"],
    )
    def test_old_header_replays_bit_identically(self, tmp_path, edit):
        _, path, rs = sweep(tmp_path, self.CFG)
        _rewrite_header(path, edit)
        manifest = load_manifest(path)
        assert _header_config(manifest.header) == self.CFG
        for record in rs.records:
            fresh = replay_replica(manifest, record.index)
            assert fresh.rounds == record.rounds
            assert fresh.interactions == record.interactions
            assert fresh.converged == record.converged

    def test_old_cache_header_resumes_bit_identically(self, tmp_path):
        workload, _, full = sweep(tmp_path, self.CFG, replicas=4, seed=11)
        partial = str(tmp_path / "partial.jsonl")
        run_replicas(
            workload.protocol, workload.population, replicas=4, seed=11,
            processes=1, stop=workload.stop, config=self.CFG,
            manifest=partial, manifest_meta={"workload": workload.spec()},
            indices=[0, 2],
        )
        _rewrite_header(partial, _v3_cache_header)
        resumed = resume_sweep(partial, processes=1)
        assert [r.index for r in resumed.records] == [0, 1, 2, 3]
        for mine, theirs in zip(resumed.records, full.records):
            assert mine.rounds == theirs.rounds
            assert mine.interactions == theirs.interactions
            assert mine.converged == theirs.converged
        header = load_manifest(partial).header
        assert header["config"]["cache"] == "/tmp/tables"
        assert _header_config(header) == self.CFG

    def test_compiled_false_names_the_legacy_path(self, tmp_path):
        # compiled: false selected the retired legacy batch path, whose
        # sample paths nothing reproduces: refuse instead of replaying
        # something else under its name
        with pytest.raises(ValueError, match="legacy dense-support batch path"):
            EngineConfig.from_dict({"engine": "batch", "compiled": False})
        _, path, _ = sweep(tmp_path, self.CFG)
        _rewrite_header(path, lambda h: h["config"].update(compiled=False))
        with pytest.raises(ValueError, match="legacy dense-support"):
            replay_replica(load_manifest(path), 0)

    def test_compiled_false_is_a_400(self, tmp_path):
        handle = ServiceApp(str(tmp_path / "runs"), workers=1).start_background()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            conn.request(
                "POST", "/runs",
                json.dumps({
                    "workload": "epidemic", "params": {"n": 120},
                    "replicas": 2, "seed": 9,
                    "config": {"engine": "batch", "compiled": False},
                }),
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            status, payload = resp.status, json.loads(resp.read())
        finally:
            conn.close()
            handle.stop()
        assert status == 400
        assert "legacy dense-support batch path" in payload["error"]

    def test_journaled_job_with_backend_recovers_bit_identically(
        self, tmp_path
    ):
        spec = {
            "workload": "epidemic", "params": {"n": 120}, "replicas": 3,
            "seed": 9, "config": {"engine": "batch"},
        }
        root = str(tmp_path / "runs")
        store = ServiceApp(root, recover=False).store
        run_id = store.create(SubmitRequest.from_payload(spec))
        request_path = os.path.join(store.run_dir(run_id), "request.json")
        with open(request_path) as fh:
            stored = json.load(fh)
        stored["config"]["backend"] = "numpy"
        with open(request_path, "w") as fh:
            json.dump(stored, fh)
        store.append_journal(run_id, "started")  # killed before any work

        app = ServiceApp(root, workers=1)
        assert app.recovered == [run_id]
        handle = app.start_background()
        try:
            deadline = time.monotonic() + 60.0
            while app.store.status(run_id)["state"] != "done":
                assert time.monotonic() < deadline, app.store.status(run_id)
                time.sleep(0.02)
        finally:
            handle.stop()
        served = load_manifest(app.store.manifest_path(run_id))
        workload = build_workload("epidemic", n=120)
        control = run_replicas(
            workload.protocol, workload.population, replicas=3, seed=9,
            processes=1, stop=workload.stop,
            config=EngineConfig(engine="batch"),
        )
        for record in control.records:
            loaded = served.record(record.index)
            assert loaded.rounds == record.rounds
            assert loaded.interactions == record.interactions
            assert loaded.converged == record.converged


def test_a_submitted_cache_key_writes_nothing(tmp_path):
    """A client's ``config.cache`` once named a directory the job's
    sandbox child created and wrote a compiled table into."""
    planted = tmp_path / "planted"
    queue = JobQueue(RunStore(str(tmp_path / "runs")), workers=1)
    try:
        job = queue.submit(SubmitRequest.from_payload({
            "workload": "epidemic", "params": {"n": 120}, "replicas": 2,
            "seed": 9, "config": {"engine": "batch", "cache": str(planted)},
        }))
        deadline = time.monotonic() + 120.0
        while not job.terminal and time.monotonic() < deadline:
            job.wait_events(len(job.events_since(0)), timeout=1.0)
        assert job.state == "done"
    finally:
        queue.shutdown()
    assert not planted.exists()


class TestRetiredKnobs:
    """The seven fidelity knobs are engine constants now."""

    CFG = EngineConfig(engine="bghkpu", guards=True)

    def test_header_at_the_constant_replays_bit_identically(self, tmp_path):
        _, path, rs = sweep(tmp_path, self.CFG)
        _rewrite_header(path, lambda h: h["config"].update(collision_frac=0.2))
        manifest = load_manifest(path)
        assert _header_config(manifest.header) == self.CFG
        for record in rs.records:
            fresh = replay_replica(manifest, record.index)
            assert fresh.rounds == record.rounds
            assert fresh.interactions == record.interactions
            assert fresh.converged == record.converged

    def test_header_off_the_constant_raises(self, tmp_path):
        _, path, _ = sweep(tmp_path, self.CFG)
        _rewrite_header(
            path, lambda h: h["config"].update(collision_frac=0.15)
        )
        with pytest.raises(ValueError, match="collision_frac=0.15"):
            replay_replica(load_manifest(path), 0)

    def test_stored_alias_patch_frac_must_be_zero(self):
        """The sum patch is gone: ``0.0`` (patching off) is the only
        stored value whose runs still replay."""
        stored = {"engine": "bghkpu", "alias_patch_frac": 0.0}
        assert EngineConfig.from_dict(stored) == EngineConfig(engine="bghkpu")
        with pytest.raises(ValueError, match="alias_patch_frac=0.25"):
            EngineConfig.from_dict(dict(stored, alias_patch_frac=0.25))

    def test_knob_the_engine_never_read_is_dropped(self):
        for stored in (
            {"engine": "batch", "collision_frac": 0.15},
            {"engine": "count", "accuracy": 0.01},
            {"engine": "auto", "batch_autotune": False},
        ):
            cfg = EngineConfig.from_dict(stored)
            assert cfg == EngineConfig(engine=stored["engine"])

    def test_shared_knobs_are_read_by_every_batching_engine(self):
        for engine in ("auto", "batch", "bghkpu", "ensemble"):
            with pytest.raises(ValueError, match="min_batch_events=4.0"):
                EngineConfig.from_dict(
                    {"engine": engine, "min_batch_events": 4.0}
                )

    def test_retired_knob_is_a_400(self, tmp_path):
        handle = ServiceApp(str(tmp_path / "runs"), workers=1).start_background()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            conn.request(
                "POST", "/runs",
                json.dumps({
                    "workload": "epidemic", "params": {"n": 120},
                    "replicas": 2, "seed": 9,
                    "config": {"engine": "batch", "accuracy": 0.01},
                }),
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            status, payload = resp.status, json.loads(resp.read())
        finally:
            conn.close()
            handle.stop()
        assert status == 400
        assert payload["error"].startswith("bad config: ")
        assert "accuracy=0.01" in payload["error"]


# -- CLI surface ---------------------------------------------------------------


class TestCLI:
    def test_unknown_engine_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["majority", "--n", "200", "--engine", "nope"])
        assert excinfo.value.code == 2

    def test_ensemble_chunk_conflicts_with_other_engine(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "epidemic", "--n", "100", "--replicas", "2",
                "--engine", "batch", "--ensemble-chunk", "2",
            ])
        assert excinfo.value.code == 2
        assert "--ensemble-chunk" in capsys.readouterr().err

    def test_config_from_args_chunk(self):
        from repro.__main__ import _config_from_args, build_parser

        args = build_parser().parse_args([
            "sweep", "epidemic", "--ensemble-chunk", "4",
        ])
        cfg = _config_from_args(args)
        assert cfg == EngineConfig(engine="ensemble", ensemble_chunk=4)


class TestInterpreterConfig:
    def test_interpreter_accepts_config(self):
        from repro.core import Population, V
        from repro.lang import IdealInterpreter, parse_program, program_schema

        program = parse_program(
            "def protocol Tiny\n"
            "var X <- off:\n"
            "thread Main uses X:\n"
            "  repeat:\n"
            "    X := on\n"
        )
        schema = program_schema(program)
        population = Population.uniform(
            schema, 60, {decl.name: decl.init for decl in program.variables}
        )
        interp = IdealInterpreter(
            program,
            population,
            rng=np.random.default_rng(0),
            engine=EngineConfig(engine="count"),
        )
        interp.run(1)
        assert interp.engine == "count"
        assert interp.iterations == 1
