"""End-to-end tests of the simulation service.

The server (stdlib asyncio HTTP, see :mod:`repro.service.http`) runs in a
background thread on an ephemeral port and is exercised with plain
``http.client`` — the same wire a CI smoke job or an external caller
uses.  The suite covers the full submit → stream → fetch → replay loop,
backpressure (429 + Retry-After with a deterministically blocked
worker), cancellation leaving a resumable manifest, and the service's
correctness anchor: ``GET /runs/{id}/replay/{k}`` matching the library's
own :func:`repro.obs.replay_replica` bit for bit.
"""

import http.client
import json
import threading
import time

import pytest

from repro import EngineConfig, build_workload, load_manifest, run_replicas
from repro.obs import replay_replica, resume_sweep
from repro.service import ServiceApp, SubmitRequest
from repro.service.schema import ServiceError
from repro.service import sandbox as sandbox_module
from repro.service.jobs import Job
from repro.service.store import RunStore


# -- tiny HTTP client ---------------------------------------------------------

def call(port, method, path, body=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    try:
        conn.request(method, path, data, headers)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw
    finally:
        conn.close()


def call_json(port, method, path, body=None, timeout=60.0):
    status, headers, raw = call(port, method, path, body, timeout)
    return status, headers, json.loads(raw.decode()) if raw else None


def stream_events(port, run_id, start=0, timeout=120.0):
    """Read the chunked JSONL event stream to completion."""
    status, _, raw = call(
        port, "GET", "/runs/{}/events?from={}".format(run_id, start),
        timeout=timeout,
    )
    assert status == 200
    return [json.loads(line) for line in raw.decode().splitlines() if line]


def wait_state(port, run_id, states, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, payload = call_json(port, "GET", "/runs/" + run_id)
        assert status == 200
        if payload["state"] in states:
            return payload
        time.sleep(0.02)
    raise AssertionError(
        "run {} never reached {} (last: {})".format(run_id, states, payload)
    )


@pytest.fixture
def server(tmp_path, inline_jobs):
    # in-process jobs keep this suite fast; the sandboxed path is
    # exercised end to end by tests/test_service_survival.py
    app = ServiceApp(str(tmp_path / "runs"), workers=2, capacity=8)
    handle = app.start_background()
    yield handle
    handle.stop()


SUBMIT = {
    "workload": "epidemic",
    "params": {"n": 120},
    "replicas": 3,
    "seed": 9,
    "config": {"engine": "batch"},
}


# -- request validation (no server needed) ------------------------------------

class TestSchema:
    def test_round_trip(self):
        req = SubmitRequest.from_payload(dict(SUBMIT, label="demo"))
        again = SubmitRequest.from_dict(req.as_dict())
        assert again.as_dict() == req.as_dict()
        assert again.config == EngineConfig(engine="batch")

    @pytest.mark.parametrize("payload,fragment", [
        ([1, 2], "JSON object"),
        ({}, "workload must be one of"),
        ({"workload": "nope"}, "workload must be one of"),
        (dict(SUBMIT, replicas=0), "replicas must be"),
        (dict(SUBMIT, replicas=True), "replicas must be"),
        (dict(SUBMIT, seed=-1), "seed must be"),
        (dict(SUBMIT, config={"engine": "batch", "typo": 1}),
         "unknown config keys: typo"),
        (dict(SUBMIT, run={"walltime": 3}), "unknown run keys: walltime"),
        (dict(SUBMIT, run={"rounds": -1}), "run.rounds must be"),
        (dict(SUBMIT, params={"n": -5}), "bad workload params"),
        (dict(SUBMIT, params={"bogus": 1}), "bad workload params"),
        (dict(SUBMIT, mystery=1), "unknown request keys: mystery"),
        (dict(SUBMIT, observe=True, config={"engine": "ensemble"}),
         "ensemble"),
    ])
    def test_rejections_are_400(self, payload, fragment):
        with pytest.raises(ServiceError) as err:
            SubmitRequest.from_payload(payload)
        assert err.value.status == 400
        assert fragment in err.value.message

    def test_observe_defaults_a_grid_step(self):
        req = SubmitRequest.from_payload(dict(SUBMIT, observe=True))
        assert req.run_kwargs["observe_every"] == 1.0


class TestStore:
    def test_create_status_request_round_trip(self, tmp_path):
        store = RunStore(str(tmp_path))
        req = SubmitRequest.from_payload(SUBMIT)
        run_id = store.create(req)
        assert store.status(run_id)["state"] == "queued"
        assert store.request(run_id).as_dict() == req.as_dict()
        store.set_status(run_id, "done", done=3)
        status = store.status(run_id)
        assert status["state"] == "done"
        assert status["replicas"] == 3  # earlier fields survive updates
        assert [s["run_id"] for s in store.list_runs()] == [run_id]

    def test_traversal_is_a_404(self, tmp_path):
        store = RunStore(str(tmp_path))
        for bad in ("../evil", "..", "a/b", "x" * 12):
            with pytest.raises(ServiceError) as err:
                store.status(bad)
            assert err.value.status == 404


# -- the full loop over HTTP --------------------------------------------------

class TestSubmitStreamFetch:
    def test_round_trip_matches_library_run(self, server, tmp_path):
        port = server.port
        status, _, accepted = call_json(port, "POST", "/runs", SUBMIT)
        assert status == 202
        run_id = accepted["run_id"]
        assert accepted["state"] == "queued"

        events = stream_events(port, run_id)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "state"  # running
        assert kinds[-1] == "state" and events[-1]["state"] == "done"
        replica_events = [e for e in events if e["kind"] == "replica"]
        assert sorted(e["index"] for e in replica_events) == [0, 1, 2]
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress[-1] == {
            "kind": "progress", "done": 3, "total": 3,
            "seq": progress[-1]["seq"],
        }

        final = wait_state(port, run_id, {"done"})
        assert final["done"] == 3
        assert final["converged"] == 3
        assert final["manifest"] is True
        assert final["request"]["workload"] == "epidemic"

        # the served manifest is a real repro.obs manifest whose records
        # are bit-identical to the same sweep run through the library
        status, headers, raw = call(port, "GET", "/runs/%s/manifest" % run_id)
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        manifest_path = tmp_path / "served.jsonl"
        manifest_path.write_bytes(raw)
        served = load_manifest(str(manifest_path))
        workload = build_workload("epidemic", n=120)
        rs = run_replicas(
            workload.protocol, workload.population, replicas=3,
            config=EngineConfig(engine="batch"), seed=9, processes=1,
            stop=workload.stop,
        )
        for record in rs:
            loaded = served.record(record.index)
            assert loaded.interactions == record.interactions
            assert loaded.rounds == record.rounds
            assert loaded.converged == record.converged

    def test_stream_resumes_from_cursor_after_completion(self, server):
        port = server.port
        _, _, accepted = call_json(port, "POST", "/runs", SUBMIT)
        run_id = accepted["run_id"]
        wait_state(port, run_id, {"done"})
        full = stream_events(port, run_id)  # persisted-log path
        tail = stream_events(port, run_id, start=2)
        assert tail == full[2:]
        assert all(e["seq"] == k for k, e in enumerate(full))

    def test_run_listing(self, server):
        port = server.port
        _, _, accepted = call_json(port, "POST", "/runs", SUBMIT)
        wait_state(port, accepted["run_id"], {"done"})
        status, _, listing = call_json(port, "GET", "/runs")
        assert status == 200
        assert accepted["run_id"] in [r["run_id"] for r in listing["runs"]]

    def test_healthz(self, server):
        status, _, payload = call_json(server.port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workloads"] == ["clock", "epidemic", "leader"]
        assert payload["queue_depth"] == 0
        assert payload["active_jobs"] == 0
        assert isinstance(payload["store_bytes"], int)
        assert "last_checkpoint_age" in payload


class TestReplayEndpoint:
    def test_replay_is_bit_identical_to_library(self, server, tmp_path):
        port = server.port
        _, _, accepted = call_json(port, "POST", "/runs", SUBMIT)
        run_id = accepted["run_id"]
        wait_state(port, run_id, {"done"})

        status, _, payload = call_json(
            port, "GET", "/runs/{}/replay/1".format(run_id)
        )
        assert status == 200
        assert payload["match"] is True
        assert payload["recorded"] == payload["replayed"]

        # and the endpoint agrees with replay_replica run by hand
        _, _, raw = call(port, "GET", "/runs/%s/manifest" % run_id)
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_bytes(raw)
        fresh = replay_replica(load_manifest(str(manifest_path)), 1)
        assert fresh.interactions == payload["recorded"]["interactions"]
        assert fresh.rounds == payload["recorded"]["rounds"]

    def test_replay_unknown_replica_is_404(self, server):
        port = server.port
        _, _, accepted = call_json(port, "POST", "/runs", SUBMIT)
        run_id = accepted["run_id"]
        wait_state(port, run_id, {"done"})
        status, _, payload = call_json(
            port, "GET", "/runs/{}/replay/99".format(run_id)
        )
        assert status == 404
        assert "99" in payload["error"]

    def test_ensemble_chunks_align_with_library_run(self, server, tmp_path):
        # the ensemble engine stacks rows, so the service's checkpoint
        # groups must cut exactly where a plain library call would
        port = server.port
        submit = {
            "workload": "epidemic", "params": {"n": 100}, "replicas": 5,
            "seed": 3,
            "config": {"engine": "ensemble", "ensemble_chunk": 2},
        }
        _, _, accepted = call_json(port, "POST", "/runs", submit)
        run_id = accepted["run_id"]
        final = wait_state(port, run_id, {"done", "failed"})
        assert final["state"] == "done"

        _, _, raw = call(port, "GET", "/runs/%s/manifest" % run_id)
        manifest_path = tmp_path / "ens.jsonl"
        manifest_path.write_bytes(raw)
        served = load_manifest(str(manifest_path))
        workload = build_workload("epidemic", n=100)
        rs = run_replicas(
            workload.protocol, workload.population, replicas=5,
            config=EngineConfig(engine="ensemble", ensemble_chunk=2),
            seed=3, processes=1, stop=workload.stop,
        )
        for record in rs:
            loaded = served.record(record.index)
            assert loaded.interactions == record.interactions
            assert loaded.converged == record.converged

        status, _, payload = call_json(
            port, "GET", "/runs/{}/replay/3".format(run_id)
        )
        assert status == 200 and payload["match"] is True


class TestObserverStreaming:
    def test_grid_events_and_observed_replay(self, server):
        port = server.port
        submit = {
            "workload": "epidemic", "params": {"n": 150}, "replicas": 1,
            "seed": 11, "config": {"engine": "batch"},
            "observe": True, "run": {"observe_every": 0.5},
        }
        _, _, accepted = call_json(port, "POST", "/runs", submit)
        run_id = accepted["run_id"]
        events = stream_events(port, run_id)
        grid = [e for e in events if e["kind"] == "grid"]
        assert grid, "observer grid never streamed"
        assert all(e["replica"] == 0 for e in grid)
        assert [e["t"] for e in grid] == sorted(e["t"] for e in grid)
        for event in grid:
            assert sum(event["counts"].values()) == 150

        # replay of an observer-armed run still matches bit for bit
        # (the endpoint re-arms an observer; a bare replay would not)
        status, _, payload = call_json(
            port, "GET", "/runs/{}/replay/0".format(run_id)
        )
        assert status == 200
        assert payload["match"] is True


# -- backpressure and cancellation -------------------------------------------

@pytest.fixture
def gated_run_replicas(monkeypatch, inline_jobs):
    """Make (in-process) worker jobs block inside their first run_replicas."""
    gate = threading.Event()
    entered = threading.Event()
    original = sandbox_module.run_replicas

    def gated(*args, **kwargs):
        entered.set()
        assert gate.wait(60.0), "test never released the worker gate"
        return original(*args, **kwargs)

    monkeypatch.setattr(sandbox_module, "run_replicas", gated)
    yield gate, entered
    gate.set()  # never leave a worker stuck past the test


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(
        self, tmp_path, gated_run_replicas
    ):
        gate, entered = gated_run_replicas
        app = ServiceApp(
            str(tmp_path / "runs"), workers=1, capacity=1, retry_after=2.5,
        )
        handle = app.start_background()
        try:
            port = handle.port
            _, _, first = call_json(port, "POST", "/runs", SUBMIT)
            assert entered.wait(30.0)  # worker holds job 1, queue empty
            status, _, second = call_json(port, "POST", "/runs", SUBMIT)
            assert status == 202  # fills the single queue slot

            status, headers, payload = call_json(port, "POST", "/runs", SUBMIT)
            assert status == 429
            assert headers["Retry-After"] == "2.5"
            assert "retry" in payload["error"]
            # the rejected submission left nothing behind in the store
            _, _, listing = call_json(port, "GET", "/runs")
            assert len(listing["runs"]) == 2

            gate.set()
            for accepted in (first, second):
                final = wait_state(port, accepted["run_id"], {"done"})
                assert final["done"] == 3
        finally:
            gate.set()
            handle.stop()


class TestSettledJobs:
    def test_settled_jobs_leave_the_queue_and_replay_from_the_store(
        self, tmp_path, monkeypatch, gated_run_replicas
    ):
        """A settled job is dropped from the queue's table; its events,
        read back from ``events.jsonl`` at any cursor, are exactly what
        a live stream returned, and cancel answers from the store."""
        gate, entered = gated_run_replicas
        attached = []
        wait_events = Job.wait_events

        def spy(job, start, timeout=10.0):
            attached.append(job.run_id)
            return wait_events(job, start, timeout)

        monkeypatch.setattr(Job, "wait_events", spy)
        app = ServiceApp(str(tmp_path / "runs"), workers=1, capacity=4)
        handle = app.start_background()
        try:
            port = handle.port
            live = {}
            for _ in range(3):
                gate.clear()
                entered.clear()
                _, _, accepted = call_json(port, "POST", "/runs", SUBMIT)
                run_id = accepted["run_id"]
                assert entered.wait(30.0)  # running, held at the gate
                reader = threading.Thread(
                    target=lambda: live.setdefault(
                        run_id, stream_events(port, run_id)
                    )
                )
                reader.start()
                deadline = time.monotonic() + 30.0
                while run_id not in attached and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert run_id in attached  # the stream follows the live job
                gate.set()
                reader.join(60.0)
                assert live[run_id][-1]["state"] == "done"
            deadline = time.monotonic() + 30.0
            while app.jobs._jobs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert app.jobs._jobs == {}
            for run_id, events in live.items():
                for k in range(len(events) + 1):
                    assert stream_events(port, run_id, start=k) == events[k:]
                status, _, payload = call_json(
                    port, "POST", "/runs/{}/cancel".format(run_id)
                )
                assert status == 200 and payload["state"] == "done"
        finally:
            gate.set()
            handle.stop()


class TestCancellation:
    def test_cancel_leaves_resumable_manifest(
        self, tmp_path, monkeypatch, inline_jobs
    ):
        # let the first index group through, block before the second, and
        # cancel while blocked: the job must stop at the group boundary
        # with a well-formed manifest that resume_sweep can finish
        original = sandbox_module.run_replicas
        first_done = threading.Event()
        release = threading.Event()
        calls = []

        def gated(*args, **kwargs):
            rs = original(*args, **kwargs)
            calls.append(kwargs.get("indices"))
            if len(calls) == 1:
                first_done.set()
                assert release.wait(60.0)
            return rs

        monkeypatch.setattr(sandbox_module, "run_replicas", gated)
        app = ServiceApp(str(tmp_path / "runs"), workers=1, capacity=4)
        handle = app.start_background()
        try:
            port = handle.port
            _, _, accepted = call_json(
                port, "POST", "/runs", dict(SUBMIT, replicas=4)
            )
            run_id = accepted["run_id"]
            assert first_done.wait(30.0)
            status, _, _payload = call_json(
                port, "POST", "/runs/{}/cancel".format(run_id)
            )
            assert status == 200
            release.set()

            final = wait_state(port, run_id, {"cancelled"})
            assert 0 < final["done"] < 4
            assert calls == [[0]]  # group 2 was never started

            # replaying a replica that never ran is a clean 404 ...
            status, _, _payload = call_json(
                port, "GET", "/runs/{}/replay/3".format(run_id)
            )
            assert status == 404

            # ... and the checkpoint resumes to the full bit-identical sweep
            manifest_path = app.store.manifest_path(run_id)
            resumed = resume_sweep(manifest_path, processes=1)
            assert len(resumed) == 4
            workload = build_workload("epidemic", n=120)
            rs = run_replicas(
                workload.protocol, workload.population, replicas=4,
                config=EngineConfig(engine="batch"), seed=9, processes=1,
                stop=workload.stop,
            )
            by_index = {r.index: r for r in resumed.records}
            for record in rs:
                assert by_index[record.index].interactions == record.interactions
        finally:
            release.set()
            handle.stop()

    def test_cancel_while_queued_never_runs(self, tmp_path, gated_run_replicas):
        # cancelling a job that is still waiting in the queue must settle
        # it as ``cancelled`` without ever spawning work: no worker run,
        # no manifest, done == 0
        gate, entered = gated_run_replicas
        app = ServiceApp(str(tmp_path / "runs"), workers=1, capacity=4)
        handle = app.start_background()
        try:
            port = handle.port
            _, _, first = call_json(port, "POST", "/runs", SUBMIT)
            assert entered.wait(30.0)  # the only worker is now held busy
            _, _, queued = call_json(port, "POST", "/runs", SUBMIT)
            run_id = queued["run_id"]
            status, _, payload = call_json(
                port, "POST", "/runs/{}/cancel".format(run_id)
            )
            assert status == 200

            gate.set()
            final = wait_state(port, run_id, {"cancelled"})
            assert final["done"] == 0
            assert final["manifest"] is False
            assert not app.store.manifest_exists(run_id)
            # the job ahead of it is untouched by the cancellation
            done = wait_state(port, first["run_id"], {"done"})
            assert done["done"] == 3
        finally:
            gate.set()
            handle.stop()


class TestTransportErrors:
    def test_unknown_run_is_404(self, server):
        for path in (
            "/runs/ffffffffffff", "/runs/ffffffffffff/events",
            "/runs/ffffffffffff/manifest", "/runs/ffffffffffff/replay/0",
        ):
            status, _, payload = call_json(server.port, "GET", path)
            assert status == 404, path
            assert "error" in payload

    def test_bad_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST", "/runs", b"{not json",
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"not valid JSON" in resp.read()
        finally:
            conn.close()

    def test_unknown_endpoint_and_method(self, server):
        status, _, _payload = call_json(server.port, "GET", "/nope")
        assert status == 404
        status, _, _payload = call_json(
            server.port, "GET", "/runs/ffffffffffff/cancel"
        )
        assert status == 405

    def test_validation_error_over_http(self, server):
        status, _, payload = call_json(
            server.port, "POST", "/runs", {"workload": "nope"}
        )
        assert status == 400
        assert "workload" in payload["error"]

    @pytest.mark.parametrize("chunk", [0, -1, "x", 2.5, True])
    def test_bad_ensemble_chunk_is_400(self, server, chunk):
        # rejected at submission by the runner's own chunk-size rule, not
        # accepted and then failed (0) or finished with no replicas (-1)
        status, _, payload = call_json(server.port, "POST", "/runs", dict(
            SUBMIT, replicas=5,
            config={"engine": "ensemble", "ensemble_chunk": chunk},
        ))
        assert status == 400
        assert "ensemble_chunk" in payload["error"]
        _, _, listing = call_json(server.port, "GET", "/runs")
        assert listing["runs"] == []
