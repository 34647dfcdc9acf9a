"""Survivability tests: sandboxes, quotas, crash recovery, drain, client.

This suite drives *real* processes wherever the claim is about process
boundaries: quota kills run actual sandbox children under
``resource.setrlimit``, the crash-recovery test ``kill -KILL``\\ s a real
``python -m repro serve`` instance mid-sweep and proves the restarted
server auto-resumes the run **bit-identically** to an uninterrupted
control, and the drain test delivers a real ``SIGTERM``.  Deterministic
fault points come from :class:`repro.faults.ServiceFaultPlan`, shipped
to the sandbox children through the environment and scoped by label so a
faulted job and a healthy control can share one server.

The :class:`repro.service.client.ServiceClient` tests use a scripted
stub HTTP server to pin the retry discipline exactly: Retry-After wins
over computed backoff, backoff doubles up to the cap, non-retryable
statuses raise immediately, retried submits reuse one idempotency key,
and event streams reconnect from their cursor without dropping or
repeating events.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro
from repro import EngineConfig, build_workload, load_manifest, run_replicas
from repro.faults import SERVICE_FAULT_ENV, ServiceFaultPlan, tear_final_line
from repro.obs import resume_sweep
from repro.service import (
    Job, JobQueue, QuotaSpec, ServiceApp, ServiceClient, SubmitRequest,
    sandbox,
)
from repro.service.client import ServiceClientError
from repro.service.store import RunStore

SUBMIT = {
    "workload": "epidemic",
    "params": {"n": 120},
    "replicas": 3,
    "seed": 9,
    "config": {"engine": "batch"},
}

#: The multi-chunk sweep used by the kill/drain tests: 6 checkpoint
#: groups give the chaos a window to strike between any two of them.
SWEEP = {
    "workload": "epidemic",
    "params": {"n": 120},
    "replicas": 6,
    "seed": 7,
    "config": {"engine": "batch"},
}


def fault_env(monkeypatch, plan: ServiceFaultPlan) -> None:
    monkeypatch.setenv(SERVICE_FAULT_ENV, plan.to_env()[SERVICE_FAULT_ENV])


def library_records(spec):
    workload = build_workload(spec["workload"], **spec["params"])
    rs = run_replicas(
        workload.protocol, workload.population, replicas=spec["replicas"],
        config=EngineConfig.from_dict(spec["config"]), seed=spec["seed"],
        processes=1, stop=workload.stop,
    )
    return {r.index: r for r in rs}


def assert_bit_identical(manifest_text, spec, tmp_path, name="served.jsonl"):
    """Every manifest record equals the uninterrupted library control."""
    path = tmp_path / name
    path.write_text(manifest_text)
    served = load_manifest(str(path))
    control = library_records(spec)
    assert sorted(r.index for r in served.records) == sorted(control)
    for index, record in control.items():
        loaded = served.record(index)
        assert loaded.interactions == record.interactions, index
        assert loaded.rounds == record.rounds, index
        assert loaded.converged == record.converged, index


# -- quota kills through real sandbox children --------------------------------

@pytest.mark.skipif(os.name != "posix", reason="rlimit sandbox is POSIX-only")
class TestQuotaKills:
    def _serve(self, tmp_path, workers=1):
        app = ServiceApp(str(tmp_path / "runs"), workers=workers, capacity=8)
        handle = app.start_background()
        return app, handle, ServiceClient(port=handle.port)

    def test_memory_quota_kill_names_limit_and_spares_neighbors(
        self, tmp_path, monkeypatch
    ):
        # the hog allocates 4 GiB under a 2 GiB address-space quota; the
        # unlabelled healthy job shares the server and must finish
        fault_env(monkeypatch, ServiceFaultPlan(
            hog_memory_bytes=4 << 30, only_label="hog",
        ))
        app, handle, client = self._serve(tmp_path, workers=2)
        try:
            killed = client.submit(dict(
                SUBMIT, label="hog",
                quota={"memory_bytes": 2 << 30, "wall_seconds": 120},
            ))
            healthy = client.submit(SUBMIT)
            final = client.wait(killed["run_id"], timeout=120)
            assert final["state"] == "killed"
            assert final["limit"] == "memory_bytes"
            assert final["quota"] == 2 << 30
            done = client.wait(healthy["run_id"], timeout=120)
            assert done["state"] == "done" and done["done"] == 3
        finally:
            handle.stop()

    def test_wall_quota_kill(self, tmp_path, monkeypatch):
        fault_env(monkeypatch, ServiceFaultPlan(
            sleep_seconds=60.0, only_label="sleeper",
        ))
        app, handle, client = self._serve(tmp_path)
        try:
            accepted = client.submit(dict(
                SUBMIT, label="sleeper", quota={"wall_seconds": 1.5},
            ))
            final = client.wait(accepted["run_id"], timeout=60)
            assert final["state"] == "killed"
            assert final["limit"] == "wall_seconds"
        finally:
            handle.stop()

    def test_cpu_quota_kill(self, tmp_path, monkeypatch):
        fault_env(monkeypatch, ServiceFaultPlan(
            spin_cpu_seconds=60.0, only_label="spinner",
        ))
        app, handle, client = self._serve(tmp_path)
        try:
            accepted = client.submit(dict(
                SUBMIT, label="spinner",
                quota={"cpu_seconds": 1, "wall_seconds": 120},
            ))
            final = client.wait(accepted["run_id"], timeout=120)
            assert final["state"] == "killed"
            assert final["limit"] == "cpu_seconds"
        finally:
            handle.stop()

    def test_manifest_quota_kill_leaves_resumable_manifest(self, tmp_path):
        # 64 bytes cannot hold even one checkpoint group: the job dies
        # after group 0 as killed/manifest_bytes, and the partial
        # manifest still resumes to the full bit-identical sweep
        app, handle, client = self._serve(tmp_path)
        try:
            accepted = client.submit(dict(
                SUBMIT, quota={"manifest_bytes": 64, "wall_seconds": 120},
            ))
            final = client.wait(accepted["run_id"], timeout=120)
            assert final["state"] == "killed"
            assert final["limit"] == "manifest_bytes"
            manifest_path = app.store.manifest_path(accepted["run_id"])
            resumed = resume_sweep(manifest_path, processes=1)
            assert len(resumed) == SUBMIT["replicas"]
            control = library_records(SUBMIT)
            for record in resumed.records:
                assert record.interactions == control[record.index].interactions
        finally:
            handle.stop()

    def test_quota_above_server_ceiling_is_400(self, tmp_path):
        app = ServiceApp(
            str(tmp_path / "runs"), workers=1,
            quota=QuotaSpec(memory_bytes=1 << 30),
        )
        handle = app.start_background()
        try:
            client = ServiceClient(port=handle.port, retries=0)
            with pytest.raises(ServiceClientError) as err:
                client.submit(dict(SUBMIT, quota={"memory_bytes": 2 << 30}))
            assert err.value.status == 400
            assert "ceiling" in err.value.payload["error"]
        finally:
            handle.stop()


# -- crash-looping worker: bounded retries, resume from checkpoint ------------

@pytest.mark.skipif(os.name != "posix", reason="sandbox is POSIX-only")
class TestWorkerCrashRetry:
    def test_crash_after_checkpoint_retries_to_bit_identical_done(
        self, tmp_path, monkeypatch
    ):
        # the child dies right after group 0's checkpoint; the respawn
        # resumes from the manifest (the fault is one-shot because a
        # recorded group never re-checkpoints) and completes
        fault_env(monkeypatch, ServiceFaultPlan(
            kill_after_group=0, only_label="crashy",
        ))
        app = ServiceApp(str(tmp_path / "runs"), workers=1, retries=1)
        handle = app.start_background()
        try:
            client = ServiceClient(port=handle.port)
            accepted = client.submit(dict(SUBMIT, label="crashy"))
            final = client.wait(accepted["run_id"], timeout=120)
            assert final["state"] == "done" and final["done"] == 3
            ops = [e["op"] for e in app.store.read_journal(accepted["run_id"])]
            assert "retry" in ops
            assert_bit_identical(
                client.manifest_text(accepted["run_id"]), SUBMIT, tmp_path
            )
        finally:
            handle.stop()

    def test_crash_loop_exhausts_retries_to_failed(self, tmp_path, monkeypatch):
        # a child that dies on startup on every attempt never makes
        # progress: after the retry budget the job is failed, not a 500,
        # and not an interrupted run that recovery would respawn forever
        fault_env(monkeypatch, ServiceFaultPlan(
            crash_on_start=True, only_label="crashy",
        ))
        app = ServiceApp(str(tmp_path / "runs"), workers=1, retries=1)
        handle = app.start_background()
        try:
            client = ServiceClient(port=handle.port)
            accepted = client.submit(dict(SUBMIT, label="crashy"))
            final = client.wait(accepted["run_id"], timeout=120)
            assert final["state"] == "failed"
            assert "crashed" in final.get("error", "")
        finally:
            handle.stop()


# -- the warm process: one sandbox zygote forks every job's child ------------

#: The zygote checks read process states from Linux's /proc.
_PROC = os.path.isdir("/proc/self")


def _proc_stat(pid):
    """``(state, ppid)`` of a process, or ``None`` once it is gone."""
    try:
        with open("/proc/{}/stat".format(pid)) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _sandbox_pids(parent):
    """Live ``repro.service.sandbox`` children of process ``parent``."""
    pids = set()
    for name in os.listdir("/proc"):
        stat = _proc_stat(name) if name.isdigit() else None
        if stat is None or stat[0] == "Z" or stat[1] != parent:
            continue
        try:
            with open("/proc/{}/cmdline".format(name), "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if b"repro.service.sandbox" in cmdline:
            pids.add(int(name))
    return pids


def _wait_gone(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not any(_alive(pid) for pid in pids)


def _run_to_end(queue, timeout=120.0):
    job = queue.submit(SubmitRequest.from_payload(SUBMIT))
    deadline = time.monotonic() + timeout
    while not job.terminal and time.monotonic() < deadline:
        job.wait_events(len(job.events_since(0)), timeout=1.0)
    assert job.state == "done"
    return job


def _fork_kind(job):
    """The ``sandbox.fork`` of a settled job, from status and event alike."""
    event = job.events_since(0)[-1]
    assert event["kind"] == "state" and event["state"] == job.state
    deadline = time.monotonic() + 10.0
    status = job.store.status(job.run_id)
    while status["state"] != job.state and time.monotonic() < deadline:
        time.sleep(0.01)  # published just after the state flip
        status = job.store.status(job.run_id)
    assert status["sandbox"] == event["sandbox"]
    assert event["sandbox"]["handoff_s"] > 0
    return event["sandbox"]["fork"]


@pytest.fixture
def handed(monkeypatch):
    """``(pid, parent pid)`` of the sandbox children jobs ran in, in order."""
    pids = []
    attach = Job._attach_child

    def spy(self, proc):
        if proc is not None:
            stat = _proc_stat(proc.pid) if _PROC else None
            pids.append((proc.pid, stat and stat[1]))
        attach(self, proc)

    monkeypatch.setattr(Job, "_attach_child", spy)
    return pids


@pytest.mark.skipif(not _PROC, reason="reads /proc")
class TestWarmSpare:
    """The queue's one warm process is its sandbox zygote (it replaced a
    pre-started spare child per worker): each job's child is forked from
    it, so no job waits for an interpreter to start or to tear down."""

    @pytest.fixture
    def zygotes(self):
        """Sandbox zygotes of this process started during the test."""
        before = _sandbox_pids(os.getpid())
        return lambda: _sandbox_pids(os.getpid()) - before

    @pytest.fixture
    def queue(self, tmp_path):
        queue = JobQueue(RunStore(str(tmp_path / "runs")), workers=1)
        yield queue
        queue.shutdown()

    def test_consecutive_jobs_fork_from_one_zygote(
        self, queue, zygotes, handed
    ):
        assert not zygotes()  # started lazily, by the first job
        first = _run_to_end(queue)
        (zygote,) = zygotes()
        second = _run_to_end(queue)
        assert zygotes() == {zygote}
        assert [parent for _, parent in handed] == [zygote, zygote]
        assert handed[0][0] != handed[1][0]
        assert (_fork_kind(first), _fork_kind(second)) == ("cold", "warm")

    def test_changed_environment_restarts_the_zygote(
        self, queue, zygotes, handed, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_ZYGOTE_ENV", "a")
        _run_to_end(queue)
        (old,) = zygotes()
        monkeypatch.setenv("REPRO_TEST_ZYGOTE_ENV", "b")
        job = _run_to_end(queue)
        assert _wait_gone([old])
        (new,) = zygotes()
        assert new != old and handed[1][1] == new
        assert _fork_kind(job) == "cold"

    def test_a_retired_zygote_finishes_its_running_job(
        self, tmp_path, zygotes, handed, monkeypatch
    ):
        fault_env(monkeypatch, ServiceFaultPlan(
            pause_between_groups=0.5, only_label="paced",
        ))
        monkeypatch.setenv("REPRO_TEST_ZYGOTE_ENV", "a")
        queue = JobQueue(RunStore(str(tmp_path / "runs")), workers=2)
        try:
            paced = queue.submit(SubmitRequest.from_payload(
                dict(SUBMIT, label="paced")
            ))
            assert _wait_journal_op(queue.store.root, paced.run_id, "checkpoint")
            (old,) = zygotes()
            monkeypatch.setenv("REPRO_TEST_ZYGOTE_ENV", "b")
            _run_to_end(queue)
            assert handed[1][1] not in (None, old)
            deadline = time.monotonic() + 120
            while not paced.terminal and time.monotonic() < deadline:
                paced.wait_events(len(paced.events_since(0)), timeout=1.0)
            assert paced.state == "done"
            ops = [e["op"] for e in queue.store.read_journal(paced.run_id)]
            assert "retry" not in ops
            assert _wait_gone([old])  # it left once its last child had
        finally:
            queue.shutdown()

    def test_zygote_killed_while_idle_is_not_a_retry(
        self, queue, zygotes, handed
    ):
        _run_to_end(queue)
        (old,) = zygotes()
        os.kill(old, signal.SIGKILL)
        assert _wait_gone([old])
        job = _run_to_end(queue)
        (new,) = zygotes()
        assert new != old and handed[1][1] == new
        assert _fork_kind(job) == "cold"
        ops = [e["op"] for e in queue.store.read_journal(job.run_id)]
        assert "retry" not in ops

    def test_child_dies_with_its_zygote_and_the_retry_resumes(
        self, queue, zygotes, handed, tmp_path, monkeypatch
    ):
        fault_env(monkeypatch, ServiceFaultPlan(
            pause_between_groups=0.5, only_label="paced",
        ))
        job = queue.submit(SubmitRequest.from_payload(
            dict(SUBMIT, label="paced")
        ))
        assert _wait_journal_op(queue.store.root, job.run_id, "checkpoint")
        (zygote,) = zygotes()
        child, parent = handed[0]
        assert parent == zygote
        os.kill(zygote, signal.SIGKILL)
        # PR_SET_PDEATHSIG takes the child along, so the job needs a retry
        assert _wait_gone([zygote, child])
        deadline = time.monotonic() + 120
        while not job.terminal and time.monotonic() < deadline:
            job.wait_events(len(job.events_since(0)), timeout=1.0)
        assert job.state == "done"
        ops = [e["op"] for e in queue.store.read_journal(job.run_id)]
        assert "retry" in ops
        assert handed[1][1] not in (None, zygote)
        assert_bit_identical(
            open(queue.store.manifest_path(job.run_id)).read(), SUBMIT,
            tmp_path,
        )

    def test_removed_working_directory_still_runs_jobs(
        self, queue, handed, tmp_path, monkeypatch
    ):
        # a relative PYTHONPATH entry cannot start any interpreter there
        monkeypatch.delenv("PYTHONPATH", raising=False)
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        _run_to_end(queue)
        _run_to_end(queue)
        assert len(handed) == 2

    def test_relative_pythonpath_from_a_removed_working_directory(
        self, handed, tmp_path, monkeypatch
    ):
        # the server starts in a directory a relative entry refers to ...
        monkeypatch.setenv("PYTHONPATH", "src")
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        queue = JobQueue(RunStore(str(tmp_path / "runs")), workers=1)
        try:
            # ... which is removed before its first job starts the zygote
            gone.rmdir()
            _run_to_end(queue)
        finally:
            queue.shutdown()
        assert len(handed) == 1

    @pytest.mark.parametrize("stop", ["drain", "shutdown"])
    def test_no_child_outlives_the_queue(
        self, queue, zygotes, handed, monkeypatch, stop
    ):
        fault_env(monkeypatch, ServiceFaultPlan(
            pause_between_groups=0.5, only_label="paced",
        ))
        _run_to_end(queue)
        running = queue.submit(SubmitRequest.from_payload(
            dict(SUBMIT, label="paced")
        ))
        assert _wait_journal_op(queue.store.root, running.run_id, "checkpoint")
        started = zygotes() | {pid for pid, _ in handed}
        assert len(started) == 3
        getattr(queue, stop)()
        assert running.state == ("interrupted" if stop == "drain" else "cancelled")
        # killed and reaped, not just left to a death signal
        assert all(_proc_stat(pid) is None for pid in started)


def test_idle_child_exits_quietly_when_stdin_closes():
    """The zygote reads its control socket on stdin; when the socket
    closes it exits 0 without a word."""
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    with ours, theirs:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.sandbox"],
            stdin=theirs, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=sandbox._child_env(),
        )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (0, "", "")


# -- torn on-disk state -------------------------------------------------------

class TestTornState:
    def _run(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run_id = store.create(SubmitRequest.from_payload(SUBMIT))
        return store, run_id

    def test_status_falls_back_to_journal_on_torn_file(self, tmp_path):
        store, run_id = self._run(tmp_path)
        store.append_journal(run_id, "started")
        status_path = os.path.join(store.run_dir(run_id), "status.json")
        with open(status_path, "w") as fh:
            fh.write('{"run_id": "' + run_id + '", "sta')  # torn mid-write
        status = store.status(run_id)
        assert status["state"] == "running"
        assert status["reconstructed"] is True

    def test_status_falls_back_to_journal_on_empty_file(self, tmp_path):
        store, run_id = self._run(tmp_path)
        status_path = os.path.join(store.run_dir(run_id), "status.json")
        open(status_path, "w").close()
        assert store.status(run_id)["state"] == "queued"

    def test_torn_journal_line_is_dropped_cleanly(self, tmp_path):
        store, run_id = self._run(tmp_path)
        store.append_journal(run_id, "started")
        store.append_journal(run_id, "checkpoint", group=0, done=1)
        tear_final_line(store.journal_path(run_id))
        ops = [e["op"] for e in store.read_journal(run_id)]
        assert ops == ["accepted", "started"]
        assert run_id in store.scan_recoverable()

    def test_scan_recoverable_skips_settled_runs(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        req = SubmitRequest.from_payload(SUBMIT)
        settled = {}
        for op in ("done", "failed", "cancelled", "killed"):
            run_id = store.create(req)
            store.append_journal(run_id, "started")
            store.append_journal(run_id, op)
            settled[op] = run_id
        owing = store.create(req)
        store.append_journal(owing, "started")
        store.append_journal(owing, "checkpoint", group=0, done=1)
        assert store.scan_recoverable() == [owing]


# -- a stored request this release cannot read --------------------------------

def _store_unreadable(store, config_update):
    """An interrupted run whose stored request names a retired setting."""
    run_id = store.create(SubmitRequest.from_payload(SUBMIT))
    path = os.path.join(store.run_dir(run_id), "request.json")
    with open(path) as fh:
        stored = json.load(fh)
    stored["config"].update(config_update)
    with open(path, "w") as fh:
        json.dump(stored, fh)
    store.append_journal(run_id, "started")
    return run_id


class TestUnreadableRequest:
    def test_boot_settles_it_as_failed_and_keeps_going(self, tmp_path):
        root = str(tmp_path / "runs")
        store = RunStore(root)
        legacy = _store_unreadable(store, {"compiled": False})
        retired = _store_unreadable(
            store, {"engine": "bghkpu", "collision_frac": 0.15}
        )
        healthy = store.create(SubmitRequest.from_payload(SUBMIT))
        store.append_journal(healthy, "started")

        app = ServiceApp(root, workers=1)
        assert app.recovered == [healthy]
        for run_id, fragment in (
            (legacy, "legacy dense-support"), (retired, "collision_frac=0.15"),
        ):
            status = app.store.status(run_id)
            assert status["state"] == "failed"
            assert fragment in status["error"]
            assert app.store.read_journal(run_id)[-1]["op"] == "failed"
        handle = app.start_background()
        try:
            client = ServiceClient(port=handle.port, retries=0)
            status = client.status(legacy)  # a 200, not a 500
            assert status["state"] == "failed"
            assert status["request"] is None
            assert "legacy dense-support" in status["request_error"]
            assert client.wait(healthy, timeout=120)["state"] == "done"
        finally:
            handle.stop()
        # the terminal journal op keeps later boots from retrying them
        assert RunStore(root).scan_recoverable() == []

    def test_replay_answers_409_not_500(self, tmp_path):
        root = str(tmp_path / "runs")
        store = RunStore(root)
        runs = {}
        for part in ("request", "manifest"):
            run_id = store.create(SubmitRequest.from_payload(SUBMIT))
            sandbox.execute_groups(
                store.request(run_id), run_id, store,
                emit=lambda event: None, should_stop=lambda: False,
            )
            store.append_journal(run_id, "done")
            runs[part] = run_id
        path = os.path.join(store.run_dir(runs["request"]), "request.json")
        with open(path) as fh:
            stored = json.load(fh)
        stored["config"]["compiled"] = False
        with open(path, "w") as fh:
            json.dump(stored, fh)
        path = store.manifest_path(runs["manifest"])
        with open(path) as fh:
            lines = fh.readlines()
        header = json.loads(lines[0])
        header["config"]["accuracy"] = 0.01
        lines[0] = json.dumps(header) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)

        handle = ServiceApp(root, workers=1).start_background()
        try:
            client = ServiceClient(port=handle.port, retries=0)
            for part, fragment in (
                ("request", "legacy dense-support"),
                ("manifest", "accuracy=0.01"),
            ):
                with pytest.raises(ServiceClientError) as err:
                    client.replay(runs[part], 0)
                assert err.value.status == 409, part
                assert fragment in err.value.payload["error"], part
        finally:
            handle.stop()


# -- the real thing: kill -KILL the server, restart, auto-resume --------------

def _start_server(store, env_extra=None, args=()):
    """Launch ``python -m repro serve`` and wait for its bound port."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--store", store, "--port", "0", "--workers", "1", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    lines = []
    ready = threading.Event()
    port = {}

    def pump():
        for line in proc.stdout:
            lines.append(line)
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                port["port"] = int(match.group(1))
                ready.set()
        ready.set()  # EOF: let the waiter fail with the captured output

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(60.0) or "port" not in port:
        proc.kill()
        raise AssertionError("server never came up:\n" + "".join(lines))
    return proc, port["port"]


def _wait_journal_op(store, run_id, op, timeout=60.0):
    path = os.path.join(store, run_id, "journal.jsonl")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if entry.get("op") == op:
                        return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(os.name != "posix", reason="signals are POSIX-only")
class TestKillRestart:
    def test_kill_nine_mid_run_resumes_bit_identical_on_restart(self, tmp_path):
        store = str(tmp_path / "runs")
        # pacing between groups gives the kill a deterministic window
        env = ServiceFaultPlan(
            pause_between_groups=0.3, only_label="victim",
        ).to_env()

        proc, port = _start_server(store, env_extra=env)
        run_id = None
        try:
            client = ServiceClient(port=port)
            accepted = client.submit(dict(SWEEP, label="victim"))
            run_id = accepted["run_id"]
            assert _wait_journal_op(store, run_id, "checkpoint")
            # the zygote and the job's child it forked
            zygotes = _sandbox_pids(proc.pid) if _PROC else set()
            children = {pid for z in zygotes for pid in _sandbox_pids(z)}
            os.kill(proc.pid, signal.SIGKILL)  # no goodbyes
            proc.wait(timeout=30)
        finally:
            proc.kill()
        if _PROC:  # the closed control socket takes both along
            assert len(zygotes) == 1 and len(children) == 1
            assert _wait_gone(zygotes | children)

        # mid-sweep wreckage: some records landed, the run is not settled
        partial = load_manifest(os.path.join(store, run_id, "manifest.jsonl"))
        assert 0 < len(partial) < SWEEP["replicas"]
        offline = RunStore(store)
        assert offline.status(run_id)["state"] not in (
            "done", "failed", "cancelled", "killed",
        )
        assert run_id in offline.scan_recoverable()

        # the restarted server recovers the run with no operator action
        proc2, port2 = _start_server(store, env_extra=env)
        try:
            client = ServiceClient(port=port2)
            final = client.wait(run_id, timeout=180)
            assert final["state"] == "done"
            assert final["done"] == SWEEP["replicas"]

            # ... bit-identical to an uninterrupted library control
            assert_bit_identical(client.manifest_text(run_id), SWEEP, tmp_path)
            # a replica recorded before the kill and one after both replay
            for index in (0, SWEEP["replicas"] - 1):
                assert client.replay(run_id, index)["match"] is True, index

            # the event sequence is continuous across the two server lives
            events = list(client.events(run_id, follow=False))
            seqs = [e["seq"] for e in events]
            assert seqs == list(range(len(seqs)))
            assert sum(1 for e in events if e["kind"] == "checkpoint") >= \
                SWEEP["replicas"]
            ops = [e["op"] for e in offline.read_journal(run_id)]
            assert "recovered" in ops and ops[-1] == "done"
            zygotes = _sandbox_pids(proc2.pid) if _PROC else set()
        finally:
            proc2.kill()
            proc2.wait(timeout=30)
        if _PROC:  # the idle zygote does not outlive its server either
            assert len(zygotes) == 1 and _wait_gone(zygotes)


@pytest.mark.skipif(os.name != "posix", reason="signals are POSIX-only")
class TestGracefulDrain:
    def test_sigterm_stops_accepting_and_exits_resumable(self, tmp_path):
        store = str(tmp_path / "runs")
        # a long pause between groups holds the job mid-run so the test
        # can observe the draining window
        env = ServiceFaultPlan(
            pause_between_groups=1.0, only_label="drainee",
        ).to_env()
        proc, port = _start_server(store, env_extra=env,
                                   args=("--drain-grace", "20"))
        try:
            client = ServiceClient(port=port)
            accepted = client.submit(dict(SWEEP, label="drainee"))
            run_id = accepted["run_id"]
            assert _wait_journal_op(store, run_id, "checkpoint")

            proc.send_signal(signal.SIGTERM)
            # while draining the service answers, but refuses new work
            deadline = time.monotonic() + 10.0
            health = None
            while time.monotonic() < deadline:
                try:
                    health = client.health()
                except OSError:
                    break  # already exited; the 503 assertions were raced out
                if health.get("status") == "draining":
                    break
                time.sleep(0.02)
            if health is not None and health.get("status") == "draining":
                assert health["http_status"] == 503
                probe = ServiceClient(port=port, retries=0)
                with pytest.raises(ServiceClientError) as err:
                    probe.submit(SUBMIT)
                assert err.value.status == 503
                assert "draining" in err.value.payload["error"]

            # exits cleanly within the grace, not via timeout or crash
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()

        # the running job stopped at a checkpoint group as interrupted...
        offline = RunStore(store)
        status = offline.status(run_id)
        assert status["state"] == "interrupted"
        assert run_id in offline.scan_recoverable()
        # ... with a well-formed manifest that resumes bit-identically
        manifest_path = os.path.join(store, run_id, "manifest.jsonl")
        partial = load_manifest(manifest_path)
        assert 0 < len(partial) < SWEEP["replicas"]
        resumed = resume_sweep(manifest_path, processes=1)
        control = library_records(SWEEP)
        assert len(resumed) == SWEEP["replicas"]
        for record in resumed.records:
            assert record.interactions == control[record.index].interactions


# -- idempotent submits over the wire -----------------------------------------

class TestIdempotency:
    def test_same_key_returns_same_run(self, tmp_path):
        app = ServiceApp(str(tmp_path / "runs"), workers=1)
        handle = app.start_background()
        try:
            client = ServiceClient(port=handle.port)
            first = client.submit(SUBMIT, idempotency_key="nightly-42")
            second = client.submit(SUBMIT, idempotency_key="nightly-42")
            assert second["run_id"] == first["run_id"]
            assert second["deduplicated"] is True
            third = client.submit(SUBMIT, idempotency_key="nightly-43")
            assert third["run_id"] != first["run_id"]
        finally:
            handle.stop()


# -- the retrying client against a scripted stub ------------------------------

class _Script:
    """Canned responses keyed by (method, path); records every request."""

    def __init__(self):
        self.responses = {}
        self.seen = []

    def on(self, method, path, *responses):
        self.responses[(method, path)] = list(responses)


class _StubHandler(BaseHTTPRequestHandler):
    script = None

    def _serve(self):
        length = int(self.headers.get("Content-Length", 0) or 0)
        body = self.rfile.read(length) if length else b""
        self.script.seen.append(
            (self.command, self.path, dict(self.headers), body)
        )
        path = self.path.split("?")[0]
        queue = self.script.responses.get((self.command, path))
        if not queue:
            status, headers, payload = 404, {}, {"error": "unscripted"}
        elif len(queue) > 1:
            status, headers, payload = queue.pop(0)
        else:
            status, headers, payload = queue[0]  # repeat the last response
        data = (
            payload if isinstance(payload, bytes)
            else json.dumps(payload).encode()
        )
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture
def stub():
    script = _Script()
    handler = type("Handler", (_StubHandler,), {"script": script})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield script, server.server_address[1]
    server.shutdown()
    server.server_close()


class _FixedRng:
    def random(self):
        return 1.0  # makes jitter deterministic and visible


class TestClientRetryDiscipline:
    def _client(self, port, **kwargs):
        sleeps = []
        kwargs.setdefault("jitter", 0.0)
        kwargs.setdefault("backoff_base", 0.2)
        kwargs.setdefault("backoff_cap", 5.0)
        client = ServiceClient(
            port=port, sleep=sleeps.append, rng=_FixedRng(), **kwargs
        )
        return client, sleeps

    def test_retry_after_wins_over_backoff(self, stub):
        script, port = stub
        script.on(
            "POST", "/runs",
            (503, {"Retry-After": "0.37"}, {"error": "draining"}),
            (202, {}, {"run_id": "abcabcabcabc", "state": "queued"}),
        )
        client, sleeps = self._client(port)
        out = client.submit(SUBMIT, idempotency_key="pinned")
        assert out["run_id"] == "abcabcabcabc"
        assert sleeps == [0.37]
        submits = [s for s in script.seen if s[0] == "POST"]
        assert len(submits) == 2
        # the retry reused the same idempotency key: no duplicate run
        keys = {s[2].get("Idempotency-Key") for s in submits}
        assert keys == {"pinned"}

    def test_backoff_doubles_and_jitters(self, stub):
        script, port = stub
        script.on(
            "POST", "/runs",
            (429, {}, {"error": "queue full"}),
            (429, {}, {"error": "queue full"}),
            (429, {}, {"error": "queue full"}),
            (202, {}, {"run_id": "abcabcabcabc", "state": "queued"}),
        )
        client, sleeps = self._client(port, jitter=0.5)
        client.submit(SUBMIT)
        # base * 2^k, each inflated by jitter * rng() == 0.5
        assert sleeps == [
            pytest.approx(0.2 * 1.5),
            pytest.approx(0.4 * 1.5),
            pytest.approx(0.8 * 1.5),
        ]

    def test_backoff_is_capped(self, stub):
        script, port = stub
        script.on("POST", "/runs", (503, {}, {"error": "draining"}))
        client, sleeps = self._client(port, retries=6, backoff_cap=1.0)
        with pytest.raises(ServiceClientError) as err:
            client.submit(SUBMIT)
        assert err.value.status == 503
        assert len(sleeps) == 6
        assert max(sleeps) <= 1.0

    def test_validation_errors_do_not_retry(self, stub):
        script, port = stub
        script.on("POST", "/runs", (400, {}, {"error": "bad workload"}))
        client, sleeps = self._client(port)
        with pytest.raises(ServiceClientError) as err:
            client.submit(SUBMIT)
        assert err.value.status == 400
        assert sleeps == []
        assert len([s for s in script.seen if s[0] == "POST"]) == 1

    def test_connection_refused_retries_then_raises(self, tmp_path):
        # bind-and-close to find a port that refuses connections
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        sleeps = []
        client = ServiceClient(
            port=port, retries=2, jitter=0.0, sleep=sleeps.append,
        )
        with pytest.raises(ServiceClientError) as err:
            client.status("abcabcabcabc")
        assert err.value.status == 0
        assert len(sleeps) == 2

    def test_event_stream_resumes_from_cursor(self, stub):
        script, port = stub
        run = "abcabcabcabc"
        first = b"".join(
            json.dumps({"seq": k, "kind": "progress"}).encode() + b"\n"
            for k in (0, 1)
        )
        second = b"".join(
            json.dumps({"seq": k, "kind": "progress"}).encode() + b"\n"
            for k in (2, 3)
        )
        script.on("GET", "/runs/{}/events".format(run), (200, {}, first),
                  (200, {}, second))
        script.on("GET", "/runs/{}".format(run),
                  (200, {}, {"run_id": run, "state": "running"}),
                  (200, {}, {"run_id": run, "state": "done"}))
        client, _sleeps = self._client(port)
        events = list(client.events(run))
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        streams = [
            s[1] for s in script.seen if s[1].startswith("/runs/" + run + "/")
        ]
        # the reconnect asked for the cursor, not a restart from zero
        assert streams == [
            "/runs/{}/events?from=0".format(run),
            "/runs/{}/events?from=2".format(run),
        ]
