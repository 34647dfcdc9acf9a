"""Bounded job queue driving supervised sandbox subprocesses.

A :class:`JobQueue` owns a fixed pool of worker threads and a bounded
submission queue; when the queue is full, :meth:`JobQueue.submit` raises
:class:`QueueFull` *before anything is persisted*, which the HTTP layer
answers with ``429`` + ``Retry-After`` — callers see backpressure, not
latency.

Each accepted submission becomes a :class:`Job`.  The job executes in a
supervised **sandbox subprocess**
(:mod:`repro.service.sandbox`): the child applies the job's quota via
``resource.setrlimit``, runs the sweep through
:func:`repro.engine.replicas.run_replicas` in *checkpoint groups* (the
runner's own blocks, :func:`repro.engine.replicas.replica_blocks`, so
service runs stay bit-identical to library runs), appends
each group to the run manifest, and streams its events back over a pipe.
A quota breach surfaces as ``status="killed"`` naming the violated
limit; an unexpected child death is retried (the respawn resumes from
the manifest checkpoint, bit-identically) and, if retries are exhausted,
recorded as ``failed`` — the server itself never goes down with a job.
The children are forked from the queue's one sandbox zygote
(:class:`repro.service.sandbox.Zygote`), which the first job starts and
drain or shutdown stops and reaps.

Every state transition is **journaled write-ahead** (``journal.jsonl``,
fsynced) before the status is published: accepted → started →
checkpoint* → done/failed/cancelled/killed, with ``retry``/``recovered``
/``interrupted`` marking the survivability paths.  On startup
:meth:`JobQueue.enqueue_recovered` re-admits every run the journal says
still owes work; graceful drain (:meth:`JobQueue.drain`) SIGTERMs the
sandbox children so running jobs stop at their next checkpoint group as
``interrupted``, which the next boot resumes.

Progress, per-replica results, and observer grids are appended to an
in-memory event list (mirrored to ``events.jsonl`` in the store; a
recovered job preloads the persisted events so stream cursors span
restarts) and published under a condition variable, so any number of
streaming readers can follow a live job without polling.  A job leaves
the queue's table once it settles, so a long-lived server holds only
its queued and running jobs; settled runs are served from the store.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from . import sandbox
from .schema import QuotaSpec, ServiceError, SubmitRequest
from .store import RunStore

#: Job states; ``done``/``failed``/``cancelled``/``killed`` are terminal.
#: ``interrupted`` (crash/drain) means the run still owes work and will
#: be re-enqueued by the next server boot.
STATES = (
    "queued", "running", "interrupted",
    "done", "failed", "cancelled", "killed",
)
TERMINAL = frozenset({"done", "failed", "cancelled", "killed"})

#: State -> write-ahead journal op (identity except for ``running``).
_JOURNAL_OPS = {"running": "started"}


class QueueFull(ServiceError):
    """The submission queue is at capacity; retry after a beat."""

    def __init__(self, retry_after: float):
        super().__init__(
            429,
            "job queue is full; retry after {:g}s".format(retry_after),
            retry_after=retry_after,
        )
        self.retry_after = retry_after


class Job:
    """One accepted sweep: state machine + event log + control flags."""

    def __init__(
        self,
        request: SubmitRequest,
        store: RunStore,
        quota: Optional[QuotaSpec] = None,
        run_id: Optional[str] = None,
        resume: bool = False,
    ):
        self.request = request
        self.store = store
        self.quota = quota if quota is not None else request.quota
        self.resume = resume
        self.run_id: Optional[str] = run_id
        self.state = "queued"
        self._ready = threading.Event()  # run_id assigned, safe to execute
        self._cancel = threading.Event()
        self._drain = threading.Event()
        self._cond = threading.Condition()
        self._child: Optional[sandbox.ForkedChild] = None
        self._child_lock = threading.Lock()
        self.on_checkpoint = lambda event: None  # set by the owning queue
        self._events: List[Dict[str, Any]] = []
        if resume and run_id is not None:
            # continue the persisted event sequence across the restart,
            # so ?from= stream cursors survive a server crash
            self._events = store.read_events(run_id)
            self._ready.set()

    # -- events ----------------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        event = dict(event)
        with self._cond:
            event["seq"] = len(self._events)
            self._events.append(event)
            self._cond.notify_all()
        self.store.append_event(self.run_id, event)

    def events_since(self, start: int) -> List[Dict[str, Any]]:
        with self._cond:
            return list(self._events[start:])

    def wait_events(self, start: int, timeout: float = 10.0) -> List[Dict[str, Any]]:
        """Events past ``start``, blocking until some exist or terminal."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._events) <= start and not self._finished():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(self._events[start:])

    # -- control ---------------------------------------------------------
    def cancel(self) -> None:
        self._cancel.set()
        self._signal_child(terminate=True)
        with self._cond:
            self._cond.notify_all()

    def drain(self) -> None:
        """Ask the job to stop at its next checkpoint group (resumable)."""
        self._drain.set()
        self._signal_child(terminate=True)

    def kill(self) -> None:
        """Hard-stop the sandbox child (drain deadline enforcement)."""
        self._drain.set()
        self._signal_child(terminate=False)

    def _signal_child(self, terminate: bool) -> None:
        with self._child_lock:
            proc = self._child
            if proc is None:
                return
            try:
                proc.terminate() if terminate else proc.kill()
            except OSError:
                pass

    def _attach_child(self, proc: Optional[sandbox.ForkedChild]) -> None:
        with self._child_lock:
            self._child = proc
            if proc is not None and (self._cancel.is_set() or self._drain.is_set()):
                try:
                    proc.terminate()
                except OSError:
                    pass

    def _finished(self) -> bool:
        return self.state in TERMINAL or self.state == "interrupted"

    @property
    def terminal(self) -> bool:
        return self._finished()

    def _set_state(self, state: str, **fields: Any) -> None:
        # the journal entry lands first (write-ahead), then the state flip
        # and its event under one lock acquisition, so a streaming reader
        # never sees a terminal job without its final event and closes
        # the stream early
        self.store.append_journal(
            self.run_id, _JOURNAL_OPS.get(state, state), **fields
        )
        event: Dict[str, Any] = {"kind": "state", "state": state}
        event.update(fields)
        with self._cond:
            self.state = state
            event["seq"] = len(self._events)
            self._events.append(event)
            self._cond.notify_all()
        self.store.set_status(self.run_id, state, **fields)
        self.store.append_event(self.run_id, event)

    # -- execution -------------------------------------------------------
    def execute(self, zygote: sandbox.Zygote, retries: int = 1) -> None:
        if self._cancel.is_set():
            self._set_state("cancelled", done=0)
            return
        self._set_state("running", started=time.time())
        try:
            outcome = self._attempts(zygote, retries)
        except Exception as exc:  # noqa: BLE001 - job boundary
            outcome = {
                "status": "failed",
                "error": "{}: {}".format(type(exc).__name__, exc),
                "trace": traceback.format_exc(limit=8),
            }
        self._settle(outcome)

    def _attempts(self, zygote: sandbox.Zygote, retries: int) -> Dict[str, Any]:
        attempt = 0
        while True:
            outcome = self._run_once(zygote)
            crashed = (
                outcome["status"] == "interrupted"
                and outcome.get("reason") == "worker-crash"
            )
            if (
                crashed
                and attempt < retries
                and not self._cancel.is_set()
                and not self._drain.is_set()
            ):
                attempt += 1
                self.store.append_journal(
                    self.run_id, "retry",
                    attempt=attempt, exit_code=outcome.get("exit_code"),
                )
                continue  # the respawn resumes from the manifest checkpoint
            return outcome

    def _run_once(self, zygote: sandbox.Zygote) -> Dict[str, Any]:
        def emit(event: Dict[str, Any]) -> None:
            self._emit(event)
            if event.get("kind") == "checkpoint":
                self.store.append_journal(
                    self.run_id, "checkpoint",
                    group=event.get("group"), done=event.get("done"),
                )
                self.on_checkpoint(event)

        return sandbox.run_sandboxed(
            self.store, self.run_id, self.quota,
            emit=emit, attach=self._attach_child, zygote=zygote,
        )

    def _settle(self, outcome: Dict[str, Any]) -> None:
        status = outcome.get("status")
        fields = {
            key: value
            for key, value in outcome.items()
            if key not in ("status", "reason", "injected")
        }
        if status == "done":
            self._set_state("done", **fields)
        elif status == "failed":
            self._set_state("failed", **fields)
        elif status == "killed":
            # a structured quota kill, never a 500; the partial manifest
            # remains resumable by hand with a raised quota
            self._set_state("killed", **fields)
        elif self._cancel.is_set():
            self._set_state("cancelled", **fields)
        elif (
            outcome.get("reason") == "worker-crash"
            and not self._drain.is_set()
        ):
            # retries exhausted on a crash-looping worker: mark it failed
            # rather than interrupted, or recovery would respawn the loop
            # on every boot
            fields.setdefault(
                "error",
                "sandbox worker crashed repeatedly "
                "(last exit code {})".format(outcome.get("exit_code")),
            )
            self._set_state("failed", **fields)
        else:
            # drain (or a crash while draining): still owes work, the
            # next server boot re-enqueues it from the journal
            self._set_state("interrupted", **fields)


class JobQueue:
    """Fixed worker pool + bounded submission queue with backpressure."""

    def __init__(
        self,
        store: RunStore,
        workers: int = 2,
        capacity: int = 8,
        retry_after: float = 1.0,
        retries: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.store = store
        self.workers = workers
        self.capacity = capacity
        self.retry_after = retry_after
        self.retries = retries
        self.last_checkpoint: Optional[float] = None
        self._draining = False
        sandbox.note_working_directory()
        self._zygote = sandbox.Zygote()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(maxsize=capacity)
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker, name="repro-service-worker-%d" % k,
                daemon=True,
            )
            for k in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission ------------------------------------------------------
    def submit(
        self, request: SubmitRequest, quota: Optional[QuotaSpec] = None
    ) -> Job:
        """Queue a validated request; :class:`QueueFull` when at capacity.

        The queue slot is claimed *before* the run directory is created,
        so a rejected submission leaves no trace in the store.
        """
        job = Job(request, self.store, quota=quota)
        job.on_checkpoint = self._note_checkpoint
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            raise QueueFull(self.retry_after) from None
        job.run_id = self.store.create(request)
        with self._lock:
            self._jobs[job.run_id] = job
        job._ready.set()
        return job

    def enqueue_recovered(
        self, run_id: str, quota: Optional[QuotaSpec] = None
    ) -> Optional[Job]:
        """Re-admit an interrupted run found by the startup journal scan.

        Returns the queued job, or ``None`` when the queue is already at
        capacity — the run stays recoverable and the next boot tries
        again.  The resumed execution is bit-identical to an
        uninterrupted one (original seeds from the manifest checkpoint).
        """
        request = self.store.request(run_id)
        job = Job(
            request, self.store, quota=quota, run_id=run_id, resume=True,
        )
        job.on_checkpoint = self._note_checkpoint
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            return None
        self.store.append_journal(run_id, "recovered")
        self.store.set_status(run_id, "queued", recovered=True)
        with self._lock:
            self._jobs[run_id] = job
        return job

    def get(self, run_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(run_id)

    def cancel(self, run_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the (possibly final) status."""
        job = self.get(run_id)
        if job is not None:
            job.cancel()
            return self.store.status(run_id)
        # no live job (e.g. a run from a previous server process): settle
        # a stale queued/running status so pollers terminate
        status = self.store.status(run_id)
        if status.get("state") not in TERMINAL:
            self.store.append_journal(run_id, "cancelled")
            status = self.store.set_status(run_id, "cancelled")
        return status

    def depth(self) -> int:
        return self._queue.qsize()

    def active(self) -> int:
        """Jobs currently executing (state ``running``)."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == "running")

    def _note_checkpoint(self, event: Dict[str, Any]) -> None:
        self.last_checkpoint = time.time()

    def last_checkpoint_age(self) -> Optional[float]:
        if self.last_checkpoint is None:
            return None
        return time.time() - self.last_checkpoint

    # -- workers ---------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                if self._draining:
                    # leave the job queued on disk (journal: accepted);
                    # the next boot re-enqueues it
                    continue
                job._ready.wait()
                job.execute(self._zygote, retries=self.retries)
                if job.state in TERMINAL:
                    # settled, terminal event persisted: new readers and
                    # cancel() answer from the store, and streams already
                    # attached keep their own reference to the job
                    with self._lock:
                        self._jobs.pop(job.run_id, None)
            finally:
                self._queue.task_done()

    # -- drain / shutdown -------------------------------------------------
    def drain(self, grace: float = 10.0) -> None:
        """Graceful SIGTERM path: stop at the next checkpoint, then exit.

        Queued jobs are left ``queued`` (their journal still says
        ``accepted``); running jobs get a SIGTERM to their sandbox child
        and stop at the next group boundary as ``interrupted``.  Any job
        still running past the ``grace`` deadline has its child
        hard-killed — the manifest checkpoint is fsynced per record, so
        even that remains resumable.  Last, the sandbox zygote is stopped
        and reaped.
        """
        self._draining = True
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if not job.terminal:
                job.drain()
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        deadline = time.monotonic() + grace
        for t in self._threads:
            t.join(timeout=max(0.1, deadline - time.monotonic()))
        for job in jobs:
            if not job.terminal:
                job.kill()
        for t in self._threads:
            t.join(timeout=5.0)
        self._zygote.stop()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Cancel live jobs and stop the workers (used by tests/serve)."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.cancel()
        for _ in self._threads:
            try:
                self._queue.put(None, timeout=timeout)
            except queue.Full:  # a worker is stuck; join below times out
                break
        for t in self._threads:
            t.join(timeout=timeout)
        self._zygote.stop()
