"""The simulation service application: endpoints over store + queue.

Endpoints (all JSON; streams are chunked JSONL):

====== =============================== =========================================
POST   ``/runs``                        submit a sweep → 202 + run id, 429
                                        (+ ``Retry-After``) under backpressure,
                                        503 (+ ``Retry-After``) while draining;
                                        an ``Idempotency-Key`` header makes the
                                        submit safely retryable (a duplicate
                                        returns the original run, 200)
GET    ``/runs``                        statuses of every stored run
GET    ``/runs/{id}``                   one run's status + its stored request
                                        (``null`` plus a ``request_error``
                                        when this release cannot read it)
GET    ``/runs/{id}/events``            live progress/replica/grid event stream
                                        (``?from=N`` resumes mid-stream — also
                                        across server restarts; for finished
                                        runs replays the event log)
GET    ``/runs/{id}/manifest``          the raw run manifest (JSONL)
GET    ``/runs/{id}/replay/{k}``        re-run replica ``k`` from its recorded
                                        seed and report bit-identity (409
                                        when this release cannot read the
                                        run's request or manifest config)
POST   ``/runs/{id}/cancel``            stop after the current index group,
                                        leaving a resumable manifest
GET    ``/healthz``                     live readiness: queue depth, active
                                        jobs, store disk usage, checkpoint age
                                        (503 while draining)
====== =============================== =========================================

Submissions may carry a ``quota`` object (``cpu_seconds``,
``memory_bytes``, ``wall_seconds``, ``manifest_bytes``) bounded by the
server's ``--max-*`` ceilings; each job then runs inside its own
supervised sandbox subprocess under those limits (see
:mod:`repro.service.sandbox`).

Survivability: on startup the app scans the store's write-ahead journals
and re-enqueues every run that still owes work — a ``kill -9`` of the
server resumes mid-sweep, bit-identically, with no operator action.  On
``SIGTERM`` the app stops accepting (503 + ``Retry-After``), lets
running jobs reach their next checkpoint group, marks them
``interrupted`` (the next boot picks them up) and exits within the
drain grace.

The replay endpoint is the service's correctness anchor: it drives the
very same :func:`repro.obs.replay_replica` path the library exposes, so
a ``"match": true`` over HTTP carries exactly the bit-identity guarantee
of the local API.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Any, AsyncIterator, Dict, Optional

from ..workloads import WORKLOADS
from .http import JsonResponse, Request, Router, StreamResponse, handle_connection
from .jobs import TERMINAL, JobQueue
from .schema import QuotaSpec, ServiceError, SubmitRequest
from .store import RunStore

#: Chunked event streams block at most this long per read before
#: re-checking job state (keeps slow streams responsive to cancellation).
STREAM_WAIT = 5.0


class ServiceApp:
    """Store + job queue + router, ready to serve."""

    def __init__(
        self,
        store_root: str,
        workers: int = 2,
        capacity: int = 8,
        retry_after: float = 1.0,
        quota: Optional[QuotaSpec] = None,
        recover: bool = True,
        drain_grace: float = 10.0,
        retries: int = 1,
    ):
        self.store = RunStore(store_root)
        self.quota_ceiling = quota if quota is not None else QuotaSpec()
        self.drain_grace = drain_grace
        self.draining = False
        self._drained = False
        self._submit_lock = threading.Lock()
        self.jobs = JobQueue(
            self.store, workers=workers, capacity=capacity,
            retry_after=retry_after, retries=retries,
        )
        self.recovered = self._recover() if recover else []
        self.router = Router()
        self.router.add("GET", "/healthz", self._healthz)
        self.router.add("POST", "/runs", self._submit)
        self.router.add("GET", "/runs", self._list_runs)
        self.router.add("GET", "/runs/{run_id}", self._run_status)
        self.router.add("GET", "/runs/{run_id}/events", self._events)
        self.router.add("GET", "/runs/{run_id}/manifest", self._manifest)
        self.router.add("GET", "/runs/{run_id}/replay/{index}", self._replay)
        self.router.add("POST", "/runs/{run_id}/cancel", self._cancel)

    # -- crash recovery --------------------------------------------------
    def _recover(self) -> list:
        """Re-enqueue every stored run whose journal still owes work.

        Stored quotas are clamped to *this* server's ceilings (limits may
        have been lowered since the run was accepted).  A stored request
        this release cannot read (say, one naming a retired engine
        setting) settles its run as ``failed`` with the reason, journaled
        so later boots skip it, and the boot goes on.  Returns the
        recovered run ids, in original submission order.
        """
        recovered = []
        for run_id in self.store.scan_recoverable():
            try:
                request = self.store.request(run_id)
            except ServiceError:
                continue  # request.json never landed; nothing to resume
            except ValueError as exc:
                error = "unreadable request: {}".format(exc)
                self.store.append_journal(run_id, "failed", error=error)
                self.store.set_status(run_id, "failed", error=error)
                continue
            effective = request.quota.limited_by(self.quota_ceiling, clamp=True)
            if self.jobs.enqueue_recovered(run_id, quota=effective) is not None:
                recovered.append(run_id)
        return recovered

    # -- handlers --------------------------------------------------------
    async def _healthz(self, request: Request) -> JsonResponse:
        loop = asyncio.get_running_loop()
        store_bytes = await loop.run_in_executor(None, self.store.disk_usage)
        payload = {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.jobs.depth(),
            "active_jobs": self.jobs.active(),
            "workers": self.jobs.workers,
            "capacity": self.jobs.capacity,
            "store_bytes": store_bytes,
            "last_checkpoint_age": self.jobs.last_checkpoint_age(),
            "workloads": sorted(WORKLOADS),
        }
        if self.draining:
            return JsonResponse(
                payload, status=503,
                headers={"Retry-After": "{:g}".format(self.jobs.retry_after)},
            )
        return JsonResponse(payload)

    async def _submit(self, request: Request) -> JsonResponse:
        if self.draining:
            raise ServiceError(
                503, "service is draining; resubmit to the next instance",
                retry_after=self.jobs.retry_after,
            )
        submission = SubmitRequest.from_payload(request.json())
        effective = submission.quota.limited_by(self.quota_ceiling)  # 400 if over
        key = request.headers.get("idempotency-key")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._submit_sync, submission, effective, key
        )

    def _submit_sync(
        self,
        submission: SubmitRequest,
        effective: QuotaSpec,
        key: Optional[str],
    ) -> JsonResponse:
        with self._submit_lock:
            if key:
                existing = self.store.idempotent_run(key)
                if existing is not None and self.store.exists(existing):
                    status = self.store.status(existing)
                    return JsonResponse({
                        "run_id": existing,
                        "state": status.get("state"),
                        "replicas": status.get("replicas"),
                        "deduplicated": True,
                    })
            job = self.jobs.submit(submission, quota=effective)  # QueueFull -> 429
            if key:
                self.store.record_idempotent(key, job.run_id)
        payload: Dict[str, Any] = {
            "run_id": job.run_id,
            "state": job.state,
            "replicas": submission.replicas,
        }
        if effective.any():
            payload["quota"] = effective.as_dict()
        return JsonResponse(payload, status=202)

    async def _list_runs(self, request: Request) -> JsonResponse:
        loop = asyncio.get_running_loop()
        runs = await loop.run_in_executor(None, self.store.list_runs)
        return JsonResponse({"runs": runs})

    async def _run_status(self, request: Request) -> JsonResponse:
        run_id = request.params["run_id"]
        status = self.store.status(run_id)
        payload = dict(status)
        try:
            payload["request"] = self.store.request(run_id).as_dict()
        except ValueError as exc:  # stored in a form this release cannot read
            payload["request"] = None
            payload["request_error"] = str(exc)
        payload["manifest"] = self.store.manifest_exists(run_id)
        return JsonResponse(payload)

    async def _events(self, request: Request) -> StreamResponse:
        run_id = request.params["run_id"]
        self.store.status(run_id)  # 404 before committing to a stream
        try:
            start = int(request.query.get("from", "0"))
        except ValueError:
            raise ServiceError(400, "from must be an integer")
        return StreamResponse(self._event_lines(run_id, start))

    async def _event_lines(self, run_id: str, start: int) -> AsyncIterator[str]:
        import json

        loop = asyncio.get_running_loop()
        job = self.jobs.get(run_id)
        cursor = start
        if job is None:
            # not live in this process: replay the persisted event log
            events = await loop.run_in_executor(
                None, self.store.read_events, run_id, cursor
            )
            for event in events:
                yield json.dumps(event, sort_keys=True)
            return
        while True:
            events = await loop.run_in_executor(
                None, job.wait_events, cursor, STREAM_WAIT
            )
            for event in events:
                yield json.dumps(event, sort_keys=True)
            cursor += len(events)
            if job.terminal and not job.events_since(cursor):
                return

    async def _manifest(self, request: Request) -> JsonResponse:
        run_id = request.params["run_id"]
        self.store.status(run_id)
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(
            None, self.store.read_manifest_text, run_id
        )
        if text is None:
            raise ServiceError(
                409, "run {} has no manifest yet".format(run_id)
            )
        return JsonResponse(text, content_type="application/x-ndjson")

    async def _replay(self, request: Request) -> JsonResponse:
        run_id = request.params["run_id"]
        try:
            index = int(request.params["index"])
        except ValueError:
            raise ServiceError(400, "replica index must be an integer")
        self.store.status(run_id)
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None, self._replay_sync, run_id, index
        )
        return JsonResponse(payload)

    def _replay_sync(self, run_id: str, index: int) -> Dict[str, Any]:
        from ..obs import load_manifest, replay_replica

        path = self.store.manifest_path(run_id)
        if not self.store.manifest_exists(run_id):
            raise ServiceError(409, "run {} has no manifest yet".format(run_id))
        try:
            manifest = load_manifest(path)
            manifest.config  # parsed here for its ValueError only
            stored = self.store.request(run_id)
        except ValueError as exc:  # stored in a form this release cannot read
            raise ServiceError(
                409, "run {} cannot be replayed: {}".format(run_id, exc)
            )
        try:
            record = manifest.record(index)
        except KeyError:
            raise ServiceError(
                404,
                "run {} has no replica {} (cancelled before it ran?)".format(
                    run_id, index
                ),
            )
        # a run recorded with an observer replays bit-identically only
        # with an observer armed (it shapes the batch boundaries)
        observer = (lambda t, p: None) if stored.observe else None
        fresh = replay_replica(manifest, index, observer=observer)
        recorded = {
            "rounds": record.rounds,
            "interactions": record.interactions,
            "converged": record.converged,
        }
        replayed = {
            "rounds": fresh.rounds,
            "interactions": fresh.interactions,
            "converged": fresh.converged,
        }
        return {
            "run_id": run_id,
            "index": index,
            "match": recorded == replayed,
            "recorded": recorded,
            "replayed": replayed,
        }

    async def _cancel(self, request: Request) -> JsonResponse:
        run_id = request.params["run_id"]
        loop = asyncio.get_running_loop()
        status = await loop.run_in_executor(None, self.jobs.cancel, run_id)
        return JsonResponse(status)

    # -- drain -----------------------------------------------------------
    def begin_drain(self) -> None:
        """Flip to draining: submissions answer 503, healthz reports it."""
        self.draining = True

    def drain(self) -> None:
        """Full graceful drain (blocks up to the drain grace)."""
        self.begin_drain()
        if not self._drained:
            self._drained = True
            self.jobs.drain(grace=self.drain_grace)

    # -- serving ---------------------------------------------------------
    async def create_server(self, host: str, port: int) -> asyncio.AbstractServer:
        return await asyncio.start_server(
            lambda r, w: handle_connection(self.router, r, w), host, port
        )

    def serve(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Serve until SIGTERM (graceful drain) or KeyboardInterrupt."""

        async def _run() -> None:
            server = await self.create_server(host, port)
            addr = server.sockets[0].getsockname()
            print(
                "repro service listening on http://{}:{}".format(*addr[:2]),
                flush=True,
            )
            loop = asyncio.get_running_loop()
            drained = loop.create_future()

            def on_sigterm() -> None:
                if not self.draining:
                    self.begin_drain()
                    print("repro service draining (SIGTERM)", flush=True)
                    # keep serving (503s + status polls) while jobs drain
                    task = loop.run_in_executor(None, self.drain)
                    task.add_done_callback(
                        lambda _f: drained.done() or drained.set_result(None)
                    )

            try:
                loop.add_signal_handler(signal.SIGTERM, on_sigterm)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loop: ctrl-c shutdown only
            async with server:
                forever = asyncio.ensure_future(server.serve_forever())
                await asyncio.wait(
                    {forever, drained}, return_when=asyncio.FIRST_COMPLETED
                )
                forever.cancel()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        finally:
            if not self._drained:
                self.jobs.shutdown()

    def start_background(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "ServerHandle":
        """Run the server in a daemon thread; returns a stoppable handle.

        ``port=0`` binds an ephemeral port — read it off the handle.
        Used by the test suite and the CI service-smoke job.
        """
        started = threading.Event()
        state: Dict[str, Any] = {}

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            server = loop.run_until_complete(self.create_server(host, port))
            state["loop"] = loop
            state["server"] = server
            state["port"] = server.sockets[0].getsockname()[1]
            started.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                loop.close()

        thread = threading.Thread(
            target=runner, name="repro-service", daemon=True
        )
        thread.start()
        if not started.wait(10.0):
            raise RuntimeError("service failed to start within 10s")
        return ServerHandle(self, thread, state["loop"], state["port"])


class ServerHandle:
    """A background server: host thread + loop + bound port."""

    def __init__(
        self,
        app: ServiceApp,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        port: int,
    ):
        self.app = app
        self.thread = thread
        self.loop = loop
        self.port = port

    def stop(self, timeout: float = 10.0) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)
        self.app.jobs.shutdown(timeout=timeout)


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    capacity: int = 8,
    retry_after: float = 1.0,
    quota: Optional[QuotaSpec] = None,
    recover: bool = True,
    drain_grace: float = 10.0,
    retries: int = 1,
) -> None:
    """Build a :class:`ServiceApp` and serve it (CLI entry point)."""
    ServiceApp(
        store_root, workers=workers, capacity=capacity,
        retry_after=retry_after, quota=quota, recover=recover,
        drain_grace=drain_grace, retries=retries,
    ).serve(host=host, port=port)
