"""Simulation-as-a-service: an async HTTP front for the replica pool.

The library runs sweeps in-process; this package runs them *for remote
callers*: submit a workload spec + engine config over HTTP, the request
is validated (:mod:`repro.service.schema`), queued onto a bounded worker
pool with backpressure (:mod:`repro.service.jobs`), executed inside a
supervised per-job sandbox subprocess under ``resource.setrlimit``
quotas (:mod:`repro.service.sandbox`) through the same
:func:`repro.engine.replicas.run_replicas` path the CLI uses —
checkpointing a run manifest per job into a run-id-addressed store with
a write-ahead journal (:mod:`repro.service.store`) — and observed live
over chunked-JSONL progress/grid streams (:mod:`repro.service.http` /
:mod:`repro.service.app`).  Any replica of any stored run replays
bit-identically by run id, exactly like :func:`repro.obs.replay_replica`
does locally.

The service is built to survive: a ``kill -9`` of the server is repaired
on the next boot (the journal scan re-enqueues every interrupted run,
which resumes from its manifest checkpoint bit-identically), ``SIGTERM``
drains gracefully, and a quota-breaching job dies alone as
``status="killed"`` naming the violated limit.  The matching
:class:`~repro.service.client.ServiceClient` retries with capped
backoff, resumes event streams by cursor, and makes retried submits
idempotent.

Start a server with ``python -m repro serve`` (see ``docs/SERVICE.md``)
or embed one::

    from repro.service import ServiceApp
    app = ServiceApp(store_root="runs/")
    app.serve(host="127.0.0.1", port=8765)
"""

from .._lazy import lazy_exports

#: Public name -> the submodule defining it.  They load on first use, so
#: ``python -m repro.service.sandbox`` (the sandbox zygote) imports only
#: what it runs, and runs its own module once.
_EXPORTS = {
    "Job": "jobs",
    "JobQueue": "jobs",
    "QueueFull": "jobs",
    "QuotaSpec": "schema",
    "RunStore": "store",
    "ServiceApp": "app",
    "ServiceClient": "client",
    "ServiceClientError": "client",
    "ServiceError": "schema",
    "SubmitRequest": "schema",
    "serve": "app",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
