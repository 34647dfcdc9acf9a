"""Per-job isolation sandboxes: forked children with rlimit quotas.

Every accepted job executes in its own child process so that a runaway
submission — an n=1e10 sweep, a protocol whose compiled table blows
memory, a wedged worker — can never take the server down with it.  The
children are forked from one :class:`~repro.zygote.Zygote` per job
queue, started lazily by the queue's first job: it has imported
everything a job needs before its first job and then only forks (see
:mod:`repro.zygote` for its protocol, its lifetime and when it is
retired and restarted; a restart is not a retry of the job).  The
queue's drain and shutdown stop the zygote and reap it.  The child
(:func:`_run_job`):

* dies with its zygote, and the zygote with the server — a ``kill -KILL``
  of the server can never leave an orphan appending to a manifest the
  restarted server is about to resume;
* applies the job's :class:`~repro.service.schema.QuotaSpec` via
  ``resource.setrlimit`` (``RLIMIT_CPU`` for ``cpu_seconds``, counted
  from zero since a forked child starts with no CPU time, ``RLIMIT_AS``
  for ``memory_bytes``) before touching the workload;
* runs the checkpoint-group loop (:func:`execute_groups`), appending each
  group to the run manifest and emitting progress/replica/grid/checkpoint
  events as JSON lines on stdout;
* drains at the next group boundary when it receives ``SIGTERM``
  (cancellation and graceful server drain both ride this), and
* leaves by ``os._exit`` once its ``exit`` line is flushed: no
  interpreter teardown sits on the job path.

The parent half (:func:`run_sandboxed`) relays the child's events into
the job's stream, enforces the wall-clock quota with a kill timer, and
classifies the child's death: a structured ``exit`` event when the child
got to say goodbye, otherwise the exit status — quota breaches become
``status="killed"`` naming the violated limit (never a 500), anything
else is ``interrupted`` and eligible for retry/recovery.  Partial
manifests are always resumable: a hard-killed child loses no record it
wrote, because each record line is flushed to the file before the next
replica runs, and a line torn mid-write is dropped by the manifest
reader (the per-record fsync is what keeps records across an OS crash).
Each outcome carries ``sandbox: {"fork": "warm"|"cold", "handoff_s":
...}``: ``cold`` when the job started the zygote, and the seconds from
its fork request to the child's pid.

Exit codes: quota breaches use dedicated codes so the classification
works even when the child could not emit its exit event (e.g. the
``SIGXCPU`` arrived inside a kernel).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import traceback
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, TextIO

from ..zygote import ForkedChild, Zygote
from .schema import QuotaSpec, SubmitRequest
from .store import RunStore

if TYPE_CHECKING:
    from ..faults import ServiceFaultPlan

#: Child exit codes for quota breaches the child itself detects.
EXIT_CPU = 85
EXIT_MEM = 86
EXIT_MANIFEST = 87

#: Exit-code -> violated-limit classification fallback (used when the
#: child died before its ``exit`` event reached the pipe).
KILL_EXIT_LIMITS = {
    EXIT_CPU: "cpu_seconds",
    EXIT_MEM: "memory_bytes",
    EXIT_MANIFEST: "manifest_bytes",
}

#: Seconds of hard-limit cushion above the soft ``RLIMIT_CPU``, so the
#: SIGXCPU handler always gets to report before the kernel's SIGKILL.
CPU_HARD_GRACE = 5

def run_replicas(*args: Any, **kwargs: Any):
    """:func:`repro.engine.replicas.run_replicas`, imported on call (the
    server never runs it) and patchable here by tests."""
    from ..engine.replicas import run_replicas as run

    return run(*args, **kwargs)


def execute_groups(
    request: SubmitRequest,
    run_id: str,
    store: RunStore,
    emit: Callable[[Dict[str, Any]], None],
    should_stop: Callable[[], bool],
    quota: Optional[QuotaSpec] = None,
    faults: Optional[ServiceFaultPlan] = None,
) -> Dict[str, Any]:
    """The checkpoint-group loop a sandbox child runs.

    The groups are the runner's own blocks
    (:func:`~repro.engine.replicas.replica_blocks`): one replica each, or
    ``ensemble_chunk`` stacked rows for the ensemble engine, so the
    row-stacked RNG streams (and with them the recorded results) never
    depend on where the service happened to cut.

    Detects a pre-existing manifest and **resumes** it: groups whose
    replicas all carry ``ok`` records are skipped, the rest re-run with
    their original seeds (``run_replicas(indices=...)``), so a resumed
    run is bit-identical to an uninterrupted one.  After every group the
    fresh records are on disk, a ``checkpoint`` event is emitted, and
    the stop flag and manifest quota are checked — which is what makes
    cancel, drain and crash all land on a well-formed resumable
    checkpoint.

    Returns the outcome: ``{"status": "done"|"interrupted"|"killed",
    ...}`` with progress counters (``done`` counts distinct recorded
    replica indices, including ones recorded before a resume).
    """
    from ..engine.replicas import replica_blocks

    workload = request.build_workload()
    manifest = store.manifest_path(run_id)
    meta = {
        "workload": workload.spec(),
        "service": {"run_id": run_id, "label": request.label},
    }
    groups = replica_blocks(request.config, request.replicas)
    missing = set(range(request.replicas))
    seen: set = set()
    converged = 0
    if os.path.exists(manifest):
        from ..obs import load_manifest

        prior = load_manifest(manifest)
        missing = set(prior.missing_indices())
        for record in prior.records:
            if record.status == "ok" and record.index not in missing:
                seen.add(record.index)
                if record.converged:
                    converged += 1

    def observer_for(replica: int):
        if not request.observe:
            return None

        def observer(t: float, population) -> None:
            emit({
                "kind": "grid",
                "replica": replica,
                "t": float(t),
                "counts": {
                    str(k): int(v) for k, v in population.counts.items()
                },
            })

        return observer

    for k, group in enumerate(groups):
        todo = [i for i in group if i in missing]
        if not todo:
            continue
        if should_stop():
            return {
                "status": "interrupted", "reason": "stop",
                "done": len(seen), "converged": converged,
            }
        run_kwargs = dict(request.run_kwargs)
        observer = observer_for(todo[0])
        if observer is not None:
            run_kwargs["observer"] = observer
        rs = run_replicas(
            workload.protocol,
            workload.population,
            replicas=request.replicas,
            config=request.config,
            seed=request.seed,
            processes=1,
            stop=workload.stop,
            manifest=manifest,
            manifest_meta=meta,
            manifest_append=os.path.exists(manifest),
            indices=todo,
            **run_kwargs,
        )
        for record in rs:
            seen.add(record.index)
            if record.converged:
                converged += 1
            emit({
                "kind": "replica",
                "index": record.index,
                "rounds": record.rounds,
                "interactions": record.interactions,
                "converged": record.converged,
                "status": record.status,
                "engine": record.engine,
                "wall": record.wall,
            })
        emit({"kind": "progress", "done": len(seen), "total": request.replicas})
        emit({"kind": "checkpoint", "group": k, "done": len(seen)})
        if faults is not None:
            faults.after_checkpoint(k)
        if quota is not None and quota.manifest_bytes is not None:
            size = os.path.getsize(manifest)
            if size > quota.manifest_bytes:
                return {
                    "status": "killed", "limit": "manifest_bytes",
                    "manifest_bytes": size,
                    "quota": quota.manifest_bytes,
                    "done": len(seen), "converged": converged,
                }
    return {"status": "done", "done": len(seen), "converged": converged}


# ---------------------------------------------------------------------------
# The child half: a job's life in its forked child
# ---------------------------------------------------------------------------

def _emit_line(event: Dict[str, Any]) -> None:
    print(json.dumps(event, sort_keys=True), flush=True)


def _apply_rlimits(quota: QuotaSpec) -> None:
    """Enforce CPU and address-space quotas on *this* process."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return
    if quota.cpu_seconds is not None:
        soft = max(1, int(quota.cpu_seconds + 0.999))

        def on_xcpu(_signum, _frame):
            _emit_line({
                "kind": "exit", "status": "killed", "limit": "cpu_seconds",
                "quota": quota.cpu_seconds,
            })
            os._exit(EXIT_CPU)

        signal.signal(signal.SIGXCPU, on_xcpu)
        resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + CPU_HARD_GRACE))
    if quota.memory_bytes is not None:
        resource.setrlimit(
            resource.RLIMIT_AS, (quota.memory_bytes, quota.memory_bytes)
        )


def _run_job(spec: Dict[str, Any]) -> int:
    """Run one job spec in this forked child (a zygote entry); returns
    its exit code."""
    from ..faults import ServiceFaultPlan

    store = RunStore(spec["store_root"])
    run_id = spec["run_id"]
    quota = QuotaSpec(**(spec.get("quota") or {}))
    request = store.request(run_id)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _s, _f: stop.set())
    _apply_rlimits(quota)

    faults = ServiceFaultPlan.from_env()
    if faults is not None and not faults.matches(request.label):
        faults = None
    try:
        if faults is not None:
            faults.apply_preamble()
        outcome = execute_groups(
            request, run_id, store,
            emit=_emit_line,
            should_stop=stop.is_set,
            quota=quota,
            faults=faults,
        )
    except MemoryError:
        _emit_line({
            "kind": "exit", "status": "killed", "limit": "memory_bytes",
            "quota": quota.memory_bytes,
        })
        return EXIT_MEM
    except Exception as exc:  # noqa: BLE001 - job boundary
        _emit_line({
            "kind": "exit", "status": "failed",
            "error": "{}: {}".format(type(exc).__name__, exc),
            "trace": traceback.format_exc(limit=8),
        })
        return 0
    _emit_line(dict(outcome, kind="exit"))
    return EXIT_MANIFEST if outcome.get("limit") == "manifest_bytes" else 0


def run_sandboxed(
    store: RunStore,
    run_id: str,
    quota: QuotaSpec,
    emit: Callable[[Dict[str, Any]], None],
    attach: Callable[[Optional[ForkedChild]], None],
    zygote: Zygote,
) -> Dict[str, Any]:
    """Run one job attempt in a child forked by ``zygote``; classify it.

    ``emit`` receives the child's replica/progress/grid/checkpoint events
    as they stream in; ``attach`` is handed the live child (and then
    ``None``) so the owning job can route cancel/drain signals to it.
    The child's stdout and stderr share one pipe: lines that are not
    events (a traceback) are kept as the outcome's ``stderr`` tail.  The
    outcome carries the fork's ``sandbox`` record.
    """
    spec = {
        "store_root": store.root,
        "run_id": run_id,
        "quota": quota.as_dict(),
    }
    out_r, out_w = os.pipe()
    try:
        proc, forked = zygote.fork(
            "repro.service.sandbox:_run_job", spec, (out_w, out_w)
        )
    except BaseException:
        os.close(out_r)
        raise
    finally:
        os.close(out_w)
    attach(proc)
    with open(out_r, encoding="utf-8", errors="replace") as output:
        outcome = _supervise(proc, output, quota, emit, attach)
    outcome["sandbox"] = forked
    return outcome


def _supervise(
    proc: ForkedChild,
    output: TextIO,
    quota: QuotaSpec,
    emit: Callable[[Dict[str, Any]], None],
    attach: Callable[[Optional[ForkedChild]], None],
) -> Dict[str, Any]:
    stderr_tail: deque = deque(maxlen=20)
    wall_expired = threading.Event()
    timer: Optional[threading.Timer] = None
    if quota.wall_seconds is not None:

        def on_wall() -> None:
            wall_expired.set()
            try:
                proc.kill()
            except OSError:
                pass

        timer = threading.Timer(quota.wall_seconds, on_wall)
        timer.daemon = True
        timer.start()

    exit_event: Optional[Dict[str, Any]] = None
    try:
        for line in output:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                event = None
            if not isinstance(event, dict):
                # stderr, or a torn line from a dying child
                stderr_tail.append(line)
                continue
            if event.get("kind") == "exit":
                event.pop("kind", None)
                exit_event = event
            else:
                emit(event)
        returncode = proc.wait()
    finally:
        if timer is not None:
            timer.cancel()
        attach(None)

    if exit_event is not None:
        return exit_event
    if wall_expired.is_set():
        return {
            "status": "killed", "limit": "wall_seconds",
            "quota": quota.wall_seconds,
        }
    from ..faults import CRASH_EXIT_CODE

    limit = KILL_EXIT_LIMITS.get(returncode)
    if limit is None and returncode == -signal.SIGXCPU:
        limit = "cpu_seconds"
    if limit is not None:
        return {
            "status": "killed", "limit": limit,
            "quota": getattr(quota, limit, None),
        }
    return {
        "status": "interrupted",
        "reason": "worker-crash",
        "exit_code": returncode,
        "injected": returncode == CRASH_EXIT_CODE,
        "stderr": "\n".join(stderr_tail)[-2000:],
    }

