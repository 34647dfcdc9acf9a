"""Per-job isolation sandboxes: supervised subprocesses with rlimit quotas.

Every accepted job executes in its own child interpreter (``python -m
repro.service.sandbox``) so that a runaway submission — an n=1e10 sweep,
a protocol whose compiled table blows memory, a wedged worker — can
never take the server down with it.  The child:

* applies the job's :class:`~repro.service.schema.QuotaSpec` via
  ``resource.setrlimit`` (``RLIMIT_CPU`` for ``cpu_seconds``,
  ``RLIMIT_AS`` for ``memory_bytes``) before touching the workload;
* runs the checkpoint-group loop (:func:`execute_groups`), appending each group to the run manifest and
  emitting progress/replica/grid/checkpoint events as JSON lines on
  stdout;
* drains at the next group boundary when it receives ``SIGTERM``
  (cancellation and graceful server drain both ride this), and
* dies with the server: the parent sets ``PR_SET_PDEATHSIG=SIGKILL``
  (Linux) so a ``kill -KILL`` of the server can never leave an orphan
  appending to a manifest the restarted server is about to resume.

Each worker thread keeps one **warm spare** child: started ahead of
time, it has finished importing and blocks reading its job spec from
stdin, so handing it a job is one write.  A job takes its worker's spare
and the worker starts the replacement at once, overlapping the next
job's interpreter start-up with this job's run.  The worker thread that
uses a spare is the one that spawned it (``PR_SET_PDEATHSIG`` fires on
the exit of the creating *thread*), and a spare is used only when the
environment and working directory it started with equal what a fresh
spawn would get now; otherwise, or when it has died, it is discarded
and a fresh child takes the job.  A spare whose stdin closes before any
spec arrives exits 0 without a word.

The parent half (:func:`run_sandboxed`) relays the child's events into
the job's stream, enforces the wall-clock quota with a kill timer, and
classifies the child's death: a structured ``exit`` event when the child
got to say goodbye, otherwise the exit status — quota breaches become
``status="killed"`` naming the violated limit (never a 500), anything
else is ``interrupted`` and eligible for retry/recovery.  Partial
manifests are always resumable: records are fsynced per replica and a
line torn mid-write is dropped by the manifest reader.

Exit codes: quota breaches use dedicated codes so the classification
works even when the child could not emit its exit event (e.g. the
``SIGXCPU`` arrived inside a kernel).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine.replicas import replica_blocks, run_replicas
from ..faults import CRASH_EXIT_CODE, ServiceFaultPlan
from .schema import QuotaSpec, SubmitRequest
from .store import RunStore

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

#: Linux prctl op installing a parent-death signal in the child.
_PR_SET_PDEATHSIG = 1


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
# The child half: ``python -m repro.service.sandbox``
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


def _child_main() -> int:
    import numpy.random  # noqa: F401 - every job uses it: load it before the spec

    text = sys.stdin.read()
    if not text.strip():
        return 0  # an idle spare whose server let it go: nothing to run
    spec = json.loads(text)
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


# ---------------------------------------------------------------------------
# The parent half: spawn, relay, enforce wall clock, classify the death
# ---------------------------------------------------------------------------

def _pdeathsig() -> None:  # pragma: no cover - runs in the forked child
    """Ask Linux to SIGKILL this child the instant its parent dies."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except Exception:
        pass  # non-Linux: the stdin-EOF of a dead parent is the fallback


#: The last working directory seen to exist (``None`` before any): what
#: relative PYTHONPATH entries resolve against once it is removed.
_last_cwd: Optional[str] = None


def note_working_directory() -> Optional[str]:
    """The working directory, remembered; ``None`` when it was removed.

    The server calls it at start, while its directory still exists.
    """
    global _last_cwd
    try:
        _last_cwd = os.getcwd()
    except OSError:
        return None
    return _last_cwd


def _child_env() -> Dict[str, str]:
    """The child's environment, with this repro importable on PYTHONPATH.

    Relative PYTHONPATH entries are made absolute against the working
    directory, or the last one seen once it is removed: an interpreter
    started in a removed directory cannot resolve them and dies.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    entries = [package_root]
    existing = env.get("PYTHONPATH")
    if existing:
        note_working_directory()
        for entry in existing.split(os.pathsep):
            if _last_cwd is not None and not os.path.isabs(entry):
                entry = os.path.normpath(os.path.join(_last_cwd, entry))
            entries.append(entry)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


#: What a child was started with: its environment and working directory.
_Context = Tuple[Dict[str, str], Optional[str]]

#: Each worker thread's warm spare: ``(child, context)`` or unset.
_spares = threading.local()


def _context() -> _Context:
    """What a child started now would get."""
    # None: the working directory was removed, so the child inherits it
    cwd = note_working_directory()
    return _child_env(), cwd


def _start_child(context: _Context) -> subprocess.Popen:
    """Start a child; it imports repro, then blocks reading its spec."""
    env, cwd = context
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.sandbox"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=cwd,
        preexec_fn=_pdeathsig if os.name == "posix" else None,
    )


def _send_spec(proc: subprocess.Popen, spec: str) -> bool:
    """Write the job spec and close stdin; ``False`` if the pipe is dead."""
    try:
        proc.stdin.write(spec)
        proc.stdin.close()
    except (BrokenPipeError, OSError):
        return False
    return True


def _discard(proc: subprocess.Popen) -> None:
    """Kill a child that will run no job, reap it and close its pipes."""
    try:
        proc.kill()
    except OSError:
        pass
    proc.wait()
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        try:
            pipe.close()
        except OSError:
            pass  # a spec stuck in a dead pipe's buffer


def _take_spare(context: _Context) -> Optional[subprocess.Popen]:
    """This thread's spare if it is alive and started with ``context``."""
    spare = getattr(_spares, "child", None)
    _spares.child = None
    if spare is None:
        return None
    proc, started = spare
    if started == context and proc.poll() is None:
        return proc
    _discard(proc)
    return None


def _prestart_spare() -> None:
    """Start this thread's next child now, so its imports overlap this job."""
    context = _context()
    try:
        _spares.child = (_start_child(context), context)
    except OSError:
        pass  # no spare this time: the next job starts its own child


def discard_spare() -> None:
    """Kill the calling worker thread's idle spare, if it has one."""
    spare = getattr(_spares, "child", None)
    _spares.child = None
    if spare is not None:
        _discard(spare[0])


def spawn_child(store: RunStore, run_id: str, quota: QuotaSpec) -> subprocess.Popen:
    """Hand this run to a sandbox child (but do not wait for it).

    The child is the calling thread's spare when that one is usable,
    else a fresh one.
    """
    spec = json.dumps({
        "store_root": store.root,
        "run_id": run_id,
        "quota": quota.as_dict(),
    })
    context = _context()
    proc = _take_spare(context)
    if proc is not None and not _send_spec(proc, spec):
        _discard(proc)  # died between the liveness check and the write
        proc = None
    if proc is None:
        proc = _start_child(context)
        # a child that died on startup leaves its exit code to the classifier
        _send_spec(proc, spec)
    return proc


def run_sandboxed(
    store: RunStore,
    run_id: str,
    quota: QuotaSpec,
    emit: Callable[[Dict[str, Any]], None],
    attach: Callable[[Optional[subprocess.Popen]], None] = lambda proc: None,
) -> Dict[str, Any]:
    """Run one job attempt in a sandbox child and classify its outcome.

    ``emit`` receives the child's replica/progress/grid/checkpoint events
    as they stream in; ``attach`` is handed the live process (and then
    ``None``) so the owning job can route cancel/drain signals to it.
    Once the child is handed its job and timed, the calling thread starts
    its next spare.
    """
    proc = spawn_child(store, run_id, quota)
    attach(proc)

    stderr_tail: deque = deque(maxlen=20)

    def drain_stderr() -> None:
        for line in proc.stderr:
            stderr_tail.append(line.rstrip())

    stderr_thread = threading.Thread(target=drain_stderr, daemon=True)
    stderr_thread.start()

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
    _prestart_spare()

    exit_event: Optional[Dict[str, Any]] = None
    try:
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn line from a dying child
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
        stderr_thread.join(timeout=2.0)

    if exit_event is not None:
        return exit_event
    if wall_expired.is_set():
        return {
            "status": "killed", "limit": "wall_seconds",
            "quota": quota.wall_seconds,
        }
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


if __name__ == "__main__":
    sys.exit(_child_main())
