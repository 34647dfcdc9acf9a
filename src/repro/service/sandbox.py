"""Per-job isolation sandboxes: forked children with rlimit quotas.

Every accepted job executes in its own child process so that a runaway
submission — an n=1e10 sweep, a protocol whose compiled table blows
memory, a wedged worker — can never take the server down with it.  The
children are forked from one **zygote** per job queue: ``python -m
repro.service.sandbox``, started lazily by the queue's first job, has
imported everything a job needs before its first job and then only
forks.  A job's fork request travels over a Unix socketpair (the
zygote's stdin) carrying the child's stdout, stderr and exit-status pipe
ends (``socket.send_fds``); the zygote answers with the child's pid,
reaps it, and writes its Popen-style return code to the status pipe.
The child:

* dies with its zygote (``PR_SET_PDEATHSIG=SIGKILL``, Linux; the
  zygote is single-threaded, so the signal is tied to the process that
  reaps the child), and the zygote kills its children and exits when its
  control socket closes — a ``kill -KILL`` of the server can never leave
  an orphan appending to a manifest the restarted server is about to
  resume;
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

A zygote is reused only while the environment and working directory a
process started now would get (:func:`_child_env`, the working directory
or ``None`` once removed) equal those it started with; otherwise it is
retired — it forks no more and exits once its running children have —
and a fresh one is started.  A zygote found dead, or whose fork request
fails, is replaced the same way; that is not a retry of the job.  The
queue's drain and shutdown stop the zygote and reap it.

The parent half (:func:`run_sandboxed`) relays the child's events into
the job's stream, enforces the wall-clock quota with a kill timer, and
classifies the child's death: a structured ``exit`` event when the child
got to say goodbye, otherwise the exit status — quota breaches become
``status="killed"`` naming the violated limit (never a 500), anything
else is ``interrupted`` and eligible for retry/recovery.  Partial
manifests are always resumable: records are fsynced per replica and a
line torn mid-write is dropped by the manifest reader.  Each outcome
carries ``sandbox: {"fork": "warm"|"cold", "handoff_s": ...}``: ``cold``
when the job started the zygote, and the seconds from its fork request
to the child's pid.

Exit codes: quota breaches use dedicated codes so the classification
works even when the child could not emit its exit event (e.g. the
``SIGXCPU`` arrived inside a kernel).
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

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

#: Linux prctl op installing a parent-death signal in the child.
_PR_SET_PDEATHSIG = 1


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
# The child half: ``python -m repro.service.sandbox`` and its forks
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
    """Run one job spec in this (forked) child; returns its exit code."""
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


def _pdeathsig() -> None:
    """Ask Linux to SIGKILL this process the instant its parent dies."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except Exception:
        pass  # non-Linux: the zygote kills its children when it can


def _forked_child(
    spec: bytes, stdout: int, stderr: int, zygote: int,
    control: socket.socket, inherited: List[int],
) -> None:
    """A job's life in the forked child; never returns to the zygote loop."""
    code = 1
    try:
        _pdeathsig()
        if os.getppid() != zygote:
            os._exit(code)  # the zygote died before the death signal was set
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        control.close()
        for fd in inherited:
            os.close(fd)
        os.dup2(stdout, 1)
        os.dup2(stderr, 2)
        os.close(stdout)
        os.close(stderr)
        code = _run_job(json.loads(spec))
    except BaseException:  # noqa: BLE001 - the child must reach os._exit
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _reap(status: Dict[int, int]) -> None:
    """Reap every exited child; write its return code to its status pipe."""
    while status:
        try:
            pid, wait_status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
        fd = status.pop(pid, None)
        if fd is not None:
            try:
                os.write(fd, b"%d" % os.waitstatus_to_exitcode(wait_status))
            except OSError:
                pass  # nobody is waiting for this job any more
            os.close(fd)


def _preload() -> None:
    """Import, in the zygote, every module a job child would import."""
    import ctypes  # noqa: F401 - each child sets its death signal with it

    import numpy.random  # noqa: F401 - every job uses it

    import repro

    for name in repro.__all__:  # the package's modules, as an eager import
        getattr(repro, name)


def _zygote_main() -> int:
    """Import what every job needs, then fork one child per request.

    Stdin is the control socket.  A request is the job spec with three
    fds (the child's stdout, stderr and exit-status pipe ends); the reply
    is the child's pid.  A request without fds retires the zygote: it
    exits once its children have.  When the socket closes the zygote
    kills its children, reaps them and exits 0 without a word.
    """
    _preload()
    control = socket.socket(fileno=os.dup(0))
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    os.close(null)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda _s, _f: None)
    zygote = os.getpid()
    status: Dict[int, int] = {}  # live child pid -> its exit-status pipe
    retiring = False
    while status or not retiring:
        ready = select.select([control, wake_r], [], [])[0]
        if wake_r in ready:
            os.read(wake_r, 4096)
            _reap(status)
        if control not in ready:
            continue
        try:
            spec, fds, _flags, _addr = socket.recv_fds(control, 1 << 16, 3)
        except OSError:
            spec, fds = b"", []
        if not spec:  # the server is gone: take the children along
            for pid in status:
                os.kill(pid, signal.SIGKILL)
            for pid in status:
                os.waitpid(pid, 0)
            return 0
        if len(fds) != 3:
            retiring = True
            for fd in fds:
                os.close(fd)
            continue
        stdout, stderr, exit_status = fds
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            control.send("fork failed: {}".format(exc).encode())
            continue
        if pid == 0:
            _forked_child(
                spec, stdout, stderr, zygote, control,
                [wake_r, wake_w, exit_status, *status.values()],
            )
        os.close(stdout)
        os.close(stderr)
        status[pid] = exit_status
        control.send(b"%d" % pid)
    return 0


# ---------------------------------------------------------------------------
# The parent half: fork, relay, enforce wall clock, classify the death
# ---------------------------------------------------------------------------

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
    """The zygote's environment, with this repro importable on PYTHONPATH.

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


#: What a zygote was started with: its environment and working directory.
_Context = Tuple[Dict[str, str], Optional[str]]


def _context() -> _Context:
    """What a zygote started now would get."""
    # None: the working directory was removed, so the zygote inherits it
    cwd = note_working_directory()
    return _child_env(), cwd


class ForkedChild:
    """A job's forked sandbox child, with the Popen surface the job uses.

    ``stdout``/``stderr`` read the child's pipes; the return code (a
    negative signal number when killed, as ``Popen`` reports it) arrives
    on the exit-status pipe once the zygote has reaped the child.
    """

    def __init__(self, pid: int, stdout: int, stderr: int, status: int):
        self.pid = pid
        self.stdout = open(stdout, encoding="utf-8", errors="replace")
        self.stderr = open(stderr, encoding="utf-8", errors="replace")
        self._status = open(status, "rb")
        self.returncode: Optional[int] = None

    def wait(self) -> int:
        if self.returncode is None:
            with self._status:
                text = self._status.read()
            # nothing written: the zygote died first, and its death
            # signal took the child along
            self.returncode = int(text) if text else -signal.SIGKILL
        return self.returncode

    def poll(self) -> Optional[int]:
        if self.returncode is None and select.select(
            [self._status], [], [], 0
        )[0]:
            return self.wait()
        return self.returncode

    def send_signal(self, signum: int) -> None:
        if self.returncode is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Zygote:
    """A job queue's sandbox zygote: started lazily, forks each job's child.

    See the module docstring for the lifecycle.  :meth:`stop` (drain,
    shutdown) kills and reaps it, and every retired one, for good.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._control: Optional[socket.socket] = None
        self._context: Optional[_Context] = None
        self._retired: List[Tuple[subprocess.Popen, socket.socket]] = []
        self._stopped = False

    def fork(self, spec: str) -> Tuple[ForkedChild, Dict[str, Any]]:
        """Fork a child for this job spec; returns it and its ``sandbox``
        record (``fork``: warm or cold, ``handoff_s``)."""
        begun = time.perf_counter()
        context = _context()
        with self._lock:
            if self._stopped:
                raise RuntimeError("the sandbox zygote was stopped")
            self._retired = [z for z in self._retired if not _reaped(*z)]
            cold = False
            if self._proc is not None and (
                self._context != context or self._proc.poll() is not None
            ):
                self._retire()
            for attempt in (0, 1):
                if self._proc is None:
                    self._start(context)
                    cold = True
                try:
                    child = self._request(spec)
                    break
                except OSError:
                    # a zygote that died since the check: one fresh start
                    self._retire()
                    if attempt:
                        raise
        return child, {
            "fork": "cold" if cold else "warm",
            "handoff_s": time.perf_counter() - begun,
        }

    def stop(self) -> None:
        """Stop the zygote and every retired one: each kills its children;
        all are reaped."""
        with self._lock:
            self._stopped = True
            if self._proc is not None:
                self._retire()
            for proc, control in self._retired:
                control.close()  # EOF: kill the children, reap them, exit
            for proc, _ in self._retired:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            self._retired = []

    def _start(self, context: _Context) -> None:
        env, cwd = context
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.sandbox"],
                stdin=theirs, stdout=subprocess.DEVNULL, env=env, cwd=cwd,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._control = ours
        self._context = context

    def _retire(self) -> None:
        """No more forks here: the zygote exits once its children have."""
        try:
            self._control.send(b"retire")
        except OSError:
            pass  # already gone
        self._retired.append((self._proc, self._control))
        self._proc = self._control = self._context = None

    def _request(self, spec: str) -> ForkedChild:
        pipes = [os.pipe() for _ in range(3)]  # stdout, stderr, exit status
        ours = [r for r, _ in pipes]
        try:
            try:
                socket.send_fds(
                    self._control, [spec.encode()], [w for _, w in pipes]
                )
            finally:
                for _, w in pipes:
                    os.close(w)
            reply = self._control.recv(256)
            if not reply.isdigit():
                raise ConnectionError("sandbox zygote: {}".format(
                    reply.decode(errors="replace") or "exited"
                ))
        except BaseException:
            for r in ours:
                os.close(r)
            raise
        return ForkedChild(int(reply), *ours)


def _reaped(proc: subprocess.Popen, control: socket.socket) -> bool:
    """Whether a retired zygote has exited (then reaped, socket closed)."""
    if proc.poll() is None:
        return False
    control.close()
    return True


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
    The outcome carries the fork's ``sandbox`` record.
    """
    spec = json.dumps({
        "store_root": store.root,
        "run_id": run_id,
        "quota": quota.as_dict(),
    })
    proc, forked = zygote.fork(spec)
    attach(proc)
    outcome = _supervise(proc, quota, emit, attach)
    outcome["sandbox"] = forked
    return outcome


def _supervise(
    proc: ForkedChild,
    quota: QuotaSpec,
    emit: Callable[[Dict[str, Any]], None],
    attach: Callable[[Optional[ForkedChild]], None],
) -> Dict[str, Any]:
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


if __name__ == "__main__":
    sys.exit(_zygote_main())
