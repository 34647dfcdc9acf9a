"""The one way repro starts a child process: fork it from a warm zygote.

A zygote (``python -m repro.zygote``) imports everything a child runs
(:func:`_preload`) and then only forks.  The service's job queue forks
each job's sandbox child from its own :class:`Zygote`
(:mod:`repro.service.sandbox`); a pooled sweep forks its workers from
the process-wide one, :func:`pool`, after having it compile the sweep's
closed table (:meth:`Zygote.call`), so the workers inherit the table
copy-on-write (:mod:`repro.engine.replicas`).

Requests are pickled tuples with file descriptors on a Unix
``SOCK_SEQPACKET`` socket, the zygote's stdin.  ``("fork", entry, arg)``
carries an exit-status pipe, the child's stdout and stderr and any extra
fds; the zygote forks, answers with the pid, runs ``entry``
(``"module:function"``) as ``function(arg, *extra)`` in the child, and
writes the child's Popen-style return code to the status pipe once it
has reaped it.  ``("call", preparation)`` carries a pipe with a pickled
``(function, args)`` that the zygote runs itself.  ``("retire",)`` makes
it exit once its children have.  A child dies with its zygote
(``PR_SET_PDEATHSIG``), and a zygote whose socket closes — as when its
parent dies, even by ``kill -KILL`` — kills its children and exits.  A
zygote is reused while the environment and working directory
(:func:`_context`) are those it started with; otherwise, or when found
dead, it is retired and a fresh one started.

This needs Linux; where ``os.fork`` or ``socket.send_fds`` is missing,
:data:`FORKS` is false and sweeps run their tasks in-process.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import os
import pickle
import runpy
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Whether this process can fork workers from a zygote: not on a host
#: without ``os.fork`` or ``socket.send_fds``, nor in a zygote or its
#: children, whose sweeps run in-process (:func:`main` clears it).
FORKS = hasattr(os, "fork") and hasattr(socket, "send_fds")

#: Linux prctl op installing a parent-death signal in the child.
_PR_SET_PDEATHSIG = 1


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


def _preload() -> None:
    """Import, in the zygote, every module a child would import."""
    import ctypes  # noqa: F401 - each child sets its death signal with it

    import numpy.random  # noqa: F401 - every job uses it

    import repro
    import repro.service.sandbox  # noqa: F401 - the job child's entry
    from repro.workloads import WORKLOADS, build_workload

    for name in repro.__all__:  # the package's modules, as an eager import
        getattr(repro, name)
    for name in WORKLOADS:  # each builder and stop predicate imports lazily
        workload = build_workload(name, n=64)
        workload.stop(workload.population)


def preparation() -> Dict[str, Any]:
    """What a child needs to unpickle this process's objects, as ``spawn``
    passes it: the module search path and the main module."""
    main = sys.modules["__main__"]
    # what a child's re-run main defines pickles back as __mp_main__
    sys.modules.setdefault("__mp_main__", main)
    spec, path = getattr(main, "__spec__", None), getattr(main, "__file__", None)
    return {"path": list(sys.path), "name": getattr(spec, "name", None),
            # a stdin script's "<stdin>" is no file to re-run
            "file": path if path and os.path.isfile(path) else None}


def prepare(data: Dict[str, Any]) -> None:
    """Adopt :func:`preparation`'s search path and re-run its main module
    as ``__mp_main__`` (once), aliased as ``__main__``.  A package's
    ``__main__`` (``python -m pkg``) is not re-run, as in ``spawn``; a
    sweep a script starts outside its ``if __name__ == "__main__"``
    guard runs in-process here (see :data:`FORKS`)."""
    sys.path[:] = data["path"]
    name, path, main = data["name"], data["file"], sys.modules["__main__"]
    if name is not None:
        if name.split(".")[-1] == "__main__" or name == getattr(
            getattr(main, "__spec__", None), "name", None
        ):
            return
        run = functools.partial(runpy.run_module, name, alter_sys=True)
    elif path is not None and path != getattr(main, "__file__", None):
        run = functools.partial(runpy.run_path, path)
    else:
        return
    module = types.ModuleType("__mp_main__")
    module.__dict__.update(run(run_name="__mp_main__"))
    sys.modules["__main__"] = sys.modules["__mp_main__"] = module


def _forked_child(
    entry: str, arg: Any, fds: List[int], zygote: int,
    control: socket.socket, inherited: List[int],
) -> None:
    """A child's life after the fork; never returns to the zygote loop."""
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
        stdout, stderr, *extra = fds
        os.dup2(stdout, 1)
        os.dup2(stderr, 2)
        os.close(stdout)
        os.close(stderr)
        module, function = entry.split(":")
        code = getattr(importlib.import_module(module), function)(arg, *extra)
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
                pass  # nobody is waiting for this child any more
            os.close(fd)


def _serve_call(data: Dict[str, Any], fd: int) -> bytes:
    """Run a ``call`` request in the zygote itself; its reply."""
    try:
        with open(fd, "rb") as fh:
            payload = fh.read()
        prepare(data)
        function, args = pickle.loads(payload)
        function(*args)
    except Exception as exc:  # noqa: BLE001 - reply, don't die
        return "call failed: {}: {}".format(type(exc).__name__, exc).encode()
    return b"ok"


def main() -> int:
    """Import what every child needs, then serve requests until the
    control socket closes; then kill the children, reap them and exit 0
    without a word."""
    global FORKS
    FORKS = False
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
            message, fds, _flags, _addr = socket.recv_fds(control, 1 << 16, 8)
        except OSError:
            message, fds = b"", []
        if not message:  # the parent is gone: take the children along
            for pid in status:
                os.kill(pid, signal.SIGKILL)
            for pid in status:
                os.waitpid(pid, 0)
            return 0
        kind, *request = pickle.loads(message)
        if kind == "retire":
            retiring = True
            continue
        if kind == "call":
            control.send(_serve_call(request[0], fds[0]))
            continue
        entry, arg = request
        exit_status, *child_fds = fds
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            control.send("fork failed: {}".format(exc).encode())
            continue
        if pid == 0:
            _forked_child(
                entry, arg, child_fds, zygote, control,
                [wake_r, wake_w, exit_status, *status.values()],
            )
        for fd in child_fds:
            os.close(fd)
        status[pid] = exit_status
        control.send(b"%d" % pid)
    return 0


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


#: What a zygote was started with: its environment and working directory.
_Context = Tuple[Dict[str, str], Optional[str]]


def _context() -> _Context:
    """What a zygote started now would get: this environment, with this
    repro importable on PYTHONPATH, and the working directory (``None``
    once removed; the zygote then inherits it).

    Relative PYTHONPATH entries are made absolute against the working
    directory, or the last one seen once it is removed: an interpreter
    started in a removed directory cannot resolve them and dies.
    """
    cwd = note_working_directory()
    env = dict(os.environ)
    entries = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    existing = env.get("PYTHONPATH")
    for entry in existing.split(os.pathsep) if existing else []:
        if _last_cwd is not None and not os.path.isabs(entry):
            entry = os.path.normpath(os.path.join(_last_cwd, entry))
        entries.append(entry)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env, cwd


class ForkedChild:
    """A child the zygote forked, with the Popen surface its owner uses.

    The return code (a negative signal number when killed, as ``Popen``
    reports it) arrives on the exit-status pipe once the zygote has
    reaped the child.
    """

    def __init__(self, pid: int, status: int):
        self.pid = pid
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

    def terminate(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGTERM)

    def kill(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


class Zygote:
    """A zygote process, started by the first request (see the module
    docstring).  :meth:`stop` kills and reaps it, and every retired one,
    for good."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._control: Optional[socket.socket] = None
        self._context: Optional[_Context] = None
        self._retired: List[Tuple[subprocess.Popen, socket.socket]] = []
        self._stopped = False

    def fork(
        self, entry: str, arg: Any, fds: Sequence[int],
    ) -> Tuple[ForkedChild, Dict[str, Any]]:
        """Fork a child running ``entry(arg, *extra)``; ``fds`` are its
        stdout, stderr and extra fds (the caller keeps its copies).

        Returns the child and its ``sandbox`` record: ``fork`` is
        ``cold`` when this request started the zygote, else ``warm``,
        and ``handoff_s`` the seconds to the child's pid.
        """
        begun = time.perf_counter()
        message = pickle.dumps(("fork", entry, arg))

        def request(control: socket.socket) -> ForkedChild:
            status_r, status_w = os.pipe()
            try:
                try:
                    socket.send_fds(control, [message], [status_w, *fds])
                finally:
                    os.close(status_w)
                reply = control.recv(256)
                if not reply.isdigit():
                    raise ConnectionError("zygote: {}".format(
                        reply.decode(errors="replace") or "exited"
                    ))
            except BaseException:
                os.close(status_r)
                raise
            return ForkedChild(int(reply), status_r)

        child, cold = self._serve(request)
        return child, {
            "fork": "cold" if cold else "warm",
            "handoff_s": time.perf_counter() - begun,
        }

    def call(self, function: Callable[..., Any], *args: Any) -> None:
        """Run ``function(*args)`` in the zygote itself, after it adopted
        this process's :func:`preparation`: every child forked later
        inherits what it leaves in memory.  Raises ``RuntimeError`` with
        the zygote's error when the call fails."""
        message = pickle.dumps(("call", preparation()))
        payload = pickle.dumps((function, args))

        def request(control: socket.socket) -> bytes:
            data_r, data_w = os.pipe()
            with open(data_w, "wb") as fh:
                try:
                    socket.send_fds(control, [message], [data_r])
                finally:
                    os.close(data_r)
                fh.write(payload)
            reply = control.recv(1 << 16)
            if not reply:
                raise ConnectionError("zygote: exited")
            return reply

        reply, _ = self._serve(request)
        if reply != b"ok":
            raise RuntimeError(reply.decode(errors="replace"))

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

    def _serve(self, request: Callable[[socket.socket], Any]) -> Tuple[Any, bool]:
        """``request(control)`` on a live zygote; its result, and whether
        this started the zygote."""
        context = _context()
        with self._lock:
            if self._stopped:
                raise RuntimeError("the zygote was stopped")
            self._retired = [z for z in self._retired if not _reaped(*z)]
            if self._proc is not None and (
                self._context != context or self._proc.poll() is not None
            ):
                self._retire()
            cold = self._proc is None
            if cold:
                self._start(context)
            try:
                return request(self._control), cold
            except OSError:
                # a zygote that died since the check: one fresh start
                self._retire()
                self._start(context)
                return request(self._control), True

    def _start(self, context: _Context) -> None:
        env, cwd = context
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.zygote"],
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
            self._control.send(pickle.dumps(("retire",)))
        except OSError:
            pass  # already gone
        self._retired.append((self._proc, self._control))
        self._proc = self._control = self._context = None


def _reaped(proc: subprocess.Popen, control: socket.socket) -> bool:
    """Whether a retired zygote has exited (then reaped, socket closed)."""
    if proc.poll() is None:
        return False
    control.close()
    return True


_pool: Optional[Zygote] = None
_pool_lock = threading.Lock()


def pool() -> Zygote:
    """The process-wide zygote pooled sweeps fork their workers from,
    stopped at interpreter exit."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = Zygote()
            atexit.register(_pool.stop)
        return _pool


if __name__ == "__main__":
    # serve from the imported module, whose state prepare() and pool() use
    from repro.zygote import main as _main

    sys.exit(_main())
