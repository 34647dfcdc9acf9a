"""Run-id-addressed persistence for service sweeps.

Each submitted run owns one directory under the store root::

    <root>/<run_id>/request.json    the validated submission (replayable)
    <root>/<run_id>/status.json     queued|running|interrupted|done|
                                    failed|cancelled|killed
    <root>/<run_id>/journal.jsonl   the write-ahead job journal: accepted
                                    -> started -> terminal, each line
                                    fsynced before the matching status
                                    is published (checkpoint lines are
                                    progress notes written after theirs)
    <root>/<run_id>/manifest.jsonl  the repro.obs run manifest (appended
                                    group by group, so an interrupted run
                                    is resumable with repro.obs.resume_sweep)
    <root>/<run_id>/events.jsonl    the progress/grid event log the
                                    streaming endpoint replays for
                                    finished runs

``status.json`` is published with a write-to-temp + ``os.replace``
dance, so a poller never reads a torn
status — and should the file still turn up empty or torn (a crash
between open and write by some other writer, a filesystem hiccup),
:meth:`RunStore.status` falls back to reconstructing the state from the
journal instead of raising.  The journal is the recovery source of
truth: :meth:`RunStore.scan_recoverable` finds every run whose last
journal entry is not terminal, which is exactly the set a restarted
server must re-enqueue.  Run ids are short hex tokens validated on every
lookup — a request path can never escape the store root.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import secrets
import tempfile
import time
from typing import Any, Dict, List, Optional

from .schema import ServiceError, SubmitRequest

_RUN_ID = re.compile(r"^[0-9a-f]{12}$")

#: Journal operations.  ``accepted``/``started``/``checkpoint``/``retry``/
#: ``recovered``/``interrupted`` mean the run still owes work; the rest
#: are terminal.
JOURNAL_TERMINAL = frozenset({"done", "failed", "cancelled", "killed"})

#: Journal op -> the store state it implies when status.json is unreadable.
_OP_STATE = {
    "accepted": "queued",
    "recovered": "queued",
    "started": "running",
    "checkpoint": "running",
    "retry": "running",
}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    handle, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RunStore:
    """Filesystem-backed registry of service runs."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths ---------------------------------------------------------------
    def run_dir(self, run_id: str) -> str:
        if not _RUN_ID.match(run_id):
            raise ServiceError(404, "no such run: {!r}".format(run_id))
        return os.path.join(self.root, run_id)

    def manifest_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "manifest.jsonl")

    def events_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "events.jsonl")

    def journal_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "journal.jsonl")

    def _status_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "status.json")

    def _request_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), "request.json")

    # -- lifecycle -----------------------------------------------------------
    def create(self, request: SubmitRequest) -> str:
        """Allocate a run id, persist the request, journal+mark it queued."""
        while True:
            run_id = secrets.token_hex(6)
            path = os.path.join(self.root, run_id)
            try:
                os.mkdir(path)
            except FileExistsError:  # pragma: no cover - 48-bit collision
                continue
            break
        _atomic_write(
            self._request_path(run_id),
            json.dumps(request.as_dict(), sort_keys=True),
        )
        self.append_journal(run_id, "accepted", replicas=request.replicas)
        self.set_status(run_id, "queued", replicas=request.replicas)
        return run_id

    def set_status(self, run_id: str, state: str, **fields: Any) -> Dict[str, Any]:
        """Publish ``status.json`` atomically, preserving unnamed fields."""
        status = self.status(run_id) if self.exists(run_id) else {}
        status.update(fields)
        status["run_id"] = run_id
        status["state"] = state
        status["updated"] = time.time()
        _atomic_write(self._status_path(run_id), json.dumps(status, sort_keys=True))
        return status

    # -- the write-ahead journal ----------------------------------------------
    def append_journal(self, run_id: str, op: str, **fields: Any) -> None:
        """Fsynced append of one journal entry (write-ahead of status)."""
        entry: Dict[str, Any] = {"op": op, "ts": time.time()}
        entry.update(fields)
        with open(self.journal_path(run_id), "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def read_journal(self, run_id: str) -> List[Dict[str, Any]]:
        """Parsed journal entries; a torn final line is dropped cleanly."""
        path = self.journal_path(run_id)
        if not os.path.exists(path):
            return []
        out: List[Dict[str, Any]] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn final line mid-crash; the prefix stands
        return out

    def _journal_state(self, run_id: str) -> Optional[Dict[str, Any]]:
        """A status dict reconstructed from the journal, or None."""
        entries = self.read_journal(run_id)
        if not entries:
            return None
        last = entries[-1]
        op = last.get("op", "")
        status = {
            key: value
            for key, value in last.items()
            if key not in ("op", "ts")
        }
        status["run_id"] = run_id
        status["state"] = _OP_STATE.get(op, op)
        status["updated"] = last.get("ts", 0.0)
        status["reconstructed"] = True
        return status

    def scan_recoverable(self) -> List[str]:
        """Run ids whose last journal entry still owes work.

        These are the runs a restarted server must re-enqueue: accepted
        but never started, started but not finished, checkpointed
        mid-sweep, or drained/interrupted.  Quota-killed, failed, done
        and cancelled runs are settled and stay put.  Ordered by journal
        birth time, so recovery preserves submission order.
        """
        out: List[tuple] = []
        for name in sorted(os.listdir(self.root)):
            if not _RUN_ID.match(name):
                continue
            entries = self.read_journal(name)
            if entries:
                if entries[-1].get("op") in JOURNAL_TERMINAL:
                    continue
                born = entries[0].get("ts", 0.0)
            else:
                # pre-journal run dirs: fall back to the raw status
                try:
                    state = self.status(name).get("state")
                except ServiceError:
                    continue
                if state not in ("queued", "running", "interrupted"):
                    continue
                born = 0.0
            out.append((born, name))
        return [name for _, name in sorted(out)]

    # -- lookups -------------------------------------------------------------
    def exists(self, run_id: str) -> bool:
        try:
            path = self._status_path(run_id)
        except ServiceError:
            return False
        return os.path.exists(path) or os.path.exists(self.journal_path(run_id))

    def status(self, run_id: str) -> Dict[str, Any]:
        """The run's status, surviving a torn or empty ``status.json``.

        A crash between opening and writing the status file (or a torn
        write by a foreign tool) leaves an empty/garbled file; instead of
        raising we reconstruct the state from the journal — mirroring the
        torn-final-line tolerance of the manifest reader.
        """
        path = self._status_path(run_id)
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            if text.strip():
                try:
                    return json.loads(text)
                except json.JSONDecodeError:
                    pass  # torn mid-write; fall back to the journal
        fallback = self._journal_state(run_id)
        if fallback is not None:
            return fallback
        raise ServiceError(404, "no such run: {!r}".format(run_id))

    def request(self, run_id: str) -> SubmitRequest:
        path = self._request_path(run_id)
        if not os.path.exists(path):
            raise ServiceError(404, "no such run: {!r}".format(run_id))
        with open(path) as fh:
            return SubmitRequest.from_dict(json.load(fh))

    def list_runs(self) -> List[Dict[str, Any]]:
        """Statuses of every stored run, most recently updated first."""
        out = []
        for name in os.listdir(self.root):
            if _RUN_ID.match(name) and self.exists(name):
                out.append(self.status(name))
        out.sort(key=lambda s: s.get("updated", 0.0), reverse=True)
        return out

    def disk_usage(self) -> int:
        """Total bytes stored under the root (health reporting)."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass  # racing a delete; skip
        return total

    def read_events(self, run_id: str, start: int = 0) -> List[Dict[str, Any]]:
        """Persisted events from index ``start`` (finished-run streaming)."""
        path = self.events_path(run_id)
        if not os.path.exists(path):
            return []
        out: List[Dict[str, Any]] = []
        with open(path) as fh:
            for k, line in enumerate(fh):
                line = line.strip()
                if k >= start and line:
                    try:
                        out.append(json.loads(line))
                    except json.JSONDecodeError:
                        break  # torn final line mid-crash; stop cleanly
        return out

    def append_event(self, run_id: str, event: Dict[str, Any]) -> None:
        with open(self.events_path(run_id), "a") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
            fh.flush()

    def manifest_exists(self, run_id: str) -> bool:
        return os.path.exists(self.manifest_path(run_id))

    def read_manifest_text(self, run_id: str) -> Optional[str]:
        path = self.manifest_path(run_id)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return fh.read()

    # -- idempotency keys ------------------------------------------------------
    def _idempotency_path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        directory = os.path.join(self.root, ".idempotency")
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, digest)

    def idempotent_run(self, key: str) -> Optional[str]:
        """The run id previously recorded for this key, if any."""
        path = self._idempotency_path(key)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            run_id = fh.read().strip()
        return run_id if _RUN_ID.match(run_id) else None

    def record_idempotent(self, key: str, run_id: str) -> None:
        """Bind an idempotency key to a run id (atomic publish)."""
        _atomic_write(self._idempotency_path(key), run_id)
