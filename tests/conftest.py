"""Shared fixtures."""

import threading

import pytest

from repro.service import sandbox


class _InlineChild:
    """Stands in for a sandbox child: terminate/kill raise the stop flag."""

    def __init__(self):
        self.stopped = threading.Event()

    def terminate(self):
        self.stopped.set()

    kill = terminate


def _run_inline(store, run_id, quota, emit, attach, zygote):
    """:func:`sandbox.run_sandboxed` without the subprocess.

    Runs the job's checkpoint groups through the same
    :func:`sandbox.execute_groups` loop the sandbox child runs, in this
    process, so a test can gate ``sandbox.run_replicas`` with a
    monkeypatch.  Cancel and drain reach the loop through the stand-in
    child handed to ``attach``; cpu/memory/wall quotas are not enforced.
    """
    child = _InlineChild()
    attach(child)
    try:
        return sandbox.execute_groups(
            store.request(run_id), run_id, store,
            emit=emit, should_stop=child.stopped.is_set, quota=quota,
        )
    finally:
        attach(None)


@pytest.fixture
def inline_jobs(monkeypatch):
    """Service jobs run in-process (fast; sandboxes are tested elsewhere)."""
    monkeypatch.setattr(sandbox, "run_sandboxed", _run_inline)
