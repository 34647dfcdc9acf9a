"""The per-fingerprint compile lock of the closed-table memo.

The simulation service runs concurrent requests in one process, so
same-protocol requests must compile only once behind the
per-fingerprint lock and share the memoized table, while different
protocols get different locks.
"""

import threading

import pytest

from repro.engine import compiled
from repro.engine.compiled import _MEMO, acquire_table, clear_memo
from repro.engine.table import TransitionTable
from repro.workloads import build_workload


def epidemic():
    wl = build_workload("epidemic", n=40)
    return wl.protocol, wl.population


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestCompileOnceLock:
    def test_concurrent_threads_share_one_compile(self, monkeypatch):
        protocol, population = epidemic()
        compiles = []
        gate = threading.Event()
        original = TransitionTable.from_protocol.__func__

        def counted(cls, *args, **kwargs):
            compiles.append(threading.get_ident())
            gate.wait(1.0)  # hold the lock so every thread really queues
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            TransitionTable, "from_protocol", classmethod(counted)
        )

        results = [None] * 8
        errors = []

        def worker(slot):
            try:
                results[slot] = acquire_table(
                    protocol, population.counts.keys()
                )
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(compiles) == 1, "same-fingerprint requests must compile once"
        assert all(r is not None for r in results)
        (table,) = {id(t): t for t, _ in results}.values()
        assert _MEMO[table.fingerprint] is table
        provenance = sorted(source.cache for _, source in results)
        assert provenance == ["memo"] * 7 + ["miss"]

    def test_distinct_fingerprints_get_distinct_locks(self):
        a = compiled._fingerprint_lock("aa")
        b = compiled._fingerprint_lock("bb")
        assert a is not b
        assert compiled._fingerprint_lock("aa") is a
