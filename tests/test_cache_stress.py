"""Concurrent-writer hardening of the compiled-table ``.npz`` cache.

The simulation service turns the on-disk table cache into a shared
cross-request resource, so this suite stresses exactly the scenarios that
setup creates: several processes compiling/saving the same fingerprint
into one directory at once (atomic publish, no torn reads), corrupt or
truncated entries falling back to a recompile reported as a ``"corrupt"``
:class:`~repro.engine.compiled.TableSource`, and concurrent same-protocol requests in one
process compiling only once behind the per-fingerprint lock.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.engine import compiled
from repro.engine.compiled import (
    acquire_table,
    clear_memo,
    compile_table,
    protocol_fingerprint,
)
from repro.engine.table import TransitionTable
from repro.workloads import build_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

STRESS_SCRIPT = """
import sys
from repro.engine.compiled import acquire_table, clear_memo
from repro.workloads import build_workload

cache_dir, rounds = sys.argv[1], int(sys.argv[2])
wl = build_workload("epidemic", n=40)
statuses = []
for _ in range(rounds):
    clear_memo()  # force the disk path every round
    table, source = acquire_table(
        wl.protocol, wl.population.counts.keys(), cache=cache_dir
    )
    statuses.append(source.cache)
    table.save(cache_dir)  # hammer the writer while the peer reads
print(",".join(statuses))
"""


def epidemic():
    wl = build_workload("epidemic", n=40)
    return wl.protocol, wl.population


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestTwoProcessStress:
    def test_concurrent_compile_and_save(self, tmp_path):
        cache_dir = str(tmp_path)
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", STRESS_SCRIPT, cache_dir, "25"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(out.strip().split(","))

        # every round produced a usable table, never an exception; a racer
        # may legitimately see a miss (it beat the writer) but never junk
        for statuses in outs:
            assert len(statuses) == 25
            assert set(statuses) <= {"miss", "hit", "corrupt"}
        # at least one process read the other's published entry
        assert any("hit" in statuses for statuses in outs)

        # the surviving entry is whole: it loads, validates, and matches a
        # from-scratch compile bit for bit
        protocol, population = epidemic()
        fingerprint = protocol_fingerprint(protocol, population.counts.keys())
        assert os.path.exists(os.path.join(cache_dir, fingerprint + ".npz"))
        loaded = TransitionTable.load(protocol, fingerprint, cache_dir)
        assert loaded is not None
        fresh = TransitionTable.from_protocol(protocol, population.counts.keys())
        np.testing.assert_array_equal(loaded.codes, fresh.codes)
        np.testing.assert_array_equal(loaded.off, fresh.off)
        np.testing.assert_array_equal(loaded.out_p, fresh.out_p)
        np.testing.assert_array_equal(
            loaded.p_change_matrix, fresh.p_change_matrix
        )


class TestCorruptEntries:
    def test_truncated_entry_recompiles_as_corrupt(self, tmp_path):
        cache_dir = str(tmp_path)
        protocol, population = epidemic()
        first, source = acquire_table(
            protocol, population.counts.keys(), cache=cache_dir
        )
        assert source.cache == "miss"
        path = os.path.join(cache_dir, first.fingerprint + ".npz")
        with open(path, "rb") as fh:
            head = fh.read(16)
        with open(path, "wb") as fh:
            fh.write(head)  # torn write: zip header survives, payload gone

        clear_memo()
        _, source = acquire_table(
            protocol, population.counts.keys(), cache=cache_dir
        )
        assert source.cache == "corrupt"
        assert source.corrupt == 1
        # the poisoned entry was replaced by a healthy one
        clear_memo()
        _, source = acquire_table(
            protocol, population.counts.keys(), cache=cache_dir
        )
        assert source.cache == "hit"

    def test_valid_zip_with_broken_arrays_is_corrupt(self, tmp_path):
        # a torn write can leave a *readable* npz whose arrays lie; the
        # loader's CSR validation must reject it instead of handing the
        # engines nonsense offsets
        cache_dir = str(tmp_path)
        protocol, population = epidemic()
        first = compile_table(
            protocol, population.counts.keys(), cache=cache_dir
        )
        path = os.path.join(cache_dir, first.fingerprint + ".npz")

        def poison():
            np.savez(
                path.replace(".npz", ""),
                codes=first.codes,
                p_change=first.p_change_matrix,
                off=first.off,
                out_a=first.out_a[:-1],  # truncated relative to off[-1]
                out_b=first.out_b,
                out_p=first.out_p,
            )

        poison()
        assert TransitionTable.load(protocol, first.fingerprint, cache_dir) is None
        assert not os.path.exists(path)  # poisoned entry was unlinked

        poison()
        clear_memo()
        _, source = acquire_table(
            protocol, population.counts.keys(), cache=cache_dir
        )
        assert source.cache == "corrupt"

    def test_validate_rejects_nonmonotone_offsets(self):
        protocol, population = epidemic()
        table = TransitionTable.from_protocol(protocol, population.counts.keys())
        table._validate_arrays()  # healthy table passes
        table.off = table.off[::-1].copy()
        with pytest.raises(ValueError):
            table._validate_arrays()


class TestCompileOnceLock:
    def test_concurrent_threads_share_one_compile(self, tmp_path, monkeypatch):
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
                results[slot] = compile_table(
                    protocol, population.counts.keys(), cache=str(tmp_path)
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
        fingerprints = {r.fingerprint for r in results}
        assert len(fingerprints) == 1

    def test_distinct_fingerprints_get_distinct_locks(self):
        a = compiled._fingerprint_lock("aa")
        b = compiled._fingerprint_lock("bb")
        assert a is not b
        assert compiled._fingerprint_lock("aa") is a
