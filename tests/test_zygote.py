"""The forked replica pool: workers fork from one table-warm zygote.

``supervise(processes > 1)`` forks its workers from the process-wide
zygote (:func:`repro.zygote.pool`), which ``run_replicas`` first has
compile the sweep's closed table.  A second sweep starts no
interpreter, no worker compiles a table, a script's own callables
unpickle in the workers as they would under ``spawn``, and nothing
outlives a killed parent.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import EngineConfig, build_workload, map_replicas, run_replicas
from repro.zygote import pool

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process states from /proc"
    ),
]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _proc_stat(pid):
    """(state, parent pid) of a process, or ``None`` once it is gone."""
    try:
        with open("/proc/{}/stat".format(pid)) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(parent):
    """Live child pids of process ``parent``."""
    pids = set()
    for name in os.listdir("/proc"):
        stat = _proc_stat(name) if name.isdigit() else None
        if stat is not None and stat[0] != "Z" and stat[1] == parent:
            pids.add(int(name))
    return pids


def _pids(seed_seq):
    """A task reporting where it ran: (worker pid, its parent's pid)."""
    return os.getpid(), os.getppid()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_a_second_pooled_sweep_forks_from_the_same_zygote():
    first = map_replicas(_pids, 4, seed=0, processes=2)
    started = _children(os.getpid())
    second = map_replicas(_pids, 4, seed=1, processes=2)
    zygote = pool()._proc.pid
    assert {parent for _, parent in first + second} == {zygote}
    assert os.getpid() not in {pid for pid, _ in first + second}
    # fresh workers, but no interpreter started for them
    assert not {pid for pid, _ in first} & {pid for pid, _ in second}
    assert zygote in started and _children(os.getpid()) == started


def test_every_pooled_record_finds_the_table_in_the_memo():
    workload = build_workload("clock", n=2000)
    rs = run_replicas(
        workload.protocol, workload.population, replicas=4, seed=1,
        config=EngineConfig(engine="batch"), processes=2, rounds=2.0,
    )
    assert [r.status for r in rs] == ["ok"] * 4
    assert [r.stats["table_cache"] for r in rs] == ["memo"] * 4
    assert [r.stats["table_compile_seconds"] for r in rs] == [0.0] * 4


_HELPER = """
import numpy as np


def draw(seed_seq):
    return int(np.random.default_rng(seed_seq).integers(1000))
"""

_SCRIPT = """
import functools, json, os
from repro import map_replicas

import helper


def trial(seed_seq, offset):
    return helper.draw(seed_seq) + offset, os.getpid()


if __name__ == "__main__":
    task = functools.partial(trial, offset=5)
    runs = [map_replicas(task, 4, seed=1, processes=p) for p in (1, 2)]
    print(json.dumps([os.getpid(), runs]))
"""


def test_a_script_task_and_its_sibling_module_unpickle_in_the_workers(tmp_path):
    (tmp_path / "helper.py").write_text(_HELPER)
    (tmp_path / "script.py").write_text(_SCRIPT)
    out = subprocess.run(
        [sys.executable, str(tmp_path / "script.py")], env=_env(),
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        check=True,
    )
    parent, (serial, pooled) = json.loads(out.stdout)
    assert [value for value, _ in pooled] == [value for value, _ in serial]
    assert {pid for _, pid in serial} == {parent}
    assert parent not in {pid for _, pid in pooled}


_STDIN = """
from repro import build_workload, run_replicas

w = build_workload("epidemic", n=300)
rs = run_replicas(w.protocol, w.population, replicas=4, processes=2,
                  stop=w.stop, max_retries=0)
print(",".join(r.status for r in rs))
"""


def test_a_stdin_script_pools_a_registry_workload():
    """A stdin script has no main file to re-run: its workers still
    unpickle what comes from repro itself."""
    out = subprocess.run(
        [sys.executable, "-"], input=_STDIN, env=_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["ok,ok,ok,ok"]


_HANG = """
import os, time
from repro import map_replicas


def hang(seed_seq):
    print(os.getpid(), os.getppid(), flush=True)
    time.sleep(600)


if __name__ == "__main__":
    map_replicas(hang, 2, processes=2)
"""


def test_nothing_outlives_a_killed_pooled_sweep(tmp_path):
    (tmp_path / "hang.py").write_text(_HANG)
    proc = subprocess.Popen(
        [sys.executable, str(tmp_path / "hang.py")], env=_env(),
        stdout=subprocess.PIPE,
    )
    try:
        out = b""
        deadline = time.monotonic() + 120
        while out.count(b"\n") < 2 and time.monotonic() < deadline:
            if select.select([proc.stdout], [], [], 1.0)[0]:
                out += os.read(proc.stdout.fileno(), 4096)
        lines = [line.split() for line in out.decode().splitlines()]
        workers = {int(pid) for pid, _ in lines}
        (zygote,) = {int(parent) for _, parent in lines}
        assert len(workers) == 2 and _proc_stat(zygote)[1] == proc.pid
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 10
    while any(map(_alive, workers | {zygote})) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(map(_alive, workers | {zygote}))
