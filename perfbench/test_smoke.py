"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every metric of its mode with its
unit, that a failed correctness check makes the command exit non-zero,
and that ``BENCHMARK.json`` matches ``spec.py``.  Takes about a minute;
it is not part of the library's own test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END, PER_LAYER, WORKLOAD_NAMES, benchmark_json,
)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seconds", "0.5", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(workload, trace):
    code, out = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert set(result["metrics"]) == {m.name for m in expected}
    for m in expected:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit
        assert isinstance(got["value"], float)
        # the human-readable line carries the same name and unit
        assert any(
            line.split()[:1] == [m.name] and m.unit in line.split()
            for line in out.splitlines()
        ), m.name
    if trace == "0":
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["job_latency_p50_s"]["value"] > 0


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    # a leader fight whose rounds cannot match the theory for n agents
    def wrong_theory(rounds, n):
        return [(1, "injected: rounds off theory")]

    monkeypatch.setattr(workloads, "check_leader_rounds", wrong_theory)
    # the run points the table cache at its own scratch; undo that after
    monkeypatch.setenv("REPRO_TABLE_CACHE", "off")
    code = run.main(["--workload", "leader-sweep", "--seed", "3",
                     "--seconds", "0.5", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_leader_theory_band():
    mean, var = workloads.leader_rounds_moments(10)
    assert mean == pytest.approx(81 / 10)
    assert workloads.check_leader_rounds([mean] * 50, 10) == []
    assert workloads.check_leader_rounds([3 * mean] * 50, 10)


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clock-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == benchmark_json()
