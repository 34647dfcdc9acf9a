"""Bench regression gate: fresh run vs committed BENCH_*.json baselines."""

import importlib.util
import os
import sys

import pytest

BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@pytest.fixture(scope="module")
def run_all():
    if BENCHMARKS_DIR not in sys.path:
        sys.path.insert(0, BENCHMARKS_DIR)  # for its `from _harness import`
    spec = importlib.util.spec_from_file_location(
        "bench_run_all", os.path.join(BENCHMARKS_DIR, "run_all.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(wall=1.0, interactions=1000, n=100, seed=0):
    return {
        "experiment": "demo",
        "n": n,
        "seed": seed,
        "engines": {
            "fast": {"wall_seconds": wall, "interactions": interactions},
        },
    }


class TestCheckRegressions:
    def test_no_baseline_skips(self, run_all):
        regressions, skipped = run_all.check_regressions(
            payload(), None, group_key="engines", config_keys=("n", "seed")
        )
        assert regressions == []
        assert "no committed baseline" in skipped

    def test_config_mismatch_skips(self, run_all):
        regressions, skipped = run_all.check_regressions(
            payload(n=100), payload(n=999),
            group_key="engines", config_keys=("n", "seed"),
        )
        assert regressions == []
        assert "n=" in skipped

    def test_bghkpu_quick_downscale_skips_full_baseline(self, run_all):
        """A --quick run at n=10^6 never trips the committed n=10^8 gate."""
        quick = payload(wall=0.5, n=run_all.BGHKPU_QUICK_N)
        quick["ks_replicas"] = run_all.BGHKPU_KS_REPLICAS // 2
        full = payload(wall=0.001, n=run_all.BGHKPU_N)
        full["ks_replicas"] = run_all.BGHKPU_KS_REPLICAS
        regressions, skipped = run_all.check_regressions(
            quick, full,
            group_key="engines", config_keys=("n", "seed", "ks_replicas"),
        )
        assert regressions == []
        assert "n=" in skipped

    def test_clean_run_passes(self, run_all):
        regressions, skipped = run_all.check_regressions(
            payload(wall=1.1), payload(wall=1.0),
            group_key="engines", config_keys=("n", "seed"),
        )
        assert skipped is None
        assert regressions == []

    def test_wall_regression_flagged(self, run_all):
        regressions, skipped = run_all.check_regressions(
            payload(wall=10.0), payload(wall=1.0),
            group_key="engines", config_keys=("n", "seed"),
            wall_threshold=2.5,
        )
        assert skipped is None
        assert len(regressions) == 1
        assert "wall" in regressions[0]
        assert "fast" in regressions[0]

    def test_interactions_drift_flagged(self, run_all):
        regressions, _ = run_all.check_regressions(
            payload(interactions=2000), payload(interactions=1000),
            group_key="engines", config_keys=("n", "seed"),
            interactions_tol=0.10,
        )
        assert len(regressions) == 1
        assert "interactions" in regressions[0]
        assert "drift" in regressions[0]

    def test_drift_within_tolerance_passes(self, run_all):
        regressions, _ = run_all.check_regressions(
            payload(interactions=1050), payload(interactions=1000),
            group_key="engines", config_keys=("n", "seed"),
            interactions_tol=0.10,
        )
        assert regressions == []

    def test_faster_run_passes(self, run_all):
        regressions, _ = run_all.check_regressions(
            payload(wall=0.1), payload(wall=1.0),
            group_key="engines", config_keys=("n", "seed"),
        )
        assert regressions == []

    def test_new_engine_not_in_baseline_ignored(self, run_all):
        fresh = payload()
        fresh["engines"]["extra"] = {"wall_seconds": 99.0, "interactions": 1}
        regressions, _ = run_all.check_regressions(
            fresh, payload(), group_key="engines", config_keys=("n",),
        )
        assert regressions == []


class TestRunGate:
    def test_pass_verdict(self, run_all, capsys):
        ok = run_all.run_gate(
            [(payload(), payload(), "engines", ("n", "seed"))], 2.5, 0.1
        )
        assert ok
        out = capsys.readouterr().out
        assert "OK demo" in out
        assert "gate verdict: PASS" in out

    def test_fail_verdict(self, run_all, capsys):
        ok = run_all.run_gate(
            [(payload(wall=10.0), payload(wall=1.0), "engines", ("n",))],
            2.5, 0.1,
        )
        assert not ok
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "gate verdict: FAIL" in out

    def test_skip_does_not_fail(self, run_all, capsys):
        ok = run_all.run_gate(
            [(payload(), None, "engines", ("n",))], 2.5, 0.1
        )
        assert ok
        assert "SKIP" in capsys.readouterr().out

    def test_github_step_summary(self, run_all, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        run_all.run_gate(
            [(payload(wall=10.0), payload(wall=1.0), "engines", ("n",))],
            2.5, 0.1,
        )
        text = summary.read_text()
        assert "Bench regression gate: FAIL" in text
        assert "REGRESSION" in text


class TestCommittedBaselines:
    """The repo's own BENCH_*.json stay loadable and gate-compatible."""

    def test_loadable(self, run_all):
        root = os.path.dirname(BENCHMARKS_DIR)
        engines = run_all.load_baseline(
            os.path.join(root, "BENCH_engines.json")
        )
        kernels = run_all.load_baseline(
            os.path.join(root, "BENCH_kernels.json")
        )
        bghkpu = run_all.load_baseline(
            os.path.join(root, "BENCH_bghkpu.json")
        )
        assert engines and "engines" in engines
        assert kernels and "paths" in kernels
        assert bghkpu and "engines" in bghkpu
        assert bghkpu["distribution_ok"] is True
        assert bghkpu["speedup_batch_over_bghkpu"] >= bghkpu["target_speedup"]
        # self-comparison is a clean pass by construction
        for fresh, key, cfg in (
            (engines, "engines", ("n", "seed")),
            (kernels, "paths", ("n", "seed", "rounds")),
            (bghkpu, "engines", ("n", "seed", "ks_replicas")),
        ):
            regressions, skipped = run_all.check_regressions(
                fresh, fresh, group_key=key, config_keys=cfg
            )
            assert skipped is None and regressions == []

    def test_missing_file_is_none(self, run_all):
        assert run_all.load_baseline("/nonexistent/BENCH.json") is None
