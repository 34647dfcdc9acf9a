"""Benchmark driver: headline engine comparison, kernel race, E-sweeps.

The headline run races the exact count engine against the multinomial
jump engine on leader election (the L + L -> L + F fight) at n = 10^6 and
records the wall-clock speedup in ``BENCH_engines.json`` (repo root and
``benchmarks/results/``)::

    PYTHONPATH=src python benchmarks/run_all.py --quick   # headline + kernels
    PYTHONPATH=src python benchmarks/run_all.py           # + E1-E4 sweeps

The jump engine simulates the same sequential scheduler but advances by
multinomial batches, so the speedup grows with n; the acceptance bar is
>= 5x at n = 10^6.

The *kernels* run races the compiled active-pair batch path against the
legacy dense-support batch path (``compiled=False``, the PR-1 engine) on
the composed oscillator + phase-clock protocol C_o — a many-state
workload (q = 168 reachable states with the k=2 ring) where the legacy
path degenerates: its global min-count batch cap is throttled by the
#X = 3 source agents, so it takes zero batches and falls back to
per-event stepping.  The compiled path's per-state cap keeps batching.
Results (including engine perf counters) go to ``BENCH_kernels.json``;
the acceptance bar is >= 3x wall clock at equal accuracy.

The *ensemble* run races R solo batch engines against one
``EnsembleEngine`` advancing all R replica rows per stacked batch on the
E3 oscillator sweep (``BENCH_ensemble.json``); the acceptance bar is
>= 5x wall clock with a passing pooled KS test (p > 0.001) over the
final species counts — faster only counts at equal statistical accuracy.

The *bghkpu* run races the collision-aware alias-table batch engine
(BGHKPU, arXiv:2005.03584) against the multinomial jump engine on the
leader fight at the paper's n = 10^8 scale and writes
``BENCH_bghkpu.json``; the acceptance bar is >= 5x wall clock with
pooled KS equivalence (p > 0.001) on both the E1-style convergence-time
distribution and the E3 oscillator observer grid.  Under ``--quick``
the race downscales to n = 10^6 (bar >= 2x) so quick runs stay seconds.

The *dense* run races the bghkpu engine against itself on the composed
oscillator + phase-clock workload C_o: dense-support fast path (hybrid
top-K epoch sampler + incremental alias patching + batch autotune, the
defaults) vs the classic whole-grid sampler (all three knobs off),
walls summed over 3 seeds so trajectory luck averages out.  Pooled KS
tests against the ``batch`` engine on the E3 (hybrid forced on) and E4
(default knobs) observer grids gate statistical equivalence; results go
to ``BENCH_dense.json`` and the acceptance bar is >= 3x (>= 2x under
``--quick``, which downscales n).

Regression gate
---------------
Before overwriting them, the driver loads the *committed*
``BENCH_engines.json`` / ``BENCH_kernels.json`` as baselines and compares
the fresh run against them: a tracked engine/path whose wall time grows
past ``--gate-wall-threshold`` x the baseline, or whose interaction count
drifts more than ``--gate-interactions-tol`` relative, is flagged as a
regression and the driver exits nonzero (in addition to the absolute
speedup targets).  Baselines recorded at a different ``n`` / ``seed`` /
``rounds`` are skipped with a note, so exploratory runs with custom sizes
never trip the gate; ``--no-gate`` disables it entirely.  The verdict is
printed and, on CI, appended to the GitHub step summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from _harness import RESULTS_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE_N = 10 ** 6


def _leader_fight():
    from repro.core import Population, Rule, StateSchema, V, single_thread

    schema = StateSchema()
    schema.flag("L")
    protocol = single_thread(
        "leader-fight", schema, [Rule(V("L"), V("L"), None, {"L": False})]
    )
    return protocol, schema


def _time_engine(engine_name, n, seed):
    from repro.core import Population, V
    from repro.simulate import make_engine

    protocol, schema = _leader_fight()
    population = Population.uniform(schema, n, {"L": True})
    eng = make_engine(
        protocol, population, engine=engine_name, rng=np.random.default_rng(seed)
    )
    start = time.perf_counter()
    eng.run(stop=lambda p: p.count(V("L")) == 1)
    wall = time.perf_counter() - start
    record = {
        "wall_seconds": round(wall, 4),
        "rounds": round(float(eng.rounds), 2),
        "interactions": int(eng.interactions),
        "events": int(getattr(eng, "events", 0)),
        "converged": eng.population.count(V("L")) == 1,
    }
    for attr in ("batches", "fallbacks"):
        if hasattr(eng, attr):
            record[attr] = int(getattr(eng, attr))
    return record


def headline(n=HEADLINE_N, seed=0):
    """Count vs batch engine on leader election to convergence at size n."""
    print("headline: leader election to unique leader, n={:.0e}".format(n))
    results = {}
    for name in ("batch", "count"):
        print("  {} engine ...".format(name), end=" ", flush=True)
        results[name] = _time_engine(name, n, seed)
        print("{:.2f}s ({:.0f} rounds)".format(
            results[name]["wall_seconds"], results[name]["rounds"]
        ))
    speedup = results["count"]["wall_seconds"] / max(
        results["batch"]["wall_seconds"], 1e-9
    )
    payload = {
        "experiment": "leader_fight_convergence",
        "description": (
            "L + L -> L + follower from all-leaders to a unique leader; "
            "exact count engine vs multinomial jump engine, same scheduler"
        ),
        "n": n,
        "seed": seed,
        "engines": results,
        "speedup_count_over_batch": round(speedup, 2),
        "target_speedup": 5.0,
        "meets_target": speedup >= 5.0,
    }
    print("  speedup: {:.1f}x (target >= 5x)".format(speedup))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (
        os.path.join(REPO_ROOT, "BENCH_engines.json"),
        os.path.join(RESULTS_DIR, "BENCH_engines.json"),
    ):
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print("  wrote BENCH_engines.json")
    return payload


KERNELS_N = 20000
KERNELS_ROUNDS = 20.0


def _clock_workload(n, n_x=3):
    from repro.clocks import ClockParams, make_clock_protocol
    from repro.core import Population
    from repro.oscillator import strong_value, weak_value

    params = ClockParams(module=12, k=2)
    protocol = make_clock_protocol(params=params)
    c1 = int(0.8 * (n - n_x))
    c2 = int(0.17 * (n - n_x))
    population = Population.from_groups(
        protocol.schema,
        [
            ({"osc": strong_value(0), "clk": 0}, c1),
            ({"osc": weak_value(1), "clk": 0}, c2),
            ({"osc": weak_value(2), "clk": 0}, (n - n_x) - c1 - c2),
            ({"osc": weak_value(0), "X": True, "clk": 0}, n_x),
        ],
    )
    return protocol, population


def _time_kernel(compiled, n, rounds, seed, cache):
    from repro.engine import BatchCountEngine

    protocol, population = _clock_workload(n)
    eng = BatchCountEngine(
        protocol,
        population,
        rng=np.random.default_rng(seed),
        compiled=compiled,
        cache=cache,
    )
    start = time.perf_counter()
    eng.run(rounds=rounds)
    wall = time.perf_counter() - start
    record = {"wall_seconds": round(wall, 4)}
    record.update(eng.stats.as_dict())
    record["run_seconds"] = round(record["run_seconds"], 4)
    if "kernel_seconds" in record:
        record["kernel_seconds"] = round(record["kernel_seconds"], 4)
    if "active_pairs_mean" in record:
        record["active_pairs_mean"] = round(record["active_pairs_mean"], 1)
    if "table_compile_seconds" in record:
        record["table_compile_seconds"] = round(
            record["table_compile_seconds"], 4
        )
    return record


def kernels(n=KERNELS_N, rounds=KERNELS_ROUNDS, seed=0, cache="auto"):
    """Compiled active-pair vs legacy dense batch path on the C_o clock."""
    print(
        "kernels: C_o oscillator+phase-clock (q=168), n={}, {} rounds".format(
            n, rounds
        )
    )
    results = {}
    for label, compiled in (("compiled", None), ("legacy", False)):
        print("  {} batch path ...".format(label), end=" ", flush=True)
        results[label] = _time_kernel(compiled, n, rounds, seed, cache)
        print("{:.2f}s ({} batches, {} events)".format(
            results[label]["wall_seconds"],
            results[label].get("batches", 0),
            results[label].get("events", 0),
        ))
    speedup = results["legacy"]["wall_seconds"] / max(
        results["compiled"]["wall_seconds"], 1e-9
    )
    payload = {
        "experiment": "compiled_kernel_batch_jumps",
        "description": (
            "composed oscillator + phase-clock protocol (ClockParams k=2, "
            "168 reachable states): compiled active-pair batch jumps vs "
            "the legacy dense-support batch path at equal accuracy"
        ),
        "n": n,
        "rounds": rounds,
        "seed": seed,
        "paths": results,
        "speedup_legacy_over_compiled": round(speedup, 2),
        "target_speedup": 3.0,
        "meets_target": speedup >= 3.0,
    }
    print("  speedup: {:.1f}x (target >= 3x)".format(speedup))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (
        os.path.join(REPO_ROOT, "BENCH_kernels.json"),
        os.path.join(RESULTS_DIR, "BENCH_kernels.json"),
    ):
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print("  wrote BENCH_kernels.json")
    return payload


ENSEMBLE_N = 4000
ENSEMBLE_ROUNDS = 40.0
ENSEMBLE_REPLICAS = 64
ENSEMBLE_KS_ALPHA = 0.001


def _oscillator_population(schema, n, n_x=3):
    from repro.core import Population
    from repro.oscillator import weak_value

    third = (n - n_x) // 3
    return Population.from_groups(
        schema,
        [
            ({"osc": weak_value(0)}, third + (n - n_x) - 3 * third),
            ({"osc": weak_value(1)}, third),
            ({"osc": weak_value(2)}, third),
            ({"osc": weak_value(0), "X": True}, n_x),
        ],
    )


def ensemble_sweep(
    n=ENSEMBLE_N, rounds=ENSEMBLE_ROUNDS, replicas=ENSEMBLE_REPLICAS, seed=0
):
    """Stacked ensemble rows vs per-replica batch engines on E3.

    Runs the same R-replica oscillator sweep twice to a fixed parallel-time
    horizon: once as R solo ``BatchCountEngine`` runs (the per-replica
    strategy every sweep used before the ensemble engine) and once as one
    ``EnsembleEngine`` advancing all R rows per stacked batch.  Statistical
    equivalence is gated by a pooled two-sample KS test over the final
    A1/A2/A3 species counts; the acceptance bar is >= 5x wall clock at a
    passing KS (the stacked kernels amortize the per-batch numpy dispatch
    that dominates solo batch engines at oscillator-sized active sets).
    """
    from scipy.stats import ks_2samp

    from repro.engine import BatchCountEngine, EnsembleEngine
    from repro.oscillator import make_oscillator_protocol, species

    print(
        "ensemble: E3 oscillator sweep, n={}, {} rounds, {} replicas".format(
            n, rounds, replicas
        )
    )
    protocol = make_oscillator_protocol()
    formulas = [species(i) for i in range(3)]
    # compile once up front so neither contender pays the table build
    EnsembleEngine(
        protocol,
        _oscillator_population(protocol.schema, n),
        rng=np.random.default_rng(seed),
    )

    print("  per-replica batch engines ...", end=" ", flush=True)
    start = time.perf_counter()
    solo_counts = []
    solo_interactions = 0
    solo_batches = 0
    for k in range(replicas):
        eng = BatchCountEngine(
            protocol,
            _oscillator_population(protocol.schema, n),
            rng=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))),
        )
        eng.run(rounds=rounds)
        solo_interactions += int(eng.interactions)
        solo_batches += int(eng.batches)
        solo_counts.extend(eng.population.count(f) for f in formulas)
    solo_wall = time.perf_counter() - start
    print("{:.2f}s ({} batches)".format(solo_wall, solo_batches))

    print("  stacked ensemble engine ...", end=" ", flush=True)
    start = time.perf_counter()
    ens = EnsembleEngine(
        protocol,
        _oscillator_population(protocol.schema, n),
        rng=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(777,))),
        rows=replicas,
    )
    ens.run(rounds=rounds)
    ens_wall = time.perf_counter() - start
    ens_counts = [
        ens.row_population(r).count(f) for r in range(replicas) for f in formulas
    ]
    ens_interactions = sum(
        ens.row_interactions_of(r) for r in range(replicas)
    )
    print("{:.2f}s ({} batches)".format(ens_wall, ens.batches))

    ks = ks_2samp(solo_counts, ens_counts)
    speedup = solo_wall / max(ens_wall, 1e-9)
    distribution_ok = bool(ks.pvalue > ENSEMBLE_KS_ALPHA)
    payload = {
        "experiment": "ensemble_stacked_replicas",
        "description": (
            "E3 oscillator replica sweep to a fixed horizon: R solo batch "
            "engines vs one EnsembleEngine advancing all R rows per "
            "stacked batch; pooled KS over final species counts gates "
            "statistical equivalence"
        ),
        "n": n,
        "rounds": rounds,
        "replicas": replicas,
        "seed": seed,
        "engines": {
            "batch_per_replica": {
                "wall_seconds": round(solo_wall, 4),
                "interactions": solo_interactions,
                "batches": solo_batches,
            },
            "ensemble": {
                "wall_seconds": round(ens_wall, 4),
                "interactions": int(ens_interactions),
                "batches": int(ens.batches),
                "fallbacks": int(ens.fallbacks),
                "kernel_seconds": round(float(ens.kernel_seconds), 4),
            },
        },
        "ks_pvalue": round(float(ks.pvalue), 6),
        "ks_alpha": ENSEMBLE_KS_ALPHA,
        "distribution_ok": distribution_ok,
        "speedup_batch_over_ensemble": round(speedup, 2),
        "target_speedup": 5.0,
        "meets_target": bool(speedup >= 5.0 and distribution_ok),
    }
    print("  speedup: {:.1f}x (target >= 5x), KS p={:.3g} ({})".format(
        speedup, ks.pvalue, "ok" if distribution_ok else "FAIL"
    ))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (
        os.path.join(REPO_ROOT, "BENCH_ensemble.json"),
        os.path.join(RESULTS_DIR, "BENCH_ensemble.json"),
    ):
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print("  wrote BENCH_ensemble.json")
    return payload


BGHKPU_N = 10 ** 8
BGHKPU_QUICK_N = 10 ** 6
BGHKPU_REPS = 3
BGHKPU_KS_N = 20000
BGHKPU_KS_REPLICAS = 80
BGHKPU_KS_ALPHA = 0.001


def _time_bghkpu_contender(engine_name, n, seed):
    """Best-of-``BGHKPU_REPS`` leader-fight race leg for one engine.

    The stop predicate asks for a unique leader, and both contenders now
    actually get there: the engines decide silence on the exact change
    weight (weight == 0, see ``repro.engine.silence``) instead of the
    old absolute ``p_change <= 1e-15`` floor, which at n = 10^8 used to
    halt both sides with 3 leaders still standing.  The sparse endgame
    costs only O(1) extra *events* — geometric gap sampling jumps the
    ~n^2 interaction gaps between the last few L+L meetings — so the
    walls stay comparable while ``leaders_final`` is 1 and the
    interaction counts include the (deterministic-per-seed) endgame
    tail.
    """
    from repro.core import Population, V
    from repro.simulate import make_engine

    protocol, schema = _leader_fight()
    wall = None
    for rep in range(BGHKPU_REPS):
        # every rep replays the SAME seed: the wall is best-of-reps
        # against scheduler noise while the counters stay deterministic,
        # so the regression gate compares like-for-like interaction counts
        population = Population.uniform(schema, n, {"L": True})
        eng = make_engine(
            protocol, population,
            engine=engine_name, rng=np.random.default_rng(seed),
        )
        start = time.perf_counter()
        eng.run(stop=lambda p: p.count(V("L")) == 1)
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    record = {
        "wall_seconds": round(wall, 4),
        "rounds": round(float(eng.rounds), 2),
        "interactions": int(eng.interactions),
        "events": int(getattr(eng, "events", 0)),
        "leaders_final": int(population.count(V("L"))),
    }
    for attr in (
        "batches", "fallbacks", "collision_events", "alias_rebuilds",
    ):
        if hasattr(eng, attr):
            record[attr] = int(getattr(eng, attr))
    return record


def _bghkpu_ks_leader(replicas, seed):
    """Pooled leader-fight convergence times, batch vs bghkpu (E1-style)."""
    from repro.core import Population, V
    from repro.simulate import make_engine

    protocol, schema = _leader_fight()
    pooled = {}
    for engine in ("batch", "bghkpu"):
        rounds = np.empty(replicas)
        for r in range(replicas):
            population = Population.uniform(schema, BGHKPU_KS_N, {"L": True})
            eng = make_engine(
                protocol, population,
                engine=engine, rng=np.random.default_rng(seed + 7000 + r),
            )
            eng.run(stop=lambda p: p.count(V("L")) == 1)
            rounds[r] = float(eng.rounds)
        pooled[engine] = rounds
    return pooled["batch"], pooled["bghkpu"]


def _bghkpu_ks_oscillator(seeds, seed):
    """Pooled E3 observer-grid species series, batch vs bghkpu."""
    from repro.engine import Trace
    from repro.oscillator import make_oscillator_protocol, species
    from repro.simulate import make_engine

    protocol = make_oscillator_protocol()
    formulas = {"A1": species(0), "A2": species(1), "A3": species(2)}
    pooled = {"batch": [], "bghkpu": []}
    for engine in pooled:
        for k in range(seeds):
            population = _oscillator_population(protocol.schema, 600)
            trace = Trace(formulas)
            eng = make_engine(
                protocol, population,
                engine=engine, rng=np.random.default_rng(seed + 300 + k),
            )
            eng.run(rounds=30.0, observer=trace)
            for name in formulas:
                pooled[engine].append(trace.series(name))
    return (
        np.concatenate(pooled["batch"]), np.concatenate(pooled["bghkpu"])
    )


def bghkpu_scale(n=BGHKPU_N, seed=0, quick=False):
    """Alias-table batch engine vs the jump engine at the paper's scale.

    Races ``bghkpu`` (collision-aware alias batches, BGHKPU) against
    ``batch`` on the leader fight at n = 10^8 (best of {reps} walls each)
    and gates distributional equivalence twice: pooled KS over E1-style
    leader-fight convergence times at n = {ksn}, and pooled KS over the
    E3 oscillator observer grid.  The acceptance bar is >= 5x wall clock
    with both KS tests passing at alpha = {alpha} (>= 2x in ``--quick``
    mode, which downscales the race to n = 10^6 so quick runs stay
    seconds, never minutes).  Results go to ``BENCH_bghkpu.json``.
    """
    from scipy.stats import ks_2samp

    target = 2.0 if quick else 5.0
    ks_replicas = BGHKPU_KS_REPLICAS // 2 if quick else BGHKPU_KS_REPLICAS
    osc_seeds = 6 if quick else 10
    print("bghkpu: leader fight to convergence/silence, n={:.0e}".format(n))
    results = {}
    for name in ("batch", "bghkpu"):
        print("  {} engine ...".format(name), end=" ", flush=True)
        results[name] = _time_bghkpu_contender(name, n, seed)
        print("{:.4f}s ({} batches, {} leaders left)".format(
            results[name]["wall_seconds"],
            results[name].get("batches", 0),
            results[name]["leaders_final"],
        ))
    speedup = results["batch"]["wall_seconds"] / max(
        results["bghkpu"]["wall_seconds"], 1e-9
    )
    print("  KS equivalence ...", end=" ", flush=True)
    e1_batch, e1_bghkpu = _bghkpu_ks_leader(ks_replicas, seed)
    e1_p = float(ks_2samp(e1_batch, e1_bghkpu).pvalue)
    e3_batch, e3_bghkpu = _bghkpu_ks_oscillator(osc_seeds, seed)
    e3_p = float(ks_2samp(e3_batch, e3_bghkpu).pvalue)
    distribution_ok = bool(
        e1_p > BGHKPU_KS_ALPHA and e3_p > BGHKPU_KS_ALPHA
    )
    print("E1 p={:.3g}, E3 p={:.3g} ({})".format(
        e1_p, e3_p, "ok" if distribution_ok else "FAIL"
    ))
    payload = {
        "experiment": "bghkpu_alias_batches",
        "description": (
            "leader fight at the paper's n = 10^8 scale: collision-aware "
            "alias-table batches (BGHKPU, arXiv:2005.03584) vs the "
            "multinomial jump engine, best of {} walls each; pooled KS "
            "over E1 convergence times and the E3 observer grid gates "
            "statistical equivalence".format(BGHKPU_REPS)
        ),
        "n": n,
        "seed": seed,
        "ks_replicas": ks_replicas,
        "ks_n": BGHKPU_KS_N,
        "engines": results,
        "ks_pvalue_e1_convergence": round(e1_p, 6),
        "ks_pvalue_e3_observer": round(e3_p, 6),
        "ks_alpha": BGHKPU_KS_ALPHA,
        "distribution_ok": distribution_ok,
        "speedup_batch_over_bghkpu": round(speedup, 2),
        "target_speedup": target,
        "meets_target": bool(speedup >= target and distribution_ok),
    }
    print("  speedup: {:.1f}x (target >= {:.0f}x)".format(speedup, target))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (
        os.path.join(REPO_ROOT, "BENCH_bghkpu.json"),
        os.path.join(RESULTS_DIR, "BENCH_bghkpu.json"),
    ):
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print("  wrote BENCH_bghkpu.json")
    return payload


bghkpu_scale.__doc__ = bghkpu_scale.__doc__.format(
    reps=BGHKPU_REPS, ksn=BGHKPU_KS_N, alpha=BGHKPU_KS_ALPHA
)


DENSE_N = 10 ** 6
DENSE_QUICK_N = 10 ** 5
DENSE_ROUNDS = 200.0
DENSE_QUICK_ROUNDS = 80.0
DENSE_SEEDS = 3
DENSE_KS_N = 2000
DENSE_KS_ALPHA = 0.001

#: Knobs that turn the dense fast path off, leaving the classic
#: whole-grid bghkpu sampler of PR 8 as the race's reference contender.
DENSE_CLASSIC_OPTS = {
    "dense_top_k": 0, "alias_patch_frac": 0.0, "batch_autotune": False,
}


def _time_dense_contender(opts, n, rounds, seeds, seed):
    """Summed-wall clock race leg over ``seeds`` trajectories.

    The phase-clock wall is dominated by trajectory luck (when the
    oscillator collapses, the active grid shrinks and batches grow), so
    a single-seed ratio is noise; summing walls over several seeds races
    the contenders on the same set of trajectories.
    """
    from repro.engine.config import EngineConfig
    from repro.simulate import make_engine

    cfg = EngineConfig(engine="bghkpu", **opts)
    totals = {
        "wall_seconds": 0.0, "interactions": 0, "events": 0, "batches": 0,
        "fallbacks": 0, "collision_events": 0, "alias_rebuilds": 0,
        "alias_patches": 0, "alias_build_seconds": 0.0,
        "alias_refresh_seconds": 0.0, "cell_draw_seconds": 0.0,
        "outcome_split_seconds": 0.0,
    }
    for k in range(seeds):
        protocol, population = _clock_workload(n)
        eng = make_engine(
            protocol, population,
            engine=cfg, rng=np.random.default_rng(seed + 7 + k),
        )
        start = time.perf_counter()
        eng.run(rounds=rounds)
        totals["wall_seconds"] += time.perf_counter() - start
        for key in totals:
            if key != "wall_seconds":
                totals[key] += int(getattr(eng, key)) if isinstance(
                    totals[key], int
                ) else float(getattr(eng, key))
    for key, value in totals.items():
        if isinstance(value, float):
            totals[key] = round(value, 4)
    return totals


def _dense_ks_oscillator(seeds, seed):
    """Pooled E3 observer series, batch vs the *forced* hybrid sampler.

    The oscillator grid (<= 100 cells) never crosses the default
    ``dense_top_k`` = 512 engagement threshold, so this leg forces
    ``dense_top_k`` = 16 to put the top-K split + searchsorted tail on
    the E3 shape too.
    """
    from repro.engine import Trace
    from repro.engine.config import EngineConfig
    from repro.oscillator import make_oscillator_protocol, species
    from repro.simulate import make_engine

    protocol = make_oscillator_protocol()
    formulas = {"A1": species(0), "A2": species(1), "A3": species(2)}
    dense_cfg = EngineConfig(
        engine="bghkpu", dense_top_k=16, alias_patch_frac=0.5
    )
    pooled = {"batch": [], "dense": []}
    for key, engine in (("batch", "batch"), ("dense", dense_cfg)):
        for k in range(seeds):
            population = _oscillator_population(protocol.schema, 600)
            trace = Trace(formulas)
            eng = make_engine(
                protocol, population,
                engine=engine, rng=np.random.default_rng(seed + 450 + k),
            )
            eng.run(rounds=30.0, observer=trace)
            for name in formulas:
                pooled[key].append(trace.series(name))
    return np.concatenate(pooled["batch"]), np.concatenate(pooled["dense"])


def _dense_ks_clock(seeds, seed):
    """Pooled E4 phase-clock observer series, batch vs dense defaults."""
    from repro.engine import Trace
    from repro.oscillator import species
    from repro.simulate import make_engine

    formulas = {"A1": species(0), "A2": species(1), "A3": species(2)}
    pooled = {"batch": [], "bghkpu": []}
    for engine in pooled:
        for k in range(seeds):
            protocol, population = _clock_workload(DENSE_KS_N)
            trace = Trace(formulas)
            eng = make_engine(
                protocol, population,
                engine=engine, rng=np.random.default_rng(seed + 550 + k),
            )
            eng.run(rounds=20.0, observer=trace)
            for name in formulas:
                pooled[engine].append(trace.series(name))
    return np.concatenate(pooled["batch"]), np.concatenate(pooled["bghkpu"])


def dense_scale(n=DENSE_N, seed=0, quick=False):
    """Dense-support fast path vs the classic bghkpu sampler on E4.

    Races the hybrid epoch sampler (``dense_top_k``/``alias_patch_frac``
    /``batch_autotune`` at their defaults) against the classic whole-grid
    bghkpu configuration (all three off) on the composed oscillator +
    phase-clock workload C_o — the many-state shape the fast path
    targets — summing walls over {seeds} seeds at n = 10^6 and 200
    parallel rounds.  Distributional equivalence is gated twice against
    the ``batch`` engine: pooled KS over the E3 oscillator observer grid
    with the hybrid *forced* on (the E3 grid is below the default
    engagement threshold) and pooled KS over the E4 phase-clock observer
    grid at default knobs, both at alpha = {alpha}.  The acceptance bar
    is >= 3x summed wall (>= 2x under ``--quick``, which downscales to
    n = 10^5).  Results go to ``BENCH_dense.json``.
    """
    from scipy.stats import ks_2samp

    target = 2.0 if quick else 3.0
    rounds = DENSE_QUICK_ROUNDS if quick else DENSE_ROUNDS
    osc_seeds = 6 if quick else 10
    clock_seeds = 5 if quick else 8
    print("dense: C_o phase clock, n={:.0e}, {} rounds x {} seeds".format(
        n, rounds, DENSE_SEEDS
    ))
    results = {}
    for name, opts in (("classic", DENSE_CLASSIC_OPTS), ("dense", {})):
        print("  {} bghkpu ...".format(name), end=" ", flush=True)
        results[name] = _time_dense_contender(
            opts, n, rounds, DENSE_SEEDS, seed
        )
        print("{:.2f}s ({} batches, {} events)".format(
            results[name]["wall_seconds"],
            results[name]["batches"],
            results[name]["events"],
        ))
    speedup = results["classic"]["wall_seconds"] / max(
        results["dense"]["wall_seconds"], 1e-9
    )
    print("  KS equivalence ...", end=" ", flush=True)
    e3_batch, e3_dense = _dense_ks_oscillator(osc_seeds, seed)
    e3_p = float(ks_2samp(e3_batch, e3_dense).pvalue)
    e4_batch, e4_dense = _dense_ks_clock(clock_seeds, seed)
    e4_p = float(ks_2samp(e4_batch, e4_dense).pvalue)
    distribution_ok = bool(e3_p > DENSE_KS_ALPHA and e4_p > DENSE_KS_ALPHA)
    print("E3 p={:.3g}, E4 p={:.3g} ({})".format(
        e3_p, e4_p, "ok" if distribution_ok else "FAIL"
    ))
    payload = {
        "experiment": "dense_support_fast_path",
        "description": (
            "composed oscillator + phase-clock C_o: bghkpu with the "
            "hybrid top-K epoch sampler, sum patching and batch autotune "
            "at defaults vs the classic whole-grid bghkpu sampler, walls "
            "summed over {} seeds; pooled KS vs the batch engine on the "
            "E3 (hybrid forced) and E4 (default knobs) observer grids "
            "gates statistical equivalence".format(DENSE_SEEDS)
        ),
        "n": n,
        "seed": seed,
        "rounds": rounds,
        "race_seeds": DENSE_SEEDS,
        "classic_opts": dict(DENSE_CLASSIC_OPTS),
        "engines": results,
        "ks_pvalue_e3_oscillator": round(e3_p, 6),
        "ks_pvalue_e4_clock": round(e4_p, 6),
        "ks_alpha": DENSE_KS_ALPHA,
        "distribution_ok": distribution_ok,
        "speedup_classic_over_dense": round(speedup, 2),
        "target_speedup": target,
        "meets_target": bool(speedup >= target and distribution_ok),
    }
    print("  speedup: {:.1f}x (target >= {:.0f}x)".format(speedup, target))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for path in (
        os.path.join(REPO_ROOT, "BENCH_dense.json"),
        os.path.join(RESULTS_DIR, "BENCH_dense.json"),
    ):
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print("  wrote BENCH_dense.json")
    return payload


dense_scale.__doc__ = dense_scale.__doc__.format(
    seeds=DENSE_SEEDS, alpha=DENSE_KS_ALPHA
)


# -- regression gate ---------------------------------------------------------

#: Fresh wall time may grow to this multiple of the committed baseline
#: before the gate flags it (absorbs machine-to-machine noise; override
#: with --gate-wall-threshold or REPRO_BENCH_WALL_THRESHOLD).
WALL_THRESHOLD = 2.5

#: Relative drift allowed in interaction counts (same seed => the counts
#: are deterministic, but legitimate engine changes move them a little).
INTERACTIONS_TOL = 0.10


def load_baseline(path):
    """The committed bench JSON, or None when absent/unreadable."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _gate_records(label, fresh, baseline, wall_threshold, interactions_tol):
    """Compare one fresh record dict against its baseline; yield verdicts."""
    regressions = []
    base_wall = baseline.get("wall_seconds")
    wall = fresh.get("wall_seconds")
    if base_wall and wall is not None and wall > base_wall * wall_threshold:
        regressions.append(
            "{}: wall {:.3f}s vs baseline {:.3f}s (> {:.2g}x threshold)".format(
                label, wall, base_wall, wall_threshold
            )
        )
    base_inter = baseline.get("interactions")
    inter = fresh.get("interactions")
    if base_inter and inter is not None:
        drift = abs(inter - base_inter) / base_inter
        if drift > interactions_tol:
            regressions.append(
                "{}: interactions {} vs baseline {} ({:.1%} drift > {:.1%} "
                "tolerance)".format(
                    label, inter, base_inter, drift, interactions_tol
                )
            )
    return regressions


def check_regressions(
    fresh,
    baseline,
    *,
    group_key,
    config_keys,
    wall_threshold=WALL_THRESHOLD,
    interactions_tol=INTERACTIONS_TOL,
):
    """Gate one fresh payload against its committed baseline.

    ``group_key`` names the dict of per-engine/per-path records
    (``"engines"`` for the headline, ``"paths"`` for the kernel race);
    ``config_keys`` are the fields that must match for the comparison to
    be meaningful.  Returns ``(regressions, skipped_reason)``.
    """
    if baseline is None:
        return [], "no committed baseline"
    for key in config_keys:
        if fresh.get(key) != baseline.get(key):
            return [], "baseline recorded at {}={!r}, fresh run has {!r}".format(
                key, baseline.get(key), fresh.get(key)
            )
    regressions = []
    fresh_group = fresh.get(group_key) or {}
    base_group = baseline.get(group_key) or {}
    for name in sorted(set(fresh_group) & set(base_group)):
        regressions.extend(
            _gate_records(
                "{}[{}]".format(fresh.get("experiment", group_key), name),
                fresh_group[name],
                base_group[name],
                wall_threshold,
                interactions_tol,
            )
        )
    return regressions, None


def run_gate(payloads_with_baselines, wall_threshold, interactions_tol):
    """Print the regression verdict for every tracked bench; True = pass."""
    print("regression gate (wall x{:.2g}, interactions {:.0%}):".format(
        wall_threshold, interactions_tol
    ))
    lines = []
    ok = True
    for fresh, baseline, group_key, config_keys in payloads_with_baselines:
        name = fresh.get("experiment", group_key)
        regressions, skipped = check_regressions(
            fresh,
            baseline,
            group_key=group_key,
            config_keys=config_keys,
            wall_threshold=wall_threshold,
            interactions_tol=interactions_tol,
        )
        if skipped is not None:
            lines.append("  SKIP {}: {}".format(name, skipped))
        elif regressions:
            ok = False
            for regression in regressions:
                lines.append("  REGRESSION {}".format(regression))
        else:
            lines.append("  OK {}".format(name))
    for line in lines:
        print(line)
    verdict = "PASS" if ok else "FAIL"
    print("  gate verdict: {}".format(verdict))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write("## Bench regression gate: {}\n\n".format(verdict))
            for line in lines:
                handle.write("- {}\n".format(line.strip()))
    return ok


def chaos(seed=0, processes=2):
    """Fault-injection smoke: crash + hang + corrupt cache, then resume.

    Exercises the supervised replica pool end to end: a sweep where one
    replica always crashes its worker and another always hangs must
    complete without raising and report both failures in ``summary()``;
    resuming the manifest with the faults removed must reproduce the
    clean (no-fault) sweep bit-identically.  Also checks corrupt-cache
    recovery and measures the health guards' overhead on the kernel-race
    workload.  Returns True on success.
    """
    import shutil
    import tempfile

    from repro import EngineConfig, FaultPlan, resume_sweep, run_replicas
    from repro.engine import BatchCountEngine, clear_memo, compile_table
    from repro.faults import ALWAYS, corrupt_cache_entry
    from repro.workloads import build_workload

    print("chaos: supervised sweep with injected crash + hang, then resume")
    workload = build_workload("epidemic", n=2000)
    replicas = 6
    common = dict(
        replicas=replicas,
        config=EngineConfig(engine="batch", guards=True),
        seed=seed,
        stop=workload.stop,
    )
    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    ok = True
    try:
        clean = run_replicas(
            workload.protocol, workload.population, processes=1, **common
        )
        reference = [r.interactions for r in sorted(clean.ok, key=lambda r: r.index)]

        plan = FaultPlan(
            crash={1: ALWAYS}, hang={2: ALWAYS}, hang_seconds=30.0
        )
        manifest = os.path.join(workdir, "chaos.jsonl")
        faulted = run_replicas(
            workload.protocol,
            workload.population,
            processes=processes,
            manifest=manifest,
            manifest_meta={"workload": workload.spec()},
            faults=plan,
            timeout=5.0,
            max_retries=1,
            backoff=0.05,
            **common,
        )
        summary = faulted.summary()
        print("  faulted sweep: {}".format(summary))
        failed_statuses = set(summary.failures)
        if not failed_statuses >= {"failed", "timeout"}:
            print("  FAIL: expected a 'failed' and a 'timeout' record, "
                  "got {}".format(summary.failures))
            ok = False

        resumed = resume_sweep(manifest, processes=processes)
        resumed_interactions = [
            r.interactions for r in sorted(resumed.ok, key=lambda r: r.index)
        ]
        if resumed_interactions == reference and len(resumed.ok) == replicas:
            print("  resume: bit-identical to the no-fault sweep "
                  "({} replicas)".format(replicas))
        else:
            print("  FAIL: resumed sweep differs from the no-fault run")
            ok = False

        # corrupt-cache recovery: a truncated .npz must recompile cleanly
        cache_dir = os.path.join(workdir, "cache")
        os.makedirs(cache_dir)
        codes = list(workload.population.counts.keys())
        clear_memo()  # the sweeps above memoized this table in-process
        compile_table(workload.protocol, codes, cache=cache_dir)
        assert corrupt_cache_entry(cache_dir), "no cache entry was written"
        clear_memo()
        table = compile_table(workload.protocol, codes, cache=cache_dir)
        if table.cache_status == "corrupt" and table.cache_corrupt == 1:
            print("  corrupt cache entry: dropped and recompiled")
        else:
            print("  FAIL: corrupt cache not reported (status={})".format(
                table.cache_status
            ))
            ok = False

        # guard overhead on the kernel-race workload (target <= 5%; the
        # 10% bar leaves noise headroom on loaded CI machines)
        def _timed(guards):
            protocol, population = _clock_workload(KERNELS_N)
            eng = BatchCountEngine(
                protocol,
                population,
                rng=np.random.default_rng(seed),
                guards=guards,
            )
            start = time.perf_counter()
            eng.run(rounds=KERNELS_ROUNDS)
            return time.perf_counter() - start

        _timed(None)  # warm the compile cache
        bare = min(_timed(None) for _ in range(3))
        guarded = min(_timed(True) for _ in range(3))
        overhead = guarded / max(bare, 1e-9) - 1.0
        print("  guard overhead on kernel race: {:+.1%} "
              "(bare {:.3f}s, guarded {:.3f}s)".format(overhead, bare, guarded))
        if overhead > 0.10:
            print("  FAIL: guard overhead above the 10% chaos bar")
            ok = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("  chaos verdict: {}".format("PASS" if ok else "FAIL"))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write("## Chaos smoke: {}\n".format(
                "PASS" if ok else "FAIL"
            ))
    return ok


def full_sweeps(engine="auto", processes=None):
    """The E1-E4 experiment sweeps through the replica runner."""
    import bench_e1_leader_election
    import bench_e2_majority
    import bench_e3_oscillator
    import bench_e4_phase_clock

    bench_e1_leader_election.run_experiment(engine=engine, processes=processes)
    bench_e2_majority.run_experiment(engine=engine, processes=processes)
    bench_e3_oscillator.run_experiment(processes=processes)
    bench_e4_phase_clock.run_experiment(processes=processes)


def main(argv=None) -> int:
    from repro.simulate import ENGINE_CHOICES

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true",
        help="headline + kernels comparisons only (skip the E1-E4 sweeps)",
    )
    ap.add_argument(
        "--chaos", action="store_true",
        help="fault-injection smoke only: crash + hang + corrupt-cache "
        "sweep, resume bit-identity, guard overhead (skips the benches)",
    )
    ap.add_argument(
        "--n", type=int, default=HEADLINE_N,
        help="headline population size (default 10^6)",
    )
    ap.add_argument(
        "--kernels-n", type=int, default=KERNELS_N,
        help="kernel-race population size (default {})".format(KERNELS_N),
    )
    ap.add_argument(
        "--kernels-rounds", type=float, default=KERNELS_ROUNDS,
        help="kernel-race parallel rounds (default {})".format(KERNELS_ROUNDS),
    )
    ap.add_argument(
        "--bghkpu-n", type=int, default=None,
        help="population size for the bghkpu scale race (default 10^8, "
        "or 10^6 under --quick)",
    )
    ap.add_argument(
        "--dense-n", type=int, default=None,
        help="population size for the dense fast-path race (default 10^6, "
        "or 10^5 under --quick)",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                    help="engine for the E1/E2 sweeps")
    ap.add_argument("--processes", type=int, default=None)
    ap.add_argument(
        "--no-gate", action="store_true",
        help="skip the regression gate against the committed bench JSONs",
    )
    ap.add_argument(
        "--baseline-dir", type=str, default=REPO_ROOT,
        help="directory holding the baseline BENCH_*.json (default: repo root)",
    )
    ap.add_argument(
        "--gate-wall-threshold", type=float,
        default=float(os.environ.get("REPRO_BENCH_WALL_THRESHOLD",
                                     WALL_THRESHOLD)),
        help="flag wall time above this multiple of the baseline "
        "(default {})".format(WALL_THRESHOLD),
    )
    ap.add_argument(
        "--gate-interactions-tol", type=float, default=INTERACTIONS_TOL,
        help="relative interaction-count drift allowed "
        "(default {})".format(INTERACTIONS_TOL),
    )
    args = ap.parse_args(argv)

    if args.chaos:
        return 0 if chaos(seed=args.seed, processes=args.processes or 2) else 1

    # load the committed baselines BEFORE the fresh run overwrites them
    baseline_engines = load_baseline(
        os.path.join(args.baseline_dir, "BENCH_engines.json")
    )
    baseline_kernels = load_baseline(
        os.path.join(args.baseline_dir, "BENCH_kernels.json")
    )
    baseline_ensemble = load_baseline(
        os.path.join(args.baseline_dir, "BENCH_ensemble.json")
    )
    baseline_bghkpu = load_baseline(
        os.path.join(args.baseline_dir, "BENCH_bghkpu.json")
    )
    baseline_dense = load_baseline(
        os.path.join(args.baseline_dir, "BENCH_dense.json")
    )

    payload = headline(n=args.n, seed=args.seed)
    kernel_payload = kernels(
        n=args.kernels_n, rounds=args.kernels_rounds, seed=args.seed
    )
    ensemble_payload = ensemble_sweep(seed=args.seed)
    # --quick downscales the n=10^8 race to a 10^6 smoke so quick runs
    # stay seconds; the gate skips the mismatched-config comparison.
    bghkpu_n = args.bghkpu_n or (BGHKPU_QUICK_N if args.quick else BGHKPU_N)
    bghkpu_payload = bghkpu_scale(n=bghkpu_n, seed=args.seed, quick=args.quick)
    dense_n = args.dense_n or (DENSE_QUICK_N if args.quick else DENSE_N)
    dense_payload = dense_scale(n=dense_n, seed=args.seed, quick=args.quick)
    if not args.quick:
        full_sweeps(engine=args.engine, processes=args.processes)
    ok = (
        payload["meets_target"]
        and kernel_payload["meets_target"]
        and ensemble_payload["meets_target"]
        and bghkpu_payload["meets_target"]
        and dense_payload["meets_target"]
    )
    if not args.no_gate:
        gate_ok = run_gate(
            [
                (payload, baseline_engines, "engines", ("n", "seed")),
                (kernel_payload, baseline_kernels, "paths",
                 ("n", "seed", "rounds")),
                (ensemble_payload, baseline_ensemble, "engines",
                 ("n", "seed", "rounds", "replicas")),
                (bghkpu_payload, baseline_bghkpu, "engines",
                 ("n", "seed", "ks_replicas")),
                (dense_payload, baseline_dense, "engines",
                 ("n", "seed", "rounds", "race_seeds")),
            ],
            args.gate_wall_threshold,
            args.gate_interactions_tol,
        )
        ok = ok and gate_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
