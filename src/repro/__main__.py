"""Command-line interface: run the paper's protocols from a shell.

Examples::

    python -m repro leader-election --n 10000
    python -m repro majority --n 5000 --a 1667 --b 1666
    python -m repro majority --n 2000 --engine auto
    python -m repro plurality --counts 40,30,30
    python -m repro predicate --kind at-least --count 7 --threshold 5 --n 200
    python -m repro oscillator --n 4000 --steps 6000 --engine matching
    python -m repro run-program my_protocol.txt --n 1000 --iterations 20
    python -m repro sweep epidemic --n 300 --replicas 8 --processes 4 \
        --manifest runs/epidemic.jsonl --stats
    python -m repro sweep --resume runs/epidemic.jsonl
    python -m repro replay runs/epidemic.jsonl --index 3

Every subcommand accepts the same engine flags: ``--engine`` (registry
name, ``auto`` picks the best fit), ``--ensemble-chunk`` (rows per
stacked chunk; implies ``--engine ensemble``), ``--no-guards`` and
``--stats``.  Unknown engine names are rejected with the list of
registered ones.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _rng(args) -> np.random.Generator:
    return np.random.default_rng(args.seed)


def _config_from_args(args, auto: str = None):
    """Build the :class:`~repro.EngineConfig` shared by every subcommand.

    ``auto`` substitutes a command-specific default when ``--engine auto``
    is in effect (e.g. the oscillator's measurements are defined on the
    random-matching scheduler).
    """
    from .engine.config import EngineConfig

    engine = args.engine
    chunk = getattr(args, "ensemble_chunk", None)
    if chunk is not None:
        if engine == "auto":
            engine = "ensemble"
        elif engine != "ensemble":
            print(
                "error: --ensemble-chunk only applies to the ensemble "
                "engine (got --engine {})".format(engine),
                file=sys.stderr,
            )
            raise SystemExit(2)
    collision_frac = getattr(args, "collision_frac", None)
    alias_rebuild_tol = getattr(args, "alias_rebuild_tol", None)
    dense_top_k = getattr(args, "dense_top_k", None)
    alias_patch_frac = getattr(args, "alias_patch_frac", None)
    batch_autotune = getattr(args, "batch_autotune", None)
    if batch_autotune is not None:
        batch_autotune = batch_autotune == "on"
    for flag, value in (
        ("--collision-frac", collision_frac),
        ("--alias-rebuild-tol", alias_rebuild_tol),
        ("--dense-top-k", dense_top_k),
        ("--alias-patch-frac", alias_patch_frac),
        ("--batch-autotune", batch_autotune),
    ):
        if value is not None:
            if engine == "auto":
                engine = "bghkpu"
            elif engine != "bghkpu":
                print(
                    "error: {} only applies to the bghkpu engine "
                    "(got --engine {})".format(flag, engine),
                    file=sys.stderr,
                )
                raise SystemExit(2)
    if engine == "auto" and auto is not None:
        engine = auto
    # guards stay engine-default here; sweeps flip them on (cmd_sweep)
    return EngineConfig(
        engine=engine,
        ensemble_chunk=chunk,
        collision_frac=collision_frac,
        alias_rebuild_tol=alias_rebuild_tol,
        dense_top_k=dense_top_k,
        alias_patch_frac=alias_patch_frac,
        batch_autotune=batch_autotune,
    )


def cmd_leader_election(args) -> int:
    from .protocols import run_leader_election

    ok, iterations, rounds = run_leader_election(
        args.n, rng=_rng(args), engine=_config_from_args(args)
    )
    print(
        "unique leader: {} ({} good iterations, ~{:.0f} parallel rounds)".format(
            ok, iterations, rounds
        )
    )
    return 0 if ok else 1


def cmd_majority(args) -> int:
    from .protocols import run_majority, run_majority_exact

    count_a = args.a if args.a is not None else args.n // 3 + 1
    count_b = args.b if args.b is not None else args.n // 3
    runner = run_majority_exact if args.exact else run_majority
    out, iterations, rounds = runner(
        args.n, count_a, count_b, rng=_rng(args), engine=_config_from_args(args)
    )
    expected = count_a > count_b
    print(
        "majority says {} (expected {}; {} iterations, ~{:.0f} rounds)".format(
            "A" if out else "B", "A" if expected else "B", iterations, rounds
        )
    )
    return 0 if out is expected else 1


def cmd_plurality(args) -> int:
    from .protocols import run_plurality

    counts = [int(c) for c in args.counts.split(",")]
    winner, iterations, rounds = run_plurality(
        counts, n=args.n, rng=_rng(args), engine=_config_from_args(args)
    )
    print(
        "plurality winner: {} of {} (expected {}; ~{:.0f} rounds)".format(
            winner, counts, int(np.argmax(counts)), rounds
        )
    )
    return 0 if winner == int(np.argmax(counts)) else 1


def cmd_predicate(args) -> int:
    from .predicates import at_least, majority_predicate, parity, parse_predicate
    from .protocols import run_semilinear_exact

    if args.expr:
        predicate = parse_predicate(args.expr)
    elif args.kind == "at-least":
        predicate = at_least("A", args.threshold)
    elif args.kind == "parity":
        predicate = parity("A", even=True)
    else:
        predicate = majority_predicate()
    groups = [("A", args.count), (None, max(args.n - args.count, 0))]
    out, want, iterations, rounds = run_semilinear_exact(
        predicate, groups, rng=_rng(args), engine=_config_from_args(args)
    )
    print(
        "{}: protocol says {}, truth {} (~{:.0f} rounds)".format(
            predicate.describe(), out, want, rounds
        )
    )
    return 0 if out is want else 1


def cmd_oscillator(args) -> int:
    from .core import Population
    from .engine import Trace
    from .oscillator import (
        extract_oscillations,
        make_oscillator_protocol,
        species,
        strong_value,
        weak_value,
    )

    protocol = make_oscillator_protocol()
    schema = protocol.schema
    n = args.n
    c1, c2 = int(0.8 * (n - 3)), int(0.17 * (n - 3))
    population = Population.from_groups(
        schema,
        [
            ({"osc": strong_value(0)}, c1),
            ({"osc": weak_value(1)}, c2),
            ({"osc": weak_value(2)}, (n - 3) - c1 - c2),
            ({"osc": weak_value(0), "X": True}, 3),
        ],
    )
    trace = Trace({"A1": species(0), "A2": species(1), "A3": species(2)})
    from .simulate import simulate

    # the oscillator's step/period measurements are defined on the
    # random-matching scheduler, so auto resolves to it here
    simulate(
        protocol,
        population,
        engine=_config_from_args(args, auto="matching"),
        rng=_rng(args),
        rounds=args.steps,
        observer=trace,
        observe_every=max(args.steps // 800, 1),
    )
    counts = [trace.series(k) for k in ("A1", "A2", "A3")]
    summary = extract_oscillations(trace.times, counts, n, threshold=0.7)
    print(
        "{} dominance sweeps, cyclic order {}, median period {:.0f} steps "
        "({:.1f} x ln n)".format(
            summary.sweeps,
            "OK" if summary.cyclic_order_ok else "BROKEN",
            float(np.median(summary.periods)) if len(summary.periods) else float("nan"),
            float(np.median(summary.periods)) / np.log(n) if len(summary.periods) else float("nan"),
        )
    )
    return 0


def cmd_run_program(args) -> int:
    from .core import Population, V
    from .lang import IdealInterpreter, parse_program, program_schema

    with open(args.path) as handle:
        program = parse_program(handle.read())
    print(program.pretty())
    schema = program_schema(program)
    population = Population.uniform(
        schema, args.n, {decl.name: decl.init for decl in program.variables}
    )
    interpreter = IdealInterpreter(
        program, population, rng=_rng(args), engine=_config_from_args(args)
    )
    interpreter.run(args.iterations)
    print("\nafter {} good iterations (~{:.0f} rounds):".format(
        interpreter.iterations, interpreter.rounds
    ))
    for decl in program.variables:
        print("  #{} = {}".format(decl.name, population.count(V(decl.name))))
    return 0


def cmd_sweep(args) -> int:
    from .engine.replicas import run_replicas
    from .workloads import build_workload

    if args.resume:
        from .obs import resume_sweep

        rs = resume_sweep(
            args.resume,
            processes=args.processes,
            timeout=args.timeout,
            max_retries=args.max_retries,
        )
        name = "resume {}".format(args.resume)
        manifest_path = args.resume
    else:
        if args.workload is None:
            print(
                "error: a workload name is required unless --resume is given",
                file=sys.stderr,
            )
            return 2
        params = {}
        if args.n is not None:
            params["n"] = args.n
        workload = build_workload(args.workload, **params)
        config = _config_from_args(args)
        if not args.no_guards:
            # sweeps run unattended, so the health guards default on;
            # they add <5% on the batch engines (see docs/ROBUSTNESS.md)
            config = config.replace(guards=True)
        rs = run_replicas(
            workload.protocol,
            workload.population,
            replicas=args.replicas,
            seed=args.seed if args.seed is not None else 0,
            processes=args.processes,
            stop=workload.stop,
            config=config,
            manifest=args.manifest,
            manifest_meta={"workload": workload.spec()},
            timeout=args.timeout,
            max_retries=2 if args.max_retries is None else args.max_retries,
        )
        name = workload.name
        manifest_path = args.manifest
    summary = rs.summary()
    print("sweep {}: {}".format(name, summary))
    if manifest_path:
        print("manifest: {}".format(manifest_path))
    if args.stats:
        for tally in summary.engines.values():
            print(tally.format(), file=sys.stderr)
    if summary.failures:
        return 1
    fraction = summary.converged_fraction
    return 0 if fraction is None or fraction == 1.0 else 1


def cmd_replay(args) -> int:
    from .obs import load_manifest, replay_replica

    manifest = load_manifest(args.manifest)
    original = manifest.record(args.index)
    fresh = replay_replica(manifest, args.index)
    match = (
        fresh.rounds == original.rounds
        and fresh.interactions == original.interactions
        and fresh.converged == original.converged
    )
    print(
        "replica {}: recorded rounds={:.4g} interactions={} converged={}".format(
            original.index, original.rounds, original.interactions,
            original.converged,
        )
    )
    print(
        "replayed  : rounds={:.4g} interactions={} converged={} -> {}".format(
            fresh.rounds, fresh.interactions, fresh.converged,
            "MATCH" if match else "MISMATCH",
        )
    )
    if getattr(args, "stats", False) and fresh.stats:
        for key, value in fresh.stats.items():
            print("  {:<22} {}".format(key, value), file=sys.stderr)
    return 0 if match else 1


def cmd_serve(args) -> int:
    from .service import QuotaSpec, serve

    ceiling = QuotaSpec(
        cpu_seconds=args.max_cpu_seconds,
        memory_bytes=(
            args.max_memory_mb * (1 << 20)
            if args.max_memory_mb is not None else None
        ),
        wall_seconds=args.max_wall_seconds,
        manifest_bytes=(
            args.max_manifest_mb * (1 << 20)
            if args.max_manifest_mb is not None else None
        ),
    )
    serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        capacity=args.queue_size,
        retry_after=args.retry_after,
        quota=ceiling,
        sandbox=not args.no_sandbox,
        recover=not args.no_recover,
        drain_grace=args.drain_grace,
        retries=args.job_retries,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the protocols of 'Population Protocols Are Fast'.",
    )
    from .simulate import ENGINE_CHOICES

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="simulation engine (default: auto — pick the best fit)",
    )
    common.add_argument(
        "--ensemble-chunk", type=int, default=None, metavar="R",
        help="advance replicas in stacked chunks of R rows on the "
        "ensemble engine (implies --engine ensemble; the engine's "
        "default chunk is 16 when --engine ensemble is given without "
        "this flag)",
    )
    common.add_argument(
        "--collision-frac", type=float, default=None, metavar="F",
        help="colliding-pick budget per batch on the bghkpu engine "
        "(implies --engine bghkpu; engine default 0.2 — smaller is more "
        "faithful and slower)",
    )
    common.add_argument(
        "--alias-rebuild-tol", type=float, default=None, metavar="TOL",
        help="relative count drift above which the bghkpu engine "
        "re-freezes its alias epoch (implies --engine bghkpu; engine "
        "default 0.05)",
    )
    common.add_argument(
        "--dense-top-k", type=int, default=None, metavar="K",
        help="heavy-cell count of the bghkpu dense-support hybrid "
        "sampler (implies --engine bghkpu; engine default 512, 0 "
        "disables the hybrid split)",
    )
    common.add_argument(
        "--alias-patch-frac", type=float, default=None, metavar="F",
        help="touched-fraction ceiling for the bghkpu epoch-sum patch "
        "on drift refreshes (implies --engine bghkpu; engine default "
        "0.25, 0 disables patching)",
    )
    common.add_argument(
        "--batch-autotune", choices=["on", "off"], default=None,
        help="feedback controller on the bghkpu batch cap plus overdraw "
        "repair (implies --engine bghkpu; engine default on)",
    )
    common.add_argument(
        "--no-guards", action="store_true",
        help="disable the engine health guards (conservation, finiteness, "
        "overflow headroom); sweeps enable them by default, the other "
        "commands leave them off",
    )
    common.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's perf counters (batches, kernel time, "
        "compiled-table cache status, ...) after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("leader-election", help="Theorem 3.1 (tier T3)")
    p.add_argument("--n", type=int, default=10000)
    p.set_defaults(func=cmd_leader_election)

    p = add_parser("majority", help="Theorem 3.2 / 6.3")
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--a", type=int, default=None, help="initial A count (default n/3+1)")
    p.add_argument("--b", type=int, default=None, help="initial B count (default n/3)")
    p.add_argument("--exact", action="store_true", help="always-correct variant")
    p.set_defaults(func=cmd_majority)

    p = add_parser("plurality", help="plurality consensus")
    p.add_argument("--counts", type=str, default="40,30,30")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_plurality)

    p = add_parser("predicate", help="SemilinearPredicateExact (Thm 6.4)")
    p.add_argument("--kind", choices=["at-least", "parity", "majority"], default="at-least")
    p.add_argument(
        "--expr",
        type=str,
        default=None,
        help="predicate expression over input A, e.g. 'A >= 3 and A %% 2 == 0'",
    )
    p.add_argument("--count", type=int, default=7)
    p.add_argument("--threshold", type=int, default=5)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=cmd_predicate)

    p = add_parser("oscillator", help="DK18 oscillator (Thm 5.1)")
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--steps", type=int, default=6000)
    p.set_defaults(func=cmd_oscillator)

    p = add_parser("run-program", help="parse + run pseudocode (tier T3)")
    p.add_argument("path", help="path to a paper-style protocol file")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--iterations", type=int, default=10)
    p.set_defaults(func=cmd_run_program)

    p = add_parser(
        "sweep",
        help="replica fan-out over a named workload (writes a run manifest)",
    )
    from .workloads import WORKLOADS

    p.add_argument(
        "workload", nargs="?", choices=sorted(WORKLOADS),
        help="workload name (omit when resuming via --resume)",
    )
    p.add_argument("--n", type=int, default=None, help="population size")
    p.add_argument("--replicas", type=int, default=8)
    p.add_argument(
        "--processes", type=int, default=None,
        help="worker processes (default: REPRO_PROCESSES env, else the "
        "affinity-aware CPU count)",
    )
    p.add_argument(
        "--manifest", type=str, default=None,
        help="write a JSONL run manifest (replayable via 'replay', "
        "resumable via --resume)",
    )
    p.add_argument(
        "--resume", type=str, default=None, metavar="MANIFEST",
        help="finish an interrupted sweep: re-run only the replicas with "
        "no ok record in MANIFEST (same seeds, bit-identical results) "
        "and append them to it",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-replica wall-clock timeout in seconds (default: none)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None,
        help="retries per failed/timed-out replica (default: 2, or the "
        "manifest's recorded setting when resuming)",
    )
    p.set_defaults(func=cmd_sweep, stats_handled=True)

    p = add_parser(
        "replay",
        help="re-run one replica of a manifest and check bit-identity",
    )
    p.add_argument("manifest", help="path to a JSONL run manifest")
    p.add_argument("--index", type=int, default=0, help="replica index")
    p.set_defaults(func=cmd_replay, stats_handled=True)

    # serve takes no engine flags: submissions carry their own EngineConfig
    p = sub.add_parser(
        "serve",
        help="serve sweeps over HTTP — submit, stream, replay by run id "
        "(see docs/SERVICE.md)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--store", type=str, default="service-runs",
        help="run store directory: request/status/manifest/event files "
        "per run id (default: ./service-runs)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="sweeps executed concurrently (default: 2)",
    )
    p.add_argument(
        "--queue-size", type=int, default=8,
        help="queued submissions beyond the running ones before the "
        "service answers 429 + Retry-After (default: 8)",
    )
    p.add_argument(
        "--retry-after", type=float, default=1.0,
        help="Retry-After seconds advertised under backpressure",
    )
    p.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds SIGTERM waits for running jobs to reach their next "
        "checkpoint before hard-killing their sandboxes (default: 10)",
    )
    p.add_argument(
        "--job-retries", type=int, default=1,
        help="respawns granted to a crashed sandbox worker before the run "
        "is marked failed (default: 1)",
    )
    p.add_argument(
        "--max-cpu-seconds", type=float, default=None,
        help="ceiling on per-job quota.cpu_seconds (RLIMIT_CPU in the "
        "sandbox); requests above it are rejected 400",
    )
    p.add_argument(
        "--max-memory-mb", type=int, default=None,
        help="ceiling on per-job quota.memory_bytes, in MiB (RLIMIT_AS "
        "in the sandbox)",
    )
    p.add_argument(
        "--max-wall-seconds", type=float, default=None,
        help="ceiling on per-job quota.wall_seconds (supervisor-side "
        "kill deadline)",
    )
    p.add_argument(
        "--max-manifest-mb", type=int, default=None,
        help="ceiling on per-job quota.manifest_bytes, in MiB (checked "
        "after every checkpoint group)",
    )
    p.add_argument(
        "--no-sandbox", action="store_true",
        help="run jobs in-process instead of sandbox subprocesses "
        "(cpu/memory/wall quotas unenforceable; shared fate)",
    )
    p.add_argument(
        "--no-recover", action="store_true",
        help="skip the startup journal scan that re-enqueues interrupted "
        "runs",
    )
    p.set_defaults(func=cmd_serve, stats_handled=True, stats=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if getattr(args, "stats", False) and not getattr(args, "stats_handled", False):
        import importlib

        # NB: attribute access via the package would find the simulate()
        # *function* re-exported by repro/__init__.py, not the module
        _simulate = importlib.import_module(__package__ + ".simulate")
        if _simulate.LAST_ENGINE is not None:
            print(_simulate.LAST_ENGINE.stats.format(), file=sys.stderr)
        else:
            print("engine stats: no engine was run", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
