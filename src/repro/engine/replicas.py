"""Parallel replica fan-out: run R independent seeded simulations at once.

The paper's convergence claims (Thm 5.1/5.2, Prop 5.3, the Θ(n·polylog n)
experiments) are all statements about *distributions* of convergence times,
so every benchmark sweep runs tens of independent replicas.  This module
fans those replicas out across processes:

* :func:`run_replicas` — the engine-shaped entry point: one (protocol,
  population) pair, R replicas on independently seeded engines, aggregated
  convergence statistics.  The protocol/population are pickled *together*
  in one payload so the shared :class:`~repro.core.state.StateSchema`
  object survives the round-trip (engines check schema identity).
* :func:`map_replicas` — the generic entry point for workloads that build
  their own protocol per trial (the tier-T3 interpreter sweeps of E1/E2):
  any picklable ``task(seed_sequence)`` callable.

Both use the ``spawn`` start method so the fan-out behaves identically on
Linux/macOS/Windows, and both degrade to an in-process loop when only one
worker is requested (or available), so single-core machines and tests pay
no pool overhead.  Replica seeds come from
:meth:`numpy.random.SeedSequence.spawn`, guaranteeing independent streams
regardless of worker scheduling.

Blocks and fault tolerance
--------------------------
Every supervised task is a **block** of replica indices: one replica for
every engine except ``ensemble``, whose blocks are fixed runs of
``ensemble_chunk`` rows (:func:`block_size`) stacked into one engine.
:func:`plan_block` builds everything a block needs for one attempt (its
members, their seed streams and, for ``ensemble``, the block's shared
stream) and :func:`run_block` runs it.  The runner and
:func:`repro.obs.replay_replica` both plan with it, and the service's
checkpoint groups are :func:`replica_blocks`, so replay, resume and the
service agree with the runner by construction.

The fan-out is *supervised* (:func:`supervise`): each worker process owns
a duplex pipe to the parent, which attributes every crash, hang and
exception to the specific block that caused it.  A block that fails or
exceeds the per-task ``timeout`` is retried up to ``max_retries`` times
with exponential backoff, every member moving to a **fresh seed child**
(``SeedSequence(root_entropy, spawn_key=(k, attempt))``, recorded as
``seed["retry_of"]``); dead workers are reaped and replaced without
disturbing the blocks running on their siblings.  An exhausted block
comes back as one explicit ``ReplicaRecord(status="failed"|"timeout",
...)`` per member instead of raising — ``summary()`` reports the failure
tally and aggregates only the ``ok`` records.  A
:class:`~repro.engine.health.SimulationHealthError` from a worker is
**non-retryable** (the failure is deterministic in the seed), and a
:class:`TimeoutError` subclass raised *inside* a worker (e.g. an injected
hang under ``processes=1``) is recorded with ``status="timeout"`` just
like a supervisor-enforced deadline.

The usual spawn caveats apply with ``processes > 1``: ``stop``/``task``
callables must be module-level (or ``functools.partial`` of one), and the
calling ``__main__`` must be an importable file — from a REPL or stdin
script, use ``processes=1``.
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import numbers
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .config import EngineConfig
from .health import SimulationHealthError


def spawn_seeds(seed: Optional[int], k: int) -> List[np.random.SeedSequence]:
    """``k`` independent child seed sequences of one root seed."""
    root = np.random.SeedSequence(seed)
    return list(root.spawn(k))


#: Default replica-row count per ensemble block (``engine="ensemble"``).
#: A fixed constant, never derived from the worker count, so block
#: membership — and therefore every block's shared draw stream — is
#: identical across ``processes`` settings and across resume runs.
DEFAULT_ENSEMBLE_CHUNK = 16

#: Spawn-key salt of the per-block shared generators.  Their keys are the
#: 3-tuple ``(salt, first_index, attempt)`` — replica streams use length-1
#: keys ``(k,)`` and retry streams length-2 keys ``(k, attempt)``, so the
#: three families can never collide.
ENSEMBLE_SEED_SALT = 0x454E53  # "ENS"


def block_size(config: EngineConfig) -> int:
    """Replicas per supervised task: ``ensemble_chunk`` rows, or 1.

    The one home of the chunk-size rule.  ``engine="ensemble"`` stacks
    ``config.ensemble_chunk`` rows per block (default
    :data:`DEFAULT_ENSEMBLE_CHUNK`); every other engine runs one replica
    per block.  A set ``ensemble_chunk`` must be a positive integer
    whatever the engine — anything else raises ``ValueError``.
    """
    chunk = config.ensemble_chunk
    if chunk is not None and (
        isinstance(chunk, bool)
        or not isinstance(chunk, numbers.Integral)
        or chunk < 1
    ):
        raise ValueError(
            "ensemble_chunk must be a positive integer, got {!r}".format(chunk)
        )
    if config.engine != "ensemble":
        return 1
    return DEFAULT_ENSEMBLE_CHUNK if chunk is None else int(chunk)


def ensemble_chunk_members(block: int, chunk: int, replicas: int) -> List[int]:
    """Replica indices of block number ``block`` of size ``chunk``.

    Blocks are fixed runs of the full index space (block ``j`` owns
    ``[j*chunk, min((j+1)*chunk, replicas))``), independent of process
    count and of which indices a resume requests — a resumed block
    re-runs whole and reproduces its rows bit-identically.
    """
    lo = block * chunk
    hi = min(lo + chunk, replicas)
    return list(range(lo, hi))


def replica_blocks(
    config: EngineConfig,
    replicas: int,
    indices: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Members of every block that runs one of ``indices`` (default: all)."""
    size = block_size(config)
    if indices is None:
        blocks: Sequence[int] = range(-(-replicas // size))
    else:
        blocks = sorted({int(k) // size for k in indices})
    return [ensemble_chunk_members(b, size, replicas) for b in blocks]


def _retry_seed(
    root: np.random.SeedSequence, index: int, attempt: int
) -> np.random.SeedSequence:
    """Seed of replica ``index`` on ``attempt`` (0 = the first run).

    The first attempt runs on the root's ``index``-th spawned child,
    ``spawn_key=(index,)``; retry ``attempt >= 1`` on a fresh child with
    ``spawn_key=(index, attempt)``, which never collides with any
    first-attempt stream (no child is ever spawned *from* a replica seed).
    """
    key = (index,) if attempt == 0 else (index, attempt)
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=key)


def _seed_coords(
    seed_seq: np.random.SeedSequence, index: int, attempt: int
) -> Dict[str, Any]:
    """A record's ``seed`` field: enough to rebuild its exact stream."""
    coords: Dict[str, Any] = {
        "entropy": seed_seq.entropy,
        "spawn_key": list(seed_seq.spawn_key),
    }
    if attempt > 0:
        coords["retry_of"] = [index]
    return coords


@dataclass
class ReplicaBlock:
    """One supervised task at one attempt, as planned by :func:`plan_block`."""

    members: List[int]
    #: one stream per member (an ensemble row's exact-fallback stream)
    seeds: List[np.random.SeedSequence]
    #: the ensemble block's stacked-draw stream; ``None`` for other engines
    shared: Optional[np.random.SeedSequence]
    attempt: int


def plan_block(
    config: EngineConfig,
    root: np.random.SeedSequence,
    replicas: int,
    index: int,
    attempt: int = 0,
) -> ReplicaBlock:
    """Everything the block running replica ``index`` needs for ``attempt``.

    The only derivation of a task's members, per-row seeds (a retried
    block moves every row to a fresh retry child) and ensemble shared
    seed: :func:`run_replicas` plans its tasks and failure records here,
    and :func:`repro.obs.replay_replica` re-plans the block a record
    rode in, so a replay re-runs exactly what the sweep ran.
    """
    size = block_size(config)
    members = ensemble_chunk_members(index // size, size, replicas)
    shared = None
    if config.engine == "ensemble":
        shared = np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=(ENSEMBLE_SEED_SALT, members[0], attempt),
        )
    seeds = [_retry_seed(root, k, attempt) for k in members]
    return ReplicaBlock(members, seeds, shared, attempt)


@dataclass
class ReplicaRecord:
    """Outcome of one replica run.

    Besides the convergence outcome, each record carries the worker's
    full observability payload: ``engine`` (the resolved engine name),
    ``stats`` (the worker's :class:`~repro.engine.api.EngineStats`
    counters as a plain dict — they survive the process boundary), and
    ``seed`` (the replica's seed-sequence coordinates,
    ``{"entropy": ..., "spawn_key": [...]}``, enough to re-seed and
    replay this exact replica — see :mod:`repro.obs`).

    Supervision fields: ``status`` is ``"ok"`` for a completed run,
    ``"failed"`` for a replica whose worker crashed or raised (``error``
    holds the reason), ``"timeout"`` for one that exceeded the
    supervisor's per-task deadline; ``attempts`` counts how many times
    the replica's block was started (1 = no retries).  A retried replica's
    ``seed`` carries ``retry_of`` (the original spawn key) alongside the
    fresh retry coordinates.
    """

    index: int
    rounds: float
    interactions: int
    wall: float
    converged: Optional[bool] = None
    engine: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    seed: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1


class ReplicaSet:
    """Aggregated outcomes of a replica fan-out.

    The numeric array views (``rounds``/``interactions``/``wall``) and
    ``converged_fraction`` cover only the ``ok`` records — failed and
    timed-out replicas have no meaningful convergence numbers; inspect
    them via :attr:`failures` and the tally in :meth:`summary`.
    """

    def __init__(self, records: Sequence[ReplicaRecord]):
        self.records = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def ok(self) -> List[ReplicaRecord]:
        """Records of replicas that completed successfully."""
        return [r for r in self.records if getattr(r, "status", "ok") == "ok"]

    @property
    def failures(self) -> List[ReplicaRecord]:
        """Records of replicas that failed or timed out."""
        return [r for r in self.records if getattr(r, "status", "ok") != "ok"]

    @property
    def rounds(self) -> np.ndarray:
        return np.array([r.rounds for r in self.ok], dtype=float)

    @property
    def interactions(self) -> np.ndarray:
        return np.array([r.interactions for r in self.ok], dtype=float)

    @property
    def wall(self) -> np.ndarray:
        return np.array([r.wall for r in self.ok], dtype=float)

    @property
    def converged_fraction(self) -> Optional[float]:
        flags = [r.converged for r in self.ok if r.converged is not None]
        if not flags:
            return None
        return sum(flags) / len(flags)

    def summary(self):
        """Convergence statistics (see :mod:`repro.analysis.replicas`).

        Includes the per-engine :class:`~repro.analysis.replicas.EngineTally`
        aggregation of every worker's ``EngineStats`` (batches, fallbacks,
        kernel seconds, table memo provenance) under ``.engines``.
        """
        from ..analysis.replicas import aggregate_convergence

        return aggregate_convergence(self.records)

    def stats_by_engine(self):
        """Per-engine aggregation of the workers' ``EngineStats`` dicts."""
        from ..analysis.replicas import aggregate_engine_stats

        return aggregate_engine_stats(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ReplicaSet({} replicas)".format(len(self.records))


def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity mask
    CI runners and nested fan-outs actually get; prefer
    ``os.process_cpu_count()`` (3.13+) or the scheduler affinity set.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        return getter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _resolve_processes(processes: Optional[int], replicas: int) -> int:
    """Worker count: explicit argument > ``REPRO_PROCESSES`` > affinity.

    The default (and the env override) is capped at :func:`available_cpus`
    so fan-outs never oversubscribe a CI runner or a nested pool; an
    explicit ``processes`` argument is honored as given (capped only at
    the replica count).
    """
    if processes is None:
        env = os.environ.get("REPRO_PROCESSES", "").strip()
        if env:
            try:
                processes = int(env)
            except ValueError:
                raise ValueError(
                    "REPRO_PROCESSES must be an integer, got {!r}".format(env)
                ) from None
        else:
            processes = available_cpus()
        processes = min(processes, available_cpus())
    return max(1, min(processes, replicas))


def run_single_replica(
    index: int,
    seed_seq: np.random.SeedSequence,
    protocol: Protocol,
    population: Population,
    engine: Any = "auto",
    run_kwargs: Optional[Dict[str, Any]] = None,
    stop: Optional[Callable[[Population], bool]] = None,
    faults: Optional[Any] = None,
    attempt: int = 0,
    config: Optional[EngineConfig] = None,
) -> ReplicaRecord:
    """Run one seeded replica and return its full record.

    The single-replica body of :func:`run_replicas` — also the replay
    primitive of :mod:`repro.obs`: the same ``(index, seed_seq, ...)``
    inputs give a bit-identical record (minus wall time).  Engine
    construction travels as an :class:`~repro.engine.config.EngineConfig`
    (``config=``, or directly in the ``engine`` slot; a plain registry
    name works too).  ``faults`` is an optional
    :class:`repro.faults.FaultPlan` whose injectors fire here, inside
    the worker; ``attempt`` is the supervisor's retry counter (0 on the
    first attempt).
    """
    from ..simulate import make_engine

    cfg = EngineConfig.coerce(engine, config=config)
    if faults is not None:
        faults.before_run(index, attempt)
    rng = np.random.default_rng(seed_seq)
    eng = make_engine(protocol, population.copy(), cfg, rng=rng)
    if faults is not None:
        faults.tamper_engine(eng, index, attempt)
    start = time.perf_counter()
    eng.run(stop=stop, **(run_kwargs or {}))
    wall = time.perf_counter() - start
    final = eng.population
    converged: Optional[bool] = None
    if stop is not None:
        # the engine's own verdict; never re-evaluate a (possibly
        # stateful) predicate that the engine already stopped on
        converged = eng.stop_verdict
        if converged is None:  # run never evaluated stop (e.g. silent)
            converged = bool(stop(final))
    return ReplicaRecord(
        index=index,
        rounds=float(eng.rounds),
        interactions=int(eng.interactions),
        wall=wall,
        converged=converged,
        engine=eng.name,
        stats=eng.stats.as_dict(),
        seed=_seed_coords(seed_seq, index, attempt),
        extra={"support": final.support_size, "engine": eng.name},
        status="ok",
        attempts=attempt + 1,
    )


def run_ensemble_chunk(
    indices: Sequence[int],
    seed_seqs: Sequence[np.random.SeedSequence],
    shared_seq: np.random.SeedSequence,
    protocol: Protocol,
    population: Population,
    config: Optional[EngineConfig] = None,
    run_kwargs: Optional[Dict[str, Any]] = None,
    stop: Optional[Callable[[Population], bool]] = None,
    faults: Optional[Any] = None,
    attempt: int = 0,
) -> List[ReplicaRecord]:
    """Run one ensemble chunk: the replicas ``indices`` as stacked rows.

    The chunked sibling of :func:`run_single_replica` — one
    :class:`~repro.engine.ensemble.EnsembleEngine` advances every row of
    the chunk per stacked batch.  Each row keeps its *own* replica seed
    stream (``seed_seqs[pos]`` drives only row ``pos``'s exact fallback
    path), while all stacked draws come from the generator seeded by
    ``shared_seq``; the same ``(indices, seed_seqs, shared_seq, ...)``
    inputs reproduce the chunk bit-identically (minus wall time), which is
    what :func:`repro.obs.replay_replica` relies on.  :func:`run_block`
    calls it with a block from :func:`plan_block`.

    Returns one :class:`ReplicaRecord` per row, in ``indices`` order, with
    the chunk's wall time apportioned evenly and per-row
    :meth:`~repro.engine.ensemble.EnsembleEngine.row_stats` counters.
    """
    from .ensemble import EnsembleEngine

    cfg = EngineConfig.coerce("ensemble", config=config)
    indices = [int(k) for k in indices]
    seed_seqs = list(seed_seqs)
    if len(seed_seqs) != len(indices):
        raise ValueError("need exactly one seed sequence per chunk index")
    if faults is not None:
        for k in indices:
            faults.before_run(k, attempt)
    row_rngs = [np.random.default_rng(s) for s in seed_seqs]
    eng = EnsembleEngine(
        protocol,
        population.copy(),
        rng=np.random.default_rng(shared_seq),
        rows=len(indices),
        row_rngs=row_rngs,
        **cfg.engine_kwargs(EnsembleEngine),
    )
    if faults is not None:
        for k in indices:
            faults.tamper_engine(eng, k, attempt)
    start = time.perf_counter()
    eng.run(stop=stop, **(run_kwargs or {}))
    wall = time.perf_counter() - start
    per_row_wall = wall / len(indices)
    records: List[ReplicaRecord] = []
    for pos, k in enumerate(indices):
        final = eng.row_population(pos)
        converged: Optional[bool] = None
        if stop is not None:
            converged = eng.row_verdict(pos)
            if converged is None:  # run never evaluated stop (e.g. silent)
                converged = bool(stop(final))
        records.append(
            ReplicaRecord(
                index=k,
                rounds=float(eng.row_rounds(pos)),
                interactions=int(eng.row_interactions_of(pos)),
                wall=per_row_wall,
                converged=converged,
                engine=eng.name,
                stats=eng.row_stats(pos).as_dict(),
                seed=_seed_coords(seed_seqs[pos], k, attempt),
                extra={
                    "support": final.support_size,
                    "engine": eng.name,
                    "ensemble_chunk": list(indices),
                },
                status="ok",
                attempts=attempt + 1,
            )
        )
    return records


def run_block(
    block: ReplicaBlock,
    protocol: Protocol,
    population: Population,
    config: EngineConfig,
    run_kwargs: Optional[Dict[str, Any]] = None,
    stop: Optional[Callable[[Population], bool]] = None,
    faults: Optional[Any] = None,
) -> List[ReplicaRecord]:
    """Run one planned block and return one record per member.

    An ensemble block (``block.shared`` set) stacks its members as rows
    of one engine (:func:`run_ensemble_chunk`); any other block is a
    single replica (:func:`run_single_replica`).
    """
    if block.shared is not None:
        return run_ensemble_chunk(
            block.members, block.seeds, block.shared, protocol, population,
            config, run_kwargs=run_kwargs, stop=stop, faults=faults,
            attempt=block.attempt,
        )
    (index,), (seed_seq,) = block.members, block.seeds
    return [run_single_replica(
        index, seed_seq, protocol, population, config,
        run_kwargs=run_kwargs, stop=stop, faults=faults,
        attempt=block.attempt,
    )]


def _block_worker(payload) -> List[ReplicaRecord]:
    """Worker entry point: run one block (top-level for pickling)."""
    return run_block(*payload)


def _failure_records(
    block: ReplicaBlock, outcome: TaskOutcome, engine: str
) -> List[ReplicaRecord]:
    """One explicit failure record per member of an exhausted block.

    The worker never returned, so each record points at its member's
    seed coordinates of the last attempt made (``block``).
    """
    extra = {} if block.shared is None else {"ensemble_chunk": block.members}
    return [
        ReplicaRecord(
            index=k,
            rounds=float("nan"),
            interactions=0,
            wall=outcome.wall,
            converged=None,
            engine=engine,
            stats=None,
            seed=_seed_coords(seed_seq, k, block.attempt),
            extra=dict(extra),
            status=outcome.status,
            error=outcome.error,
            attempts=outcome.attempts,
        )
        for k, seed_seq in zip(block.members, block.seeds)
    ]


def _task_replica(payload):
    """Worker: run one generic task replica (top-level for pickling)."""
    task, seed_seq = payload
    return task(seed_seq)


# ---------------------------------------------------------------------------
# Supervised worker pool
# ---------------------------------------------------------------------------

@dataclass
class TaskOutcome:
    """Final fate of one supervised task (after any retries)."""

    key: Any
    status: str  # "ok" | "failed" | "timeout"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    wall: float = 0.0  # wall time of the *final* attempt


def _describe_error(exc: BaseException) -> str:
    return "{}: {}".format(type(exc).__name__, exc)


def _pool_worker_main(conn, worker: Callable) -> None:
    """Worker-process loop: serve ``(task_id, payload)`` requests.

    Replies ``(task_id, status, value, nonretryable)`` per task; a
    ``None`` message (or a closed pipe) shuts the worker down.  All
    exceptions — including :class:`TimeoutError` subclasses, reported
    with ``status="timeout"`` — are turned into replies, never tracebacks:
    the parent decides what to do with them.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task_id, payload = msg
        try:
            # ack starts the parent's wall-clock deadline: a fresh spawn
            # spends noticeable time importing before it can begin work,
            # and that startup cost must not eat into the task's timeout
            conn.send(("ack", task_id))
        except (BrokenPipeError, OSError):
            break
        try:
            reply = ("done", task_id, "ok", worker(payload), False)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            status = "timeout" if isinstance(exc, TimeoutError) else "failed"
            nonretryable = isinstance(exc, SimulationHealthError)
            reply = ("done", task_id, status, _describe_error(exc), nonretryable)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # unpicklable result
            conn.send(("done", task_id, "failed", _describe_error(exc), True))
    conn.close()


class _PoolWorker:
    """Parent-side handle of one supervised worker process."""

    __slots__ = ("process", "conn", "task_id", "started", "deadline")

    def __init__(self, ctx, worker: Callable):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_pool_worker_main, args=(child, worker), daemon=True
        )
        self.process.start()
        child.close()
        self.task_id: Optional[int] = None
        self.started = 0.0
        self.deadline: Optional[float] = None

    def reap(self) -> Optional[int]:
        """Close the pipe and join a dead/doomed worker; return exit code."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=5.0)
        return self.process.exitcode

    def terminate(self) -> None:
        """Forcibly stop the worker (timeout enforcement)."""
        self.process.terminate()
        self.reap()


def _retry_delay(backoff: float, failures: int) -> float:
    """Exponential backoff: ``backoff * 2**(failures-1)`` seconds."""
    return backoff * (2.0 ** max(failures - 1, 0))


def _supervise_serial(
    worker: Callable,
    tasks: List[Tuple[Any, Any]],
    timeout: Optional[float],
    max_retries: int,
    backoff: float,
    retry_payload: Optional[Callable[[Any, Any, int], Any]],
    on_result: Optional[Callable[[TaskOutcome], None]],
) -> List[TaskOutcome]:
    """In-process supervision: same status bookkeeping, no processes.

    A real wall-clock ``timeout`` cannot be enforced in-process; only
    workers that *raise* a :class:`TimeoutError` subclass (e.g. the
    simulated hang injector) produce ``status="timeout"`` here.
    """
    outcomes = []
    for key, payload in tasks:
        failures = 0
        current = payload
        while True:
            start = time.perf_counter()
            status, value, error, nonretryable = "ok", None, None, False
            try:
                value = worker(current)
            except SimulationHealthError as exc:
                status, error, nonretryable = "failed", _describe_error(exc), True
            except TimeoutError as exc:
                status, error = "timeout", _describe_error(exc)
            except Exception as exc:  # noqa: BLE001 - record, don't raise
                status, error = "failed", _describe_error(exc)
            wall = time.perf_counter() - start
            if status == "ok" or nonretryable or failures >= max_retries:
                attempts = failures + 1
                outcome = TaskOutcome(key, status, value, error, attempts, wall)
                outcomes.append(outcome)
                if on_result is not None:
                    on_result(outcome)
                break
            failures += 1
            delay = _retry_delay(backoff, failures)
            if delay > 0.0:
                time.sleep(delay)
            if retry_payload is not None:
                current = retry_payload(key, payload, failures)
    return outcomes


def _supervise_pool(
    worker: Callable,
    tasks: List[Tuple[Any, Any]],
    processes: int,
    timeout: Optional[float],
    max_retries: int,
    backoff: float,
    retry_payload: Optional[Callable[[Any, Any, int], Any]],
    on_result: Optional[Callable[[TaskOutcome], None]],
) -> List[TaskOutcome]:
    """Process-pool supervision with per-task attribution.

    Each worker owns a duplex pipe, so every crash (pipe EOF), hang
    (deadline exceeded → terminate that worker only) and exception is
    attributed to the one task the worker was running; sibling replicas
    are never disturbed, unlike ``Pool``/``ProcessPoolExecutor`` whose
    pool-wide failure modes kill innocent in-flight work.
    """
    ctx = multiprocessing.get_context("spawn")
    state = {
        tid: {"key": key, "base": payload, "current": payload, "failures": 0}
        for tid, (key, payload) in enumerate(tasks)
    }
    ready = deque(range(len(tasks)))
    retry_heap: List[Tuple[float, int]] = []
    outcomes: Dict[int, TaskOutcome] = {}
    workers = [_PoolWorker(ctx, worker) for _ in range(min(processes, len(tasks)))]
    idle = deque(workers)
    busy: Dict[int, _PoolWorker] = {}

    def finish(tid: int, status: str, value, error, wall: float) -> None:
        # "failures" counts failed attempts; a success adds one more attempt
        st = state[tid]
        attempts = st["failures"] + 1 if status == "ok" else st["failures"]
        outcome = TaskOutcome(st["key"], status, value, error, attempts, wall)
        outcomes[tid] = outcome
        if on_result is not None:
            on_result(outcome)

    def handle_failure(
        tid: int, status: str, error: str, nonretryable: bool, wall: float
    ) -> None:
        st = state[tid]
        st["failures"] += 1
        if nonretryable or st["failures"] > max_retries:
            finish(tid, status, None, error, wall)
            return
        if retry_payload is not None:
            st["current"] = retry_payload(st["key"], st["base"], st["failures"])
        when = time.monotonic() + _retry_delay(backoff, st["failures"])
        heapq.heappush(retry_heap, (when, tid))

    def replace_worker(dead: _PoolWorker) -> None:
        workers.remove(dead)
        fresh = _PoolWorker(ctx, worker)
        workers.append(fresh)
        idle.append(fresh)

    try:
        while len(outcomes) < len(tasks):
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, tid = heapq.heappop(retry_heap)
                ready.append(tid)

            while ready and idle:
                tid = ready.popleft()
                w = idle.popleft()
                st = state[tid]
                try:
                    w.conn.send((tid, st["current"]))
                except (BrokenPipeError, OSError):
                    # worker died while idle: replace it, re-queue the task
                    w.reap()
                    replace_worker(w)
                    ready.appendleft(tid)
                    continue
                w.task_id = tid
                w.started = time.monotonic()
                # the deadline is armed when the worker acks the task —
                # spawn/startup time must not count against the timeout
                w.deadline = None
                busy[tid] = w

            if not busy:
                if retry_heap:
                    time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                    continue
                if ready:
                    continue  # all workers just died; dispatch retries
                break  # every task finished between dispatch rounds

            wait_until: Optional[float] = None
            for w in busy.values():
                if w.deadline is not None:
                    wait_until = (
                        w.deadline
                        if wait_until is None
                        else min(wait_until, w.deadline)
                    )
            if retry_heap:
                head = retry_heap[0][0]
                wait_until = head if wait_until is None else min(wait_until, head)
            wait_s = (
                None
                if wait_until is None
                else max(0.0, wait_until - time.monotonic())
            )
            conn_to_worker = {w.conn: w for w in busy.values()}
            ready_conns = multiprocessing.connection.wait(
                list(conn_to_worker), timeout=wait_s
            )

            for conn in ready_conns:
                w = conn_to_worker[conn]
                tid = w.task_id
                wall = time.monotonic() - w.started
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # the worker process died mid-task (crash/OOM kill)
                    code = w.reap()
                    del busy[tid]
                    replace_worker(w)
                    handle_failure(
                        tid,
                        "failed",
                        "worker process died (exit code {})".format(code),
                        False,
                        wall,
                    )
                    continue
                if msg[0] == "ack":
                    # the worker actually started the task: arm the clock
                    w.started = time.monotonic()
                    if timeout is not None:
                        w.deadline = w.started + timeout
                    continue
                _, _, status, value, nonretryable = msg
                del busy[tid]
                w.task_id = None
                idle.append(w)
                if status == "ok":
                    finish(tid, "ok", value, None, wall)
                else:
                    handle_failure(tid, status, value, nonretryable, wall)

            if timeout is not None:
                now = time.monotonic()
                for tid, w in list(busy.items()):
                    if w.deadline is not None and now >= w.deadline:
                        w.terminate()
                        del busy[tid]
                        replace_worker(w)
                        handle_failure(
                            tid,
                            "timeout",
                            "replica exceeded the {:.3g}s wall-clock "
                            "timeout".format(timeout),
                            False,
                            now - w.started,
                        )
    finally:
        for w in workers:
            if w.task_id is None:
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for w in workers:
            if w.task_id is not None:
                w.terminate()
            else:
                w.reap()
    return [outcomes[tid] for tid in range(len(tasks))]


def supervise(
    worker: Callable,
    tasks: List[Tuple[Any, Any]],
    *,
    processes: int,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff: float = 0.1,
    retry_payload: Optional[Callable[[Any, Any, int], Any]] = None,
    on_result: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Run ``tasks`` (``(key, payload)`` pairs) under supervision.

    Every task ends in exactly one :class:`TaskOutcome` — this function
    never raises for task-level failures.  ``retry_payload(key, base,
    attempt)`` builds the payload of retry ``attempt`` (1-based);
    ``on_result`` observes each final outcome as it is reached (out of
    submission order under a pool), which is how the manifest writer
    checkpoints finished replicas.  With ``processes <= 1`` the tasks run
    in-process with the same retry/status bookkeeping (but no preemptive
    timeout — see :func:`_supervise_serial`).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    if processes <= 1:
        return _supervise_serial(
            worker, tasks, timeout, max_retries, backoff, retry_payload, on_result
        )
    return _supervise_pool(
        worker, tasks, processes, timeout, max_retries, backoff,
        retry_payload, on_result,
    )


def run_replicas(
    protocol: Protocol,
    population: Population,
    *,
    replicas: int,
    engine: Any = "auto",
    seed: Optional[int] = 0,
    processes: Optional[int] = None,
    stop: Optional[Callable[[Population], bool]] = None,
    config: Optional[EngineConfig] = None,
    manifest: Optional[str] = None,
    manifest_meta: Optional[Dict[str, Any]] = None,
    manifest_append: bool = False,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff: float = 0.1,
    faults: Optional[Any] = None,
    indices: Optional[Sequence[int]] = None,
    **run_kwargs,
) -> ReplicaSet:
    """Run ``replicas`` independently seeded copies of one simulation.

    Parameters
    ----------
    replicas:
        Number of independent runs.
    engine / config:
        Engine construction travels as an
        :class:`~repro.engine.config.EngineConfig` — pass it as
        ``config=`` or directly in the ``engine`` slot; a plain registry
        name (``auto``/``count``/``batch``/``matching``/``array``) stays
        first-class.
        Each supervised task is a block of replicas (:func:`plan_block`):
        one replica, or for ``engine="ensemble"`` a fixed block of
        ``config.ensemble_chunk`` rows (default
        :data:`DEFAULT_ENSEMBLE_CHUNK`) stacked into one
        :class:`~repro.engine.ensemble.EnsembleEngine`.  The supervisor's
        ``timeout``/``max_retries`` apply per block, and an exhausted
        block records failure for every member replica.
    seed:
        Root seed; replica ``k`` gets the ``k``-th spawned child stream.
    processes:
        Worker processes (default: the ``REPRO_PROCESSES`` env override,
        else the affinity-aware CPU count; capped at ``replicas``);
        ``1`` runs in-process.
    stop:
        Convergence predicate, evaluated by each replica's engine; the
        engine's own final verdict fills ``ReplicaRecord.converged`` (the
        predicate is *not* re-evaluated on the final population, so
        stateful predicates report what the engine actually saw).
        Must be picklable (a module-level function or ``functools.partial``
        of one) when ``processes > 1``.
    manifest:
        Path of a JSONL run manifest to write (one header line plus one
        record per replica; see :mod:`repro.obs`).  The header is written
        up front and each record is flushed as its replica finishes, so a
        killed sweep leaves a usable checkpoint behind.  Any single
        replica can be re-seeded and replayed bit-identically from it.
    manifest_meta:
        Extra JSON-serializable fields merged into the manifest header
        (e.g. a ``workload`` spec that :func:`repro.obs.replay_replica`
        can rebuild the protocol from).
    manifest_append:
        Append records to an existing manifest instead of starting a new
        one (the resume path — no second header is written).
    timeout:
        Per-task wall-clock deadline in seconds; a block past it has
        its worker terminated and is retried (``processes > 1`` only — the
        in-process path cannot preempt, though workers raising a
        ``TimeoutError`` subclass still record ``status="timeout"``).
    max_retries:
        How many times a failed/timed-out block is retried before its
        replicas are recorded as ``status="failed"``/``"timeout"``; each
        retry runs on fresh seed children after exponential backoff
        (``backoff * 2**(retry-1)`` seconds).  Health-guard violations
        (:class:`~repro.engine.health.SimulationHealthError`) are never
        retried — they are deterministic in the protocol, not transient.
    faults:
        Optional :class:`repro.faults.FaultPlan` of injected failures
        (chaos testing); automatically switched to simulated mode when
        running in-process.
    indices:
        Run only these replica indices (with their original seeds) — the
        resume path of ``python -m repro sweep --resume``.  The returned
        set contains just those records.
    run_kwargs:
        Passed to ``engine.run`` (``rounds=...``, ``observe_every=...``, ...).
    """
    if replicas < 1:
        raise ValueError(
            "replicas must be a positive integer, got {}".format(replicas)
        )
    cfg = EngineConfig.coerce(engine, config=config)
    root = np.random.SeedSequence(seed)
    if indices is None:
        run_indices = list(range(replicas))
    else:
        run_indices = sorted(set(int(i) for i in indices))
        bad = [i for i in run_indices if not 0 <= i < replicas]
        if bad:
            raise ValueError(
                "replica indices {} out of range for {} replicas".format(
                    bad, replicas
                )
            )
        if not run_indices:
            raise ValueError("indices is empty: nothing to run")
    processes = _resolve_processes(processes, len(run_indices))
    plan = faults
    if plan is not None and processes <= 1:
        plan = plan.simulated()

    # every task is one block, keyed by the block's first replica index
    def payload(index: int, attempt: int):
        block = plan_block(cfg, root, replicas, index, attempt)
        return (block, protocol, population, cfg, run_kwargs, stop, plan)

    tasks = [
        (members[0], payload(members[0], 0))
        for members in replica_blocks(cfg, replicas, run_indices)
    ]

    writer = None
    if manifest is not None:
        from ..obs import ManifestWriter

        writer = ManifestWriter(
            manifest,
            append=manifest_append,
            seed_entropy=root.entropy,
            config=cfg,
            run_kwargs=run_kwargs,
            protocol=protocol,
            population=population,
            processes=processes,
            replicas=replicas,
            supervisor={
                "timeout": timeout,
                "max_retries": max_retries,
                "backoff": backoff,
            },
            meta=manifest_meta,
        )

    records_by_index: Dict[int, ReplicaRecord] = {}
    requested = set(run_indices)

    def accept(record: ReplicaRecord) -> None:
        # a resumed sweep re-runs whole blocks: only the replicas actually
        # requested may be recorded, or the re-run's duplicate ok records
        # would shadow the originals under the manifest's latest-ok-wins
        # dedup
        if record.index not in requested:
            return
        records_by_index[record.index] = record
        if writer is not None:
            writer.append_record(record)

    def on_result(outcome: TaskOutcome) -> None:
        if outcome.status == "ok":
            records = outcome.value
            for record in records:
                record.attempts = outcome.attempts
        else:
            last = plan_block(
                cfg, root, replicas, outcome.key, max(outcome.attempts - 1, 0)
            )
            records = _failure_records(last, outcome, cfg.engine)
        for record in records:
            accept(record)

    try:
        supervise(
            _block_worker,
            tasks,
            processes=processes,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            retry_payload=lambda key, base, attempt: payload(key, attempt),
            on_result=on_result,
        )
    finally:
        if writer is not None:
            writer.close()
    records = [records_by_index[k] for k in sorted(records_by_index)]
    return ReplicaSet(records)


def map_replicas(
    task: Callable[[np.random.SeedSequence], Any],
    replicas: int,
    *,
    seed: Optional[int] = 0,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    backoff: float = 0.1,
) -> List[Any]:
    """Fan a picklable ``task(seed_sequence)`` out over ``replicas`` seeds.

    The generic sibling of :func:`run_replicas` for trials that build
    their own protocol/interpreter internally (the benchmark sweeps).
    Results come back in replica order.  Runs under the same supervisor
    (``timeout``/``max_retries``/``backoff`` as in :func:`run_replicas`,
    retries on fresh seed children), but unlike :func:`run_replicas` a
    replica that exhausts its retries **raises** — generic tasks have no
    record schema to absorb a failure into.
    """
    if replicas < 1:
        raise ValueError(
            "replicas must be a positive integer, got {}".format(replicas)
        )
    root = np.random.SeedSequence(seed)
    tasks = [(k, (task, _retry_seed(root, k, 0))) for k in range(replicas)]
    outcomes = supervise(
        _task_replica,
        tasks,
        processes=_resolve_processes(processes, replicas),
        timeout=timeout,
        max_retries=max_retries,
        backoff=backoff,
        retry_payload=lambda key, base, attempt: (
            task, _retry_seed(root, key, attempt)
        ),
    )
    bad = [o for o in outcomes if o.status != "ok"]
    if bad:
        raise RuntimeError(
            "{} of {} replicas failed; first failure (replica {}, "
            "status {}): {}".format(
                len(bad), replicas, bad[0].key, bad[0].status, bad[0].error
            )
        )
    return [o.value for o in outcomes]
