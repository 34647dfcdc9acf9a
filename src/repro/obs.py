"""Run manifests: durable observability and checkpointing for sweeps.

Every multi-replica sweep is an experiment about a *distribution* of
convergence times, so losing a single replica's context (its seed, its
engine, its perf counters) means losing the ability to explain an outlier.
This module gives :func:`repro.engine.replicas.run_replicas` a structured
JSONL *run manifest*:

* line 1 — one ``{"kind": "run", ...}`` header: schema version, root seed
  entropy, the engine ``config``, run kwargs, worker count, supervisor
  settings, a protocol fingerprint (see
  :func:`repro.engine.compiled.protocol_fingerprint`) and any
  caller-supplied metadata (typically a
  :meth:`repro.workloads.Workload.spec` so the run can be rebuilt).
* one ``{"kind": "replica", ...}`` line per replica: the replica's
  seed-sequence coordinates (entropy + spawn key — enough to re-seed the
  exact generator), resolved engine name, full ``EngineStats`` payload,
  the convergence outcome, and the supervision fields
  (``status``/``error``/``attempts``).

Manifests are **append-only checkpoints**: :class:`ManifestWriter` writes
the header up front and flushes each replica's line the moment it
finishes, so a sweep killed halfway leaves a manifest describing exactly
the replicas that completed.  :func:`load_manifest` tolerates a truncated
final line (the tell-tale of a mid-write kill) and keeps the *last*
record per replica index, and :func:`resume_sweep` re-runs only the
missing/failed indices with their original seeds, appending to the same
file — the resumed manifest's convergence statistics are bit-identical to
an uninterrupted run (asserted in ``tests/test_resume.py``).

The loader side turns a manifest back into live objects:
:func:`load_manifest` parses the JSONL, :func:`replica_seed` rebuilds any
replica's :class:`numpy.random.SeedSequence`, and :func:`replay_replica`
re-runs the block one replica rode in through the same planner and worker
entry point the runner uses (:func:`repro.engine.replicas.plan_block`,
:func:`repro.engine.replicas.run_block`), giving a bit-identical record
(modulo wall time) for debugging.  Replays and
resumes verify the manifest's recorded protocol fingerprint against the
freshly built protocol, so stale code never silently replays a different
experiment.

Values in ``run_kwargs`` / ``config`` that do not survive JSON
(observer callables, rng objects) are recorded as ``{"!repr": "..."}``
placeholders and *excluded* from replay; everything the paper's sweeps
pass (budgets, observe grids, batch knobs) round-trips exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .core.population import Population
from .core.protocol import Protocol
from .engine.config import EngineConfig
from .engine.replicas import ReplicaRecord, ReplicaSet, plan_block, run_block

#: Manifest format version; bump on incompatible schema changes.
#: Version 2 added the supervision fields (``status``/``error``/
#: ``attempts``, ``seed.retry_of``) and the ``supervisor`` header block;
#: version 3 added the serialized ``config``
#: (:meth:`repro.EngineConfig.as_dict`).  Version-1/2 manifests still
#: load: replays rebuild their config from the ``engine``/``engine_opts``
#: keys those versions wrote.
SCHEMA_VERSION = 3

#: Schema versions this reader understands.
COMPATIBLE_VERSIONS = (1, 2, 3)


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection; irreplayable values become !repr."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"!repr": repr(value)}


def _replayable(mapping: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Drop the !repr placeholders a manifest cannot replay."""
    out: Dict[str, Any] = {}
    for key, value in (mapping or {}).items():
        if isinstance(value, dict) and set(value) == {"!repr"}:
            continue
        out[key] = value
    return out


def _header_config(header: Dict[str, Any]) -> EngineConfig:
    """Rebuild the sweep's :class:`~repro.EngineConfig` from a header.

    Version-3 manifests record the config directly; older ones carry only
    the ``engine``/``engine_opts`` keys, whose flat options map onto the
    same typed fields.  Both go through :meth:`EngineConfig.from_dict`.
    ``!repr`` placeholders (irreplayable values) are dropped on the way.
    """
    raw = header.get("config")
    if raw:
        data = _replayable(raw)
        if isinstance(data.get("extra"), dict):
            data["extra"] = _replayable(data["extra"])
    else:
        data = _replayable(header.get("engine_opts"))
        data["engine"] = header.get("engine") or "auto"
    return EngineConfig.from_dict(data)


def _protocol_summary(
    protocol: Optional[Protocol], population: Optional[Population]
) -> Optional[Dict[str, Any]]:
    """Name + fingerprint of the protocol actually swept (if known)."""
    if protocol is None:
        return None
    summary: Dict[str, Any] = {
        "name": protocol.name,
        "num_states": int(protocol.schema.num_states),
    }
    if population is not None:
        from .engine.compiled import protocol_fingerprint

        summary["fingerprint"] = protocol_fingerprint(
            protocol, population.counts.keys()
        )
        summary["n"] = int(population.n)
        summary["support"] = int(population.support_size)
    return summary


def _record_line(record: ReplicaRecord) -> Dict[str, Any]:
    """One replica record as its JSONL manifest line."""
    line = {
        "kind": "replica",
        "index": record.index,
        "seed": _jsonable(record.seed),
        "engine": record.engine,
        "rounds": record.rounds,
        "interactions": record.interactions,
        "wall": record.wall,
        "converged": record.converged,
        "stats": _jsonable(record.stats),
        "extra": _jsonable(record.extra),
        "status": record.status,
        "attempts": record.attempts,
    }
    if record.error is not None:
        line["error"] = record.error
    return line


class ManifestWriter:
    """Append-only JSONL manifest checkpointer.

    Writes the run header immediately on construction (``append=False``)
    and flushes one replica line per :meth:`append_record` call, so the
    manifest on disk is a valid checkpoint after every completed replica
    — kill the sweep at any point and :func:`resume_sweep` can finish it.

    With ``append=True`` no header is written; records are appended to an
    existing manifest (the resume path).  If the existing file ends in a
    partial line — a sweep killed mid-write — the file is truncated back
    to the last complete line first, so appended records never merge into
    garbage.
    """

    def __init__(
        self,
        path: str,
        *,
        append: bool = False,
        seed_entropy: Optional[int] = None,
        engine: str = "auto",
        config: Optional[EngineConfig] = None,
        run_kwargs: Optional[Dict[str, Any]] = None,
        protocol: Optional[Protocol] = None,
        population: Optional[Population] = None,
        processes: Optional[int] = None,
        replicas: Optional[int] = None,
        supervisor: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        config = EngineConfig.coerce(engine, config=config)
        self.path = path
        self.records_written = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if append:
            _truncate_partial_line(path)
            self._handle = open(path, "a")
        else:
            header: Dict[str, Any] = {
                "kind": "run",
                "schema_version": SCHEMA_VERSION,
                "root_entropy": _jsonable(seed_entropy),
                "replicas": replicas,
                "config": _jsonable(config.as_dict()),
                "run_kwargs": _jsonable(run_kwargs or {}),
                "processes": processes,
                "supervisor": _jsonable(supervisor or {}),
                "protocol": _protocol_summary(protocol, population),
            }
            for key, value in (meta or {}).items():
                header[key] = _jsonable(value)
            self._handle = open(path, "w")
            self._write_line(header)

    def _write_line(self, payload: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_record(self, record: ReplicaRecord) -> None:
        """Flush one finished replica's line to the checkpoint."""
        self._write_line(_record_line(record))
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _truncate_partial_line(path: str) -> None:
    """Drop a trailing newline-less partial line (mid-write kill residue)."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size == 0:
        return
    with open(path, "rb+") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        data = handle.read()
        keep = data.rfind(b"\n") + 1  # 0 if no complete line at all
        handle.truncate(keep)


def write_manifest(
    path: str,
    replica_set: ReplicaSet,
    *,
    seed_entropy: Optional[int] = None,
    engine: str = "auto",
    config: Optional[EngineConfig] = None,
    run_kwargs: Optional[Dict[str, Any]] = None,
    protocol: Optional[Protocol] = None,
    population: Optional[Population] = None,
    processes: Optional[int] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Write a JSONL run manifest for a completed replica fan-out.

    The one-shot convenience wrapper around :class:`ManifestWriter` (which
    :func:`~repro.engine.replicas.run_replicas` uses directly to
    checkpoint replicas as they finish).  Returns the path written.
    """
    with ManifestWriter(
        path,
        seed_entropy=seed_entropy,
        engine=engine,
        config=config,
        run_kwargs=run_kwargs,
        protocol=protocol,
        population=population,
        processes=processes,
        replicas=len(replica_set),
        meta=meta,
    ) as writer:
        for record in replica_set:
            writer.append_record(record)
    return path


@dataclass
class Manifest:
    """A parsed run manifest: one header plus per-replica records."""

    path: str
    header: Dict[str, Any]
    records: List[ReplicaRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def record(self, index: int) -> ReplicaRecord:
        """The record with replica ``index`` (not list position)."""
        for record in self.records:
            if record.index == index:
                return record
        raise KeyError(
            "manifest {} has no replica with index {}".format(self.path, index)
        )

    def replica_set(self) -> ReplicaSet:
        """The records as a :class:`ReplicaSet` (summary(), stats, ...)."""
        return ReplicaSet(self.records)

    @property
    def replicas(self) -> int:
        """Total replicas of the recorded sweep (header, else max index)."""
        declared = self.header.get("replicas")
        if declared:
            return int(declared)
        if not self.records:
            return 0
        return max(r.index for r in self.records) + 1

    @property
    def config(self) -> EngineConfig:
        """The sweep's engine config; ``ValueError`` if unreadable here."""
        return _header_config(self.header)

    def missing_indices(self) -> List[int]:
        """Replica indices without a successful (``ok``) record."""
        done = {r.index for r in self.records if r.status == "ok"}
        return [k for k in range(self.replicas) if k not in done]


def _parse_record(payload: Dict[str, Any]) -> ReplicaRecord:
    return ReplicaRecord(
        index=int(payload["index"]),
        rounds=float(payload["rounds"]),
        interactions=int(payload["interactions"]),
        wall=float(payload["wall"]),
        converged=payload.get("converged"),
        engine=payload.get("engine"),
        stats=payload.get("stats"),
        seed=payload.get("seed"),
        extra=payload.get("extra") or {},
        status=payload.get("status", "ok"),
        error=payload.get("error"),
        attempts=int(payload.get("attempts", 1)),
    )


def load_manifest(path: str) -> Manifest:
    """Parse a JSONL run manifest written by :class:`ManifestWriter`.

    Tolerates a truncated *final* line — no trailing newline, the
    signature of a sweep killed mid-write — by dropping it; malformed
    JSON anywhere else (including a complete, newline-terminated final
    line) still raises.  When a replica index appears more than once (a resumed
    sweep appends after the original lines), the ``ok`` record wins if
    one exists, else the last record; the result is sorted by index.
    """
    header: Optional[Dict[str, Any]] = None
    by_index: Dict[int, ReplicaRecord] = {}
    with open(path) as handle:
        lines = handle.readlines()
    numbered = [
        (number, line.strip())
        for number, line in enumerate(lines, start=1)
        if line.strip()
    ]
    # A torn final line has no terminating newline (ManifestWriter emits
    # complete lines only); a newline-terminated bad line is corruption.
    torn_final = bool(lines) and not lines[-1].endswith("\n")
    last_number = numbered[-1][0] if numbered else None
    for line_number, line in numbered:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_number == last_number and torn_final:
                # truncated final line: the checkpoint was killed
                # mid-write; everything before it is intact
                continue
            raise ValueError(
                "manifest {} line {} is not valid JSON: {}".format(
                    path, line_number, exc
                )
            ) from None
        kind = payload.get("kind")
        if kind == "run":
            if header is not None:
                raise ValueError(
                    "manifest {} has two header lines".format(path)
                )
            version = payload.get("schema_version")
            if version not in COMPATIBLE_VERSIONS:
                raise ValueError(
                    "manifest {} has schema_version {!r}; this reader "
                    "understands {}".format(
                        path, version, list(COMPATIBLE_VERSIONS)
                    )
                )
            header = payload
        elif kind == "replica":
            record = _parse_record(payload)
            previous = by_index.get(record.index)
            if previous is None or previous.status != "ok" or record.status == "ok":
                by_index[record.index] = record
        else:
            raise ValueError(
                "manifest {} line {} has unknown kind {!r}".format(
                    path, line_number, kind
                )
            )
    if header is None:
        raise ValueError("manifest {} has no header line".format(path))
    records = [by_index[k] for k in sorted(by_index)]
    return Manifest(path=path, header=header, records=records)


def replica_seed(record: ReplicaRecord) -> np.random.SeedSequence:
    """Rebuild the exact :class:`~numpy.random.SeedSequence` of a replica."""
    if not record.seed:
        raise ValueError(
            "replica {} carries no seed coordinates; the manifest predates "
            "seed recording".format(record.index)
        )
    return np.random.SeedSequence(
        entropy=record.seed["entropy"],
        spawn_key=tuple(record.seed["spawn_key"]),
    )


def verify_fingerprint(
    manifest: Manifest, protocol: Protocol, population: Population
) -> None:
    """Check that ``protocol`` matches the one the manifest recorded.

    Raises ``ValueError`` naming both fingerprints on mismatch — a replay
    or resume against changed code/workload parameters would otherwise
    silently simulate a *different* experiment under the recorded seeds.
    Manifests without a recorded fingerprint pass (nothing to check).
    """
    summary = manifest.header.get("protocol") or {}
    recorded = summary.get("fingerprint")
    if recorded is None:
        return
    from .engine.compiled import protocol_fingerprint

    current = protocol_fingerprint(protocol, population.counts.keys())
    if current != recorded:
        recorded_desc = "{!r} (n={})".format(
            summary.get("name"), summary.get("n")
        )
        workload = manifest.header.get("workload")
        if workload:
            recorded_desc += ", workload {!r} {}".format(
                workload.get("name"), workload.get("params")
            )
        raise ValueError(
            "manifest {path} was recorded for protocol {rec_desc} with "
            "fingerprint {rec} but the freshly built protocol {cur_desc} "
            "fingerprints to {cur}; the protocol code or workload "
            "parameters changed since the run was recorded (pass "
            "check_fingerprint=False to replay anyway)".format(
                path=manifest.path,
                rec_desc=recorded_desc,
                rec=recorded,
                cur_desc="{!r} (n={})".format(protocol.name, population.n),
                cur=current,
            )
        )


def _workload_from_header(
    manifest: Manifest,
    protocol: Optional[Protocol],
    population: Optional[Population],
    stop: Optional[Callable[[Population], bool]],
):
    """Resolve (protocol, population, stop) for a replay/resume."""
    if protocol is None or population is None:
        spec = manifest.header.get("workload")
        if not spec:
            raise ValueError(
                "manifest {} records no workload spec; pass protocol= and "
                "population= explicitly".format(manifest.path)
            )
        from .workloads import build_workload

        workload = build_workload(spec["name"], **_replayable(spec.get("params")))
        protocol = workload.protocol
        population = workload.population
        if stop is None:
            stop = workload.stop
    return protocol, population, stop


def replay_replica(
    manifest: Manifest,
    index: int,
    *,
    protocol: Optional[Protocol] = None,
    population: Optional[Population] = None,
    stop: Optional[Callable[[Population], bool]] = None,
    check_fingerprint: bool = True,
    observer: Optional[Callable[[float, Population], None]] = None,
) -> ReplicaRecord:
    """Re-run one replica of a manifest and return the fresh record.

    ``observer`` re-attaches an observation callback for the re-run.
    Observer callables cannot be serialized, so a manifest records them
    as ``!repr`` placeholders and a bare replay runs without one — but
    observer presence arms the engines' observation grid and therefore
    shapes batch boundaries, so a run recorded *with* an observer only
    replays bit-identically when one is supplied again (the service's
    grid streaming relies on this).  Rejected for ensemble manifests,
    whose engine does not support observers.

    The protocol/population/stop triple is taken from the arguments when
    given, else rebuilt from the header's ``workload`` spec (see
    :mod:`repro.workloads`).  The rebuilt protocol's fingerprint is
    verified against the manifest's recorded one (set
    ``check_fingerprint=False`` to skip, e.g. when deliberately replaying
    under modified code).  The replay re-plans the block the replica rode
    in with the runner's own :func:`~repro.engine.replicas.plan_block`
    (same members, same attempt's seeds) and re-runs it through the
    worker's :func:`~repro.engine.replicas.run_block`, so the fresh
    record is bit-identical to the original (wall time and timing
    counters excepted).  For ``engine="ensemble"`` that re-runs the whole
    block — its stacked kernels share one block-level generator — and
    returns the requested row.
    """
    record = manifest.record(index)
    protocol, population, stop = _workload_from_header(
        manifest, protocol, population, stop
    )
    if check_fingerprint:
        verify_fingerprint(manifest, protocol, population)
    cfg = manifest.config
    run_kwargs = _replayable(manifest.header.get("run_kwargs"))
    if observer is not None:
        if cfg.engine == "ensemble":
            raise ValueError(
                "manifest {} was recorded with the ensemble engine, which "
                "does not support observers; replay without observer="
                .format(manifest.path)
            )
        run_kwargs["observer"] = observer
    block = plan_block(
        cfg,
        np.random.SeedSequence(manifest.header.get("root_entropy")),
        manifest.replicas,
        record.index,
        max(record.attempts - 1, 0),
    )
    fresh = run_block(
        block, protocol, population, cfg, run_kwargs=run_kwargs, stop=stop
    )
    return fresh[block.members.index(record.index)]


def resume_sweep(
    path: str,
    *,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff: Optional[float] = None,
    faults: Optional[Any] = None,
    protocol: Optional[Protocol] = None,
    population: Optional[Population] = None,
    stop: Optional[Callable[[Population], bool]] = None,
    check_fingerprint: bool = True,
) -> ReplicaSet:
    """Finish an interrupted sweep from its manifest checkpoint.

    Loads the manifest, determines which replica indices have no ``ok``
    record (never ran, failed, or timed out), re-runs exactly those with
    their **original seeds** (spawned from the recorded root entropy),
    and appends the fresh records to the same manifest.  Returns the
    complete :class:`ReplicaSet` — bit-identical in its convergence
    statistics to the same sweep run uninterrupted, because every replica
    ends up computed from the same seed stream either way.

    ``timeout`` / ``max_retries`` / ``backoff`` default to the supervisor
    settings recorded in the header.  ``faults`` re-injects failures on
    the resumed replicas (chaos tests); leave ``None`` to actually finish
    the sweep.
    """
    from .engine.replicas import run_replicas

    manifest = load_manifest(path)
    protocol, population, stop = _workload_from_header(
        manifest, protocol, population, stop
    )
    if check_fingerprint:
        verify_fingerprint(manifest, protocol, population)
    replicas = manifest.replicas
    if replicas < 1:
        raise ValueError(
            "manifest {} declares no replica count; cannot resume".format(path)
        )
    missing = manifest.missing_indices()
    if not missing:
        return manifest.replica_set()
    cfg = manifest.config
    supervisor = manifest.header.get("supervisor") or {}
    if timeout is None:
        timeout = supervisor.get("timeout")
    if max_retries is None:
        max_retries = supervisor.get("max_retries", 2)
    if backoff is None:
        backoff = supervisor.get("backoff", 0.1)
    run_replicas(
        protocol,
        population,
        replicas=replicas,
        seed=manifest.header.get("root_entropy"),
        processes=processes,
        stop=stop,
        config=cfg,
        manifest=path,
        manifest_append=True,
        timeout=timeout,
        max_retries=max_retries,
        backoff=backoff,
        faults=faults,
        indices=missing,
        **_replayable(manifest.header.get("run_kwargs")),
    )
    return load_manifest(path).replica_set()
