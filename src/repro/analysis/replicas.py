"""Aggregation helpers for replica fan-outs.

Turns a collection of per-replica records (from
:func:`repro.engine.replicas.run_replicas` or any iterable of objects /
mappings with ``rounds`` / ``interactions`` / ``wall`` / ``converged``
entries) into the summary statistics the benches report: bootstrap medians
of the convergence time in rounds and interactions, total/median wall
clock, the converged fraction — and, when the records carry per-worker
``EngineStats`` payloads (``ReplicaRecord.stats``), a per-engine
:class:`EngineTally` of the counters that would otherwise die at the
process boundary: batches, fallbacks, kernel seconds, and the compiled
transition-table memo provenance across all R workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from .stats import Summary, summarize, tally_counters


def _get(record: Any, key: str, default=None):
    if isinstance(record, dict):
        return record.get(key, default)
    return getattr(record, key, default)


@dataclass
class EngineTally:
    """Summed ``EngineStats`` counters of every replica run on one engine.

    ``counters`` holds the numeric fields summed across replicas
    (``interactions``, ``events``, ``batches``, ``fallbacks``,
    ``kernel_seconds``, ``run_seconds``, ``stop_evals``, ...); fields no
    replica reported are absent, not zero.  ``categories`` tallies the
    non-numeric fields as ``{field: {value: replicas}}`` — in particular
    ``table_cache`` records the compiled-table provenance mix (how many
    workers compiled fresh vs read the in-process memo).
    """

    engine: str
    replicas: int
    counters: Dict[str, float] = field(default_factory=dict)
    categories: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def format(self) -> str:
        """Human-readable one-counter-per-line rendering."""
        lines = ["engine {} ({} replicas):".format(self.engine, self.replicas)]
        for name, value in self.counters.items():
            if isinstance(value, float) and not value.is_integer():
                value = "{:.6g}".format(value)
            lines.append("  {:<22} {}".format(name, value))
        for name, buckets in self.categories.items():
            mix = ", ".join(
                "{}x {}".format(count, label)
                for label, count in sorted(buckets.items())
            )
            lines.append("  {:<22} {}".format(name, mix))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def aggregate_engine_stats(records: Iterable[Any]) -> Dict[str, EngineTally]:
    """Group the records' ``stats`` dicts by engine and tally each group.

    Records without a ``stats`` payload (hand-built dicts, pre-manifest
    data) are skipped; an empty result means no record carried stats.
    """
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        stats = _get(record, "stats")
        if not stats:
            continue
        engine = stats.get("engine") or _get(record, "engine") or "unknown"
        groups.setdefault(engine, []).append(stats)
    tallies: Dict[str, EngineTally] = {}
    for engine, stats_dicts in groups.items():
        sums, categories = tally_counters(stats_dicts)
        sums.pop("rounds", None)  # per-replica, summarized elsewhere
        categories.pop("engine", None)
        tallies[engine] = EngineTally(
            engine=engine,
            replicas=len(stats_dicts),
            counters=sums,
            categories=categories,
        )
    return tallies


@dataclass
class ConvergenceStats:
    """Summary of a replica fan-out's convergence behaviour.

    ``replicas`` counts every record handed to the aggregator;
    ``failures`` tallies the non-``ok`` ones by status (``"failed"``,
    ``"timeout"``), and the convergence summaries (``rounds``,
    ``interactions``, ``wall``, ``converged_fraction``) cover only the
    ``ok`` records — a replica that died carries no meaningful timings.
    ``rounds`` is ``None`` only when every replica failed.  ``retries``
    is the total number of extra attempts the supervisor spent (0 when
    every replica succeeded first try).
    """

    replicas: int
    converged_fraction: Optional[float]
    rounds: Optional[Summary]
    interactions: Optional[Summary]
    wall: Optional[Summary]
    wall_total: float
    #: Exact total interactions across the ok records, as a Python int:
    #: at n ≥ 10⁸ a single converged run clocks ~10¹⁵ interactions, so a
    #: float sum across replicas loses integer precision past 2⁵³ (the
    #: :class:`Summary` above is still float — fine for quantiles, not
    #: for the ledger).  ``None`` when some record lacks the field.
    interactions_total: Optional[int] = None
    #: Per-engine :class:`EngineTally` of the workers' ``EngineStats``
    #: (empty when the records carry no stats payloads).
    engines: Dict[str, EngineTally] = field(default_factory=dict)
    #: Non-``ok`` record tally, e.g. ``{"failed": 1, "timeout": 2}``.
    failures: Dict[str, int] = field(default_factory=dict)
    #: Total retry attempts across all records (sum of ``attempts - 1``).
    retries: int = 0

    @property
    def ok(self) -> int:
        """Number of records the convergence summaries are built from."""
        return self.replicas - sum(self.failures.values())

    def __str__(self) -> str:
        parts = ["{} replicas".format(self.replicas)]
        if self.failures:
            mix = ", ".join(
                "{} {}".format(count, status)
                for status, count in sorted(self.failures.items())
            )
            parts.append("{} failed ({})".format(
                sum(self.failures.values()), mix
            ))
        if self.retries:
            parts.append("{} retries".format(self.retries))
        if self.converged_fraction is not None:
            parts.append("{:.0%} converged".format(self.converged_fraction))
        if self.rounds is not None:
            parts.append("rounds {}".format(self.rounds))
        if self.wall is not None:
            parts.append("wall {:.2f}s total".format(self.wall_total))
        for engine, tally in self.engines.items():
            bits = ["{} x{}".format(engine, tally.replicas)]
            for key in ("batches", "fallbacks"):
                if key in tally.counters:
                    bits.append("{} {:.0f}".format(key, tally.counters[key]))
            if "kernel_seconds" in tally.counters:
                bits.append(
                    "kernel {:.2f}s".format(tally.counters["kernel_seconds"])
                )
            parts.append("[{}]".format(" ".join(bits)))
        return ", ".join(parts)


def aggregate_convergence(records: Iterable[Any]) -> ConvergenceStats:
    """Aggregate per-replica records into :class:`ConvergenceStats`.

    Records are partitioned by ``status`` (absent = ``"ok"``): the
    convergence summaries cover only the ok records, while failed and
    timed-out ones land in the ``failures`` tally — their NaN rounds
    must not poison the bootstrap medians.  Every ok record must carry a
    ``rounds`` entry; a missing/None value raises a ``ValueError``
    naming the field and the offending record index instead of letting
    ``float(None)`` surface an opaque ``TypeError`` deep in numpy.
    """
    records = list(records)
    if not records:
        raise ValueError("no replica records to aggregate")
    failures: Dict[str, int] = {}
    retries = 0
    ok_records: List[Any] = []
    for record in records:
        retries += max(int(_get(record, "attempts", 1) or 1) - 1, 0)
        status = _get(record, "status", "ok") or "ok"
        if status == "ok":
            ok_records.append(record)
        else:
            failures[status] = failures.get(status, 0) + 1
    rounds: List[float] = []
    for position, record in enumerate(ok_records):
        value = _get(record, "rounds")
        if value is None:
            index = _get(record, "index", position)
            raise ValueError(
                "replica record {} (index {}) has no 'rounds' field; "
                "every ok record must report its elapsed parallel "
                "time".format(position, index)
            )
        rounds.append(float(value))
    interactions = [_get(r, "interactions") for r in ok_records]
    walls = [_get(r, "wall") for r in ok_records]
    flags = [_get(r, "converged") for r in ok_records]
    flags = [f for f in flags if f is not None]
    have_interactions = bool(ok_records) and all(
        i is not None for i in interactions
    )
    have_wall = bool(ok_records) and all(w is not None for w in walls)
    return ConvergenceStats(
        replicas=len(records),
        converged_fraction=(sum(flags) / len(flags)) if flags else None,
        rounds=summarize(rounds) if rounds else None,
        interactions=summarize([float(i) for i in interactions])
        if have_interactions
        else None,
        wall=summarize([float(w) for w in walls]) if have_wall else None,
        wall_total=float(sum(float(w) for w in walls)) if have_wall else 0.0,
        interactions_total=sum(int(i) for i in interactions)
        if have_interactions
        else None,
        engines=aggregate_engine_stats(ok_records),
        failures=failures,
        retries=retries,
    )
