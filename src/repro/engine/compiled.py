"""Closed transition tables: compile, fingerprint and cache.

The paper's large-constant protocols (oscillator ``P_o``, the phase clock
``C_o``, the ``#X`` control processes) have packed state spaces in the
hundreds while only a handful of state pairs are ever populated at once.
:func:`compile_table` closes the reachable state space of an initial
support once (:func:`repro.engine.table.reachable_codes`) and returns a
*closed* :class:`~repro.engine.table.TransitionTable`: every ordered pair
of the closure owns a CSR row, pair ``(i, j)`` row ``i * q + j``, in the
deterministic BFS index order — the same order whichever engine or
replica asks, so shared tables never make results depend on history.

Closed tables are cached twice: an in-process memo (replica workers and
repeated constructions reuse the arrays for free) and an on-disk ``.npz``
cache keyed by a protocol fingerprint.  The fingerprint covers the kernel
code version, the schema layout, every rule's description, weight and
branch probabilities, a transition probe over the initial support, and the
initial support itself — mutating any of these misses the cache (see
``tests/test_compiled_table.py``).  Dynamic rules
(:class:`~repro.core.rules.DynamicRule`) are fingerprinted through their
name and the probe, so changing a dynamic rule's behaviour *without*
renaming it and without affecting initial-support transitions requires a
manual cache flush (or a ``CODE_VERSION`` bump).  A cache entry whose
arrays or probabilities fail validation is discarded and recompiled.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from ..core.protocol import Protocol
from .table import TransitionTable

#: Bump to invalidate every on-disk compiled table (covers kernel-layout
#: changes in this module).
CODE_VERSION = 1

#: Ceiling on the reachable closure; above it compilation refuses (the
#: batch engines then run on an open :data:`~repro.engine.table.LazyTable`).
COMPILE_STATE_LIMIT = 1024

#: Environment variable overriding the on-disk cache directory.  Set to
#: ``0`` / ``off`` / ``none`` to disable the disk cache entirely.
CACHE_ENV = "REPRO_TABLE_CACHE"

#: In-process memo: fingerprint -> closed table (shared, read-only arrays).
_MEMO: Dict[str, TransitionTable] = {}

#: Process-wide count of corrupt on-disk cache entries discarded by
#: :meth:`TransitionTable.load` (mutable cell so the loader can bump it).
_CORRUPT_EVENTS = [0]

#: Per-fingerprint compile locks: concurrent service requests for the
#: same protocol serialize on their fingerprint and compile once (the
#: first thread populates the memo/disk entry, the rest hit it), while
#: different protocols compile in parallel.
_LOCKS: Dict[str, threading.Lock] = {}
_LOCKS_GUARD = threading.Lock()


def _fingerprint_lock(fingerprint: str) -> threading.Lock:
    with _LOCKS_GUARD:
        lock = _LOCKS.get(fingerprint)
        if lock is None:
            lock = _LOCKS[fingerprint] = threading.Lock()
        return lock


def clear_memo() -> None:
    """Drop the in-process closed-table memo (tests / fault injection)."""
    _MEMO.clear()


def corrupt_cache_events() -> int:
    """Total corrupt cache entries this process has discarded so far."""
    return _CORRUPT_EVENTS[0]


def default_cache_dir() -> Optional[str]:
    """Resolve the on-disk cache directory (``None`` = disk cache off)."""
    env = os.environ.get(CACHE_ENV)
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none"):
            return None
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "tables")


def protocol_fingerprint(protocol: Protocol, initial_codes: Iterable[int]) -> str:
    """Stable digest of (kernel version, schema, rules, initial support).

    Covers everything the compiled arrays depend on: the code version of
    this module, the schema's field layout, each thread's name and each
    rule's description / weight / branch probabilities, a probe of the
    aggregated transition outcomes over the initial support, and the
    sorted initial codes themselves.
    """
    h = hashlib.sha256()

    def feed(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    feed("repro-compiled-table", CODE_VERSION)
    for field in protocol.schema.fields:
        feed(field.name, field.size, field.values, field.boolean)
    feed(protocol.name, len(protocol.threads))
    for thread in protocol.threads:
        feed(thread.name, len(thread.rules))
        for rule in thread.rules:
            feed(
                type(rule).__name__,
                rule.describe(),
                rule.weight,
                tuple(b.probability for b in rule.branches),
            )
    initial = sorted(int(c) for c in initial_codes)
    feed("initial", initial)
    # transition probe: aggregated outcomes over the initial support catch
    # behavioural changes (e.g. in DynamicRule outcome functions) that the
    # rule descriptions alone cannot see
    pairs = [(a, b) for a in initial for b in initial]
    for (a, b), (outcomes, p_change) in zip(pairs, protocol.transitions(pairs)):
        feed(a, b, sorted(outcomes), p_change)
    return h.hexdigest()


class TableSource(NamedTuple):
    """How one engine obtained its closed table — one per acquisition.

    ``cache`` is the provenance ("miss" freshly compiled, "hit" loaded
    from disk, "memo" in-process reuse, "off" compiled with caching off,
    "corrupt" a cache entry failed to load and was recompiled);
    ``seconds`` is the compile time *this* acquisition spent (0 unless it
    built the table); ``corrupt`` counts the cache entries it discarded.
    """

    cache: str
    seconds: float
    corrupt: int = 0

    def as_stats(self) -> Dict[str, object]:
        """This acquisition under its ``EngineStats`` names."""
        stats: Dict[str, object] = {
            "table_cache": self.cache, "table_compile_seconds": self.seconds,
        }
        if self.corrupt:
            stats["cache_corrupt"] = self.corrupt
        return stats


def acquire_table(
    protocol: Protocol,
    initial_codes: Iterable[int],
    limit: Optional[int] = None,
    cache: object = "auto",
) -> Tuple[TransitionTable, TableSource]:
    """Compile (or fetch a cached) closed table and say how it was obtained.

    ``cache`` is ``"auto"`` (in-process memo + default disk directory, see
    :func:`default_cache_dir`), ``None``/``False`` (no caching at all), or
    an explicit directory path.  Raises ``RuntimeError`` when the
    reachable closure exceeds ``limit`` states (default
    :data:`COMPILE_STATE_LIMIT`, read at call time) — callers treat that as
    "use an open :data:`~repro.engine.table.LazyTable`".  The returned
    :class:`TableSource` belongs to this call alone, so shared memo
    entries never carry another caller's compile time.
    """
    initial = sorted(int(c) for c in initial_codes)
    if not initial:
        raise ValueError("cannot compile a table for an empty support")
    if limit is None:
        limit = COMPILE_STATE_LIMIT
    fingerprint = protocol_fingerprint(protocol, initial)
    if cache is None or cache is False:
        table = TransitionTable.from_protocol(
            protocol, initial, limit=limit, fingerprint=fingerprint
        )
        return table, TableSource("off", table.compile_seconds)
    # serialize per fingerprint: concurrent requests for the same protocol
    # compile exactly once (whoever wins populates the memo + disk entry,
    # the rest fall through to it); unrelated protocols stay concurrent
    with _fingerprint_lock(fingerprint):
        table = _MEMO.get(fingerprint)
        source = TableSource("memo", 0.0)
        cache_dir = default_cache_dir() if cache == "auto" else str(cache)
        corrupt_before = _CORRUPT_EVENTS[0]
        if table is None and cache_dir is not None:
            table = TransitionTable.load(protocol, fingerprint, cache_dir)
            source = TableSource("hit", 0.0)
        if table is not None:
            if table.num_states > limit:
                raise RuntimeError(
                    "reachable state space exceeds limit={} states".format(limit)
                )
        else:
            table = TransitionTable.from_protocol(
                protocol, initial, limit=limit, fingerprint=fingerprint
            )
            corrupted = _CORRUPT_EVENTS[0] - corrupt_before
            source = TableSource(
                "corrupt" if corrupted else "miss", table.compile_seconds,
                corrupted,
            )
            if cache_dir is not None:
                table.save(cache_dir)
        _MEMO[fingerprint] = table
        return table, source


def compile_table(
    protocol: Protocol,
    initial_codes: Iterable[int],
    limit: Optional[int] = None,
    cache: object = "auto",
) -> TransitionTable:
    """The closed table of :func:`acquire_table`, without its provenance."""
    return acquire_table(protocol, initial_codes, limit=limit, cache=cache)[0]
