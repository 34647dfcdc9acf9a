"""Closed transition tables: compile, fingerprint and memoize.

The paper's large-constant protocols (oscillator ``P_o``, the phase clock
``C_o``, the ``#X`` control processes) have packed state spaces in the
hundreds while only a handful of state pairs are ever populated at once.
:func:`compile_table` closes the reachable state space of an initial
support once (:func:`repro.engine.table.reachable_codes`) and returns a
*closed* :class:`~repro.engine.table.TransitionTable`: every ordered pair
of the closure owns a CSR row, pair ``(i, j)`` row ``i * q + j``, in the
deterministic BFS index order — the same order whichever engine or
replica asks, so shared tables never make results depend on history.

Closed tables are memoized in-process, keyed by a protocol fingerprint:
replicas and repeated constructions reuse the arrays for free, and a
fresh process compiles once.  The fingerprint covers the schema layout,
every rule's description, weight and branch probabilities, a transition
probe over the initial support, and the initial support itself —
mutating any of these misses the memo (see
``tests/test_compiled_table.py``).  Run manifests record it, so a replay
can check it is running the protocol a sweep ran.  Dynamic rules
(:class:`~repro.core.rules.DynamicRule`) are fingerprinted through their
name and the probe, so changing a dynamic rule's behaviour *without*
renaming it and without affecting initial-support transitions needs
:func:`clear_memo` in a process that already compiled it.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from ..core.protocol import Protocol
from .table import TransitionTable

#: Ceiling on the reachable closure; above it compilation refuses (the
#: batch engines then run on an open :data:`~repro.engine.table.LazyTable`).
COMPILE_STATE_LIMIT = 1024

#: In-process memo: fingerprint -> closed table (shared, read-only arrays).
_MEMO: Dict[str, TransitionTable] = {}

#: Per-fingerprint compile locks: concurrent service requests for the
#: same protocol serialize on their fingerprint and compile once (the
#: first thread populates the memo, the rest read it), while
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
    """Drop the in-process closed-table memo."""
    _MEMO.clear()


def protocol_fingerprint(protocol: Protocol, initial_codes: Iterable[int]) -> str:
    """Stable digest of (schema, rules, initial support).

    Covers everything the compiled arrays depend on: the schema's field
    layout, each thread's name and each rule's description / weight /
    branch probabilities, a probe of the aggregated transition outcomes
    over the initial support, and the sorted initial codes themselves.
    """
    h = hashlib.sha256()

    def feed(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    # the prefix is part of the digest every recorded manifest carries
    feed("repro-compiled-table", 1)
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

    ``cache`` is the provenance ("miss" freshly compiled, "memo"
    in-process reuse); ``seconds`` is the compile time *this* acquisition
    spent (0 unless it built the table).
    """

    cache: str
    seconds: float


def acquire_table(
    protocol: Protocol,
    initial_codes: Iterable[int],
    limit: Optional[int] = None,
) -> Tuple[TransitionTable, TableSource]:
    """Compile (or fetch from the memo) a closed table, and say which.

    Raises ``RuntimeError`` when the reachable closure exceeds ``limit``
    states (default :data:`COMPILE_STATE_LIMIT`, read at call time) —
    callers treat that as "use an open
    :data:`~repro.engine.table.LazyTable`".  The returned
    :class:`TableSource` belongs to this call alone, so shared memo
    entries never carry another caller's compile time.
    """
    initial = sorted(int(c) for c in initial_codes)
    if not initial:
        raise ValueError("cannot compile a table for an empty support")
    if limit is None:
        limit = COMPILE_STATE_LIMIT
    fingerprint = protocol_fingerprint(protocol, initial)
    # serialize per fingerprint: concurrent requests for the same protocol
    # compile exactly once (whoever wins populates the memo, the rest
    # read it); unrelated protocols stay concurrent
    with _fingerprint_lock(fingerprint):
        table = _MEMO.get(fingerprint)
        if table is not None:
            if table.num_states > limit:
                raise RuntimeError(
                    "reachable state space exceeds limit={} states".format(limit)
                )
            return table, TableSource("memo", 0.0)
        table = TransitionTable.from_protocol(
            protocol, initial, limit=limit, fingerprint=fingerprint
        )
        _MEMO[fingerprint] = table
        return table, TableSource("miss", table.compile_seconds)


def compile_table(
    protocol: Protocol,
    initial_codes: Iterable[int],
    limit: Optional[int] = None,
) -> TransitionTable:
    """The closed table of :func:`acquire_table`, without its provenance."""
    return acquire_table(protocol, initial_codes, limit=limit)[0]
