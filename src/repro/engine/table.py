"""The transition table: indexed states and per-pair CSR outcome rows.

Engines never walk a protocol's rule list per interaction.  They read one
:class:`TransitionTable`, whose layout is an indexed state space plus one
outcome row per ordered state pair:

* ``codes``  — int64[q], the packed state code of every dense index;
* ``off``    — int64[R + 1], row ``r`` owns ``off[r] : off[r + 1]`` of
  the outcome arrays;
* ``out_a`` / ``out_b`` — int64[nnz], outcome states as *dense indices*;
* ``out_p``  — float64[nnz], outcome probabilities (protocol order);
* ``p_row``  — float64[R], each row's change probability (the sequential
  sum of its ``out_p``).

There are two ways to fill a table:

* :func:`LazyTable(protocol) <LazyTable>` is an empty, *open* table.  It
  indexes states and appends rows as pairs become active, each row the
  one :meth:`Protocol.transitions` gives, float for float, so its size
  follows the occupied support, never the packed space (the paper's
  compiled programs pack ~10⁹ states but touch a few thousand).
* :func:`repro.engine.compiled.compile_table` fills a *closed* table from
  the reachable closure of an initial support: every ordered pair of the
  closure has a row, and pair ``(i, j)`` owns row ``i * q + j``.  That
  fixed geometry is what the alias and ensemble kernels index directly
  (:attr:`TransitionTable.p_change_matrix`).  The closure and its rows
  are built with array operations over each thread's footprint memo
  (:class:`_Closure`); the rows equal :meth:`Protocol.transition`'s,
  float for float.

An open table's indices follow the order in which states were first seen,
which depends on whichever engine touched them first; engines that order
work by state must use :meth:`TransitionTable.canonical` so their sample
paths do not depend on that history.  A closed table's (BFS) index order
is already canonical.

There is one way into a table, by dense index:
:meth:`~TransitionTable.indices` and :meth:`~TransitionTable.state_index`
turn codes into indices (an open table indexes unseen codes), and
:meth:`~TransitionTable.rows` turns index pairs into row ids, filling an
open table's missing rows.  The exact count engine samples each event
from one row's ``out_p`` slice; :meth:`~TransitionTable.apply` applies a
batch of agent pairs to an array of dense indices for the agent-array
engines; the count-batch engines and the mean-field system read
:meth:`~TransitionTable.rows` and :meth:`~TransitionTable.p_change_block`
over their states.
"""

from __future__ import annotations

import time
from array import array
from math import isqrt
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.protocol import FootprintMemo, Protocol, Thread, Views

class _Column:
    """Append-only numpy column with amortized doubling."""

    __slots__ = ("buf", "size")

    def __init__(self, values: np.ndarray):
        self.buf = values
        self.size = len(values)

    def extend(self, values) -> np.ndarray:
        """Append ``values``; returns the live view of the whole column."""
        end = self.size + len(values)
        if end > len(self.buf):
            grown = np.empty(max(end, 2 * len(self.buf), 64), self.buf.dtype)
            grown[: self.size] = self.buf[: self.size]
            self.buf = grown
        self.buf[self.size : end] = values
        self.size = end
        return self.buf[:end]


class _Lookup:
    """Vectorized reads of the positions in an append-only list of
    distinct keys ``>= 0``.

    :meth:`add` appends keys, each taking the next position.  A snapshot
    answers a read in numpy: a direct-address array while the keys are
    dense, else the sorted keys and ``searchsorted``.  Keys added since
    the last read are written into a direct array in place when they fit
    it, so a dense list never misses a key it holds.  Otherwise they wait
    (the read misses them) until the reads have missed as many keys as
    the snapshot holds, and then the snapshot is rebuilt, so a large
    sparse list costs O(1) per key.  A direct array spans every key the
    density rule admits at its size, so a growing list is written in
    place until it has about quadrupled.
    """

    __slots__ = ("direct", "keys", "values", "size", "pending", "misses")

    def __init__(self, keys: Iterable[int] = ()):
        # the empty snapshot: every key reads the spare -1 slot and misses
        self.direct: Optional[np.ndarray] = np.full(1, -1, dtype=np.int64)
        self.keys: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.size = 0  # keys in the snapshot
        self.pending: List[int] = list(keys)  # keys added since, in order
        self.misses = 0  # keys read since the snapshot was built, missed

    def add(self, keys: Iterable[int]) -> None:
        """Append ``keys``, none of them in the list yet."""
        self.pending.extend(keys)

    def __call__(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each key's position, -1 where the snapshot misses it, and the
        indices of those misses."""
        if self.pending and (self.direct is not None or self.misses >= self.size):
            self._fold()
        if self.direct is not None:
            found = self.direct.take(keys, mode="clip")
        else:
            pos = np.minimum(np.searchsorted(self.keys, keys), self.size - 1)
            found = np.where(self.keys[pos] == keys, self.values[pos], -1)
        miss = (found < 0).nonzero()[0]
        self.misses += len(miss)
        return found, miss

    def _fold(self) -> None:
        pending, direct = self.pending, self.direct
        end = self.size + len(pending)
        if direct is not None and max(pending) < len(direct) - 1:
            direct[pending] = range(self.size, end)
        else:
            if direct is not None:
                keys = np.flatnonzero(direct >= 0)
                values = direct[keys]
            else:
                keys, values = self.keys, self.values
            keys = np.concatenate([keys, np.array(pending, dtype=np.int64)])
            values = np.concatenate([values, np.arange(self.size, end)])
            if int(keys.max()) < 4 * end + 4096:
                # one spare -1 slot: clipped out-of-range keys read it as a miss
                self.direct = np.full(4 * end + 4097, -1, dtype=np.int64)
                self.direct[keys] = values
                self.keys = self.values = None
            else:
                order = keys.argsort(kind="stable")
                self.direct, self.keys, self.values = None, keys[order], values[order]
            self.misses = 0
        self.pending = []
        self.size = end


def _pair_key(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Szudzik pairing of two int64 index arrays: one key per index pair,
    all below ``(max(i, j) + 1)²``, so small tables get small, dense pair
    keys (see :class:`_Lookup`)."""
    # j² + i when i < j, else i² + i + j: max(i, j)² + i, plus j when i >= j
    top = np.maximum(i, j)
    key = top * top
    key += i
    key += j * (i >= j)
    return key


class _KeyedThread(NamedTuple):
    """One thread of an open table's row plan.

    A memoized thread (``memo`` set) holds, per state index, the
    initiator's projection times ``memo.span_b`` (``key_a``) and the
    responder's projection (``key_b``), so a pair's memo key is one sum.
    A thread without a memo computes every row on the full path.
    """

    memo: Optional[FootprintMemo]
    thread: Thread
    draws: List[float]
    key_a: Optional[List[int]]
    key_b: Optional[List[int]]

    @classmethod
    def of(cls, memo, thread, draws) -> "_KeyedThread":
        if memo is None:
            return cls(None, thread, draws, None, None)
        return cls(memo, thread, draws, [], [])

    def project(self, codes: List[int]) -> None:
        """Append the projections of the next indexed states ``codes``."""
        memo = self.memo
        if memo is not None:
            span = memo.span_b
            self.key_a.extend(memo.project_a(code) * span for code in codes)
            self.key_b.extend(memo.project_b(code) for code in codes)


class TransitionTable:
    """Indexed states plus one CSR outcome row per ordered state pair.

    ``TransitionTable(protocol)`` (alias :data:`LazyTable`) is an empty
    open table; :func:`repro.engine.compiled.compile_table` (or
    :meth:`from_protocol`) returns a closed one over a reachable closure.
    See the module docstring for the layout.
    """

    def __init__(
        self,
        protocol: Protocol,
        codes: Optional[np.ndarray] = None,
        p_change: Optional[np.ndarray] = None,
        off: Optional[np.ndarray] = None,
        out_a: Optional[np.ndarray] = None,
        out_b: Optional[np.ndarray] = None,
        out_p: Optional[np.ndarray] = None,
        *,
        fingerprint: str = "",
        compile_seconds: float = 0.0,
    ):
        self.protocol = protocol
        #: closed tables hold every pair of a reachable closure and never
        #: grow; open tables index states and rows on first use
        self.closed = codes is not None
        if codes is None:
            codes = np.zeros(0, dtype=np.int64)
            p_change = np.zeros(0, dtype=np.float64)
            off = np.zeros(1, dtype=np.int64)
            out_a = np.zeros(0, dtype=np.int64)
            out_b = np.zeros(0, dtype=np.int64)
            out_p = np.zeros(0, dtype=np.float64)
        self.codes = codes
        self.p_row = np.asarray(p_change).reshape(-1)
        self.off = off
        self.out_a = out_a
        self.out_b = out_b
        self.out_p = out_p
        self.index: Dict[int, int] = {int(c): i for i, c in enumerate(codes)}
        self.fingerprint = fingerprint
        #: wall seconds spent building this table's closure (0 when open)
        self.compile_seconds = compile_seconds
        #: rows an open table has computed
        self.misses = 0
        self._pair_row: Dict[int, int] = {}  # open tables: pair key -> row
        self._reset_caches()

    def _reset_caches(self) -> None:
        # numpy reads of ``index`` and ``_pair_row``, whose keys are in
        # the order of their values (see :class:`_Lookup`)
        self._state_lookup = _Lookup(self.index)
        self._row_lookup = _Lookup(self._pair_row)
        self._columns: Optional[Dict[str, _Column]] = None
        # open tables: the row plan's threads, which hold each indexed
        # state's footprint projections, and each state's code as a
        # Python int (see :meth:`_plan`)
        self._threads: Optional[List[_KeyedThread]] = None
        self._code_list: List[int] = []

    def __getstate__(self):
        state = dict(self.__dict__)
        for key in ("_state_lookup", "_row_lookup", "_columns", "_threads", "_code_list"):
            del state[key]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._reset_caches()

    # -- sizing ----------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.codes)

    @property
    def num_pairs(self) -> int:
        """Rows materialized so far (``q²`` for a closed table)."""
        return len(self.p_row)

    cached_pairs = num_pairs

    @property
    def p_change_matrix(self) -> np.ndarray:
        """The ``(q, q)`` change-probability matrix of a closed table."""
        if not self.closed:
            raise ValueError("an open table has no dense p_change matrix")
        q = len(self.codes)
        return self.p_row.reshape(q, q)

    # -- growth (open tables only) ---------------------------------------------
    def _extend(self, **values) -> None:
        if self._columns is None:
            self._columns = {
                name: _Column(getattr(self, name))
                for name in ("codes", "p_row", "off", "out_a", "out_b", "out_p")
            }
        for name, vals in values.items():
            if len(vals):
                setattr(self, name, self._columns[name].extend(vals))

    def state_index(self, code: int) -> int:
        """Dense index of a state code, indexing it first on an open table."""
        idx = self.index.get(code)
        return self._index_codes((code,))[0] if idx is None else idx

    def indices(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state_index` over an int64 code array; unseen
        codes are indexed in ascending code order."""
        return self._find(self._state_lookup, self.index, codes, self._index_codes)

    def census(self, idx: np.ndarray) -> Dict[int, int]:
        """``{code: count}`` of an array of dense indices, in code order."""
        counts = np.bincount(idx)
        live = np.flatnonzero(counts)
        codes = self.codes[live]
        order = np.argsort(codes)
        return dict(zip(codes[order].tolist(), counts[live[order]].tolist()))

    def _index_codes(self, codes: Iterable[int]) -> array:
        """Dense indices of ``codes``; unseen codes are indexed in order of
        first appearance, and ``codes`` grows once."""
        index = self.index
        found = array("q")
        fresh: List[int] = []
        for code in codes:
            idx = index.get(code)
            if idx is None:
                if self.closed:
                    raise ValueError(
                        "state {} is outside the compiled reachable space "
                        "(compile from the population's initial support)".format(
                            code
                        )
                    )
                idx = index[code] = len(self.codes) + len(fresh)
                fresh.append(code)
            found.append(idx)
        if fresh:
            self._extend(codes=fresh)
            self._state_lookup.add(fresh)
        return found

    def _plan(self) -> List[_KeyedThread]:
        """The row plan, every memoized thread holding the projections of
        every indexed state, and ``_code_list`` every indexed state's
        code."""
        threads = self._threads
        if threads is None:
            threads = self._threads = [
                _KeyedThread.of(*plan) for plan in self.protocol.row_plan()
            ]
        known = len(self._code_list)
        if known < len(self.codes):
            new = self.codes[known:].tolist()
            for thread in threads:
                thread.project(new)
            self._code_list.extend(new)
        return threads

    def _append_rows(self, keys: List[int]) -> None:
        """Compute the rows of the ascending pair keys ``keys`` (see
        :func:`_pair_key`), whose states are indexed, and append them.

        A row sums, in thread, rule and branch order, the changing
        outcomes of every thread; a memoized thread reads its row from its
        :class:`~repro.core.protocol.FootprintMemo` under the key of the
        pair's two projections, which the table keeps per state.  That is
        :meth:`Protocol.transitions`, float for float.  Each column grows
        once per batch, so a batch costs O(its rows + their outcomes),
        never O(table).  New outcome states are indexed row by row, a
        row's ``out_a`` codes before its ``out_b`` codes, and ``p_row`` is
        each row's sequential sum.  A batch whose transitions raise leaves
        the table unchanged.
        """
        index = self.index
        first = len(self.codes)
        threads = self._plan()
        codes = self._code_list
        fresh: List[int] = []
        views = Views(self.protocol.schema)  # each code decoded once per batch
        out_a, out_b, off = array("q"), array("q"), array("q")
        out_p, p_row = array("d"), array("d")
        nnz = len(self.out_p)
        try:
            for pair in keys:
                # invert the Szudzik pairing of :func:`_pair_key`
                i = isqrt(pair)
                j = pair - i * i
                i, j = (j, i) if j < i else (i, j - i)
                code_a, code_b = codes[i], codes[j]
                merged: Dict[Tuple[int, int], float] = {}
                for memo, thread, draws, key_a, key_b in threads:
                    if memo is not None:
                        key = key_a[i] + key_b[j]
                        row = memo.rows.get(key)
                        if row is None:
                            row = memo.compute(key, views[code_a], views[code_b])
                        for pos, delta_a, delta_b, branch_p in row:
                            out = (code_a + delta_a, code_b + delta_b)
                            merged[out] = merged.get(out, 0.0) + draws[pos] * branch_p
                        continue
                    a, b = views[code_a], views[code_b]
                    for rule, draw_p in zip(thread.rules, draws):
                        for new_a, new_b, branch_p in rule.outcomes(a, b):
                            if new_a != code_a or new_b != code_b:
                                out = (new_a, new_b)
                                merged[out] = merged.get(out, 0.0) + draw_p * branch_p
                total = 0.0
                for a, _ in merged:
                    idx = index.get(a)
                    if idx is None:
                        idx = index[a] = first + len(fresh)
                        fresh.append(a)
                    out_a.append(idx)
                for _, b in merged:
                    idx = index.get(b)
                    if idx is None:
                        idx = index[b] = first + len(fresh)
                        fresh.append(b)
                    out_b.append(idx)
                for p in merged.values():
                    out_p.append(p)
                    total += p
                nnz += len(merged)
                off.append(nnz)
                p_row.append(total)
        except BaseException:
            for new in fresh:
                del index[new]
            raise
        base = len(self.p_row)
        self._extend(
            codes=fresh,
            p_row=p_row,
            off=off,
            out_a=out_a,
            out_b=out_b,
            out_p=out_p,
        )
        self._pair_row.update(zip(keys, range(base, base + len(keys))))
        self._row_lookup.add(keys)
        if fresh:
            self._state_lookup.add(fresh)
        self.misses += len(keys)

    # -- rows ------------------------------------------------------------------
    def rows(self, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Row ids of the index pairs ``(ia, ib)``, computing missing rows."""
        if self.closed:
            return ia * len(self.codes) + ib
        ia = np.asarray(ia, dtype=np.int64)
        ib = np.asarray(ib, dtype=np.int64)
        return self._find(self._row_lookup, self._pair_row, _pair_key(ia, ib), self._append_rows)

    @staticmethod
    def _find(lookup: _Lookup, known: Dict[int, int], keys: np.ndarray, add) -> np.ndarray:
        """The values of ``keys`` in ``known`` (the state index or the row
        of each pair key), read through ``lookup``.

        The keys it misses are taken as Python ints; those not in
        ``known`` go to ``add`` once each, in ascending order, which enters
        them in ``known`` and ``lookup``.  Then the misses are read again;
        keys that a waiting snapshot still misses are read from ``known``.
        """
        found, miss = lookup(keys)
        if len(miss):
            lost = keys[miss]
            new = sorted(set(lost.tolist()).difference(known))
            if new:
                add(new)
            again, stale = lookup(lost)
            if len(stale):
                again[stale] = [known[key] for key in lost[stale].tolist()]
            found[miss] = again
        return found

    def p_change_block(self, act: np.ndarray) -> np.ndarray:
        """The ``(a, a)`` change probabilities among the indices ``act``."""
        a = len(act)
        rows = self.rows(np.repeat(act, a), np.tile(act, a))  # may grow p_row
        return self.p_row[rows].reshape(a, a)

    def canonical(self, idx: np.ndarray) -> np.ndarray:
        """``idx`` in a state order that does not depend on table history.

        A closed table's index order (the BFS order of its closure) is
        canonical; an open table's follows first use, so it sorts by code.
        """
        if self.closed:
            return idx
        return idx[np.argsort(self.codes[idx], kind="stable")]

    # -- vectorized agent-array application --------------------------------------
    def apply(
        self,
        agents: np.ndarray,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Apply one interaction per (initiator, responder) agent pair.

        ``agents`` holds each agent's state as a dense index of this table
        (see :meth:`indices`), and the outcomes are written back as
        indices.  All agent positions must be distinct across ``idx_a``
        and ``idx_b``.  One uniform draw per pair, in pair order, decides
        both whether it fires (``u < p_change``) and which outcome it
        takes (the first whose cumulative probability exceeds ``u``), so
        the result depends on the rows' contents, never on the table's
        index order.  Returns the number of pairs that changed state.
        """
        if len(idx_a) == 0:
            return 0
        rows = self.rows(agents[idx_a], agents[idx_b])
        u = rng.random(len(rows))
        hits = (u < self.p_row[rows]).nonzero()[0]
        if not len(hits):
            return 0
        rows = rows[hits]
        pick = self.off[rows]
        width = self.off[rows + 1] - pick
        widest = int(width.max())
        if widest > 1:
            # a fired pair's ``u`` is below its row's total, and the
            # columns past a row (clipped reads of the next rows' outcome
            # probabilities, all >= 0) only add to it, so they never count
            cum = self.out_p.take(
                pick[:, None] + np.arange(widest), mode="clip"
            ).cumsum(axis=1)
            pick = pick + np.minimum((cum <= u[hits][:, None]).sum(axis=1), width - 1)
        agents[idx_a[hits]] = self.out_a[pick]
        agents[idx_b[hits]] = self.out_b[pick]
        return int(len(hits))

    # -- closure --------------------------------------------------------------------
    @classmethod
    def from_protocol(
        cls,
        protocol: Protocol,
        initial_codes: Iterable[int],
        limit: Optional[int] = None,
        fingerprint: str = "",
    ) -> "TransitionTable":
        """The closed table of the reachable closure (no memo).

        Raises ``RuntimeError`` when the closure exceeds ``limit`` states
        (default :data:`~repro.engine.compiled.COMPILE_STATE_LIMIT`).
        """
        from . import compiled

        if limit is None:
            limit = compiled.COMPILE_STATE_LIMIT
        start = time.perf_counter()
        closure = _Closure(protocol, initial_codes, limit)
        return cls(
            protocol,
            closure.codes,
            *closure.rows(),
            fingerprint=fingerprint,
            compile_seconds=time.perf_counter() - start,
        )


#: The open table: ``LazyTable(protocol)`` is an empty
#: :class:`TransitionTable` that grows as pairs become active.
LazyTable = TransitionTable


def reachable_codes(
    protocol: Protocol,
    initial_codes: Iterable[int],
    limit: int = 100000,
) -> List[int]:
    """Closure of state codes reachable from the initial support.

    Breadth-first exploration over single-interaction transitions: each
    round pairs only the *new frontier* against the accumulated order (in
    both orientations), never the full order against itself, so every
    ordered pair is expanded exactly once.  The returned order is
    deterministic for a given protocol and initial support (sorted initial
    codes, then discovery rounds in sorted order); it is the index order
    of :meth:`TransitionTable.from_protocol`.  Useful for sizing
    mean-field systems and for sanity checks on compiled protocols ("the
    constant is big, but *this* big?").
    """
    return _Closure(protocol, initial_codes, limit).codes.tolist()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values`` (``np.unique`` without its lazy
    ``numpy.ma`` import)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _spans(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``starts[k] : starts[k] + widths[k]`` for every ``k``, concatenated."""
    ends = np.cumsum(widths)
    return np.repeat(starts - ends + widths, widths) + np.arange(ends[-1] if len(ends) else 0)


class _Side:
    """One side (initiator or responder) of a thread's row keys.

    Each closure state gets the id of its projection onto the side's
    footprint digits (the state itself when the thread has no memo), ids
    numbered in order of first appearance; ``reps[i]`` is a state with
    projection ``keys[i]``.
    """

    __slots__ = ("project", "ids", "keys", "reps", "of")

    def __init__(self, project):
        self.project = project
        self.ids: Dict[int, int] = {}
        self.keys: List[int] = []
        self.reps: List[int] = []
        self.of = np.zeros(0, dtype=np.int64)  # closure index -> id

    def add(self, codes: np.ndarray) -> None:
        """Give the closure's next states ``codes`` their ids."""
        keys = codes
        if self.project is not None:
            # a side with no footprint fields projects every state onto 0
            keys = np.broadcast_to(self.project(codes), codes.shape)
        ids, seen = self.ids, []
        for code, key in zip(codes.tolist(), keys.tolist()):
            idx = ids.get(key)
            if idx is None:
                idx = ids[key] = len(self.keys)
                self.keys.append(key)
                self.reps.append(code)
            seen.append(idx)
        self.of = np.concatenate([self.of, np.array(seen, dtype=np.int64)])


class _ThreadRows:
    """One thread's rows over a growing closure.

    A thread with a :class:`~repro.core.protocol.FootprintMemo` keys a pair
    by its initiator's and responder's footprint projections, so every
    pair with the same projections shares one row, read from the memo (or
    computed into it).  Any other thread keys a pair by its two states and
    computes each row on the full path, every rule on the pair's views.
    ``grid[ia, ib]`` is the row of side ids ``(ia, ib)``, -1 until it is
    needed.  Row ``r`` owns ``start[r] : start[r + 1]`` of the entries: code
    deltas of both sides and probabilities already scaled by the rule's
    draw probability, in rule and branch order, identity outcomes left
    out.
    """

    def __init__(self, memo, thread, draws, views):
        self.memo, self.thread, self.draws, self.views = memo, thread, draws, views
        self.side_a = _Side(None if memo is None else memo.project_a)
        self.side_b = _Side(None if memo is None else memo.project_b)
        self.grid = np.full((0, 0), -1, dtype=np.int64)
        self.start = _Column(np.zeros(1, dtype=np.int64))
        self.da = _Column(np.zeros(0, dtype=np.int64))
        self.db = _Column(np.zeros(0, dtype=np.int64))
        self.p = _Column(np.zeros(0, dtype=np.float64))

    def add(self, codes: np.ndarray) -> None:
        """Key the closure's next states ``codes``."""
        self.side_a.add(codes)
        self.side_b.add(codes)
        shape = (len(self.side_a.keys), len(self.side_b.keys))
        if shape != self.grid.shape:
            grid = np.full(shape, -1, dtype=np.int64)
            grid[: self.grid.shape[0], : self.grid.shape[1]] = self.grid
            self.grid = grid

    def rows(self, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Row ids of the closure index pairs ``(ia, ib)``, computing the
        missing rows."""
        ka, kb = self.side_a.of[ia], self.side_b.of[ib]
        found = self.grid[ka, kb]
        missing = np.flatnonzero(found < 0)
        if len(missing):
            width = self.grid.shape[1]
            cells = _distinct(ka[missing] * width + kb[missing]).tolist()
            row = self.start.size - 1
            da: List[int] = []
            db: List[int] = []
            p: List[float] = []
            ends: List[int] = []
            first = self.p.size
            for cell in cells:
                self._compute(*divmod(cell, width), da, db, p)
                ends.append(first + len(p))
            flat = self.grid.reshape(-1)
            flat[cells] = np.arange(row, row + len(cells))
            self.start.extend(ends)
            self.da.extend(da)
            self.db.extend(db)
            self.p.extend(p)
            found[missing] = self.grid[ka[missing], kb[missing]]
        return found

    def _compute(self, x: int, y: int, da: List[int], db: List[int], p: List[float]) -> None:
        """Append the entries of the row of side ids ``(x, y)``."""
        code_a, code_b = self.side_a.reps[x], self.side_b.reps[y]
        draws, memo = self.draws, self.memo
        if memo is not None:
            key = self.side_a.keys[x] * memo.span_b + self.side_b.keys[y]
            row = memo.rows.get(key)
            if row is None:
                row = memo.compute(key, self.views[code_a], self.views[code_b])
            for pos, delta_a, delta_b, branch_p in row:
                da.append(delta_a)
                db.append(delta_b)
                p.append(draws[pos] * branch_p)
            return
        a, b = self.views[code_a], self.views[code_b]
        for rule, draw_p in zip(self.thread.rules, draws):
            for new_a, new_b, branch_p in rule.outcomes(a, b):
                if new_a != code_a or new_b != code_b:
                    da.append(new_a - code_a)
                    db.append(new_b - code_b)
                    p.append(draw_p * branch_p)

    def entries(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's width, and the entry ids of ``rows`` in row order."""
        start = self.start.buf[: self.start.size]
        width = (start[1:] - start[:-1])[rows]
        return width, _spans(start[rows], width)


class _Closure:
    """The reachable closure of an initial support, and its closed rows.

    The closure grows in breadth-first waves.  Each wave keys the pairs it
    has not expanded yet (one state new, in either order) in every
    thread, fills the thread rows they miss, and gathers their outcome
    states as arrays; the closure's codes are the sorted initial codes,
    then each wave's new codes sorted.  :meth:`rows` assembles the closed
    table's CSR arrays from the same thread rows.
    """

    def __init__(self, protocol: Protocol, initial_codes: Iterable[int], limit: int):
        views = Views(protocol.schema)
        self.threads = [
            _ThreadRows(memo, thread, draws, views)
            for memo, thread, draws in protocol.row_plan()
        ]
        codes = np.array(sorted(set(int(c) for c in initial_codes)), dtype=np.int64)
        self.codes = np.zeros(0, dtype=np.int64)
        while len(codes):
            codes = self._wave(codes)
            if len(self.codes) + len(codes) > limit:
                raise RuntimeError(
                    "reachable state space exceeds limit={} states".format(limit)
                )

    def _wave(self, fresh: np.ndarray) -> np.ndarray:
        """Add the states ``fresh``, expand every pair that has one of them,
        and return the sorted states those pairs reach that are new."""
        lo = len(self.codes)
        self.codes = codes = np.concatenate([self.codes, fresh])
        hi = len(codes)
        new, every, old = np.arange(lo, hi), np.arange(hi), np.arange(lo)
        ia = np.concatenate([np.repeat(new, hi), np.repeat(old, hi - lo)])
        ib = np.concatenate([np.tile(every, hi - lo), np.tile(new, lo)])
        reached = []
        for rows in self.threads:
            rows.add(fresh)
            width, ent = rows.entries(rows.rows(ia, ib))
            reached.append(codes[np.repeat(ia, width)] + rows.da.buf[ent])
            reached.append(codes[np.repeat(ib, width)] + rows.db.buf[ent])
        reached = _distinct(np.concatenate(reached))
        known = np.sort(codes)
        pos = np.minimum(np.searchsorted(known, reached), hi - 1)
        return reached[known[pos] != reached]

    def rows(self) -> Tuple[np.ndarray, ...]:
        """``(p_row, off, out_a, out_b, out_p)`` of the closed table.

        Pair ``(i, j)`` owns row ``i * q + j``; its outcomes are the
        threads' entries in thread, rule and branch order, coinciding
        outcomes merged into the first and summed in that order, and
        ``p_row`` is each row's sequential sum (what
        :meth:`Protocol.transition` gives, float for float).
        """
        codes = self.codes
        q = len(codes)
        pairs = q * q
        parts = []
        for rows in self.threads:
            found = rows.grid[np.ix_(rows.side_a.of, rows.side_b.of)].reshape(-1)
            parts.append((rows,) + rows.entries(found))
        width = sum(w for _, w, _ in parts)
        off = np.zeros(pairs + 1, dtype=np.int64)
        np.cumsum(width, out=off[1:])
        nnz = int(off[-1])
        out_a = np.empty(nnz, dtype=np.int64)
        out_b = np.empty(nnz, dtype=np.int64)
        out_p = np.empty(nnz, dtype=np.float64)
        base = off[:-1].copy()
        code_a, code_b = np.repeat(codes, q), np.tile(codes, q)
        for rows, w, ent in parts:
            dest = _spans(base, w)
            out_a[dest] = np.repeat(code_a, w) + rows.da.buf[ent]
            out_b[dest] = np.repeat(code_b, w) + rows.db.buf[ent]
            out_p[dest] = rows.p.buf[ent]
            base += w
        order = np.argsort(codes)
        out_a = order[np.searchsorted(codes[order], out_a)]
        out_b = order[np.searchsorted(codes[order], out_b)]
        row = np.repeat(np.arange(pairs), width)
        first = _first_equal(off, width, out_a * q + out_b)
        if first is not None:
            # coinciding outcomes: each sums into its first occurrence, in
            # entry order (bincount adds its weights one by one)
            out_p = np.bincount(first, weights=out_p, minlength=nnz)
            keep = first == np.arange(nnz)
            out_a, out_b, out_p, row = out_a[keep], out_b[keep], out_p[keep], row[keep]
            width = np.bincount(row, minlength=pairs)
            np.cumsum(width, out=off[1:])
        p_row = np.bincount(row, weights=out_p, minlength=pairs)
        return p_row, off, out_a, out_b, out_p


def _first_equal(off: np.ndarray, width: np.ndarray, keys: np.ndarray) -> Optional[np.ndarray]:
    """Per entry, the first entry of its row with an equal key, or ``None``
    when no row holds two equal keys."""
    if not len(keys):
        return None
    rank = np.arange(len(keys)) - np.repeat(off[:-1], width)
    first = None
    for gap in range(1, int(width.max())):
        # the largest gap that matches wins: the earliest equal entry
        hit = np.flatnonzero((rank[gap:] >= gap) & (keys[gap:] == keys[:-gap]))
        if len(hit):
            if first is None:
                first = np.arange(len(keys))
            first[hit + gap] = hit
    return first
