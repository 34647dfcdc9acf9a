"""Epoch-frozen sampler over the active (pair, outcome) entries (BGHKPU).

The batched simulation of Berenbrink, Hammer, Kaaser, Meyer, Penschuck &
Tran ("Simulating Population Protocols in Sub-Constant Time per
Interaction", PAPERS.md) samples each effective interaction from a
*frozen* distribution over the active ordered-pair cells, so that a
batch's draw does not rescan the counts.  The module name is historical:
the epochs were once served by Vose alias tables.

:class:`ActivePairSampler` is the epoch manager the
:class:`~repro.engine.bghkpu.BGHKPUEngine` runs on.  It freezes the
active ordered-pair weight matrix ``c_i (c_j - δ_ij) p_change(i, j)``
(built from the closed :class:`~repro.engine.table.TransitionTable`
``p_change`` matrix by :func:`~repro.engine.jump.pair_weights`) at the
top of an epoch and serves batches as lists of **table entries** — one
CSR outcome of one ordered pair — so the engine turns a batch into a
per-state delta with a single scatter.  There is one draw shape:

- the ``min(top_k, live cells)`` heaviest cells (selected once per
  epoch) are expanded into their outcome entries, entry ``e`` of cell
  ``(i, j)`` weighted ``w_ij · out_p[e] / p_row[ij]``, and one grouped
  multinomial draws those entries plus one pooled bin for the light
  tail.  The expansion is lazy — on the first draw after a selection —
  so epochs that never draw (the engine's scalar one-pair loop) pay
  nothing for it;
- each tail event is placed on its cell by binary search on the running
  sum of the *fresh* tail weights, then takes its outcome from a second
  uniform within that cell's row.

The split is distributionally exact for any fixed partition (multinomial
aggregation: marginalize the heavy entries, then split the pooled tail
with its conditional probabilities — cell first, outcome second; the
partition only affects cost, never the law), and because the tail CDF is
recomputed from the current weight matrix at each refresh, weight that
drifts into a formerly silent cell is sampleable at once.  A lone live
cell with a single outcome needs no RNG at all (the endgame shape).

The **active set is sticky**: a rebuild unions the current support with
every state the epoch lineage has ever covered, so states that oscillate
between zero and nonzero counts (the boundary of a spreading phase
clock) keep their row/column and stop forcing full rebuilds — a
zero-count state carries exactly zero weight, so the union changes
nothing distributionally.  Epoch invalidation is drift-based: some
tracked state's count moving past ``tol`` relative to its frozen value
triggers a *refresh* — one fused :func:`~repro.engine.jump.pair_weights`
recompute over the cached ``p_change`` sub-matrix, no gather and no
active-set scan.  Only a state *outside* the tracked union (or a drained
lone cell) forces a rebuild.

The sampler also precomputes the two collision-control quantities of the
BGHKPU batch sizing (see :mod:`repro.engine.bghkpu`): the per-event
consumption probabilities ``μ_s`` of each active state and the birthday
coefficient ``γ = Σ_s μ_s² / (2 c_s)``, so the engine's collision-aware
batch cap is O(1) per batch.  Per-epoch scratch (row/column sums, μ,
the entry bin vector, the tail CDF) lives in preallocated buffers —
steady-state epochs allocate nothing.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from .jump import pair_weights
from .table import TransitionTable


class ActivePairSampler:
    """Epoch-frozen sampler over the active ordered-pair cells' entries.

    One instance lives for the whole engine run; :meth:`rebuild` starts a
    new epoch from the current full count vector (unioning the active
    set with the lineage's past support, see the module docstring),
    :meth:`refresh` re-freezes a drifted epoch over the same active set,
    and :meth:`sample_entries` serves one batch's draws.  ``table`` is
    the closed :class:`~repro.engine.table.TransitionTable` whose
    ``p_change`` matrix and CSR outcome rows the epochs are built from;
    ``top_k`` bounds the heavy set (the engine passes its
    ``DENSE_TOP_K`` constant).  All randomness flows through the
    engine's generator.
    """

    __slots__ = (
        "table",
        "matrix",
        "tol",
        "top_k",
        "act",
        "ca",
        "psub",
        "w",
        "total",
        "consume",
        "mu",
        "gamma",
        "cap_events",
        "active_cells",
        "cells_nz",
        "row_sums",
        "col_sums",
        "heavy_cells",
        "heavy_mass",
        "rebuilds",
        "refreshes",
        "scratch_allocs",
        "build_seconds",
        "refresh_seconds",
        "draw_seconds",
        "_ent",
        "_ent_cell",
        "_ent_frac",
        "_bins",
        "_tail_cum",
        "_tail_total",
        "_buf_row",
        "_buf_col",
        "_buf_consume",
        "_buf_mu",
        "_buf_bins",
        "_buf_cum",
    )

    def __init__(self, table: TransitionTable, tol: float, top_k: int):
        if not 0.0 <= tol <= 1.0:
            raise ValueError("alias_rebuild_tol must be in [0, 1]")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.table = table
        self.matrix = table.p_change_matrix
        self.tol = float(tol)
        self.top_k = int(top_k)
        self.act: Optional[np.ndarray] = None
        self.ca: Optional[np.ndarray] = None
        self.psub: Optional[np.ndarray] = None
        self.w: Optional[np.ndarray] = None
        self.total = 0.0
        self.consume: Optional[np.ndarray] = None
        self.mu: Optional[np.ndarray] = None
        self.gamma = 0.0
        self.cap_events = 0.0
        self.active_cells = 0
        self.cells_nz: Optional[np.ndarray] = None
        self.row_sums: Optional[np.ndarray] = None
        self.col_sums: Optional[np.ndarray] = None
        self.heavy_cells: Optional[np.ndarray] = None
        self.heavy_mass = 0.0
        self.rebuilds = 0  # full epoch rebuilds (support left the union)
        self.refreshes = 0  # drift refreshes within the set
        self.scratch_allocs = 0  # buffer (re)allocations (regrowth probe)
        self.build_seconds = 0.0
        self.refresh_seconds = 0.0
        self.draw_seconds = 0.0
        # heavy entries of the current selection (expanded lazily):
        # table entry, its flattened cell, and its share out_p / p_row of
        # the cell weight
        self._ent: Optional[np.ndarray] = None
        self._ent_cell: Optional[np.ndarray] = None
        self._ent_frac: Optional[np.ndarray] = None
        self._bins: Optional[np.ndarray] = None
        self._tail_cum: Optional[np.ndarray] = None
        self._tail_total = 0.0
        self._buf_row: Optional[np.ndarray] = None
        self._buf_col: Optional[np.ndarray] = None
        self._buf_consume: Optional[np.ndarray] = None
        self._buf_mu: Optional[np.ndarray] = None
        self._buf_bins: Optional[np.ndarray] = None
        self._buf_cum: Optional[np.ndarray] = None

    # -- epoch construction -------------------------------------------------
    def rebuild(self, full_c: np.ndarray) -> None:
        """Start a new epoch from the current counts (full O(q) scan).

        The active set is the union of the current support and the
        previous epoch's set (sticky support): states the lineage has
        seen keep their — currently zero-weight — rows, so transient
        boundary states stop forcing rebuilds.
        """
        start = time.perf_counter()
        support = full_c > 0.0
        act = np.flatnonzero(support)
        prev = self.act
        if prev is not None:
            if prev.shape[0] == act.shape[0] and np.array_equal(prev, act):
                act = prev  # identical support: keep the cached gather
            else:
                # the sorted union, by mask: np.union1d would load numpy.ma
                support[prev] = True
                act = np.flatnonzero(support)
        if act is not self.act or self.psub is None:
            self.psub = self.matrix[np.ix_(act, act)]
            self.act = act
        self.ca = full_c[act].copy()
        self.w = pair_weights(self.ca, self.psub)
        self.heavy_cells = None  # a new epoch picks its own heavy set
        self._finalize()
        self.rebuilds += 1
        self.build_seconds += time.perf_counter() - start

    def refresh(self, full_c: np.ndarray) -> None:
        """Re-freeze a drifted epoch over the same active set.

        The weights are recomputed in one fused :func:`pair_weights`
        pass over the cached ``p_change`` sub-matrix (no gather, no
        active-set scan); an epoch whose tracked counts have not moved is
        left as it is.
        """
        start = time.perf_counter()
        ca = full_c[self.act]
        if (ca != self.ca).any():
            self.ca = ca
            self.w = pair_weights(ca, self.psub)
            self._finalize()
        self.refreshes += 1
        self.refresh_seconds += time.perf_counter() - start

    def _finalize(self) -> None:
        """Derive the cached per-epoch quantities from the weight matrix."""
        w = self.w
        a = w.shape[0]
        if self._buf_row is None or self._buf_row.shape[0] != a:
            self._buf_row = np.empty(a)
            self._buf_col = np.empty(a)
            self._buf_consume = np.empty(a)
            self._buf_mu = np.empty(a)
            self.scratch_allocs += 1
        row = np.sum(w, axis=1, out=self._buf_row)
        col = np.sum(w, axis=0, out=self._buf_col)
        self.row_sums = row
        self.col_sums = col
        total = float(row.sum())
        self.total = total
        self._bins = None
        self._tail_cum = None
        if total <= 0.0:
            self._go_silent()
            return
        flat = w.ravel()
        self.active_cells = int(np.count_nonzero(flat))
        # degenerate epochs (a lone active cell) sample without any RNG
        self.cells_nz = (
            np.flatnonzero(flat) if self.active_cells == 1 else None
        )
        # per-event consumption probability of each active state (the
        # diagonal cell consumes two agents of the same state, and it is
        # counted once in each axis sum, matching that multiplicity)
        consume = np.add(row, col, out=self._buf_consume)
        self.consume = consume
        mu = np.divide(consume, total, out=self._buf_mu)
        self.mu = mu
        self._collision_caps()
        self._refresh_heavy()

    def _go_silent(self) -> None:
        """Zero-total epoch: nothing can fire until the next rebuild."""
        self.consume = None
        self.mu = None
        self.gamma = 0.0
        self.cap_events = 0.0
        self.active_cells = 0
        self.cells_nz = None
        self.heavy_cells = None
        self.heavy_mass = 0.0
        self._ent = None
        self._tail_total = 0.0

    def _collision_caps(self) -> None:
        """Birthday coefficient γ and the per-state feasibility cap."""
        consume, mu = self.consume, self.mu
        live = consume > 0.0
        ca_live = self.ca[live]
        safe = ca_live > 0.0
        if safe.any():
            mul = mu[live][safe]
            # birthday coefficient: E[colliding picks in F events] = F² γ
            self.gamma = float(np.sum(mul ** 2 / (2.0 * ca_live[safe])))
            # feasibility cap: events until some state's expected
            # consumption reaches its full frozen count
            self.cap_events = float(np.min(ca_live[safe] / mul))
        else:
            self.gamma = 0.0
            self.cap_events = 0.0

    def _select_heavy(self) -> None:
        """Pick the ``min(top_k, live cells)`` heaviest cells.

        Selection only decides *which* cells ride the grouped entry draw
        — the split is exact for any partition — so it happens once per
        epoch and again only when :meth:`_refresh_heavy` sees drift move
        enough mass into the tail to hurt efficiency.  Their entries are
        expanded by the next draw.
        """
        flat = self.w.ravel()
        k = self.top_k
        if self.active_cells <= k:
            part = np.flatnonzero(flat)
        else:
            part = np.argpartition(flat, flat.size - k)[flat.size - k:]
        # heaviest first: the multinomial stops once every event is placed
        self.heavy_cells = part[np.argsort(-flat[part])]
        self._ent = self._bins = None

    def _refresh_heavy(self) -> None:
        """Re-read the heavy cells' mass, re-selecting if they faded."""
        flat = self.w.ravel()
        hc = self.heavy_cells
        if hc is not None:
            mass = float(flat[hc].sum())
        if (
            hc is None
            # drift moved real mass into the tail (efficiency only — the
            # split stays exact either way)
            or mass < 0.75 * self.total
            # a lone live cell rides alone, so its draw needs no variate
            or (self.cells_nz is not None and hc.shape[0] > 1)
        ):
            self._select_heavy()
            mass = float(flat[self.heavy_cells].sum())
        self.heavy_mass = mass

    def _expand(self) -> None:
        """Expand the heavy cells into their CSR outcome entries."""
        ct = self.table
        hc = self.heavy_cells
        act = self.act
        a = act.shape[0]
        rows = act[hc // a] * ct.num_states + act[hc % a]
        begin = ct.off[rows]
        width = ct.off[rows + 1] - begin
        pos = np.repeat(np.arange(hc.shape[0]), width)
        ent = np.arange(pos.shape[0]) + np.repeat(
            begin - (np.cumsum(width) - width), width
        )
        self._ent = ent
        self._ent_cell = hc[pos]
        self._ent_frac = ct.out_p[ent] / ct.p_row[rows[pos]]

    def _entry_bins(self) -> np.ndarray:
        """Normalized draw bins: the heavy entries, then the pooled tail."""
        bins = self._bins
        if bins is None:
            if self._ent is None:
                self._expand()
            e = self._ent.shape[0]
            buf = self._buf_bins
            if buf is None or buf.shape[0] <= e:
                buf = self._buf_bins = np.empty(2 * e + 1)
                self.scratch_allocs += 1
            bins = buf[: e + 1]
            np.multiply(
                self.w.ravel()[self._ent_cell], self._ent_frac, out=bins[:e]
            )
            tail_mass = self.total - self.heavy_mass
            bins[e] = tail_mass if tail_mass > 0.0 else 0.0
            bins /= bins.sum()
            self._bins = bins
        return bins

    def _tail_cdf(self) -> Tuple[np.ndarray, float]:
        """Running sum of the non-heavy cell weights (lazy per refresh).

        Built over *all* grid cells with the heavy ones zeroed, so a
        cell that was silent at selection time but gained weight since
        is sampleable the moment a refresh sees it — the tail draw is
        always exact against the current weight matrix.
        """
        cum = self._tail_cum
        if cum is None:
            flat = self.w.ravel()
            buf = self._buf_cum
            if buf is None or buf.shape[0] != flat.shape[0]:
                buf = self._buf_cum = np.empty_like(flat)
                self.scratch_allocs += 1
            np.copyto(buf, flat)
            buf[self.heavy_cells] = 0.0
            cum = self._tail_cum = np.cumsum(buf, out=buf)
            self._tail_total = float(cum[-1])
        return cum, self._tail_total

    # -- epoch invalidation -------------------------------------------------
    def stale(self, full_c: np.ndarray) -> bool:
        """Has some active state drifted past ``tol`` since the epoch froze?

        A state that drained to zero is always stale (its frozen cells
        would keep sampling it); the active-*set* check (new states
        produced outside the epoch) is the engine's job — it sees the
        applied deltas and calls :meth:`rebuild` directly.
        """
        if self.act is None:
            return True
        cur = full_c[self.act]
        if ((cur <= 0.0) & (self.ca > 0.0)).any():
            return True
        drift = np.abs(cur - self.ca) / np.maximum(self.ca, 1.0)
        return bool(drift.max(initial=0.0) > self.tol)

    # -- sampling -----------------------------------------------------------
    def sample_entries(
        self, rng: np.random.Generator, fired: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry draws for one batch of ``fired`` effective events.

        Returns ``(cells, entries, counts)``: ``counts[k]`` events took
        table entry ``entries[k]`` (an index into the table's outcome
        arrays), whose ordered pair is the flattened ``a·a`` cell
        ``cells[k]``.  Entries are distinct.  The heavy entries and the
        pooled tail share one grouped multinomial; a lone single-entry
        cell takes every event without a draw.
        """
        start = time.perf_counter()
        try:
            bins = self._entry_bins()
            e = bins.shape[0] - 1
            if e == 1 and bins[1] == 0.0:
                # one entry and an empty tail: no variate to draw
                counts = np.array([fired], dtype=np.int64)
                return self._ent_cell, self._ent, counts
            draws = rng.multinomial(fired, bins)
            tail_n = int(draws[e])
            tail = None
            if tail_n:
                cum, tail_total = self._tail_cdf()
                if tail_total > 0.0:
                    tail = self._sample_tail(rng, tail_n, cum, tail_total)
                else:
                    # float corner: positive pooled tail mass but the
                    # fresh tail CDF is empty — fold the tail events back
                    # onto the heavy entries by their conditional law
                    heavy = bins[:e]
                    draws[:e] += rng.multinomial(tail_n, heavy / heavy.sum())
            sel = np.flatnonzero(draws[:e])
            cells, entries = self._ent_cell[sel], self._ent[sel]
            counts = draws[sel]
            if tail is None:
                return cells, entries, counts
            tcells, tentries, tcounts = tail
            return (
                np.concatenate((cells, tcells)),
                np.concatenate((entries, tentries)),
                np.concatenate((counts, tcounts)),
            )
        finally:
            self.draw_seconds += time.perf_counter() - start

    def _sample_tail(
        self,
        rng: np.random.Generator,
        tail_n: int,
        cum: np.ndarray,
        tail_total: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Place ``tail_n`` tail events: cell by CDF, outcome by a uniform."""
        # binary search on the fresh running sum: exact conditional tail
        # law over cells, one uniform per event (a uniform below 1 times
        # tail_total rounds below it, so the search lands on a
        # positive-weight cell)
        u = rng.random(tail_n)
        u *= tail_total
        u.sort()  # sorted keys search faster, and sort the cells
        cell = np.searchsorted(cum, u, side="right")
        ct = self.table
        act = self.act
        a = act.shape[0]
        rows = act[cell // a] * ct.num_states + act[cell % a]
        ent = ct.off[rows]
        # a second uniform picks the outcome within the row: count the
        # running out_p sums at or below it.  The row's own last sum is
        # p_row exactly (the same sequential sum) and the sums past it
        # only grow, so the count stays inside the row.
        v = rng.random(tail_n)
        v *= ct.p_row[rows]
        pos = ent[:, None] + np.arange(int((ct.off[rows + 1] - ent).max()))
        np.minimum(pos, ct.out_p.shape[0] - 1, out=pos)
        ent += (v[:, None] >= np.cumsum(ct.out_p[pos], axis=1)).sum(axis=1)
        # distinct (entry, cell) pairs by sort and count (numpy's
        # append/diff/unique wrappers cost more than the data here)
        cells = a * a
        key = ent * cells + cell
        key.sort()
        last = np.empty(tail_n, dtype=bool)
        last[-1] = True
        np.not_equal(key[:-1], key[1:], out=last[:-1])
        ends = last.nonzero()[0]
        counts = np.empty_like(ends)
        counts[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=counts[1:])
        ent, cell = np.divmod(key[ends], cells)
        return cell, ent, counts
