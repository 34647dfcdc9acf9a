"""Epoch-frozen sampler over the active ordered-pair weights (BGHKPU).

The batched simulation of Berenbrink, Hammer, Kaaser, Meyer, Penschuck &
Tran ("Simulating Population Protocols in Sub-Constant Time per
Interaction", PAPERS.md) samples the state pair of each effective
interaction from a *frozen* distribution over the active ordered-pair
cells, so that a batch's draw does not rescan the counts.  The module
name is historical: the epochs were once served by Vose alias tables.

:class:`ActivePairSampler` is the epoch manager the
:class:`~repro.engine.bghkpu.BGHKPUEngine` runs on.  It freezes the
active ordered-pair weight matrix ``c_i (c_j - δ_ij) p_change(i, j)``
(built from the closed :class:`~repro.engine.table.TransitionTable`
``p_change`` matrix by :func:`~repro.engine.jump.pair_weights`) at the
top of an epoch and serves cell draws from it.  Three draw shapes cover
the density spectrum:

- a *lone* active cell needs no RNG at all (the endgame shape);
- dense supports with ``top_k > 0`` use the **hybrid split**: the K
  heaviest cells (selected once per epoch) are drawn through one grouped
  multinomial over ``K + 1`` bins — K heavy cells plus the pooled light
  tail — and the few tail events are placed by binary search on the
  running sum of the *fresh* tail weights.  The split is
  distributionally exact for any fixed cell partition (multinomial
  aggregation: marginalize the heavy bins, then split the pooled tail
  with its conditional probabilities; the partition choice only affects
  cost, never the law), and because the tail CDF is recomputed from the
  current weight matrix at each refresh, the hybrid draw matches the
  whole-grid draw's distribution exactly at all times.  Beyond the cheap
  ``K + 1``-bin draw, the payoff is downstream: a batch resolves into at
  most ``K + tail_events`` distinct cells instead of every active cell,
  which shrinks the outcome-split work by the same factor;
- otherwise one multinomial over the whole grid.

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
pvals, the hybrid bin vector, the tail CDF) lives in preallocated
buffers keyed by the active-set size — steady-state epochs allocate
nothing.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from .jump import pair_weights


class ActivePairSampler:
    """Epoch-frozen sampler over the active ordered-pair cells.

    One instance lives for the whole engine run; :meth:`rebuild` starts a
    new epoch from the current full count vector (unioning the active
    set with the lineage's past support, see the module docstring),
    :meth:`refresh` re-freezes a drifted epoch over the same active set,
    and :meth:`sample_cells` serves one batch's cell draws.  All
    randomness flows through the engine's generator.

    ``top_k`` defaults to 0 (hybrid split off), the whole-grid sampler;
    the engine passes its ``DENSE_TOP_K`` constant.
    """

    __slots__ = (
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
        "heavy_w",
        "heavy_mass",
        "rebuilds",
        "refreshes",
        "scratch_allocs",
        "build_seconds",
        "refresh_seconds",
        "draw_seconds",
        "_pvals",
        "_heavy_mask",
        "_tail_cum",
        "_tail_total",
        "_buf_row",
        "_buf_col",
        "_buf_consume",
        "_buf_mu",
        "_buf_pvals",
        "_buf_mask",
        "_buf_topk",
        "_buf_cum",
    )

    def __init__(
        self,
        p_change_matrix: np.ndarray,
        tol: float,
        top_k: int = 0,
    ):
        if not 0.0 <= tol <= 1.0:
            raise ValueError("alias_rebuild_tol must be in [0, 1]")
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        self.matrix = p_change_matrix
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
        self.heavy_w: Optional[np.ndarray] = None
        self.heavy_mass = 0.0
        self.rebuilds = 0  # full epoch rebuilds (support left the union)
        self.refreshes = 0  # drift refreshes within the set
        self.scratch_allocs = 0  # buffer (re)allocations (regrowth probe)
        self.build_seconds = 0.0
        self.refresh_seconds = 0.0
        self.draw_seconds = 0.0
        self._pvals: Optional[np.ndarray] = None
        self._heavy_mask: Optional[np.ndarray] = None
        self._tail_cum: Optional[np.ndarray] = None
        self._tail_total = 0.0
        self._buf_row: Optional[np.ndarray] = None
        self._buf_col: Optional[np.ndarray] = None
        self._buf_consume: Optional[np.ndarray] = None
        self._buf_mu: Optional[np.ndarray] = None
        self._buf_pvals: Optional[np.ndarray] = None
        self._buf_mask: Optional[np.ndarray] = None
        self._buf_topk: Optional[np.ndarray] = None
        self._buf_cum: Optional[np.ndarray] = None

    # -- cached cell distribution -------------------------------------------
    @property
    def pvals(self) -> Optional[np.ndarray]:
        """Flattened cell probabilities of the frozen epoch (lazy).

        ``None`` on a silent epoch.  The returned array is a reused
        scratch buffer, valid until the next rebuild/refresh.
        """
        if self.total <= 0.0 or self.w is None:
            return None
        pv = self._pvals
        if pv is None:
            flat = self.w.ravel()
            buf = self._buf_pvals
            if buf is None or buf.shape[0] != flat.shape[0]:
                buf = self._buf_pvals = np.empty_like(flat)
                self.scratch_allocs += 1
            # normalized by the direct flat sum (not the row-sum total),
            # so multinomial's sum(pvals) <= 1 check holds bit-exactly
            pv = self._pvals = np.divide(flat, flat.sum(), out=buf)
        return pv

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
        self._select_heavy()
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
        self._pvals = None
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
        self.heavy_w = None
        self.heavy_mass = 0.0
        self._heavy_mask = None
        self._tail_cum = None
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
        """Freeze the top-K cell partition of the new epoch.

        Selection only decides *which* cells ride the grouped heavy draw
        — the hybrid split is exact for any partition — so it happens
        once per epoch; :meth:`_refresh_heavy` re-reads the weights on
        every refresh and re-selects only when drift has moved enough
        mass into the tail to hurt efficiency.
        """
        self.heavy_cells = None
        self.heavy_w = None
        self.heavy_mass = 0.0
        self._heavy_mask = None
        flat = self.w.ravel()
        k = self.top_k
        if k <= 0 or flat.size <= 2 * k:
            return
        part = np.argpartition(flat, flat.size - k)[flat.size - k:]
        hw = flat[part]
        pos = hw > 0.0
        if not pos.all():
            part = part[pos]
        if not part.size:
            return
        self.heavy_cells = part
        mask = self._buf_mask
        if mask is None or mask.shape[0] != flat.shape[0]:
            mask = self._buf_mask = np.zeros(flat.shape[0], dtype=bool)
            self.scratch_allocs += 1
        else:
            mask[:] = False
        mask[part] = True
        self._heavy_mask = mask

    def _refresh_heavy(self) -> None:
        """Re-read the frozen heavy partition's weights (cheap gather)."""
        hc = self.heavy_cells
        if hc is None:
            if self.top_k > 0 and self.w.size > 2 * self.top_k:
                # the grid grew past the hybrid threshold mid-lineage
                self._select_heavy()
                hc = self.heavy_cells
                if hc is None:
                    return
            else:
                return
        flat = self.w.ravel()
        hw = flat[hc]
        mass = float(hw.sum())
        if mass < 0.75 * self.total:
            # drift moved real mass into the tail: re-pick the partition
            # (efficiency only — the split stays exact either way)
            self._select_heavy()
            hc = self.heavy_cells
            if hc is None:
                return
            hw = flat[hc]
            mass = float(hw.sum())
        self.heavy_w = hw
        self.heavy_mass = mass

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
            np.multiply(flat, ~self._heavy_mask, out=buf)
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
    def sample_cells(
        self, rng: np.random.Generator, fired: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cell draws for one batch of ``fired`` effective events.

        Returns ``(cells, counts)``: the flattened ``a·a`` cell indices
        that fired and how many events each got (a cell may appear more
        than once only in degenerate float corners; downstream scatters
        accumulate).  A lone active cell takes every event without a
        draw; dense supports with a frozen heavy partition take the
        hybrid split; every other batch is one multinomial over the
        whole cached cell distribution.
        """
        start = time.perf_counter()
        try:
            if self.cells_nz is not None:
                # lone active cell: every event lands there, no draw needed
                return self.cells_nz, np.array([fired], dtype=np.int64)
            if self.heavy_cells is not None:
                return self._sample_hybrid(rng, fired)
            cell_counts = rng.multinomial(fired, self.pvals)
            cells = np.nonzero(cell_counts)[0]
            return cells, cell_counts[cells]
        finally:
            self.draw_seconds += time.perf_counter() - start

    def _sample_hybrid(
        self, rng: np.random.Generator, fired: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-K heavy cells via one grouped draw, light tail separately."""
        hc, hw = self.heavy_cells, self.heavy_w
        k = hc.shape[0]
        buf = self._buf_topk
        if buf is None or buf.shape[0] != k + 1:
            buf = self._buf_topk = np.empty(k + 1)
            self.scratch_allocs += 1
        tail_mass = self.total - self.heavy_mass
        if tail_mass < 0.0:
            tail_mass = 0.0
        buf[:k] = hw
        buf[k] = tail_mass
        buf /= buf.sum()
        draws = rng.multinomial(fired, buf)
        tail_n = int(draws[k])
        hsel = draws[:k] > 0
        cells = hc[hsel]
        counts = draws[:k][hsel]
        if tail_n == 0:
            return cells, counts
        cum, tail_total = self._tail_cdf()
        if tail_total <= 0.0:
            # float corner: positive pooled tail mass but the fresh tail
            # CDF is empty — fold the tail events back onto the heavy
            # cells by their conditional law (duplicates accumulate)
            extra = rng.multinomial(tail_n, hw / hw.sum())
            esel = extra > 0
            return (
                np.concatenate((cells, hc[esel])),
                np.concatenate((counts, extra[esel])),
            )
        # binary search on the fresh running sum: exact conditional tail
        # distribution, no table construction, one uniform per event
        u = rng.random(tail_n) * tail_total
        idx = np.searchsorted(cum, u, side="right")
        np.minimum(idx, cum.shape[0] - 1, out=idx)
        tcells, tcounts = np.unique(idx, return_counts=True)
        return (
            np.concatenate((cells, tcells)),
            np.concatenate((counts, tcounts)),
        )
