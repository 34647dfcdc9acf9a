"""Vose alias tables over the active ordered-pair weights (BGHKPU).

The batched simulation of Berenbrink, Hammer, Kaaser, Meyer, Penschuck &
Tran ("Simulating Population Protocols in Sub-Constant Time per
Interaction", PAPERS.md) samples the state pair of each effective
interaction from a *frozen* distribution over the active ordered-pair
cells, so that drawing an event costs O(1) instead of O(active²).  This
module provides the two pieces the :class:`~repro.engine.bghkpu.BGHKPUEngine`
needs for that:

:class:`AliasTable`
    A Walker/Vose alias table built *vectorized* over a weight vector:
    O(k) construction in a handful of numpy rounds, O(1) per sample, one
    host uniform per draw (the deterministic-draw-count contract that
    keeps replica seed streams engine-independent of batch geometry).

:class:`ActivePairSampler`
    The epoch manager: it freezes the active ordered-pair weight matrix
    ``c_i (c_j - δ_ij) p_change(i, j)`` (built from the
    closed :class:`~repro.engine.table.TransitionTable` ``p_change`` matrix by
    :func:`~repro.engine.jump.pair_weights`) at the top of an epoch and
    serves cell draws from it.  Three draw shapes cover the density
    spectrum:

    - a *lone* active cell needs no RNG at all (the endgame shape);
    - dense supports with ``top_k > 0`` use the **hybrid split**: the K
      heaviest cells (selected once per epoch) are drawn through one
      grouped multinomial over ``K + 1`` bins — K heavy cells plus the
      pooled light tail — and the few tail events are placed by binary
      search on the running sum of the *fresh* tail weights.  The split
      is distributionally exact for any fixed cell partition
      (multinomial aggregation: marginalize the heavy bins, then split
      the pooled tail with its conditional probabilities; the partition
      choice only affects cost, never the law), and because the tail
      CDF is recomputed from the current weight matrix at each refresh,
      the hybrid draw matches the whole-grid draw's distribution
      exactly at all times.  Beyond the cheap ``K + 1``-bin draw, the
      payoff is downstream: a batch resolves into at most
      ``K + tail_events`` distinct cells instead of every active cell,
      which shrinks the outcome-split work by the same factor;
    - otherwise the classic whole-grid alias/multinomial crossover.

    The **active set is sticky**: a rebuild unions the current support
    with every state the epoch lineage has ever covered, so states that
    oscillate between zero and nonzero counts (the boundary of a
    spreading phase clock) keep their row/column and stop forcing full
    rebuilds — a zero-count state carries exactly zero weight, so the
    union changes nothing distributionally.  Epoch invalidation is
    drift-based: some tracked state's count moving past ``tol``
    relative to its frozen value triggers a *partial refresh* of the
    touched rows/columns, and when the touched fraction is below
    ``patch_frac`` the refresh is a **patch**: row/column sums,
    ``total``, μ and γ are delta-updated from the touched slices in
    O(touched · a) instead of the full O(a²) rescan, with patch-vs-scan
    arbitrated by their measured costs.  Only a state *outside* the
    tracked union (or a drained lone cell) forces a rebuild.

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


def alias_pick(
    rng: np.random.Generator,
    prob: np.ndarray,
    alias: np.ndarray,
    size: int,
) -> np.ndarray:
    """``size`` O(1) alias-method draws from ``(prob, alias)``.

    One uniform per draw decides both the column ``i = ⌊u·k⌋`` and — via
    its fractional part — whether to keep ``i`` or take ``alias[i]``.
    """
    k = len(prob)
    u = rng.random(size) * k
    idx = u.astype(np.int64)
    np.minimum(idx, k - 1, out=idx)
    frac = u - idx
    return np.where(frac < prob[idx], idx, alias[idx])


class AliasTable:
    """Walker/Vose alias table for O(1) sampling from fixed weights.

    Construction is vectorized: instead of the classic two-stack scalar
    loop, each round pairs every currently-small column with a distinct
    large column at once (``prob``/``alias`` assignment and the residual
    subtraction are single array operations), then re-classifies the
    larges.  Every round retires all current small columns, so the number
    of rounds is bounded by the longest donation chain — O(log k) for
    typical weight vectors, O(k) array rounds in the degenerate
    strictly-decreasing chain (still fine: tables are rebuilt per epoch,
    not per draw).

    Raises ``ValueError`` on empty, non-1-D, negative, non-finite or
    all-zero weights — a zero total weight means "no active pair", which
    callers must treat as a silent configuration, never as a sampler.
    """

    __slots__ = ("k", "prob", "alias", "total")

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(
                "alias table needs a non-empty 1-D weight vector, got "
                "shape {}".format(w.shape)
            )
        if not np.isfinite(w).all():
            raise ValueError("alias table weights contain NaN/Inf entries")
        if (w < 0.0).any():
            raise ValueError("alias table weights must be non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError(
                "alias table weights sum to zero — no pair can be sampled "
                "(a silent configuration must be handled by the caller)"
            )
        k = int(w.size)
        self.k = k
        self.total = total
        # scaled probabilities: mean 1.0 across columns
        p = w * (k / total)
        prob = np.ones(k, dtype=np.float64)
        alias = np.arange(k, dtype=np.int64)
        small = np.nonzero(p < 1.0)[0]
        large = np.nonzero(p >= 1.0)[0]
        while small.size and large.size:
            m = min(small.size, large.size)
            s, donors = small[:m], large[:m]
            prob[s] = p[s]
            alias[s] = donors
            p[donors] -= 1.0 - p[s]
            still_large = p[donors] >= 1.0
            small = np.concatenate((small[m:], donors[~still_large]))
            large = np.concatenate((large[m:], donors[still_large]))
        # leftovers are numerically-one columns: keep prob=1, alias=self
        self.prob = prob
        self.alias = alias

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` column indices drawn i.i.d. from the weight vector."""
        return alias_pick(rng, self.prob, self.alias, size)

    def pvals(self) -> np.ndarray:
        """The sampling distribution the table encodes (Vose invariant).

        Reconstructed from ``prob``/``alias``: column ``i`` is drawn with
        probability ``(prob_i + Σ_{j: alias_j = i} (1 - prob_j)) / k``.
        Matches the normalized input weights up to float rounding — the
        goodness-of-fit suite uses this as a deterministic build check.
        """
        out = self.prob.copy()
        np.add.at(out, self.alias, 1.0 - self.prob)
        return out / self.k


class ActivePairSampler:
    """Epoch-frozen sampler over the active ordered-pair cells.

    One instance lives for the whole engine run; :meth:`rebuild` starts a
    new epoch from the current full count vector (unioning the active
    set with the lineage's past support, see the module docstring),
    :meth:`refresh` re-freezes a drifted epoch in place — a patch of the
    derived sums when the touched fraction is small, a touched-row/column
    scan otherwise — and :meth:`sample_cells` serves one batch's cell
    draws.  All randomness flows through the engine's generator.

    ``top_k``/``patch_frac`` default to 0 (hybrid split and patching
    off), matching the classic whole-grid sampler; the engine passes its
    ``DENSE_TOP_K``/``ALIAS_PATCH_FRAC`` constants.
    """

    __slots__ = (
        "matrix",
        "tol",
        "top_k",
        "patch_frac",
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
        "patches",
        "scratch_allocs",
        "build_seconds",
        "refresh_seconds",
        "draw_seconds",
        "_alias",
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
        "_patch_cost",
        "_scan_cost",
    )

    def __init__(
        self,
        p_change_matrix: np.ndarray,
        tol: float,
        top_k: int = 0,
        patch_frac: float = 0.0,
    ):
        if not 0.0 <= tol <= 1.0:
            raise ValueError("alias_rebuild_tol must be in [0, 1]")
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 <= patch_frac <= 1.0:
            raise ValueError("patch_frac must be in [0, 1]")
        self.matrix = p_change_matrix
        self.tol = float(tol)
        self.top_k = int(top_k)
        self.patch_frac = float(patch_frac)
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
        self.refreshes = 0  # partial refreshes (drift within the set)
        self.patches = 0  # refreshes served by the O(touched·a) patch
        self.scratch_allocs = 0  # buffer (re)allocations (regrowth probe)
        self.build_seconds = 0.0
        self.refresh_seconds = 0.0
        self.draw_seconds = 0.0
        self._alias: Optional[AliasTable] = None
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
        self._patch_cost = 0.0  # EMA seconds; 0 = not yet measured
        self._scan_cost = 0.0

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
        act = np.nonzero(full_c > 0.0)[0]
        prev = self.act
        if prev is not None:
            if prev.shape[0] == act.shape[0] and np.array_equal(prev, act):
                act = prev  # identical support: keep the cached gather
            else:
                act = np.union1d(prev, act)
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
        """Re-freeze a drifted epoch: same active set, touched rows/cols.

        Only the rows and columns of states whose count moved since the
        epoch froze are recomputed (against the cached ``p_change``
        sub-matrix — no gather, no active-set scan); cells between two
        unmoved states keep their frozen weight bit-identically.  When
        the touched fraction is below ``patch_frac`` *and* patching has
        measured cheaper than the full derived-quantity rescan, the
        epoch sums are delta-updated in place (see :meth:`_patch`).
        """
        start = time.perf_counter()
        ca_new = full_c[self.act]
        touched = np.nonzero(ca_new != self.ca)[0]
        if touched.size:
            a = self.ca.shape[0]
            patchable = (
                self.patch_frac > 0.0
                and self.row_sums is not None
                and self.total > 0.0
                and touched.size <= self.patch_frac * a
                and (self._scan_cost == 0.0
                     or self._patch_cost <= self._scan_cost)
            )
            if patchable:
                self._patch(touched, ca_new)
                self.patches += 1
                elapsed = time.perf_counter() - start
                self._patch_cost = (
                    elapsed if self._patch_cost == 0.0
                    else 0.5 * (self._patch_cost + elapsed)
                )
            else:
                ca, psub = self.ca, self.psub
                ca[touched] = ca_new[touched]
                if touched.size * 4 >= a:
                    # wide drift: recomputing the whole weight matrix is
                    # one fused kernel, cheaper than four fancy-indexed
                    # row/column updates
                    self.w = pair_weights(ca, psub)
                else:
                    w = self.w
                    w[touched, :] = (
                        ca[touched, None] * ca[None, :] * psub[touched, :]
                    )
                    w[:, touched] = (
                        ca[:, None] * ca[touched][None, :] * psub[:, touched]
                    )
                    w[touched, touched] = (
                        ca[touched]
                        * (ca[touched] - 1.0)
                        * psub[touched, touched]
                    )
                    np.maximum(w, 0.0, out=w)
                self._finalize()
                elapsed = time.perf_counter() - start
                self._scan_cost = (
                    elapsed if self._scan_cost == 0.0
                    else 0.5 * (self._scan_cost + elapsed)
                )
        self.refreshes += 1
        self.refresh_seconds += time.perf_counter() - start

    def _patch(self, touched: np.ndarray, ca_new: np.ndarray) -> None:
        """Delta-update the epoch for a small touched set, O(touched · a).

        Recomputes only the touched rows/columns of ``w`` and folds their
        deltas into the cached row/column sums (touched entries are
        recomputed exactly, untouched entries accumulate the column/row
        deltas), then rederives ``total``/μ/γ/caps in O(a).
        """
        ca, w, psub = self.ca, self.w, self.psub
        t = touched.size
        rows_old = w[touched, :].copy()
        cols_old = w[:, touched].copy()
        ca[touched] = ca_new[touched]
        ct = ca[touched]
        rows_new = ct[:, None] * ca[None, :] * psub[touched, :]
        cols_new = ca[:, None] * ct[None, :] * psub[:, touched]
        diag = ct * (ct - 1.0) * psub[touched, touched]
        np.maximum(rows_new, 0.0, out=rows_new)
        np.maximum(cols_new, 0.0, out=cols_new)
        np.maximum(diag, 0.0, out=diag)
        span = np.arange(t)
        rows_new[span, touched] = diag
        cols_new[touched, span] = diag
        w[touched, :] = rows_new
        w[:, touched] = cols_new
        row_sums, col_sums = self.row_sums, self.col_sums
        # untouched rows change only through the touched columns (and
        # vice versa); touched entries are then recomputed exactly, so
        # float drift never accumulates on the rows that matter
        row_sums += (cols_new - cols_old).sum(axis=1)
        row_sums[touched] = rows_new.sum(axis=1)
        col_sums += (rows_new - rows_old).sum(axis=0)
        col_sums[touched] = cols_new.sum(axis=0)
        np.maximum(row_sums, 0.0, out=row_sums)
        np.maximum(col_sums, 0.0, out=col_sums)
        total = float(row_sums.sum())
        self.total = total
        self._alias = None
        self._pvals = None
        self._tail_cum = None
        if total <= 0.0:
            self._go_silent()
            return
        consume = np.add(row_sums, col_sums, out=self._buf_consume)
        self.consume = consume
        mu = np.divide(consume, total, out=self._buf_mu)
        self.mu = mu
        self._collision_caps()
        self.active_cells = int(np.count_nonzero(w))
        self.cells_nz = (
            np.flatnonzero(w.ravel()) if self.active_cells == 1 else None
        )
        self._refresh_heavy()

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
        self._alias = None  # lazily rebuilt on the next alias-path draw
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
        accumulate).  Dense supports with a frozen heavy partition take
        the hybrid split; otherwise batches with fewer events than cells
        go through O(1)-per-event alias lookups (built lazily once per
        epoch) and denser batches use one multinomial over the identical
        cached cell distribution — same law, and the per-batch cost is
        ``O(min(fired, cells))`` either way.
        """
        start = time.perf_counter()
        try:
            if self.cells_nz is not None:
                # lone active cell: every event lands there, no draw needed
                return self.cells_nz, np.array([fired], dtype=np.int64)
            if self.heavy_cells is not None:
                return self._sample_hybrid(rng, fired)
            ncells = self.w.size
            if fired * 4 < ncells:
                table = self._alias
                if table is None:
                    table = self._alias = AliasTable(self.w.ravel())
                draws = alias_pick(rng, table.prob, table.alias, fired)
                return np.unique(draws, return_counts=True)
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
