"""Multinomial "jump" engine: O(active pairs) work per *batch*.

Per-interaction (and even per-effective-event) stepping caps every engine
in this package at Θ(events) work.  Following the batched simulation idea
of Berenbrink, Hammer, Kaaser, Meyer, Penschuck & Tran ("Simulating
Population Protocols in Sub-Constant Time per Interaction", PAPERS.md),
:class:`BatchCountEngine` advances a count-based configuration by whole
batches of ``B`` scheduler interactions at once:

1. the number of *effective* (state-changing) interactions in the batch is
   ``F ~ Binomial(B, p̄)`` where ``p̄`` is the per-interaction change
   probability of the current configuration;
2. ``F`` is split across the ordered state-pair cells by a multinomial
   over the cells' effective weights ``c_i (c_j - δ_ij) p_change(i, j)``;
3. each cell's events are split across that pair's outcome distribution by
   a further multinomial, and all resulting count deltas are applied in
   one vectorised update.

The batch math runs over the **active pair set** — ordered pairs whose
*both* counts are positive — of the engine's
:class:`~repro.engine.table.TransitionTable`.  By default the protocol's
reachable closure is compiled once into a closed table
(:func:`~repro.engine.compiled.acquire_table`, memoized in-process by a
protocol fingerprint); a closure above
:data:`~repro.engine.compiled.COMPILE_STATE_LIMIT` states runs on an open
:data:`~repro.engine.table.LazyTable` instead, as does any open table
passed as ``table=`` — the batch kernel first fills the missing rows among
the active states.  Cell weights, the binomial/multinomial split and the
count deltas are pure vectorized numpy over the active set: O(active²)
per batch, independent of the table size.  The batch size is capped **per
state**: the expected number of events consuming state ``s`` stays below
``ACCURACY · c_s`` for every ``s``, so a few scarce control states (e.g.
the paper's ``#X ≈ 3`` source agents) do not throttle the whole batch.

Batches freeze the pair-selection probabilities at the batch's
*initial* counts, whereas the exact sequential process updates them after
every event; :data:`ACCURACY` bounds the resulting within-batch drift
(the per-state relative consumption, hence a per-batch total-variation
distance of ``O(ACCURACY · E[F])`` against the exact process).

The engine runs on :class:`~repro.engine.sequential.CountEngine`'s run
loop and contributes one step, :meth:`BatchCountEngine._batch_step`: plan
a batch clamped by the run's :class:`~repro.engine.api.Horizon`, or step
one exact event.  Whenever batching is pointless (expected events per
batch below :data:`MIN_BATCH_EVENTS`) or unsafe (a sampled batch would
drive a count negative), the step is one **exact** event,
:meth:`CountEngine._exact_step` with its geometric null-skipping.  With
``batch=1`` the engine steps *only* exact events and is therefore exactly
the sequential scheduler process — bit-identical to ``CountEngine`` with a
``LazyTable`` under the same seed, closed table or open (the equivalence
suite in ``tests/test_jump_engine.py`` checks this).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import Horizon
from .compiled import TableSource, acquire_table
from .sequential import CountEngine
from .silence import silent_weight
from .table import LazyTable, TransitionTable

#: Within-batch drift budget: the expected events *consuming each state*
#: ``s`` are kept below ``ACCURACY · c_s``.  ``0.05`` keeps convergence
#: statistics of the paper's workloads indistinguishable from exact runs
#: at n = 10⁶ while still jumping millions of interactions per batch.
ACCURACY = 0.05

#: Below this expected number of effective events per batch the exact path
#: is used instead (null skipping already makes sparse-event regimes
#: cheap, so batching there would only cost fidelity).
MIN_BATCH_EVENTS = 8.0


def pair_weights(counts: np.ndarray, p_sub: np.ndarray) -> np.ndarray:
    """Effective-weight tensor ``c_i (c_j - δ_ij) p_change(i, j)``.

    ``counts`` is ``(a,)`` for a single configuration (returns ``(a, a)``)
    or ``(L, a)`` for stacked ensemble rows (returns ``(L, a, a)``);
    ``p_sub`` is the ``(a, a)`` sub-matrix ``p_change[np.ix_(act, act)]``
    over the same active states.  Negative products (transient
    inconsistencies) are clamped to zero.  Shared by the jump, ensemble
    and alias-epoch samplers, whose sample paths depend on these exact
    floating-point expressions.
    """
    if counts.ndim == 1:
        w = counts[:, None] * counts[None, :]
        diag = np.arange(len(counts))
        w[diag, diag] = counts * (counts - 1.0)
        w *= p_sub
        np.maximum(w, 0.0, out=w)
        return w
    w = counts[:, :, None] * counts[:, None, :]
    diag = np.arange(counts.shape[1])
    w[:, diag, diag] = counts * (counts - 1.0)
    w *= p_sub[None, :, :]
    np.maximum(w, 0.0, out=w)
    return w


def split_outcomes_grouped(
    rng: np.random.Generator,
    delta: np.ndarray,
    counts: np.ndarray,
    start: np.ndarray,
    width: np.ndarray,
    out_p: np.ndarray,
    out_a: np.ndarray,
    out_b: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> None:
    """Split per-cell event counts over each pair's outcome distribution.

    Cells are grouped by outcome-list width ``w`` and each group is drawn
    as one stacked ``(m, w)`` multinomial with 2-D pvals — a handful of
    RNG calls total, regardless of how many cells fired.  Draws scatter
    into ``delta``: a 1-D vector over compiled states, or a 2-D ``(R, q)``
    ensemble matrix when ``rows`` gives each cell's row index.  Cells with
    non-positive width or zero outcome mass (corrupt offsets) are skipped —
    their events vanish, which the conservation guard then reports.
    """
    # the distinct positive widths, ascending (a plain np.unique would
    # load numpy.ma)
    for w in np.flatnonzero(np.bincount(np.maximum(width, 0))[1:]) + 1:
        sel = np.nonzero(width == w)[0]
        pos = start[sel][:, None] + np.arange(int(w))
        pv = out_p[pos]
        tot = pv.sum(axis=1, keepdims=True)
        good = tot[:, 0] > 0.0
        if not good.all():
            sel, pos, pv, tot = sel[good], pos[good], pv[good], tot[good]
            if not len(sel):
                continue
        if w == 1:
            # a one-outcome row draws no variate: skip the call, same stream
            draws = counts[sel][:, None]
        else:
            draws = rng.multinomial(counts[sel], pv / tot)
        if rows is None:
            # bincount scatter: far cheaper than np.add.at for the 1-D
            # path (float64 weights are exact for counts < 2^53)
            dr = draws.ravel()
            gain = np.bincount(
                out_a[pos].ravel(), weights=dr, minlength=delta.shape[0]
            )
            gain += np.bincount(
                out_b[pos].ravel(), weights=dr, minlength=delta.shape[0]
            )
            delta += gain.astype(delta.dtype)
        else:
            rep = np.repeat(rows[sel], int(w))
            np.add.at(delta, (rep, out_a[pos].ravel()), draws.ravel())
            np.add.at(delta, (rep, out_b[pos].ravel()), draws.ravel())


class BatchCountEngine(CountEngine):
    """Count-based engine advancing by multinomial batch jumps.

    Parameters
    ----------
    table:
        ``None`` (default) compiles the reachable closure into a closed
        table, or uses an open :data:`~repro.engine.table.LazyTable` when
        the closure exceeds the compile limit; or pass a pre-built table
        (closed tables must cover the population's support).
    batch:
        ``None`` (default) sizes batches adaptively from
        :data:`ACCURACY`, stepping exactly below :data:`MIN_BATCH_EVENTS`
        expected events; an integer forces that batch size.  ``batch=1``
        disables batching entirely — the engine then runs the exact
        null-skipping process.
    """

    name = "batch"

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        rng: Optional[np.random.Generator] = None,
        table: Optional[TransitionTable] = None,
        batch: Optional[int] = None,
        guards: object = None,
    ):
        if batch is not None and batch < 1:
            raise ValueError("batch must be a positive integer or None")

        #: how this engine obtained its closed table (``None`` when it was
        #: handed one or runs on an open table)
        self.table_source: Optional[TableSource] = None
        if table is None:
            try:
                table, self.table_source = acquire_table(
                    protocol, population.counts.keys()
                )
            except RuntimeError:
                table = LazyTable(protocol)  # closure too large to compile
        super().__init__(protocol, population, rng=rng, table=table, guards=guards)

        self.batch = batch
        self.batches = 0  # multinomial jumps taken
        self.fallbacks = 0  # batches rejected for count feasibility
        self.kernel_seconds = 0.0  # wall time inside the batch kernels
        self._batch_events = 0
        self._active_count = 0  # batches recorded in the running stats
        self._active_pairs_sum = 0
        self._active_pairs_max = 0
        self._active_states_last = 0

        #: counts over the table's dense state indices
        self._full_c = np.zeros(table.num_states, dtype=np.float64)
        self._full_c[self._states] = self._c

    # -- stats surface ---------------------------------------------------------
    @property
    def active_pair_stats(self) -> Optional[Tuple[int, int, int, int]]:
        """(batches counted, Σ active pairs, max active pairs, last active states)."""
        if not self._active_count:
            return None
        return (
            self._active_count,
            self._active_pairs_sum,
            self._active_pairs_max,
            self._active_states_last,
        )

    # -- count bookkeeping -----------------------------------------------------
    def _sync_counts(self) -> None:
        """Grow the count vector to states an open table indexed since."""
        missing = self.table.num_states - len(self._full_c)
        if missing > 0:
            self._full_c = np.concatenate([self._full_c, np.zeros(missing)])

    def _bump(self, idx: int, delta: int) -> None:
        super()._bump(idx, delta)
        if idx >= len(self._full_c):
            self._sync_counts()
        self._full_c[idx] += delta

    # -- batch machinery (active pairs only) -------------------------------------
    def _active_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Active states and their effective-weight matrix.

        Returns ``(act, w)`` where ``act`` holds the table indices of
        states with positive counts, in the table's canonical order, and
        ``w[i, j]`` is the effective weight ``c_i (c_j - δ_ij)
        p_change(i, j)`` of the ordered active pair — everything
        downstream is O(len(act)²), independent of the table size.  On an
        open table this first computes any missing rows among ``act``.
        """
        act = self.table.canonical(np.nonzero(self._full_c > 0.0)[0])
        p_sub = self.table.p_change_block(act)
        self._sync_counts()  # the new rows may have indexed new states
        return act, pair_weights(self._full_c[act], p_sub)

    def _per_state_batch_cap(
        self, act: np.ndarray, w: np.ndarray, pairs_total: float
    ) -> float:
        """Largest batch keeping every state's expected consumption small.

        For batch size B the expected number of events consuming state
        ``s`` is ``B · weight_s / pairs_total`` (``weight_s`` = total
        weight of cells with ``s`` as initiator or responder; the diagonal
        cell counts twice, matching its two consumed agents).  The cap is
        the largest B with ``B · weight_s / pairs_total ≤ ACCURACY · c_s``
        for all consumable ``s``.
        """
        consume = w.sum(axis=1) + w.sum(axis=0)
        ca = self._full_c[act]
        live = consume > 0.0
        if not live.any():
            return 0.0
        caps = ACCURACY * ca[live] * pairs_total / consume[live]
        return float(caps.min())

    def _sample_active_deltas(
        self,
        batch: int,
        act: np.ndarray,
        w: np.ndarray,
        total_weight: float,
        pairs_total: float,
    ) -> Optional[np.ndarray]:
        """Sample one batch's count deltas over the table's states.

        Returns an int64 delta vector over all indexed states (empty
        batches return the zero vector), or ``None`` when the sampled
        event counts would drive some state's count negative.
        """
        table = self.table
        q = len(self._full_c)
        p_change = min(total_weight / pairs_total, 1.0)
        fired = int(self.rng.binomial(batch, p_change))
        if fired == 0:
            self._batch_events = 0
            return np.zeros(q, dtype=np.int64)
        flat = w.ravel()
        cell_counts = self.rng.multinomial(fired, flat / flat.sum())
        nz = np.nonzero(cell_counts)[0]
        counts = cell_counts[nz].astype(np.int64)
        a = len(act)
        gi = act[nz // a]
        gj = act[nz % a]
        delta = np.zeros(q, dtype=np.int64)
        np.add.at(delta, gi, -counts)
        np.add.at(delta, gj, -counts)
        # split each cell's events over its outcome distribution with one
        # stacked multinomial per distinct outcome width: cells grouped by
        # width w draw as a single (m, w) multinomial with 2-D pvals,
        # replacing the per-position binomial chain
        rows = table.rows(gi, gj)
        start = table.off[rows]
        width = table.off[rows + 1] - start
        split_outcomes_grouped(
            self.rng, delta, counts, start, width,
            table.out_p, table.out_a, table.out_b,
        )
        if np.any(self._full_c + delta < 0):
            return None
        self._batch_events = fired
        return delta

    def _apply_active_deltas(self, delta: np.ndarray) -> None:
        for idx in self.table.canonical(np.nonzero(delta)[0]).tolist():
            self._bump(idx, int(delta[idx]))

    # -- the run's step ---------------------------------------------------------
    def _pick_step(self) -> Callable[[Horizon], bool]:
        """``batch=1`` steps exact events only; otherwise :meth:`_batch_step`."""
        return self._exact_step if self.batch == 1 else self._batch_step

    def _batch_step(self, h: Horizon) -> bool:
        """One batch sized from :data:`ACCURACY` and clamped by the horizon,
        or one exact event where a batch would not pay or fit."""
        pairs_total = float(h.n) * float(h.n - 1)
        kernel_start = time.perf_counter()
        act, weights = self._active_weights()
        if self.guards is not None:
            # NaN weights would otherwise degrade silently (cap=0 →
            # exact path) — vet them before they feed any arithmetic.
            self.guards.check_weights(self, weights, codes=self.table.codes[act])
        total_weight = float(weights.sum())
        p_change = total_weight / pairs_total
        if silent_weight(total_weight):
            # Weights are summed fresh from the counts, so an exact zero
            # means true silence; any positive total — however small
            # relative to pairs_total — keeps stepping (an absolute
            # p_change floor falsely halts n >= 1e8 endgames).
            self.kernel_seconds += time.perf_counter() - kernel_start
            self.interactions = h.fast_forward(self.interactions)
            return False

        if self.batch is not None:
            batch = self.batch
        else:
            cap = self._per_state_batch_cap(act, weights, pairs_total)
            if min(cap * p_change, h.events_left()) < MIN_BATCH_EVENTS:
                # sparse-event regime: exact null skipping is cheap *and*
                # exact — batching would only cost fidelity.
                self.kernel_seconds += time.perf_counter() - kernel_start
                return self._exact_step(h)
            batch = int(cap)
        batch = h.clamp(batch, self.interactions, p_change)
        if batch < 1:
            self.kernel_seconds += time.perf_counter() - kernel_start
            return self._exact_step(h)
        if self.guards is not None:
            self.guards.check_batch(self, batch)

        live_cells = int(np.count_nonzero(weights))
        self._active_count += 1
        self._active_pairs_sum += live_cells
        self._active_pairs_max = max(self._active_pairs_max, live_cells)
        self._active_states_last = len(act)
        deltas = self._sample_active_deltas(
            batch, act, weights, total_weight, pairs_total
        )
        while deltas is None and batch > 1:
            # infeasible draw: halve towards the exact regime, retry
            self.fallbacks += 1
            batch //= 2
            deltas = self._sample_active_deltas(
                batch, act, weights, total_weight, pairs_total
            )
        self.kernel_seconds += time.perf_counter() - kernel_start
        if deltas is None:
            return self._exact_step(h)
        self._apply_active_deltas(deltas)
        self.interactions += batch
        self.events += self._batch_events
        h.events += self._batch_events
        self.batches += 1
        if self.guards is not None:
            self.guards.after_batch(self)
        h.emit_up_to(self.interactions, self._population)
        return not h.halted(self._population)
