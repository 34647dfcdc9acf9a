"""BGHKPU engine: frozen-epoch batches, sub-constant work per interaction.

:class:`BGHKPUEngine` implements the batched simulation of Berenbrink,
Hammer, Kaaser, Meyer, Penschuck & Tran ("Simulating Population Protocols
in Sub-Constant Time per Interaction", arXiv:2005.03584, PAPERS.md) on
top of the compiled count representation of
:class:`~repro.engine.jump.BatchCountEngine`.  The registry name
``"bghkpu"`` is historical — it does not spell those authors' initials —
and stays because manifests, service requests and benchmark specs
select the engine by it:

1. the active ordered-pair weights are *frozen* into an epoch by
   :class:`~repro.engine.alias.ActivePairSampler` and only re-frozen when
   accumulated count drift exceeds ``ALIAS_REBUILD_TOL`` (a refresh
   recomputing the weights over the same active set) or the active set
   itself changes (a full rebuild);
2. each batch advances ``B`` scheduler interactions whose effective-event
   count is ``F ~ Binomial(B, p̄)``; ``B`` is sized **collision-aware**
   from the birthday bound — the expected number of event picks that
   would collide on the same agent, ``γ F²`` with
   ``γ = Σ_s μ_s² / (2 c_s)``, is kept below ``COLLISION_FRAC · F`` —
   and by the per-state feasibility cap ``F ≤ ½ min_s c_s / μ_s``;
3. the ``K ≈ γ F²`` colliding tail is resolved against *fresh* counts:
   the ``F − K`` main events are drawn over the frozen (pair, outcome)
   entries (item 5) and applied, the sampler is re-frozen from the
   updated counts, and the last ``K`` events are drawn from that
   refreshed distribution (recorded in ``collision_events``);
4. when the expected events per batch fall below ``MIN_BATCH_EVENTS``
   the engine degrades to *exact* single-event stepping on the same lean
   machinery — the gap to the next effective event is geometric in the
   frozen ``p̄`` and the event is drawn from the (refreshed-within-
   tolerance) cell distribution, so endgame convergence times are not
   quantized to batch boundaries.  A *degenerate* epoch — one live
   ordered pair with a deterministic outcome, the endgame of most
   workloads and the leader fight end to end — is stepped on exact
   scalar weights without the epoch machinery, its counts and counters
   in Python locals (written back on every exit), until ``stop`` holds,
   the horizon closes, the pair drains or a firing lights another
   cell.  Creating a state that pairs with nothing (the leader fight's
   F) only schedules the next rebuild, so a leader fight freezes its
   epoch once;
5. every batch is one draw over table entries: the sampler expands the
   ``min(DENSE_TOP_K, live cells)`` heaviest cells into their (pair,
   outcome) entries and draws them plus one pooled light-tail bin in a
   single grouped multinomial — tail events are placed by binary search
   on the tail's running sum and a second uniform within the row — so
   applying a batch is one ``bincount`` scatter with no per-width
   outcome split.  On dense supports (oscillator-sized active sets,
   E3/E4) a feedback controller scales the batch cap from observed
   batch outcomes: clean batches grow it past the feasibility half-cap
   (never past the ``COLLISION_FRAC/γ`` birthday bound), infeasible
   draws and repair bursts shrink it.  Autotuned batches may overdraw a
   scarce state; instead of rejecting the whole draw, the overdrawing
   entries are clamped to the feasible region and the clamped-away
   events join the colliding tail redrawn against fresh counts
   (``repair_events``).

The engine runs on :class:`~repro.engine.sequential.CountEngine`'s run
loop, which owns the budget, the observer grid and ``max_events`` through
the run's :class:`~repro.engine.api.Horizon`; it contributes one step,
:meth:`BGHKPUEngine._epoch_step` (items 2–5; the degenerate epoch and the
lean sparse event stay inside it and take their clamps from the
horizon).  The step is picked once per run: an open table (a reachable
closure too large to compile, or one passed as ``table=``), forced
``batch=1`` or an active set too small to batch at the start of the run
take ``BatchCountEngine``'s step for the whole run instead.  Unlike that
step, the epoch step never touches the per-support ``_c``/``_v``
bookkeeping of ``CountEngine`` — deltas land directly on the compiled
count vector and the population dict, and the exact-path state is
rebuilt lazily only when a run takes the parent's step.

Distributional correctness is gated by the same KS-equivalence suites as
the parent (E1/E3 observer grids, pooled ``ks_2samp`` vs ``batch``);
``benchmarks/run_all.py bghkpu_scale`` races it against ``batch`` on the
leader fight at n = 10⁸ (``BENCH_bghkpu.json``, ≥5x target).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .alias import ActivePairSampler
from .api import MAX_BATCH, Horizon
from .jump import MIN_BATCH_EVENTS, BatchCountEngine
from .silence import silent_weight
from .table import TransitionTable


class BGHKPUEngine(BatchCountEngine):
    """Frozen-epoch batch engine with collision-aware batch sizing.

    Takes the :class:`~repro.engine.jump.BatchCountEngine` arguments.  Its
    sizing is fixed by the class constants below, not by arguments.

    The batch cap is always autotuned: clean batches grow it ×1.2 past
    the feasibility half-cap (up to a ×64 ceiling, and never past the
    ``COLLISION_FRAC/γ`` birthday bound — the fidelity wall), infeasible
    draws and repair bursts shrink it ×0.5 (floor ×0.25).  A scarce-state
    overdraw is *repaired* — clamped to the feasible region, the clamped
    events pushed into the fresh-count tail — instead of rejecting the
    whole batch.
    """

    name = "bghkpu"

    #: Colliding-pick budget per batch: ``B`` is capped so the expected
    #: number of event picks colliding on the same agent stays below this
    #: fraction of the batch's effective events (the colliding tail is
    #: then re-drawn against fresh counts).
    COLLISION_FRAC = 0.2

    #: Relative per-state count drift above which the frozen epoch is
    #: re-frozen (a weight refresh over the same active set).
    ALIAS_REBUILD_TOL = 0.05

    #: Heavy-cell bound of the epoch sampler: the ``min(K, live cells)``
    #: heaviest frozen cells are expanded into their outcome entries and
    #: drawn in one grouped multinomial with the pooled light tail; only
    #: the tail is placed by binary search.
    DENSE_TOP_K = 512

    #: Autotune multiplier range.  The ceiling matters when the static
    #: sizing is pinned by the feasibility cap (scarce states with O(1)
    #: agents keep ``½ min_s c_s/μ_s`` small while the collision bound
    #: scales with n): repair lifts the feasibility constraint, so the
    #: multiplier may climb until the ``COLLISION_FRAC/γ`` bound takes
    #: over.  The collision bound itself is never relaxed — batches
    #: longer than the birthday sizing visibly damp oscillatory
    #: dynamics (trajectory variance collapses well before mean
    #: statistics move), so it is the fidelity wall for autotune too.
    _AUTOTUNE_SCALE_MIN = 0.25
    _AUTOTUNE_SCALE_MAX = 64.0

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
        super().__init__(
            protocol, population, rng=rng, table=table, batch=batch,
            guards=guards,
        )
        #: Tail events re-drawn against fresh counts (collision resolution).
        self.collision_events = 0
        #: Overdrawn events clamped out of a batch and pushed to the tail.
        self.repair_events = 0
        #: Wall time in the entry scatter (drawn entries → per-state delta).
        self.outcome_split_seconds = 0.0
        self._sampler: Optional[ActivePairSampler] = None
        self._support_stale = False  # _c/_v behind the lean count vector
        self._need_rebuild = True  # active set changed since last epoch
        self._tune_scale = 1.0  # autotune multiplier on the batch cap
        self._act_mask: Optional[np.ndarray] = None  # state ∈ sampler act
        self._act_mask_src: Optional[np.ndarray] = None

    # -- stats surface -------------------------------------------------------
    @property
    def alias_rebuilds(self) -> int:
        """Epoch re-freezes so far (full rebuilds + partial refreshes)."""
        s = self._sampler
        return (s.rebuilds + s.refreshes) if s is not None else 0

    @property
    def alias_build_seconds(self) -> float:
        """Wall time spent in full epoch rebuilds (fresh freezes)."""
        s = self._sampler
        return s.build_seconds if s is not None else 0.0

    @property
    def alias_refresh_seconds(self) -> float:
        """Wall time spent in drift refreshes (weight recomputes)."""
        s = self._sampler
        return s.refresh_seconds if s is not None else 0.0

    @property
    def cell_draw_seconds(self) -> float:
        """Wall time spent drawing batch cells from the frozen epochs."""
        s = self._sampler
        return s.draw_seconds if s is not None else 0.0

    # -- lean count bookkeeping ----------------------------------------------
    def _sync_exact(self) -> None:
        """Rebuild the exact-path ``_c``/``_v`` state after lean applies."""
        if self._support_stale:
            self._rebuild()
            self._support_stale = False

    def _act_member_mask(self) -> Optional[np.ndarray]:
        """Boolean membership of each global state in the sampler's act.

        Cached by the identity of the sampler's act array — a rebuild
        that keeps the (sticky) active set also keeps the mask.
        """
        s = self._sampler
        act = s.act if s is not None else None
        if act is None:
            return None
        if self._act_mask_src is not act:
            mask = np.zeros(self.table.num_states, dtype=bool)
            mask[act] = True
            self._act_mask = mask
            self._act_mask_src = act
        return self._act_mask

    def _apply_delta_lean(self, delta: np.ndarray) -> None:
        """Apply an int64 per-state delta without the ``_bump`` machinery.

        Lands directly on the compiled count vector and the population
        dict; the exact-path state is marked stale and rebuilt only if
        the engine later delegates.  A delta creating a state *outside*
        the sampler's (sticky) active set schedules a full epoch rebuild
        — creation inside the tracked union only drifts counts, which
        the next staleness check resolves with a refresh.
        """
        nz = np.nonzero(delta)[0]
        if not nz.size:
            return
        full_c = self._full_c
        dn = delta[nz]
        created = (dn > 0) & (full_c[nz] == 0.0)
        if created.any():
            mask = self._act_member_mask()
            if mask is None or not mask[nz[created]].all():
                self._need_rebuild = True
        full_c[nz] += dn
        counts = self._population.counts
        for code, d in zip(self.table.codes[nz].tolist(), dn.tolist()):
            have = counts.get(code, 0) + d
            if have > 0:
                counts[code] = have
            elif have == 0:
                del counts[code]
            else:
                raise ValueError(
                    "cannot remove {} agents from state {} (have {})".format(
                        -d, code, have - d
                    )
                )
        self._support_stale = True

    # -- frozen-distribution event sampling -----------------------------------
    def _entries_to_delta(
        self, cells: np.ndarray, entries: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-state delta of ``counts[k]`` events taking ``entries[k]``.

        Each event consumes its cell's two states and produces its
        entry's two outcome states: one ``bincount`` scatter (far cheaper
        than ``np.add.at``; float64 weights are exact for counts < 2^53).
        """
        start = time.perf_counter()
        ct = self.table
        act = self._sampler.act
        a = len(act)
        idx = np.concatenate((
            act[cells // a], act[cells % a],
            ct.out_a[entries], ct.out_b[entries],
        ))
        neg = -counts
        weights = np.concatenate((neg, neg, counts, counts))
        delta = np.bincount(
            idx, weights=weights, minlength=ct.num_states
        ).astype(np.int64)
        self.outcome_split_seconds += time.perf_counter() - start
        return delta

    def _repair_draw(
        self, cells: np.ndarray, entries: np.ndarray, counts: np.ndarray
    ) -> tuple:
        """Clamp an overdrawing entry draw onto the feasible region.

        Per-state consumption of the draw is compared against the
        *current* counts; entries whose cell touches an overdrawn state
        are scaled by that state's feasible fraction (floored), which
        guarantees every state's clamped consumption fits its count.
        Returns ``(cells, entries, counts, excess)`` — the ``excess``
        clamped-away events are the caller's to redraw against fresh
        counts (the same resolution as the colliding tail, recorded in
        ``repair_events``).
        """
        sampler = self._sampler
        a = len(sampler.act)
        gi = cells // a
        gj = cells % a
        consumed = np.bincount(gi, weights=counts, minlength=a)
        consumed += np.bincount(gj, weights=counts, minlength=a)
        cap = self._full_c[sampler.act]
        over = consumed > cap
        if not over.any():
            return cells, entries, counts, 0
        factor = np.ones(a)
        factor[over] = np.maximum(cap[over], 0.0) / consumed[over]
        fcell = np.minimum(factor[gi], factor[gj])
        clamped = np.floor(counts * fcell).astype(np.int64)
        excess = int(counts.sum() - clamped.sum())
        keep = clamped > 0
        return cells[keep], entries[keep], clamped[keep], excess

    def _try_delta(self, events: int, repair: bool = False) -> tuple:
        """``(delta, excess)`` of ``events`` frozen-distribution events.

        ``delta`` is ``None`` if the draw is infeasible (overdraws some
        state and repair is off or clamped everything away).
        """
        cells, entries, counts = self._sampler.sample_entries(self.rng, events)
        excess = 0
        if repair:
            cells, entries, counts, excess = self._repair_draw(
                cells, entries, counts
            )
            if not cells.size:
                return None, 0
        delta = self._entries_to_delta(cells, entries, counts)
        if np.any(self._full_c + delta < 0):
            return None, 0
        return delta, excess

    def _feasible_delta(self, events: int, repair: bool = False) -> tuple:
        """``(delta, applied, excess)`` with refresh-then-halve retries.

        A single event drawn from freshly re-frozen weights is always
        feasible (a positive cell weight implies the counts support one
        event there), so the retry ladder — refresh once, then halve,
        then rebuild — terminates; the attempts cap is a safety net.
        ``applied = events − excess`` is the event count actually in the
        returned delta (events may have been halved on retries, and
        ``excess`` clamped-away events await a fresh-count redraw).
        Returns ``(None, 0, 0)`` only if the configuration went silent.
        """
        sampler = self._sampler
        delta, excess = self._try_delta(events, repair)
        refreshed = False
        attempts = 64
        while delta is None and attempts:
            attempts -= 1
            self.fallbacks += 1
            if not refreshed:
                sampler.refresh(self._full_c)
                refreshed = True
            elif events > 1:
                events //= 2
            else:
                sampler.rebuild(self._full_c)
            if sampler.total <= 0.0:
                return None, 0, 0
            delta, excess = self._try_delta(events, repair)
        if delta is None:
            raise RuntimeError(
                "bghkpu could not draw a feasible batch of 1 event from "
                "fresh weights (corrupt table or counts)"
            )
        return delta, events - excess, excess

    # -- the run's step ---------------------------------------------------------
    def _pick_step(self) -> Callable[[Horizon], bool]:
        """The epoch step, or the parent's step where it fits better.

        An open table (a closure too large to compile, or one passed in)
        and forced exact stepping (``batch=1``) take the parent's step, as
        does an active set too small to batch at the start of the run,
        where the exact path is both faster and exact.
        """
        self._sync_exact()
        if not self.table.closed or self.batch == 1:
            return super()._pick_step()
        sampler = self._sampler
        if sampler is None:
            sampler = self._sampler = ActivePairSampler(
                self.table, self.ALIAS_REBUILD_TOL, self.DENSE_TOP_K
            )
            self._need_rebuild = True
        if self._need_rebuild or sampler.act is None or sampler.stale(self._full_c):
            sampler.rebuild(self._full_c)
            self._need_rebuild = False
        if self.batch is None and sampler.total > 0.0:
            f_cap = 0.5 * sampler.cap_events
            if sampler.gamma > 0.0:
                f_cap = min(f_cap, self.COLLISION_FRAC / sampler.gamma)
            if f_cap < 2.0:
                return super()._pick_step()
        return self._epoch_step

    def _epoch_step(self, h: Horizon) -> bool:
        """One step on the current epoch; ``False`` ends the run.

        The epoch is re-frozen first if the active set changed or the
        counts drifted.  A degenerate epoch runs :meth:`_one_pair_steps`;
        otherwise the step is one batch, or one lean exact-gap event when
        the batch would hold fewer than :data:`MIN_BATCH_EVENTS` events.
        """
        sampler = self._sampler
        full_c = self._full_c
        pop = self._population
        rng = self.rng
        h.emit_up_to(self.interactions, pop)

        kernel_start = time.perf_counter()
        if self._need_rebuild:
            sampler.rebuild(full_c)
            self._need_rebuild = False
        elif sampler.stale(full_c):
            sampler.refresh(full_c)

        guards = self.guards
        if guards is not None:
            guards.check_weights(self, sampler.w, codes=self.table.codes[sampler.act])
        if sampler.cells_nz is not None and self.batch is None:
            go_on = self._one_pair_steps(h)
            if go_on is not None:
                self.kernel_seconds += time.perf_counter() - kernel_start
                if guards is not None:
                    # the loop has written its counts back
                    guards.after_batch(self)
                return go_on

        p_change = sampler.total / (float(h.n) * float(h.n - 1))
        if silent_weight(sampler.total):
            # The sampler total is summed fresh from the counts, so exact
            # zero <=> silence at any scale; a tiny positive p_change is
            # handled by the geometric endgame instead.
            self.kernel_seconds += time.perf_counter() - kernel_start
            self.interactions = h.fast_forward(self.interactions)
            return False

        gamma = sampler.gamma
        f_cap = 0.5 * sampler.cap_events
        if gamma > 0.0:
            f_cap = min(f_cap, self.COLLISION_FRAC / gamma)
        autotuned = self.batch is None and f_cap >= MIN_BATCH_EVENTS
        if autotuned:
            # feedback-scaled cap: observed batch outcomes move the
            # multiplier past the feasibility half-cap (repair keeps
            # scarce-state overdraws safe), but never past the collision
            # bound — that is the fidelity wall.
            scaled = f_cap * self._tune_scale
            if gamma > 0.0:
                coll_bound = self.COLLISION_FRAC / gamma
                if scaled > coll_bound:
                    scaled = coll_bound
            if scaled < MIN_BATCH_EVENTS:
                scaled = MIN_BATCH_EVENTS
            f_cap = scaled
        f_cap = min(f_cap, h.events_left())

        if self.batch is None and f_cap < MIN_BATCH_EVENTS:
            # sparse regime: one exact-gap event on the lean machinery
            # (geometric gap in the frozen p̄, so endgame convergence times
            # are not quantized to batch boundaries)
            gap = int(rng.geometric(min(p_change, 1.0)))
            event_at = self.interactions + gap
            if h.target is not None and event_at > h.target:
                self.interactions = h.target
                self.kernel_seconds += time.perf_counter() - kernel_start
                return False
            h.emit_up_to(event_at - 1, pop)
            self.interactions = event_at
            delta, applied, _ = self._feasible_delta(1)
            if delta is not None:
                self._apply_delta_lean(delta)
            self.events += applied
            h.events += applied
            self.kernel_seconds += time.perf_counter() - kernel_start
            if guards is not None:
                guards.after_batch(self)
            return not h.halted(pop)

        batch = self.batch if self.batch is not None else int(f_cap / p_change)
        batch = h.clamp(batch, self.interactions, p_change)
        if batch < 1:
            batch = 1
        if guards is not None:
            guards.check_batch(self, batch)

        fired = int(rng.binomial(batch, min(p_change, 1.0)))
        applied = 0
        fallbacks_before = self.fallbacks
        repaired = 0
        if fired:
            # colliding tail per the birthday bound: resolved against
            # fresh counts after the main split lands
            tail = 0
            if gamma > 0.0 and fired > 1:
                tail = min(fired, int(gamma * fired * fired + 0.5))
            main = fired - tail
            if main > 0:
                delta, done, excess = self._feasible_delta(main, repair=autotuned)
                if delta is not None:
                    self._apply_delta_lean(delta)
                    applied += done
                    if excess:
                        # clamped overdraw joins the fresh-count tail
                        repaired += excess
                        tail += excess
            if tail > 0:
                left = tail
                tries = 4
                while left > 0 and tries:
                    tries -= 1
                    sampler.refresh(full_c)
                    if sampler.total <= 0.0:
                        break
                    delta, done, excess = self._feasible_delta(
                        left, repair=autotuned
                    )
                    if delta is None:
                        break
                    self._apply_delta_lean(delta)
                    applied += done
                    self.collision_events += done
                    repaired += excess
                    # halving/clamp leftovers retry against refreshed
                    # counts a few times, then drop — the frozen p̄
                    # overestimates the drained weight by at least as much
                    # (KS-gated)
                    left -= done
            if repaired:
                self.repair_events += repaired

        self.interactions += batch
        self.events += applied
        h.events += applied
        self.batches += 1
        self._active_count += 1
        cells = sampler.active_cells
        self._active_pairs_sum += cells
        if cells > self._active_pairs_max:
            self._active_pairs_max = cells
        self._active_states_last = len(sampler.act)
        if autotuned:
            # feedback: a clean batch earns a longer epoch next time; an
            # infeasible draw or a repair burst means the frozen weights
            # overreached — back off fast
            burst = repaired > max(8.0, 1e-3 * fired)
            if self.fallbacks > fallbacks_before or burst:
                self._tune_scale = max(
                    self._AUTOTUNE_SCALE_MIN, self._tune_scale * 0.5
                )
            elif self._tune_scale < self._AUTOTUNE_SCALE_MAX:
                self._tune_scale = min(
                    self._AUTOTUNE_SCALE_MAX, self._tune_scale * 1.2
                )
        self.kernel_seconds += time.perf_counter() - kernel_start
        if guards is not None:
            guards.after_batch(self)
        h.emit_up_to(self.interactions, pop)
        return not h.halted(pop)

    def _one_pair_steps(self, h: Horizon) -> Optional[bool]:
        """Step a degenerate epoch on exact scalar weights.

        A degenerate epoch has one live ordered pair (the endgame of most
        workloads, and the leader fight end to end).  When its outcome is
        deterministic the epoch machinery is pure overhead, so this steps
        it on Python scalars — and with strictly *better* fidelity, since
        every batch and every sparse gap is sized from the true current
        counts.  Returns whether the run goes on; ``None`` (nothing
        stepped) when the pair's outcome is random.

        The loop ends when ``stop`` holds (``False``), the horizon closes,
        the pair drains, or a firing lights another cell: it grows a state
        with a nonzero ``p_change`` to a support state in either order, or
        to itself.  The last two schedule a rebuild and hand the run back
        to a fresh epoch.  A firing that creates a state with no such
        partner (the leader fight's F) does not end the loop; it schedules
        the rebuild for the next epoch or run, so a leader fight freezes
        its epoch once.

        The pair's and its moved states' counts live in locals.  The
        population dict is written on every firing (``stop`` and the
        observers read it), by the rules of :meth:`_apply_delta_lean`;
        the compiled count vector and the counters are written back on
        every exit.  Under guards every batch passes ``check_batch``, and
        :meth:`_epoch_step` runs the count checks after the write-back.
        """
        sampler = self._sampler
        ct = self.table
        act = sampler.act
        a = len(act)
        cell = int(sampler.cells_nz[0])
        gi = int(act[cell // a])
        gj = int(act[cell % a])
        pc = float(sampler.psub[cell // a, cell % a])
        flat = gi * ct.num_states + gj
        s = int(ct.off[flat])
        if not (
            int(ct.off[flat + 1]) == s + 1 and float(ct.out_p[s]) > 0.0 and pc > 0.0
        ):
            return None
        full_c = self._full_c
        # one firing's net change per state, L + L -> L + F being L -1, F +1
        net: Dict[int, int] = {}
        for k, d in (
            (gi, -1), (gj, -1), (int(ct.out_a[s]), 1), (int(ct.out_b[s]), 1)
        ):
            net[k] = net.get(k, 0) + d
        ks = list(net)
        grow = [k for k in ks if net[k] > 0]
        hand_over = self._lights_a_cell(gi, gj, grow)
        # states the first firing creates: they schedule the next rebuild,
        # whose (sticky) active set, reported per batch, adds them
        created = [k for k in grow if full_c[k] == 0.0]
        if created:
            a_created = len(set(act.tolist()).union(created))

        cnt = [float(full_c[k]) for k in ks]
        ii = ks.index(gi)
        jj = ks.index(gj)
        moves = [
            (slot, int(ct.codes[k]), net[k]) for slot, k in enumerate(ks) if net[k]
        ]
        pop = self._population
        counts = pop.counts
        geometric = self.rng.geometric
        binomial = self.rng.binomial
        halted = h.halted
        emit = h.emit_up_to if h.next_observation is not None else None
        target = h.target
        cap = h.max_events
        pairs_total = float(h.n) * float(h.n - 1)
        check_batch = None if self.guards is None else self.guards.check_batch
        same = gi == gj
        cf = self.COLLISION_FRAC
        min_ev = MIN_BATCH_EVENTS
        now = self.interactions
        h_events = h.events
        events = batches = collided = 0
        a_now = states_last = a
        try:
            while True:
                ci = cnt[ii]
                cj = cnt[jj]
                wgt = ci * ((cj - 1.0) if same else cj) * pc
                if silent_weight(wgt):
                    self._need_rebuild = True  # cell drained
                    return True
                # wgt > 0 means the pair is live no matter how small p gets
                # (6e-16 at 3 leaders, n = 1e8); the geometric gap below
                # steps such endgames exactly in O(1), so no absolute floor
                # on p is needed or wanted.
                p = wgt / pairs_total
                if target is not None and now >= target:
                    return True
                if same:
                    half_cap = 0.25 * ci  # ½ · c_i/μ_i with μ = 2
                    gamma = 2.0 / ci
                else:
                    half_cap = 0.5 * (ci if ci < cj else cj)  # μ_i = μ_j = 1
                    gamma = 0.5 / ci + 0.5 / cj
                f_cap = cf / gamma
                if half_cap < f_cap:
                    f_cap = half_cap
                if cap is not None:
                    left = cap - h_events
                    if left <= 0:
                        return True
                    if left < f_cap:
                        f_cap = left
                if f_cap < min_ev:
                    # sparse: one exact-gap event
                    event_at = now + int(geometric(p if p < 1.0 else 1.0))
                    if target is not None and event_at > target:
                        now = target
                        return True
                    if emit is not None:
                        emit(event_at - 1, pop)
                    now = event_at
                    fired = 1
                else:
                    # Horizon.clamp on the loop's locals
                    batch = int(f_cap / p)
                    if batch > MAX_BATCH:
                        batch = MAX_BATCH
                    if target is not None and batch > target - now:
                        batch = target - now
                    if emit is not None and batch > h.next_observation - now:
                        batch = h.next_observation - now
                    if cap is not None and batch > int(left / p):
                        batch = int(left / p)
                    if batch < 1:
                        batch = 1
                    if check_batch is not None:
                        check_batch(self, batch)
                    fired = int(binomial(batch, p if p < 1.0 else 1.0))
                    limit = int(ci) // 2 if same else int(ci if ci < cj else cj)
                    if fired > limit:
                        fired = limit
                    now += batch
                    batches += 1
                    states_last = a_now
                    if fired > 1:
                        # picks colliding per the birthday bound;
                        # resolution is outcome-identity here
                        tail = int(gamma * fired * fired + 0.5)
                        collided += tail if tail < fired else fired
                if fired:
                    for slot, code, d in moves:
                        have = cnt[slot]
                        cnt[slot] = now_have = have + d * fired
                        if now_have > 0.0:
                            counts[code] = int(now_have)
                        elif now_have == 0.0:
                            del counts[code]
                        else:
                            raise ValueError(
                                "cannot remove {} agents from state {} "
                                "(have {})".format(-d * fired, code, int(have))
                            )
                    events += fired
                    h_events += fired
                    if created:
                        created = None
                        self._need_rebuild = True
                        a_now = a_created
                if emit is not None:
                    emit(now, pop)
                if halted(pop):
                    return False
                if fired and hand_over:
                    self._need_rebuild = True
                    return True
        finally:
            for k, c in zip(ks, cnt):
                full_c[k] = c
            self.interactions = now
            h.events = h_events
            if events:
                self.events += events
                self._support_stale = True
            if batches:
                self.batches += batches
                self._active_count += batches
                self._active_pairs_sum += batches
                if self._active_pairs_max < 1:
                    self._active_pairs_max = 1
                self._active_states_last = states_last
                self.collision_events += collided

    def _lights_a_cell(self, gi: int, gj: int, grow: List[int]) -> bool:
        """Whether a firing of the lone cell ``(gi, gj)`` can light another.

        ``grow`` holds the states a firing grows.  Some other cell goes
        live iff one of them has a nonzero ``p_change`` with a support
        state after the firing, in either order, or with itself.
        """
        if not grow:
            return False
        m = self.table.p_change_matrix
        on = self._full_c > 0.0
        on[grow] = True
        rows = m[grow] * on
        cols = m[:, grow].T * on
        # the lone cell itself stays live by design
        if gi in grow:
            rows[grow.index(gi), gj] = 0.0
        if gj in grow:
            cols[grow.index(gj), gi] = 0.0
        return bool(rows.any() or cols.any())
