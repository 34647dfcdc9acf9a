"""BGHKPU engine: alias-table batches, sub-constant work per interaction.

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
   accumulated count drift exceeds ``alias_rebuild_tol`` (a partial
   refresh recomputing the touched rows/columns) or the active set
   itself changes (a full rebuild);
2. each batch advances ``B`` scheduler interactions whose effective-event
   count is ``F ~ Binomial(B, p̄)``; ``B`` is sized **collision-aware**
   from the birthday bound — the expected number of event picks that
   would collide on the same agent, ``γ F²`` with
   ``γ = Σ_s μ_s² / (2 c_s)``, is kept below ``collision_frac · F`` —
   and by the per-state feasibility cap ``F ≤ ½ min_s c_s / μ_s``;
3. the ``K ≈ γ F²`` colliding tail is resolved against *fresh* counts:
   the ``F − K`` main events are split over the frozen cells (O(1) alias
   lookups when the batch is sparser than the cell grid, one multinomial
   otherwise) and applied, the sampler is re-frozen from the updated
   counts, and the last ``K`` events are drawn from that refreshed
   distribution (recorded in ``collision_events``);
4. when the expected events per batch fall below ``min_batch_events``
   the engine degrades to *exact* single-event stepping on the same lean
   machinery — the gap to the next effective event is geometric in the
   frozen ``p̄`` and the event is drawn from the (refreshed-within-
   tolerance) cell distribution, so endgame convergence times are not
   quantized to batch boundaries;
5. **dense supports** (oscillator-sized active sets, E3/E4) get the
   adaptive hybrid path: the sampler draws the ``dense_top_k`` heaviest
   cells through one grouped ``K + 1``-bin kernel with only the light
   tail going through the alias table, small-drift refreshes are served
   by the O(touched·a) sum patch (``alias_patch_frac``), and — with
   ``batch_autotune`` on — a feedback controller scales the batch cap
   from observed batch outcomes: clean batches grow it past the
   feasibility half-cap (never past the ``collision_frac/γ`` birthday
   bound), infeasible draws and repair bursts shrink it.  Autotuned
   batches may overdraw a scarce state;
   instead of rejecting the whole draw, the overdrawing cells are
   clamped to the feasible region and the clamped-away events join the
   colliding tail redrawn against fresh counts (``repair_events``).

Unlike the parent engine, applying a batch never touches the per-support
``_c``/``_v`` bookkeeping of :class:`~repro.engine.sequential.CountEngine`
— deltas land directly on the compiled count vector and the population
dict, and the exact-path state is rebuilt lazily only when the engine
actually delegates (tiny initial active set, forced ``batch=1``, or a
reachable closure too large to compile, all of which fall back to
``BatchCountEngine`` wholesale).

Distributional correctness is gated by the same KS-equivalence suites as
the parent (E1/E3 observer grids, pooled ``ks_2samp`` vs ``batch``);
``benchmarks/run_all.py bghkpu_scale`` races it against ``batch`` on the
leader fight at n = 10⁸ (``BENCH_bghkpu.json``, ≥5x target).
"""

from __future__ import annotations

import math
import time
from typing import Optional, Union

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .alias import ActivePairSampler
from .api import Observer, StopCondition, require_budget
from .compiled import COMPILE_STATE_LIMIT, CompiledTable
from .jump import MAX_BATCH, BatchCountEngine, split_outcomes_grouped
from .silence import silent_weight
from .table import LazyTable


class BGHKPUEngine(BatchCountEngine):
    """Alias-table batch engine with collision-aware batch sizing.

    Accepts every :class:`~repro.engine.jump.BatchCountEngine` knob plus:

    collision_frac:
        Colliding-pick budget per batch: ``B`` is capped so the expected
        number of event picks colliding on the same agent stays below
        this fraction of the batch's effective events (the colliding
        tail is then re-drawn against fresh counts).  Smaller is more
        faithful and slower.
    alias_rebuild_tol:
        Relative per-state count drift above which the frozen epoch is
        re-frozen (partial refresh of the touched rows/columns).  ``0``
        re-freezes every batch.
    dense_top_k:
        Heavy-cell count of the hybrid dense-support sampler: the K
        heaviest frozen cells are drawn through one grouped
        ``K + 1``-bin kernel and only the light tail goes through the
        alias table.  Engages when the active grid has more than ``2K``
        nonzero cells; ``0`` disables the hybrid split.
    alias_patch_frac:
        Touched-fraction ceiling below which a drift refresh delta-
        updates the epoch sums in O(touched·a) instead of rescanning
        O(a²) (patch-vs-scan further arbitrated by measured cost).
        ``0`` disables patching.
    batch_autotune:
        Feedback controller on the batch cap: clean batches grow it
        ×1.2 past the feasibility half-cap (up to a ×64 ceiling, and
        never past the ``collision_frac/γ`` birthday bound — the
        fidelity wall), infeasible draws and repair bursts shrink it
        ×0.5 (floor ×0.25).  Also enables overdraw *repair* — clamping
        a scarce-state overdraw to the feasible region and pushing the
        clamped events into the fresh-count tail — in place of
        wholesale batch rejection.  Off reproduces the static
        ``collision_frac`` sizing exactly.
    """

    name = "bghkpu"

    #: Autotune multiplier range.  The ceiling matters when the static
    #: sizing is pinned by the feasibility cap (scarce states with O(1)
    #: agents keep ``½ min_s c_s/μ_s`` small while the collision bound
    #: scales with n): repair lifts the feasibility constraint, so the
    #: multiplier may climb until the ``collision_frac/γ`` bound takes
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
        table: Optional[LazyTable] = None,
        batch: Optional[int] = None,
        accuracy: float = 0.05,
        min_batch_events: float = 8.0,
        compiled: Union[None, bool, CompiledTable] = None,
        compile_limit: int = COMPILE_STATE_LIMIT,
        cache: object = "auto",
        guards: object = None,
        collision_frac: float = 0.2,
        alias_rebuild_tol: float = 0.05,
        dense_top_k: int = 512,
        alias_patch_frac: float = 0.25,
        batch_autotune: bool = True,
    ):
        if not 0.0 < collision_frac <= 1.0:
            raise ValueError("collision_frac must be in (0, 1]")
        if not 0.0 <= alias_rebuild_tol <= 1.0:
            raise ValueError("alias_rebuild_tol must be in [0, 1]")
        if int(dense_top_k) < 0:
            raise ValueError("dense_top_k must be >= 0")
        if not 0.0 <= alias_patch_frac <= 1.0:
            raise ValueError("alias_patch_frac must be in [0, 1]")
        super().__init__(
            protocol, population, rng=rng, table=table, batch=batch,
            accuracy=accuracy, min_batch_events=min_batch_events,
            compiled=compiled, compile_limit=compile_limit, cache=cache,
            guards=guards,
        )
        self.collision_frac = float(collision_frac)
        self.alias_rebuild_tol = float(alias_rebuild_tol)
        self.dense_top_k = int(dense_top_k)
        self.alias_patch_frac = float(alias_patch_frac)
        self.batch_autotune = bool(batch_autotune)
        #: Tail events re-drawn against fresh counts (collision resolution).
        self.collision_events = 0
        #: Overdrawn events clamped out of a batch and pushed to the tail.
        self.repair_events = 0
        #: Wall time in the grouped outcome split (cells → per-state delta).
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
        """Wall time spent in drift refreshes (touched-slice scan + patch)."""
        s = self._sampler
        return s.refresh_seconds if s is not None else 0.0

    @property
    def alias_patches(self) -> int:
        """Drift refreshes served by the O(touched·a) sum patch."""
        s = self._sampler
        return s.patches if s is not None else 0

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
            mask = np.zeros(self._ct.num_states, dtype=bool)
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
        codes = self._ct.codes
        pop = self._population
        for k in range(len(nz)):
            d = int(dn[k])
            code = int(codes[nz[k]])
            if d > 0:
                pop.add(code, d)
            else:
                pop.remove(code, -d)
        self._support_stale = True

    # -- frozen-distribution event sampling -----------------------------------
    def _cells_to_delta(self, cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Per-state delta of ``counts[k]`` events in flattened cell ``cells[k]``."""
        start = time.perf_counter()
        try:
            return self._cells_to_delta_inner(cells, counts)
        finally:
            self.outcome_split_seconds += time.perf_counter() - start

    def _cells_to_delta_inner(
        self, cells: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        ct = self._ct
        act = self._sampler.act
        a = len(act)
        counts = counts.astype(np.int64, copy=False)
        if cells.shape[0] == 1:
            # lone fired cell (the endgame shape of most workloads):
            # scalar bookkeeping, and a deterministic outcome (width 1)
            # needs no RNG at all.
            c = int(cells[0])
            m = int(counts[0])
            gi = int(act[c // a])
            gj = int(act[c % a])
            delta = np.zeros(ct.num_states, dtype=np.int64)
            delta[gi] -= m
            delta[gj] -= m
            s = int(ct.off[gi * ct.num_states + gj])
            e = int(ct.off[gi * ct.num_states + gj + 1])
            if e == s + 1:
                if ct.out_p[s] > 0.0:
                    delta[int(ct.out_a[s])] += m
                    delta[int(ct.out_b[s])] += m
            elif e > s:
                pv = ct.out_p[s:e]
                tot = pv.sum()
                if tot > 0.0:
                    draws = self.rng.multinomial(m, pv / tot)
                    np.add.at(delta, ct.out_a[s:e], draws)
                    np.add.at(delta, ct.out_b[s:e], draws)
            return delta
        gi = act[cells // a]
        gj = act[cells % a]
        # bincount beats np.add.at by an order of magnitude for these
        # scatter shapes; float64 weights are exact for counts < 2^53
        cons = np.bincount(gi, weights=counts, minlength=ct.num_states)
        cons += np.bincount(gj, weights=counts, minlength=ct.num_states)
        delta = -cons.astype(np.int64)
        pair_flat = gi * ct.num_states + gj
        start = ct.off[pair_flat]
        width = ct.off[pair_flat + 1] - start
        split_outcomes_grouped(
            self.rng, delta, counts, start, width,
            ct.out_p, ct.out_a, ct.out_b,
        )
        return delta

    def _repair_draw(self, cells: np.ndarray, counts: np.ndarray) -> tuple:
        """Clamp an overdrawing cell draw onto the feasible region.

        Per-state consumption of the draw is compared against the
        *current* counts; cells touching an overdrawn state are scaled
        by that state's feasible fraction (floored), which guarantees
        every state's clamped consumption fits its count.  Returns
        ``(cells, counts, excess)`` — the ``excess`` clamped-away events
        are the caller's to redraw against fresh counts (the same
        resolution as the colliding tail, recorded in
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
            return cells, counts, 0
        factor = np.ones(a)
        factor[over] = np.maximum(cap[over], 0.0) / consumed[over]
        fcell = np.minimum(factor[gi], factor[gj])
        clamped = np.floor(counts * fcell).astype(np.int64)
        excess = int(counts.sum() - clamped.sum())
        keep = clamped > 0
        return cells[keep], clamped[keep], excess

    def _try_delta(self, events: int, repair: bool = False) -> tuple:
        """``(delta, excess)`` of ``events`` frozen-distribution events.

        ``delta`` is ``None`` if the draw is infeasible (overdraws some
        state and repair is off or clamped everything away).
        """
        cells, counts = self._sampler.sample_cells(self.rng, events)
        excess = 0
        if repair:
            cells, counts, excess = self._repair_draw(cells, counts)
            if not cells.size:
                return None, 0
        delta = self._cells_to_delta(cells, counts)
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

    def _lone_event(self) -> Optional[int]:
        """Apply one event in scalars when a single cell is active.

        The endgame of most workloads collapses to one live ordered pair
        with a deterministic outcome; stepping it needs no arrays and no
        RNG beyond the geometric gap already drawn.  Returns the events
        applied (``1``) or ``None`` to fall through to the general path
        (multiple cells, stochastic outcome, or counts that no longer
        support the frozen cell).
        """
        sampler = self._sampler
        cells_nz = sampler.cells_nz
        if cells_nz is None:
            return None
        ct = self._ct
        act = sampler.act
        a = len(act)
        cell = int(cells_nz[0])
        gi = int(act[cell // a])
        gj = int(act[cell % a])
        full_c = self._full_c
        need = 2 if gi == gj else 1
        if full_c[gi] < need or full_c[gj] < 1:
            return None
        flat = gi * ct.num_states + gj
        s = int(ct.off[flat])
        if int(ct.off[flat + 1]) != s + 1 or ct.out_p[s] <= 0.0:
            return None
        oa = int(ct.out_a[s])
        ob = int(ct.out_b[s])
        if (full_c[oa] == 0.0 and oa not in (gi, gj)) or (
            full_c[ob] == 0.0 and ob not in (gi, gj)
        ):
            self._need_rebuild = True
        full_c[gi] -= 1
        full_c[gj] -= 1
        full_c[oa] += 1
        full_c[ob] += 1
        codes = ct.codes
        pop = self._population
        pop.remove(int(codes[gi]), 1)
        pop.remove(int(codes[gj]), 1)
        pop.add(int(codes[oa]), 1)
        pop.add(int(codes[ob]), 1)
        self._support_stale = True
        return 1

    # -- main loop -------------------------------------------------------------
    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        max_events: Optional[int] = None,
    ) -> "BGHKPUEngine":
        """Advance the simulation (same contract as :meth:`CountEngine.run`)."""
        self._sync_exact()
        if self._ct is None or self._full_c is None or self.batch == 1:
            # no compiled table (closure too large / foreign support) or
            # forced exact stepping: the parent engine covers both.
            return super()._run(
                rounds=rounds, interactions=interactions, stop=stop,
                observer=observer, observe_every=observe_every,
                max_events=max_events,
            )

        sampler = self._sampler
        if sampler is None:
            sampler = self._sampler = ActivePairSampler(
                self._ct.p_change_matrix,
                self.alias_rebuild_tol,
                top_k=self.dense_top_k,
                patch_frac=self.alias_patch_frac,
            )
            self._need_rebuild = True
        if self._need_rebuild or sampler.act is None or sampler.stale(self._full_c):
            sampler.rebuild(self._full_c)
            self._need_rebuild = False

        if self.batch is None and sampler.total > 0.0:
            f_cap = 0.5 * sampler.cap_events
            if sampler.gamma > 0.0:
                f_cap = min(f_cap, self.collision_frac / sampler.gamma)
            if f_cap < 2.0:
                # tiny active set end to end: the parent's exact path is
                # both faster and exact in this regime.
                return super()._run(
                    rounds=rounds, interactions=interactions, stop=stop,
                    observer=observer, observe_every=observe_every,
                    max_events=max_events,
                )

        n = self.n
        pairs_total = float(n) * float(n - 1)
        target: Optional[int] = None
        if interactions is not None:
            target = self.interactions + int(interactions)
        if rounds is not None:
            by_rounds = self.interactions + int(math.ceil(rounds * n))
            target = by_rounds if target is None else min(target, by_rounds)
        require_budget(rounds, interactions, stop, max_events)

        step = max(int(round(observe_every * n)), 1)
        next_observation: Optional[int] = None
        if observer is not None:
            next_observation = ((self.interactions + step - 1) // step) * step

        def emit_up_to(limit: int) -> None:
            nonlocal next_observation
            if observer is None or next_observation is None:
                return
            while next_observation <= limit:
                observer(next_observation / n, self._population)
                next_observation += step

        full_c = self._full_c
        pop = self._population
        rng = self.rng
        events_done = 0

        while True:
            if target is not None and self.interactions >= target:
                break
            if max_events is not None and events_done >= max_events:
                break
            if next_observation is not None and next_observation <= self.interactions:
                emit_up_to(self.interactions)

            kernel_start = time.perf_counter()
            if self._need_rebuild:
                sampler.rebuild(full_c)
                self._need_rebuild = False
            elif sampler.stale(full_c):
                sampler.refresh(full_c)

            if (
                sampler.cells_nz is not None
                and self.guards is None
                and self.batch is None
            ):
                # Degenerate epoch: one live ordered pair (the endgame of
                # most workloads, and the leader fight end to end).  When
                # its outcome is deterministic the epoch machinery is pure
                # overhead — step it on exact scalar weights instead: no
                # freezing, no arrays, and strictly *better* fidelity,
                # since every batch and every sparse gap is sized from the
                # true current counts.
                ct = self._ct
                act = sampler.act
                a = len(act)
                cell = int(sampler.cells_nz[0])
                gi = int(act[cell // a])
                gj = int(act[cell % a])
                pc = float(sampler.psub[cell // a, cell % a])
                flat = gi * ct.num_states + gj
                s = int(ct.off[flat])
                if (
                    int(ct.off[flat + 1]) == s + 1
                    and float(ct.out_p[s]) > 0.0
                    and pc > 0.0
                ):
                    oa = int(ct.out_a[s])
                    ob = int(ct.out_b[s])
                    code_gi = int(ct.codes[gi])
                    code_gj = int(ct.codes[gj])
                    code_oa = int(ct.codes[oa])
                    code_ob = int(ct.codes[ob])
                    same = gi == gj
                    cf = self.collision_frac
                    min_ev = self.min_batch_events
                    stop_now = False
                    while True:
                        ci = float(full_c[gi])
                        cj = float(full_c[gj])
                        wgt = ci * ((cj - 1.0) if same else cj) * pc
                        if silent_weight(wgt):
                            self._need_rebuild = True  # cell drained
                            break
                        # wgt > 0 means the pair is live no matter how small
                        # p gets (6e-16 at 3 leaders, n = 1e8); the geometric
                        # gap below steps such endgames exactly in O(1), so
                        # no absolute floor on p is needed or wanted.
                        p = wgt / pairs_total
                        if target is not None and self.interactions >= target:
                            break
                        if max_events is not None and events_done >= max_events:
                            break
                        if same:
                            half_cap = 0.25 * ci  # ½ · c_i/μ_i with μ = 2
                            gamma = 2.0 / ci
                        else:
                            half_cap = 0.5 * min(ci, cj)  # μ_i = μ_j = 1
                            gamma = 0.5 / ci + 0.5 / cj
                        f_cap = min(half_cap, cf / gamma)
                        if f_cap < min_ev:
                            # sparse: one exact-gap event
                            gap = int(rng.geometric(p if p < 1.0 else 1.0))
                            event_at = self.interactions + gap
                            if target is not None and event_at > target:
                                self.interactions = target
                                break
                            emit_up_to(event_at - 1)
                            self.interactions = event_at
                            fired = 1
                        else:
                            batch = int(f_cap / p)
                            if batch > MAX_BATCH:
                                batch = MAX_BATCH
                            if target is not None:
                                batch = min(batch, target - self.interactions)
                            if next_observation is not None:
                                batch = min(
                                    batch, next_observation - self.interactions
                                )
                            if batch < 1:
                                batch = 1
                            fired = int(
                                rng.binomial(batch, p if p < 1.0 else 1.0)
                            )
                            limit = int(ci) // 2 if same else int(min(ci, cj))
                            if fired > limit:
                                fired = limit
                            self.interactions += batch
                            self.batches += 1
                            self._active_count += 1
                            self._active_pairs_sum += 1
                            if self._active_pairs_max < 1:
                                self._active_pairs_max = 1
                            self._active_states_last = a
                            if fired > 1:
                                # picks colliding per the birthday bound;
                                # resolution is outcome-identity here
                                self.collision_events += min(
                                    fired, int(gamma * fired * fired + 0.5)
                                )
                        if fired:
                            creation = (
                                full_c[oa] == 0.0 and oa != gi and oa != gj
                            ) or (
                                full_c[ob] == 0.0 and ob != gi and ob != gj
                            )
                            full_c[gi] -= fired
                            full_c[gj] -= fired
                            full_c[oa] += fired
                            full_c[ob] += fired
                            pop.remove(code_gi, fired)
                            pop.remove(code_gj, fired)
                            pop.add(code_oa, fired)
                            pop.add(code_ob, fired)
                            self._support_stale = True
                            self.events += fired
                            events_done += fired
                        else:
                            creation = False
                        emit_up_to(self.interactions)
                        if stop is not None and stop(pop):
                            stop_now = True
                            break
                        if creation:
                            self._need_rebuild = True
                            break
                    self.kernel_seconds += time.perf_counter() - kernel_start
                    if stop_now:
                        break
                    continue

            p_change = sampler.total / pairs_total
            if silent_weight(sampler.total):
                # The sampler total is summed fresh from the counts, so
                # exact zero <=> silence at any scale; a tiny positive
                # p_change is handled by the geometric endgame instead.
                # Silent configuration: fast-forward to the budget
                self.kernel_seconds += time.perf_counter() - kernel_start
                if target is not None:
                    self.interactions = target
                break
            if self.guards is not None:
                self.guards.check_weights(
                    self, sampler.w, codes=self._ct.codes[sampler.act]
                )

            gamma = sampler.gamma
            f_cap = 0.5 * sampler.cap_events
            if gamma > 0.0:
                f_cap = min(f_cap, self.collision_frac / gamma)
            autotuned = (
                self.batch_autotune
                and self.batch is None
                and f_cap >= self.min_batch_events
            )
            if autotuned:
                # feedback-scaled cap: observed batch outcomes move the
                # multiplier past the feasibility half-cap (repair keeps
                # scarce-state overdraws safe), but never past the
                # collision bound — that is the fidelity wall.
                scaled = f_cap * self._tune_scale
                if gamma > 0.0:
                    coll_bound = self.collision_frac / gamma
                    if scaled > coll_bound:
                        scaled = coll_bound
                if scaled < self.min_batch_events:
                    scaled = self.min_batch_events
                f_cap = scaled

            if self.batch is None and f_cap < self.min_batch_events:
                # sparse regime: one exact-gap event on the lean machinery
                # (geometric gap in the frozen p̄, so endgame convergence
                # times are not quantized to batch boundaries)
                gap = int(rng.geometric(min(p_change, 1.0)))
                event_at = self.interactions + gap
                if target is not None and event_at > target:
                    self.interactions = target
                    self.kernel_seconds += time.perf_counter() - kernel_start
                    break
                emit_up_to(event_at - 1)
                self.interactions = event_at
                applied = self._lone_event()
                if applied is None:
                    delta, applied, _ = self._feasible_delta(1)
                    if delta is not None:
                        self._apply_delta_lean(delta)
                self.events += applied
                events_done += applied
                self.kernel_seconds += time.perf_counter() - kernel_start
                if self.guards is not None:
                    self.guards.after_batch(self)
                if stop is not None and stop(self._population):
                    break
                continue

            batch = self.batch if self.batch is not None else int(f_cap / p_change)
            batch = min(batch, MAX_BATCH)
            if target is not None:
                batch = min(batch, target - self.interactions)
            if next_observation is not None:
                batch = min(batch, next_observation - self.interactions)
            if batch < 1:
                batch = 1
            if self.guards is not None:
                self.guards.check_batch(self, batch)

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
                    delta, done, excess = self._feasible_delta(
                        main, repair=autotuned
                    )
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
                        # overestimates the drained weight by at least as
                        # much (KS-gated)
                        left -= done
                if repaired:
                    self.repair_events += repaired

            self.interactions += batch
            self.events += applied
            events_done += applied
            self.batches += 1
            self._active_count += 1
            cells = sampler.active_cells
            self._active_pairs_sum += cells
            if cells > self._active_pairs_max:
                self._active_pairs_max = cells
            self._active_states_last = len(sampler.act)
            if autotuned:
                # feedback: a clean batch earns a longer epoch next time;
                # an infeasible draw or a repair burst means the frozen
                # weights overreached — back off fast
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
            if self.guards is not None:
                self.guards.after_batch(self)
            emit_up_to(self.interactions)
            if stop is not None and stop(self._population):
                break
        emit_up_to(self.interactions)
        return self
