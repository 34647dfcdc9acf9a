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

The batch math runs on one of two paths:

Compiled (default)
    The protocol's reachable pair space is compiled once into flat numpy
    kernels (:class:`~repro.engine.compiled.CompiledTable`, with an
    on-disk cache keyed by a protocol fingerprint) and every batch touches
    only the **active pair set** — pairs whose *both* counts are positive.
    Cell weights, the binomial/multinomial split and the count deltas are
    pure vectorized numpy over that set: O(active²) per batch instead of
    O(q²), with q the reachable-state count (hundreds for the paper's
    oscillator/clock protocols, of which a handful are active at a time).
    The batch size is capped **per state**: the expected number of events
    consuming state ``s`` stays below ``accuracy · c_s`` for every ``s``,
    so a few scarce control states (e.g. the paper's ``#X ≈ 3`` source
    agents) no longer throttle the whole batch the way the global
    min-count cap of the legacy path does.
    Falls back to the legacy path automatically when the reachable
    closure exceeds ``compile_limit`` states.

Legacy (``compiled=False``, or fallback)
    Dense O(q²)-per-batch math over the occupied support with a *global*
    event cap of ``accuracy``× the smallest consumable count (the PR-1
    jump engine; kept as the benchmark baseline in
    ``benchmarks/run_all.py``).

Both paths freeze the pair-selection probabilities at the batch's
*initial* counts, whereas the exact sequential process updates them after
every event; ``accuracy`` bounds the resulting within-batch drift (the
per-state relative consumption, hence a per-batch total-variation
distance of ``O(accuracy · E[F])`` against the exact process).

Whenever batching is pointless (expected events per batch below
``min_batch_events``) or unsafe (a sampled batch would drive a count
negative), the engine falls back to **exact** per-event stepping, reusing
:class:`~repro.engine.sequential.CountEngine`'s geometric null-skipping.
With ``batch=1`` the engine *only* uses that path and is therefore exactly
the sequential scheduler process — bit-identical to ``CountEngine`` with a
``LazyTable`` under the same seed, compiled table or not (the equivalence
suite in ``tests/test_jump_engine.py`` checks this).
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import Observer, StopCondition, require_budget
from .compiled import COMPILE_STATE_LIMIT, CompiledTable, compile_table
from .sequential import CountEngine
from .silence import silent_weight
from .table import LazyTable

#: Largest batch ever attempted (keeps binomial/multinomial draws in int64).
MAX_BATCH = 2 ** 62


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
    for w in np.unique(width):
        if w <= 0:
            continue
        sel = np.nonzero(width == w)[0]
        pos = start[sel][:, None] + np.arange(int(w))
        pv = out_p[pos]
        tot = pv.sum(axis=1, keepdims=True)
        good = tot[:, 0] > 0.0
        if not good.all():
            sel, pos, pv, tot = sel[good], pos[good], pv[good], tot[good]
            if not len(sel):
                continue
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
    batch:
        ``None`` (default) sizes batches adaptively from ``accuracy``;
        an integer forces that batch size.  ``batch=1`` disables batching
        entirely — the engine then runs the exact null-skipping process.
    accuracy:
        Within-batch drift budget.  On the compiled path the expected
        events *consuming each state* ``s`` are kept below
        ``accuracy · c_s``; on the legacy path the total expected events
        are kept below ``accuracy`` times the smallest consumable count.
        Smaller is more faithful and slower; ``0.05`` keeps convergence
        statistics of the paper's workloads indistinguishable from exact
        runs at n = 10⁶ while still jumping millions of interactions per
        batch.
    min_batch_events:
        Below this expected number of effective events per batch the exact
        path is used instead (null skipping already makes sparse-event
        regimes cheap, so batching there only costs accuracy).
    compiled:
        ``None`` (default) compiles the reachable pair space into flat
        kernels unless an explicit ``table`` was passed; ``False`` forces
        the legacy dense-support path; ``True`` insists on compiling
        (raising if the closure exceeds ``compile_limit``); or pass a
        pre-built :class:`~repro.engine.compiled.CompiledTable`.
    compile_limit:
        Reachable-closure ceiling for automatic compilation; beyond it the
        engine silently falls back to the legacy path.
    cache:
        Compiled-table cache policy (see
        :func:`repro.engine.compiled.compile_table`): ``"auto"``, a
        directory path, or ``None`` to disable caching.
    """

    name = "batch"

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
    ):
        if batch is not None and batch < 1:
            raise ValueError("batch must be a positive integer or None")
        if not 0.0 < accuracy <= 1.0:
            raise ValueError("accuracy must be in (0, 1]")

        ct: Optional[CompiledTable] = None
        if isinstance(compiled, CompiledTable):
            ct = compiled
        elif compiled is True or (compiled is None and table is None):
            try:
                ct = compile_table(
                    protocol, population.counts.keys(),
                    limit=compile_limit, cache=cache,
                )
            except RuntimeError:
                if compiled is True:
                    raise
                ct = None  # closure too large: legacy LazyTable path
        if ct is not None and table is None:
            table = ct  # exact fallback shares the compiled probabilities
        super().__init__(protocol, population, rng=rng, table=table, guards=guards)

        self.batch = batch
        self.accuracy = float(accuracy)
        self.min_batch_events = float(min_batch_events)
        self.batches = 0  # multinomial jumps taken
        self.fallbacks = 0  # batches rejected for count feasibility
        self.kernel_seconds = 0.0  # wall time inside the batch kernels
        self._batch_events = 0
        self._active_count = 0  # batches recorded in the running stats
        self._active_pairs_sum = 0
        self._active_pairs_max = 0
        self._active_states_last = 0

        self._ct = ct
        self._full_c: Optional[np.ndarray] = None
        if ct is not None:
            full_c = np.zeros(ct.num_states, dtype=np.float64)
            ok = True
            for code, count in population.counts.items():
                idx = ct.index.get(code)
                if idx is None:
                    ok = False  # pre-built table for a different support
                    break
                full_c[idx] = count
            if ok:
                self._full_c = full_c
            else:
                self._ct = None

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
    def _bump(self, code: int, delta: int) -> None:
        super()._bump(code, delta)
        if self._full_c is not None:
            idx = self._ct.index.get(code)
            if idx is None:
                # state escaped the compiled closure (e.g. externally
                # mutated population): drop to the legacy path for safety
                self._ct = None
                self._full_c = None
            else:
                self._full_c[idx] += delta

    # -- legacy batch machinery (dense over the occupied support) ---------------
    def _effective_weights(self) -> np.ndarray:
        """Matrix of per-cell effective weights ``c_i (c_j - δ_ij) q_ij``."""
        pair_counts = np.outer(self._c, self._c)
        np.fill_diagonal(pair_counts, self._c * (self._c - 1.0))
        weights = pair_counts * self._q
        np.maximum(weights, 0.0, out=weights)
        return weights

    def _min_consumable_count(self, weights: np.ndarray) -> float:
        """Smallest count among states consumed by some effective pair."""
        active = (weights.sum(axis=1) > 0.0) | (weights.sum(axis=0) > 0.0)
        if not active.any():
            return 0.0
        return float(self._c[active].min())

    def _sample_batch_deltas(
        self, batch: int, weights: np.ndarray, total_weight: float, pairs_total: float
    ) -> Optional[Dict[int, int]]:
        """Sample one batch's count deltas; ``None`` if infeasible.

        Returns the net per-code deltas of ``batch`` interactions, or
        ``None`` when the sampled event counts would drive some state's
        count negative (the independence approximation broke down).
        """
        p_change = min(total_weight / pairs_total, 1.0)
        fired = int(self.rng.binomial(batch, p_change))
        if fired == 0:
            self._batch_events = 0
            return {}
        flat = weights.ravel()
        cell_counts = self.rng.multinomial(fired, flat / flat.sum())
        deltas: Dict[int, int] = {}
        size = len(self._codes)
        nz = np.nonzero(cell_counts)[0]
        counts = cell_counts[nz].astype(np.int64)
        cells_i = nz // size
        cells_j = nz % size
        entries = [
            self.table.outcomes(self._codes[i], self._codes[j])
            for i, j in zip(cells_i, cells_j)
        ]
        for i, j, count in zip(cells_i, cells_j, counts):
            for code in (self._codes[i], self._codes[j]):
                deltas[code] = deltas.get(code, 0) - int(count)
        # split each cell's events over its outcome distribution with one
        # stacked multinomial per distinct outcome width (2-D pvals) instead
        # of a python-loop draw per active cell
        widths = np.array([len(e.probs) for e in entries], dtype=np.int64)
        for w in np.unique(widths):
            sel = np.nonzero(widths == w)[0]
            pv = np.stack([entries[s].probs for s in sel])
            splits = self.rng.multinomial(
                counts[sel], pv / pv.sum(axis=1, keepdims=True)
            )
            for row, s in enumerate(sel):
                entry = entries[s]
                for k in np.nonzero(splits[row])[0]:
                    m = int(splits[row][k])
                    for code in (int(entry.codes_a[k]), int(entry.codes_b[k])):
                        deltas[code] = deltas.get(code, 0) + m
        for code, delta in deltas.items():
            idx = self._index.get(code)
            have = self._c[idx] if idx is not None else 0.0
            if have + delta < 0:
                return None
        self._batch_events = fired
        return deltas

    def _apply_batch(self, deltas: Dict[int, int]) -> None:
        for code, delta in deltas.items():
            if delta:
                self._bump(code, delta)

    # -- compiled batch machinery (active pairs only) ----------------------------
    def _active_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Active states and their effective-weight matrix.

        Returns ``(act, w)`` where ``act`` holds the compiled indices of
        states with positive counts and ``w[i, j]`` is the effective
        weight ``c_i (c_j - δ_ij) p_change(i, j)`` of the ordered active
        pair — everything downstream is O(len(act)²), independent of the
        full reachable-state count q.
        """
        act = np.nonzero(self._full_c > 0.0)[0]
        ca = self._full_c[act]
        w = pair_weights(ca, self._ct.p_change_matrix[np.ix_(act, act)])
        return act, w

    def _per_state_batch_cap(
        self, act: np.ndarray, w: np.ndarray, pairs_total: float
    ) -> float:
        """Largest batch keeping every state's expected consumption small.

        For batch size B the expected number of events consuming state
        ``s`` is ``B · weight_s / pairs_total`` (``weight_s`` = total
        weight of cells with ``s`` as initiator or responder; the diagonal
        cell counts twice, matching its two consumed agents).  The cap is
        the largest B with ``B · weight_s / pairs_total ≤ accuracy · c_s``
        for all consumable ``s``.
        """
        consume = w.sum(axis=1) + w.sum(axis=0)
        ca = self._full_c[act]
        live = consume > 0.0
        if not live.any():
            return 0.0
        caps = self.accuracy * ca[live] * pairs_total / consume[live]
        return float(caps.min())

    def _sample_batch_deltas_compiled(
        self,
        batch: int,
        act: np.ndarray,
        w: np.ndarray,
        total_weight: float,
        pairs_total: float,
    ) -> Optional[np.ndarray]:
        """Sample one batch's count deltas over the compiled state space.

        Returns an int64 delta vector over all q compiled states (empty
        batches return the zero vector), or ``None`` when the sampled
        event counts would drive some state's count negative.
        """
        ct = self._ct
        q = ct.num_states
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
        pair_flat = gi * q + gj
        start = ct.off[pair_flat]
        width = ct.off[pair_flat + 1] - start
        split_outcomes_grouped(
            self.rng, delta, counts, start, width,
            ct.out_p, ct.out_a, ct.out_b,
        )
        if np.any(self._full_c + delta < 0):
            return None
        self._batch_events = fired
        return delta

    def _apply_batch_compiled(self, delta: np.ndarray) -> None:
        for idx in np.nonzero(delta)[0]:
            self._bump(int(self._ct.codes[idx]), int(delta[idx]))

    # -- main loop -----------------------------------------------------------
    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        max_events: Optional[int] = None,
    ) -> "BatchCountEngine":
        """Advance the simulation (same contract as :meth:`CountEngine.run`).

        ``stop`` is evaluated after every batch (and after every event on
        the exact path); observer snapshots stay on the exact uniform grid
        because batches never straddle an observation point.
        """
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

        events_done = 0

        def exact_event() -> bool:
            """One exact effective event via null skipping; False = done."""
            nonlocal events_done
            skip = self._draw_event_gap()
            if skip is None:
                if target is not None:
                    self.interactions = target
                return False
            event_at = self.interactions + skip + 1
            if target is not None and event_at > target:
                self.interactions = target
                return False
            emit_up_to(event_at - 1)
            self.interactions = event_at
            self._fire_event()
            events_done += 1
            return True

        while True:
            if target is not None and self.interactions >= target:
                break
            if max_events is not None and events_done >= max_events:
                break

            if self.batch == 1:
                if not exact_event():
                    break
                if stop is not None and stop(self._population):
                    break
                continue

            kernel_start = time.perf_counter()
            use_compiled = self._ct is not None
            if use_compiled:
                act, weights = self._active_weights()
            else:
                weights = self._effective_weights()
            if self.guards is not None:
                # NaN weights would otherwise degrade silently (cap=0 →
                # exact path) — vet them before they feed any arithmetic.
                if use_compiled:
                    self.guards.check_weights(
                        self, weights, codes=self._ct.codes[act]
                    )
                else:
                    self.guards.check_weights(self, weights, codes=self._codes)
            total_weight = float(weights.sum())
            p_change = total_weight / pairs_total
            if silent_weight(total_weight):
                # Weights are summed fresh from the counts, so an exact
                # zero means true silence; any positive total — however
                # small relative to pairs_total — keeps stepping (the old
                # absolute p_change floor falsely halted n >= 1e8 endgames
                # here): fast-forward to the budget.
                self.kernel_seconds += time.perf_counter() - kernel_start
                if target is not None:
                    self.interactions = target
                break

            if self.batch is not None:
                batch = self.batch
            else:
                if use_compiled:
                    cap = self._per_state_batch_cap(act, weights, pairs_total)
                    expected_events = cap * p_change
                else:
                    expected_events = self.accuracy * self._min_consumable_count(
                        weights
                    )
                    cap = expected_events / p_change
                if expected_events < self.min_batch_events:
                    # sparse-event regime: exact null skipping is cheap
                    # *and* exact — batching would only cost accuracy.
                    self.kernel_seconds += time.perf_counter() - kernel_start
                    if not exact_event():
                        break
                    if stop is not None and stop(self._population):
                        break
                    continue
                batch = int(cap)
            batch = min(batch, MAX_BATCH)
            if target is not None:
                batch = min(batch, target - self.interactions)
            if next_observation is not None:
                batch = min(batch, next_observation - self.interactions)
            if batch < 1:
                self.kernel_seconds += time.perf_counter() - kernel_start
                if not exact_event():
                    break
                if stop is not None and stop(self._population):
                    break
                continue
            if self.guards is not None:
                self.guards.check_batch(self, batch)

            if use_compiled:
                self._active_count += 1
                self._active_pairs_sum += int(np.count_nonzero(weights))
                self._active_pairs_max = max(
                    self._active_pairs_max, int(np.count_nonzero(weights))
                )
                self._active_states_last = len(act)
                deltas = self._sample_batch_deltas_compiled(
                    batch, act, weights, total_weight, pairs_total
                )
                while deltas is None and batch > 1:
                    # infeasible draw: halve towards the exact regime, retry
                    self.fallbacks += 1
                    batch //= 2
                    deltas = self._sample_batch_deltas_compiled(
                        batch, act, weights, total_weight, pairs_total
                    )
            else:
                deltas = self._sample_batch_deltas(
                    batch, weights, total_weight, pairs_total
                )
                while deltas is None and batch > 1:
                    self.fallbacks += 1
                    batch //= 2
                    deltas = self._sample_batch_deltas(
                        batch, weights, total_weight, pairs_total
                    )
            self.kernel_seconds += time.perf_counter() - kernel_start
            if deltas is None:
                if not exact_event():
                    break
            else:
                if use_compiled:
                    self._apply_batch_compiled(deltas)
                else:
                    self._apply_batch(deltas)
                self.interactions += batch
                self.events += self._batch_events
                events_done += self._batch_events
                self.batches += 1
                if self.guards is not None:
                    self.guards.after_batch(self)
                emit_up_to(self.interactions)
            if stop is not None and stop(self._population):
                break
        emit_up_to(self.interactions)
        return self
