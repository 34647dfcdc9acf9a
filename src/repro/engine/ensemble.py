"""Stacked ensemble engine: advance R replicas per batch in shared kernels.

Every experiment grid in this repo is a *replica sweep* — R independent
runs of the same protocol from the same initial configuration, differing
only in their random seed.  :class:`~repro.engine.jump.BatchCountEngine`
already collapses each replica's work to a handful of numpy calls per
batch, but at the paper's active-state counts (a ≈ 3–10) those calls are
dominated by fixed Python/numpy dispatch overhead, paid R times per grid
point.  :class:`EnsembleEngine` amortizes it R-fold: the R replica
configurations live in one ``(R, q)`` count matrix over one shared
closed :class:`~repro.engine.table.TransitionTable`, and each iteration
advances *all* live rows with stacked kernels —

1. the ``(L, a, a)`` effective-weight tensor over the union active set of
   the live rows (a = active states across the whole ensemble);
2. row-wise per-state batch caps (the same
   :data:`~repro.engine.jump.ACCURACY` drift bound as the jump engine,
   applied per row);
3. one array binomial for the per-row effective-event counts and one
   ``Generator.multinomial`` with 2-D pvals splitting each row's events
   over its weight cells;
4. one grouped multinomial (:func:`repro.engine.jump.split_outcomes_grouped`)
   splitting every fired cell of every row over its outcome distribution;
5. a single vectorized feasibility check and count-delta scatter.

Rows whose per-row stop condition has fired (evaluated through
:class:`VectorizedStop` — one call per iteration over the live rows, with
an optional vectorized fast path for predicates that provide a
``vectorize`` hook) are masked out of all subsequent kernels.

Accuracy and determinism semantics
----------------------------------
Rows advanced by stacked batches draw from one *shared* generator
(``rng``), so their sample paths are statistically equivalent to — but not
bit-identical with — per-replica engines; the pooled-KS suites in
``tests/test_ensemble.py`` gate this.  Rows that cannot batch safely fall
back to **exact** per-event stepping on their *own* per-row generator
(``row_rngs``), each backed by a private :class:`CountEngine` over the
shared compiled table.  With ``batch=1`` every row runs exclusively on
that path and is therefore bit-identical to a solo ``CountEngine`` under
the same per-row seed stream.

A stateful (hysteresis) stop predicate is evaluated interleaved across
rows — exactly like the serial replica runner reusing one predicate
across replicas; predicates that keep per-population state should not be
shared across replicas under either runner.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import (
    MAX_BATCH,
    Engine,
    EngineStats,
    Horizon,
    Observer,
    StopCondition,
    _StopRecorder,
)
from .compiled import TableSource, acquire_table
from .jump import ACCURACY, MIN_BATCH_EVENTS, pair_weights, split_outcomes_grouped
from .sequential import CountEngine
from .silence import silent_weight
from .table import TransitionTable


class VectorizedStop:
    """Evaluate a scalar stop predicate across ensemble rows.

    If the predicate exposes a ``vectorize(codes, schema)`` hook it must
    return ``check(counts)`` mapping an ``(L, q)`` count matrix to an
    ``(L,)`` boolean vector — one numpy call for the whole ensemble (the
    registered workload predicates in :mod:`repro.workloads` provide
    this).  Otherwise each row is materialized into a single reusable
    scratch :class:`Population` and fed to the scalar predicate — the
    per-row dispatch (python-int codes, scratch population) is hoisted
    to construction, and rows already marked ``done`` are skipped.
    """

    def __init__(self, stop: StopCondition, table: TransitionTable, schema):
        self.stop = stop
        self.schema = schema
        self.codes = table.codes
        self.calls = 0
        vec = getattr(stop, "vectorize", None)
        self._fast = vec(table.codes, schema) if callable(vec) else None
        if self._fast is None:
            self._py_codes = [int(c) for c in table.codes]
            self._scratch = Population(schema)

    def __call__(
        self, counts: np.ndarray, done: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self.calls += 1
        if self._fast is not None:
            return np.asarray(self._fast(counts), dtype=bool)
        out = np.zeros(len(counts), dtype=bool)
        pop = self._scratch
        codes = self._py_codes
        for r in range(len(counts)):
            if done is not None and done[r]:
                continue
            row = counts[r]
            pop.counts.clear()
            for idx in np.nonzero(row)[0]:
                pop.counts[codes[idx]] = int(row[idx])
            out[r] = bool(self.stop(pop))
        return out


class EnsembleEngine(Engine):
    """Count-based engine advancing R replica rows per stacked batch.

    Parameters
    ----------
    rows:
        Number of replica rows; every row starts from a copy of
        ``population`` (row 0 reuses the given object, so the single-row
        engine mutates its population in place like other count engines).
    row_rngs:
        Optional per-row generators driving the exact fallback path (and
        nothing else).  Default: children spawned from ``rng``.  The
        replica runner passes one generator per replica seed so ``batch=1``
        rows replay the corresponding solo ``CountEngine`` bit-identically.
    batch:
        As for :class:`~repro.engine.jump.BatchCountEngine`, applied per
        row (``batch=1`` forces the exact path for every row).
    table:
        The ensemble *requires* a closed table (the stacked kernels index
        its fixed ``i * q + j`` row geometry): a closed ``table`` is used
        as given, otherwise the closure is compiled (or read from the
        memo), and a closure above the compile limit raises
        ``RuntimeError``.
    """

    name = "ensemble"

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        rng: Optional[np.random.Generator] = None,
        table: Optional[TransitionTable] = None,
        rows: int = 1,
        row_rngs: Optional[Sequence[np.random.Generator]] = None,
        batch: Optional[int] = None,
        guards: object = None,
    ):
        if rows < 1:
            raise ValueError("rows must be a positive integer")
        if batch is not None and batch < 1:
            raise ValueError("batch must be a positive integer or None")
        self._init_common(protocol, population, rng, guards=guards)
        self._population = population

        #: how this engine obtained its closed table (``None`` if handed one)
        self.table_source: Optional[TableSource] = None
        if table is None or not table.closed:
            table, self.table_source = acquire_table(
                protocol, population.counts.keys()
            )
        self.table = table

        self.rows = int(rows)
        self.batch = batch
        self._n = int(population.n)

        if row_rngs is not None:
            row_rngs = list(row_rngs)
            if len(row_rngs) != self.rows:
                raise ValueError(
                    "row_rngs must provide exactly one generator per row"
                )
            self._row_rngs = row_rngs
        else:
            self._row_rngs = list(self.rng.spawn(self.rows))

        q = table.num_states
        self._pops: List[Population] = [population] + [
            population.copy() for _ in range(self.rows - 1)
        ]
        base_row = np.zeros(q, dtype=np.float64)
        base_row[table.indices(np.fromiter(population.counts, np.int64))] = list(
            population.counts.values()
        )
        self._C = np.tile(base_row, (self.rows, 1))
        self._pop_stale = np.zeros(self.rows, dtype=bool)
        self._row_eng: List[Optional[CountEngine]] = [None] * self.rows

        self._row_interactions = np.zeros(self.rows, dtype=np.int64)
        self._row_events = np.zeros(self.rows, dtype=np.int64)
        self._row_batches = np.zeros(self.rows, dtype=np.int64)
        self._row_fallbacks = np.zeros(self.rows, dtype=np.int64)
        self._row_kernel_seconds = np.zeros(self.rows, dtype=np.float64)
        self._row_wall = np.zeros(self.rows, dtype=np.float64)
        self._row_stop_evals = np.zeros(self.rows, dtype=np.int64)
        self._row_done = np.zeros(self.rows, dtype=bool)
        self._row_verdicts: List[Optional[bool]] = [None] * self.rows

        # shared counters surfaced through EngineStats.record_run
        self.events = 0
        self.batches = 0
        self.fallbacks = 0
        self.kernel_seconds = 0.0
        self._active_count = 0
        self._active_pairs_sum = 0
        self._active_pairs_max = 0
        self._active_states_last = 0

    # -- shared surface ------------------------------------------------------
    @property
    def population(self) -> Population:
        """Row 0's configuration (the single-row engine's population)."""
        self._sync_pop(0)
        return self._population

    @property
    def active_pair_stats(self):
        """(iterations counted, Σ active cells, max cells, last active states)."""
        if not self._active_count:
            return None
        return (
            self._active_count,
            self._active_pairs_sum,
            self._active_pairs_max,
            self._active_states_last,
        )

    # -- per-row surface -----------------------------------------------------
    def row_population(self, r: int) -> Population:
        """Row ``r``'s live configuration."""
        self._sync_pop(r)
        return self._pops[r]

    def row_interactions_of(self, r: int) -> int:
        return int(self._row_interactions[r])

    def row_rounds(self, r: int) -> float:
        return self._row_interactions[r] / self._n

    def row_verdict(self, r: int) -> Optional[bool]:
        """Row ``r``'s last stop evaluation (``None`` if never evaluated)."""
        return self._row_verdicts[r]

    def row_stats(self, r: int) -> EngineStats:
        """Row ``r``'s :class:`EngineStats` split out of the shared counters.

        Exact per-row interactions/rounds/events/batches/fallbacks and stop
        evaluations; wall and kernel seconds are the row's share of the
        shared stacked-kernel time (apportioned over the rows live in each
        iteration).
        """
        stats = EngineStats(self.name)
        stats.runs = 1
        stats.run_seconds = float(self._row_wall[r])
        stats.interactions = int(self._row_interactions[r])
        stats.rounds = float(self._row_interactions[r] / self._n)
        stats.events = int(self._row_events[r])
        stats.batches = int(self._row_batches[r])
        stats.fallbacks = int(self._row_fallbacks[r])
        stats.kernel_seconds = float(self._row_kernel_seconds[r])
        stats.stop_evals = int(self._row_stop_evals[r])
        stats.ensemble_rows = self.rows
        source = self.table_source
        if source is not None and r:
            # the rows share one acquisition: row 0 carries its cost
            source = source._replace(seconds=0.0)
        stats.observe_table(self.table, source)
        return stats

    # -- row bookkeeping -----------------------------------------------------
    def _sync_pop(self, r: int) -> None:
        """Rebuild row ``r``'s Population from the count matrix if stale."""
        if not self._pop_stale[r]:
            return
        pop = self._pops[r]
        pop.counts.clear()
        row = self._C[r]
        codes = self.table.codes
        for idx in np.nonzero(row)[0]:
            pop.counts[int(codes[idx])] = int(row[idx])
        self._pop_stale[r] = False

    def _refresh_row(self, r: int) -> None:
        """Rebuild the count-matrix row from row ``r``'s Population."""
        row = self._C[r]
        row[:] = 0.0
        index = self.table.index
        for code, count in self._pops[r].counts.items():
            idx = index.get(code)
            if idx is None:
                raise RuntimeError(
                    "state {} escaped the compiled closure during exact "
                    "stepping".format(code)
                )
            row[idx] = count
        self._pop_stale[r] = False

    def _exact_event(self, r: int, h: Horizon) -> bool:
        """One exact event on row ``r``: :meth:`CountEngine._exact_step`.

        Steps the row's private engine (rebuilt after stacked batches)
        under the row's horizon ``h``, which has no stop, so ``False``
        means nothing fired: the budget ran out first or the row is silent.
        """
        eng = self._row_eng[r]
        if eng is None:
            self._sync_pop(r)
            eng = self._row_eng[r] = CountEngine(
                self.protocol, self._pops[r],
                rng=self._row_rngs[r], table=self.table, guards=None,
            )
        eng.interactions = int(self._row_interactions[r])
        fired = eng._exact_step(h)
        self._row_interactions[r] = eng.interactions
        if fired:
            self._row_events[r] += 1
            self._refresh_row(r)
        return fired

    # -- run -----------------------------------------------------------------
    def run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        **kwargs,
    ) -> "EnsembleEngine":
        """Advance every row by the budget (same per-row contract as
        :meth:`Engine.run`); per-row verdicts land in :meth:`row_verdict`
        and :attr:`stop_verdict` reports row 0's."""
        self.stop_verdict = None
        if self.guards is not None:
            self.guards.attach(self)
        start = time.perf_counter()
        try:
            return self._run(
                rounds=rounds,
                interactions=interactions,
                stop=stop,
                observer=observer,
                observe_every=observe_every,
                **kwargs,
            )
        finally:
            wall = time.perf_counter() - start
            self._row_wall += wall / self.rows
            self.stop_verdict = self._row_verdicts[0]
            self.interactions = int(self._row_interactions[0])
            self.events = int(self._row_events.sum())
            self.batches = int(self._row_batches.sum())
            self.fallbacks = int(self._row_fallbacks.sum())
            evals = int(self._row_stop_evals.sum())
            if evals:
                self.stats.stop_evals = (self.stats.stop_evals or 0) + evals
            self.stats.ensemble_rows = self.rows
            self.stats.record_run(self, wall)

    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        max_events: Optional[int] = None,
    ) -> "EnsembleEngine":
        if observer is not None:
            raise ValueError(
                "EnsembleEngine does not support observers; use a "
                "per-replica engine for trace observation"
            )
        # each run judges its rows afresh: a row whose stop held or that
        # was silent last run steps (or is found silent) again
        self._row_done[:] = False
        self._row_verdicts = [None] * self.rows
        # one horizon per row: the run's budget and event cap, anchored
        # at the row's own interaction count
        n = self._n
        base = Horizon(n, 0, rounds, interactions, stop, max_events)
        if isinstance(stop, _StopRecorder):
            stop = stop.stop  # rows keep their own verdicts
        horizons = [base.at(int(t)) for t in self._row_interactions]

        pairs_total = float(n) * float(n - 1)
        ct = self.table
        q = ct.num_states
        R = self.rows
        targets: Optional[np.ndarray] = None
        if base.budget is not None:
            targets = self._row_interactions + base.budget

        vstop: Optional[VectorizedStop] = None
        if stop is not None:
            vstop = VectorizedStop(stop, ct, self.protocol.schema)

        while True:
            live = ~self._row_done
            if targets is not None:
                live &= self._row_interactions < targets
            if max_events is not None:
                live &= np.fromiter(
                    (h.events < max_events for h in horizons), bool, R
                )
            idx = np.nonzero(live)[0]
            if not len(idx):
                break

            progressed: List[int] = []

            if self.batch == 1:
                # pure exact mode: every row steps one event per iteration
                for r in idx.tolist():
                    if self._exact_event(r, horizons[r]):
                        progressed.append(r)
                    elif targets is None:
                        self._row_done[r] = True  # silent
                self._evaluate_stop(vstop, progressed)
                continue

            kernel_start = time.perf_counter()
            L = len(idx)
            sub = self._C[idx]
            cols = np.nonzero((sub > 0.0).any(axis=0))[0]
            a = len(cols)
            ca = sub[:, cols]
            W = pair_weights(ca, ct.p_change_matrix[np.ix_(cols, cols)])
            if self.guards is not None:
                # NaN/Inf survive the max-reduction across rows, so the
                # collapsed (a, a) matrix carries any row's poison
                self.guards.check_weights(
                    self, W.max(axis=0), codes=ct.codes[cols]
                )
            tot = W.sum(axis=(1, 2))
            p_change = np.minimum(tot / pairs_total, 1.0)

            # Per-row totals are summed fresh from the counts: exactly 0.0
            # iff that row is silent, at any population size (an absolute
            # p_change floor here falsely retired n >= 1e8 endgame rows).
            silent = silent_weight(tot)
            if silent.any():
                for r in idx[silent]:
                    if targets is not None:
                        self._row_interactions[r] = targets[r]
                    else:
                        self._row_done[r] = True

            alive = ~silent
            exact_rows = np.zeros(L, dtype=bool)
            B = np.zeros(L, dtype=np.int64)
            if self.batch is not None:
                B[alive] = self.batch
                batchable = alive.copy()
            else:
                consume = W.sum(axis=2) + W.sum(axis=1)
                # an unconsumed state puts no bound on the batch; dividing
                # by a floored ``consume`` instead overflows at n >= 1e8
                per_state = np.divide(
                    ACCURACY * ca * pairs_total, consume,
                    out=np.full(consume.shape, np.inf),
                    where=consume > 0.0,
                )
                cap = per_state.min(axis=1)
                cap = np.where(np.isfinite(cap), cap, 0.0)
                expected = cap * p_change
                if max_events is not None:
                    expected = np.minimum(
                        expected, [horizons[r].events_left() for r in idx]
                    )
                batchable = alive & (expected >= MIN_BATCH_EVENTS)
                exact_rows = alive & ~batchable
                B[batchable] = np.minimum(cap[batchable], MAX_BATCH).astype(
                    np.int64
                )
            if targets is not None:
                room = targets[idx] - self._row_interactions[idx]
                B = np.minimum(B, room)
            if max_events is not None:
                for l in np.nonzero(batchable)[0].tolist():
                    r = int(idx[l])
                    B[l] = horizons[r].clamp(
                        int(B[l]), int(self._row_interactions[r]),
                        float(p_change[l]),
                    )
            too_small = batchable & (B < 1)
            if too_small.any():
                batchable &= ~too_small
                exact_rows |= too_small
            B = np.minimum(B, MAX_BATCH)

            if batchable.any():
                if self.guards is not None:
                    self.guards.check_batch(self, int(B[batchable].max()))
                lb = np.nonzero(batchable)[0]
                self._active_count += 1
                cells = int(np.count_nonzero(W[lb]))
                self._active_pairs_sum += cells
                self._active_pairs_max = max(self._active_pairs_max, cells)
                self._active_states_last = a

                fired = self.rng.binomial(B[lb], p_change[lb])
                delta = np.zeros((len(lb), q), dtype=np.int64)
                pos_f = fired > 0
                if pos_f.any():
                    w_fired = W[lb][pos_f]
                    flat = w_fired.reshape(len(w_fired), -1)
                    cell_counts = self.rng.multinomial(
                        fired[pos_f], flat / flat.sum(axis=1, keepdims=True)
                    )
                    rnz, cnz = np.nonzero(cell_counts)
                    counts = cell_counts[rnz, cnz].astype(np.int64)
                    gi = cols[cnz // a]
                    gj = cols[cnz % a]
                    drow = np.nonzero(pos_f)[0][rnz]
                    np.add.at(delta, (drow, gi), -counts)
                    np.add.at(delta, (drow, gj), -counts)
                    pair_flat = gi * q + gj
                    start = ct.off[pair_flat]
                    width = ct.off[pair_flat + 1] - start
                    split_outcomes_grouped(
                        self.rng, delta, counts, start, width,
                        ct.out_p, ct.out_a, ct.out_b, rows=drow,
                    )

                bad = (self._C[idx[lb]] + delta < 0).any(axis=1)
                good = ~bad
                if good.any():
                    gl = lb[good]
                    gidx = idx[gl]
                    self._C[gidx] += delta[good]
                    self._row_interactions[gidx] += B[gl]
                    self._row_events[gidx] += fired[good]
                    self._row_batches[gidx] += 1
                    self._pop_stale[gidx] = True
                    for r, f in zip(gidx.tolist(), fired[good].tolist()):
                        self._row_eng[r] = None
                        horizons[r].events += f
                    progressed.extend(int(r) for r in gidx)
                    if self.guards is not None:
                        self.guards.check_rows(
                            self, self._C[gidx], ct.codes, n
                        )
                if bad.any():
                    bl = lb[bad]
                    self._row_fallbacks[idx[bl]] += 1
                    # infeasible stacked draw: this iteration steps the row
                    # exactly instead (towards the safe regime)
                    exact_rows[bl] = True

            kernel_wall = time.perf_counter() - kernel_start
            self.kernel_seconds += kernel_wall
            alive_rows = idx[alive]
            if len(alive_rows):
                self._row_kernel_seconds[alive_rows] += kernel_wall / len(
                    alive_rows
                )

            if exact_rows.any():
                for r in idx[exact_rows].tolist():
                    if self._exact_event(r, horizons[r]):
                        progressed.append(r)
                    elif targets is None:
                        self._row_done[r] = True  # silent

            self._evaluate_stop(vstop, progressed)
        return self

    def _evaluate_stop(
        self, vstop: Optional[VectorizedStop], progressed: List[int]
    ) -> None:
        """One vectorized stop evaluation over the rows that advanced."""
        if vstop is None or not progressed:
            return
        rows = np.unique(np.asarray(progressed, dtype=np.int64))
        verdicts = vstop(self._C[rows])
        self._row_stop_evals[rows] += 1
        for k, r in enumerate(rows):
            verdict = bool(verdicts[k])
            self._row_verdicts[int(r)] = verdict
            if verdict:
                self._row_done[r] = True
