"""Exact sequential-scheduler engine on population counts.

Implements the paper's probabilistic scheduler: at each discrete step an
ordered pair of distinct agents is chosen uniformly at random and one rule
of the protocol is drawn uniformly (see :class:`repro.core.protocol.Protocol`
for the drawing convention).  *Parallel time* is ``interactions / n``
(Section 1).

The engine is **count-based** and **exact**: instead of simulating each
interaction, it maintains the multiset of occupied states and skips runs of
null interactions with a geometrically distributed jump.  For protocols
that spend most interactions in null events (phase clocks in a settled
phase, the `X`-elimination process of Proposition 5.3 once ``#X`` is small)
this turns Θ(n^{1+ε}) scheduler steps into O(n) simulated events without
changing the sampled process.

Internals: the occupied states are table indices in a local order (codes
sorted at each rebuild, new states appended as events create them).  For
local states ``i`` and ``j``, ``R[i, j]`` is the transition-table row of
the pair and ``Q[i, j]`` its change probability; ``v = Q @ c`` is kept
incrementally so each *effective* event costs ``O(support)`` time, and
the event's outcome is drawn from row ``R[i, j]``'s ``out_p`` slice.

:meth:`CountEngine._run` is the one run loop of ``count``, ``batch`` and
``bghkpu``: it builds the run's :class:`~repro.engine.api.Horizon` and
calls the step picked by :meth:`CountEngine._pick_step` until the horizon
closes or the step ends the run.  ``count`` steps one exact event
(:meth:`CountEngine._exact_step`), which the other count engines' steps
and :class:`~repro.engine.ensemble.EnsembleEngine`'s fallback rows reuse.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import Engine, Horizon, Observer, StopCondition
from .silence import CRUMB_GUARD, exact_change_weight, silent_weight
from .table import LazyTable, TransitionTable


class CountEngine(Engine):
    """Exact sequential simulation over state counts with null skipping."""

    name = "count"

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        rng: Optional[np.random.Generator] = None,
        table: Optional[TransitionTable] = None,
        guards: object = None,
    ):
        self._init_common(protocol, population, rng, guards=guards)
        self._population = population
        self.table = table if table is not None else LazyTable(protocol)
        self.events = 0  # effective (state-changing) interactions

        self._states: List[int] = []  # table indices, in local order
        self._local: Dict[int, int] = {}  # table index -> local position
        self._c = np.zeros(0, dtype=np.float64)
        self._rows = np.zeros((0, 0), dtype=np.int64)
        self._q = np.zeros((0, 0), dtype=np.float64)
        self._v = np.zeros(0, dtype=np.float64)
        self._rebuild()

    # -- bookkeeping ---------------------------------------------------------
    def _rebuild(self) -> None:
        counts = self._population.counts
        codes = sorted(counts)
        self._states = [self.table.state_index(code) for code in codes]
        self._local = {idx: k for k, idx in enumerate(self._states)}
        size = len(codes)
        self._c = np.array([counts[code] for code in codes], dtype=np.float64)
        states = np.array(self._states, dtype=np.int64)
        self._rows = self.table.rows(
            states.repeat(size), np.tile(states, size)
        ).reshape(size, size)
        self._q = self.table.p_row[self._rows]
        self._v = self._q @ self._c

    def _ensure_state(self, idx: int) -> int:
        """Local position of the table index ``idx``; a new state is
        appended to the support with its row and column of ``R`` and ``Q``."""
        k = self._local.get(idx)
        if k is not None:
            return k
        k = len(self._states)
        self._states.append(idx)
        self._local[idx] = k
        states = np.array(self._states, dtype=np.int64)
        new = np.full(k + 1, idx, dtype=np.int64)
        rows = self.table.rows(
            np.concatenate([new, states[:k]]), np.concatenate([states, new[:k]])
        )
        grown = np.empty((k + 1, k + 1), dtype=np.int64)
        grown[:k, :k] = self._rows
        grown[k, :] = rows[: k + 1]
        grown[:k, k] = rows[k + 1 :]
        self._rows = grown
        self._q = self.table.p_row[grown]
        self._c = np.append(self._c, 0.0)
        self._v = self._q @ self._c
        return k

    def _bump(self, idx: int, delta: int) -> None:
        """Add ``delta`` agents (fewer when negative) to the state of table
        index ``idx``."""
        k = self._ensure_state(idx)
        self._c[k] += delta
        self._v += self._q[:, k] * delta
        code = int(self.table.codes[idx])
        if delta > 0:
            self._population.add(code, delta)
        else:
            self._population.remove(code, -delta)

    def _total_change_weight(self) -> float:
        """Sum over ordered agent pairs of their change probability."""
        diag = np.einsum("i,ii->", self._c, self._q)
        return float(self._c @ self._v - diag)

    def _exact_change_weight(self) -> float:
        """Cancellation-free total change weight, rebuilt from raw counts.

        Exactly ``0.0`` iff the configuration is silent — use this (not
        :meth:`_total_change_weight`, whose incremental ``v = Q @ c``
        bookkeeping can carry floating-point crumbs) whenever the answer
        decides silence.
        """
        return exact_change_weight(self._c, self._q)

    # -- sampling -------------------------------------------------------------
    def _sample_event_pair(self) -> Tuple[int, int]:
        """Sample the ordered state pair of the next effective interaction."""
        weights = self._c * self._v - self._c * np.diag(self._q)
        np.maximum(weights, 0.0, out=weights)
        cum = np.cumsum(weights)
        total = cum[-1] if len(cum) else 0.0
        if total <= 0.0:
            raise RuntimeError(
                "no effective interaction available; "
                "callers must check _total_change_weight() first"
            )
        i = int(np.searchsorted(cum, self.rng.random() * total, side="right"))
        i = min(i, len(weights) - 1)
        row = self._q[i] * self._c
        row[i] = self._q[i, i] * (self._c[i] - 1.0)
        np.maximum(row, 0.0, out=row)
        cum_row = np.cumsum(row)
        total_row = cum_row[-1]
        if total_row <= 0.0:
            raise RuntimeError(
                "initiator state {} has no effective responder".format(i)
            )
        j = int(np.searchsorted(cum_row, self.rng.random() * total_row, side="right"))
        j = min(j, len(row) - 1)
        return i, j

    # -- per-event primitives -------------------------------------------------
    def _draw_event_gap(self) -> Optional[int]:
        """Geometric number of null interactions before the next effective
        event, or ``None`` when the configuration is silent."""
        total_agents = float(self._c.sum())
        pairs_total = total_agents * (total_agents - 1.0)
        weight = self._total_change_weight()
        if weight <= CRUMB_GUARD:
            # Near-zero incremental weight: either true silence or fp
            # crumbs from the v += qδ updates.  Decide on the exact
            # cancellation-free sum — scale-free, so a genuinely tiny
            # change probability (3 leaders at n = 1e8 is ~6e-16) is
            # stepped through, not misreported as silence.
            weight = self._exact_change_weight()
            if silent_weight(weight):
                return None
            self._v = self._q @ self._c  # shed the crumbs while we're here
        p_change = weight / pairs_total
        if p_change >= 1.0:
            return 0
        u = self.rng.random()
        return int(math.log(max(u, 1e-300)) / math.log1p(-p_change))

    def _fire_event(self) -> None:
        """Sample and apply the next effective interaction.

        The outcome is drawn conditioned on a change: one uniform scaled
        by the row's cumulative ``out_p`` picks the first outcome whose
        cumulative probability exceeds it.  A row with no outcomes (only
        a corrupt table has one with a positive change probability)
        consumes the pair and produces nothing, as the batch kernels do;
        the conservation guard then reports it.
        """
        i, j = self._sample_event_pair()
        table = self.table
        row = int(self._rows[i, j])
        lo, hi = int(table.off[row]), int(table.off[row + 1])
        moved = [(self._states[i], -1), (self._states[j], -1)]
        if hi > lo:
            u = self.rng.random()
            k = lo
            if hi > lo + 1:  # a one-outcome row takes its outcome for any u
                cum = np.cumsum(table.out_p[lo:hi])
                k += int(np.searchsorted(cum, u * cum[-1], side="right"))
            moved += [(int(table.out_a[k]), +1), (int(table.out_b[k]), +1)]
        deltas: Dict[int, int] = {}
        for idx, d in moved:
            deltas[idx] = deltas.get(idx, 0) + d
        for idx, delta in deltas.items():
            if delta:
                self._bump(idx, delta)
        self.events += 1
        if self.guards is not None:
            self.guards.after_event(self)

    # -- the run loop -----------------------------------------------------------
    def _exact_step(self, h: Horizon) -> bool:
        """One exact effective event via null skipping; ``False`` ends the run.

        The run ends when the configuration is silent (fast-forwarded to
        the target), when the next event lies past the target, or when
        ``stop`` holds after the event.
        """
        skip = self._draw_event_gap()
        if skip is None:
            self.interactions = h.fast_forward(self.interactions)
            return False
        event_at = self.interactions + skip + 1
        if h.target is not None and event_at > h.target:
            self.interactions = h.target
            return False
        h.emit_up_to(event_at - 1, self._population)
        self.interactions = event_at
        self._fire_event()
        h.events += 1
        return not h.halted(self._population)

    def _pick_step(self) -> Callable[[Horizon], bool]:
        """The step function of this run, chosen once per :meth:`run`."""
        return self._exact_step

    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        max_events: Optional[int] = None,
    ) -> "CountEngine":
        """The count engines' one run loop (contract: :meth:`Engine.run`).

        Steps never straddle a grid point unobserved, and the
        configuration is constant between effective events, so snapshots
        on the grid are exact even across skipped null runs.
        """
        h = Horizon(
            self.n, self.interactions, rounds, interactions, stop,
            max_events, observer, observe_every,
        )
        step = self._pick_step()
        while h.open(self.interactions) and step(h):
            pass
        if self.guards is not None:
            self.guards.after_run(self)
        h.emit_up_to(self.interactions, self._population)
        return self
