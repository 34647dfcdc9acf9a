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

Internals: for the set of currently occupied states, ``Q[i, j]`` is the
probability that an interaction between an initiator in state ``i`` and a
responder in state ``j`` changes the configuration; ``v = Q @ c`` is kept
incrementally so each *effective* event costs ``O(support)`` time.

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
from .table import LazyTable, PairOutcomes, TransitionTable


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

        self._codes: List[int] = []
        self._index: Dict[int, int] = {}
        self._c = np.zeros(0, dtype=np.float64)
        self._q = np.zeros((0, 0), dtype=np.float64)
        self._v = np.zeros(0, dtype=np.float64)
        self._rebuild()

    # -- bookkeeping ---------------------------------------------------------
    def _rebuild(self) -> None:
        self._codes = sorted(self._population.counts)
        self._index = {code: i for i, code in enumerate(self._codes)}
        size = len(self._codes)
        self._c = np.array(
            [self._population.counts[code] for code in self._codes], dtype=np.float64
        )
        self._q = self.table.p_changes(
            [a for a in self._codes for _ in range(size)], self._codes * size
        ).reshape(size, size)
        self._v = self._q @ self._c

    def _ensure_state(self, code: int) -> int:
        idx = self._index.get(code)
        if idx is not None:
            return idx
        idx = len(self._codes)
        self._codes.append(code)
        self._index[code] = idx
        size = idx + 1
        # the new row and column interleaved, (code, c_0), (c_0, code),
        # ..., (code, code): an open table indexes states and fills rows
        # in this order, which its (digest-pinned) layout depends on
        codes_a, codes_b = [], []
        for other in self._codes[:idx]:
            codes_a += (code, other)
            codes_b += (other, code)
        codes_a.append(code)
        codes_b.append(code)
        p = self.table.p_changes(codes_a, codes_b)
        new_q = np.zeros((size, size), dtype=np.float64)
        new_q[:idx, :idx] = self._q
        new_q[idx, :] = p[0::2]
        new_q[:idx, idx] = p[1::2]
        self._q = new_q
        self._c = np.append(self._c, 0.0)
        self._v = self._q @ self._c
        return idx

    def _bump(self, code: int, delta: int) -> None:
        idx = self._ensure_state(code)
        self._c[idx] += delta
        self._v += self._q[:, idx] * delta
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

    def _apply_outcome(self, i: int, j: int, entry: PairOutcomes) -> None:
        new_a, new_b = entry.sample_changing(self.rng)
        old_a, old_b = self._codes[i], self._codes[j]
        deltas: Dict[int, int] = {}
        for code, d in ((old_a, -1), (old_b, -1), (new_a, +1), (new_b, +1)):
            deltas[code] = deltas.get(code, 0) + d
        for code, delta in deltas.items():
            if delta:
                self._bump(code, delta)

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
        """Sample and apply the next effective interaction."""
        i, j = self._sample_event_pair()
        entry = self.table.outcomes(self._codes[i], self._codes[j])
        self._apply_outcome(i, j, entry)
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
        h.emit_up_to(self.interactions, self._population)
        return self
