"""Exact sequential engine on agent arrays with collision-free batching.

For protocols in which most interactions change state (the DK18 oscillator
in mid-oscillation, epidemics at half spread) null skipping buys nothing.
This engine keeps the explicit agent array and exploits a different exact
speedup: interacting **pairs are chosen independently of the configuration**,
so a batch of upcoming pairs can be pre-drawn, and any prefix in which no
agent occurs twice consists of commuting interactions that may be applied
simultaneously with vectorized table lookups.  Expected prefix length is
Θ(√n), giving a ~√n speedup while sampling *exactly* the sequential
process.

State codes must fit in int64 (``schema.num_states < 2**62``); composed
protocols with larger packed spaces should use
:class:`repro.engine.sequential.CountEngine`, which works on Python ints.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import Engine, Horizon, Observer, StopCondition
from .table import LazyTable, TransitionTable


def _collision_free_prefix(idx_a: np.ndarray, idx_b: np.ndarray) -> int:
    """Largest k such that pairs [0, k) touch pairwise-distinct agents."""
    flat = np.empty(2 * len(idx_a), dtype=np.int64)
    flat[0::2] = idx_a
    flat[1::2] = idx_b
    order = np.argsort(flat, kind="stable")
    sorted_vals = flat[order]
    dup = sorted_vals[1:] == sorted_vals[:-1]
    if not dup.any():
        return len(idx_a)
    # position (in draw order) of the second occurrence of each duplicate
    second_positions = order[1:][dup]
    first_conflict = int(second_positions.min())
    return first_conflict // 2


class ArrayEngine(Engine):
    """Exact sequential simulation over an explicit agent array."""

    name = "array"

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        rng: Optional[np.random.Generator] = None,
        table: Optional[TransitionTable] = None,
        batch_pairs: Optional[int] = None,
        guards: object = None,
    ):
        self._init_common(protocol, population, rng, guards=guards)
        if protocol.schema.num_states >= 2 ** 62:
            raise ValueError(
                "packed state space too large for int64 agent arrays; "
                "use CountEngine instead"
            )
        self.table = table if table is not None else LazyTable(protocol)
        # NOTE: the engine works on a private agent array of dense table
        # indices; unlike CountEngine it does NOT mutate the passed
        # Population — read the evolving configuration from the
        # ``population`` property.
        self.agents = self.table.indices(population.to_agent_array(self.rng))
        self._n = len(self.agents)
        if batch_pairs is None:
            batch_pairs = max(8, int(0.75 * math.sqrt(self._n)))
        self.batch_pairs = batch_pairs
        self._buf_a = np.empty(0, dtype=np.int64)
        self._buf_b = np.empty(0, dtype=np.int64)

    @property
    def n(self) -> int:
        return self._n

    @property
    def rounds(self) -> float:
        return self.interactions / self._n

    @property
    def population(self) -> Population:
        return Population(self.protocol.schema, self.table.census(self.agents))

    # -- pair pre-drawing --------------------------------------------------------
    def _refill(self, want: int) -> None:
        size = max(want, self.batch_pairs)
        idx_a = self.rng.integers(0, self._n, size=size, dtype=np.int64)
        offset = self.rng.integers(1, self._n, size=size, dtype=np.int64)
        idx_b = (idx_a + offset) % self._n
        self._buf_a = np.concatenate([self._buf_a, idx_a])
        self._buf_b = np.concatenate([self._buf_b, idx_b])

    def _consume_prefix(self, limit: int) -> int:
        """Apply the next collision-free prefix (at most ``limit`` pairs)."""
        if len(self._buf_a) == 0:
            self._refill(limit)
        avail = min(limit, len(self._buf_a))
        k = _collision_free_prefix(self._buf_a[:avail], self._buf_b[:avail])
        if k == 0:
            k = 1  # a single pair conflicts with nothing
        self.table.apply(self.agents, self._buf_a[:k], self._buf_b[:k], self.rng)
        self._buf_a = self._buf_a[k:]
        self._buf_b = self._buf_b[k:]
        self.interactions += k
        return k

    # -- main loop -------------------------------------------------------------
    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        stop_every: float = 1.0,
    ) -> "ArrayEngine":
        """Advance the simulation by a budget of rounds / interactions.

        ``stop`` is an early-exit predicate on the population; because
        materializing a :class:`Population` from the agent array costs
        O(n), it is only evaluated every ``stop_every`` parallel rounds.
        Observations fall on the :class:`~repro.engine.api.Horizon` grid,
        each showing the configuration at its time, as on the count
        engines.
        """
        h = Horizon(
            self._n, self.interactions, rounds, interactions, stop,
            observer=observer, observe_every=observe_every,
        )
        stop_step = max(int(round(stop_every * self._n)), 1)
        next_stop_check = self.interactions + stop_step

        while h.open(self.interactions):
            if h.due(self.interactions):
                h.emit_up_to(self.interactions, self.population)
            limit = h.clamp(self.batch_pairs, self.interactions)
            if stop is not None:
                limit = min(limit, max(next_stop_check - self.interactions, 1))
            self._consume_prefix(limit)
            if stop is not None and self.interactions >= next_stop_check:
                next_stop_check = self.interactions + stop_step
                if h.halted(self.population):
                    break
        if h.due(self.interactions):
            h.emit_up_to(self.interactions, self.population)
        return self
