"""Random-matching (synchronous) scheduler engine.

Section 5.3 of the paper leans on the equivalence, for the protocols in
play, between the asynchronous sequential scheduler and a *random-matching*
parallel scheduler which activates a random matching of the population in
every step.  The clock hierarchy in fact *emulates* a slowed random-matching
scheduler.  This engine implements the scheduler directly: each parallel
step draws a uniformly random perfect matching (one agent idles when ``n``
is odd) and applies every matched pair's interaction simultaneously.

One matching step counts as one parallel round (n/2 simultaneous
interactions), so round counts are not directly comparable with the
sequential engines' ``interactions / n`` normalization (factor ~2; see
``tests/test_scheduler_equivalence.py``).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import Engine, Observer, StopCondition, require_budget
from .table import LazyTable, TransitionTable


class MatchingEngine(Engine):
    """Synchronous random-matching scheduler on an explicit agent array."""

    name = "matching"

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
        self.steps = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def rounds(self) -> float:
        """One matching activation = one parallel round."""
        return float(self.steps)

    @property
    def population(self) -> Population:
        return Population(self.protocol.schema, self.table.census(self.agents))

    def step(self) -> int:
        """Activate one uniformly random (near-)perfect matching.

        Returns the number of interactions that changed an agent.
        """
        perm = self.rng.permutation(self._n)
        usable = self._n - (self._n % 2)
        idx_a = perm[0:usable:2]
        idx_b = perm[1:usable:2]
        changed = self.table.apply(self.agents, idx_a, idx_b, self.rng)
        self.steps += 1
        self.interactions += usable // 2
        return changed

    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        stop_every: float = 1.0,
    ) -> "MatchingEngine":
        """Advance by a budget of matching steps (= rounds).

        ``interactions`` budgets are converted to steps at ``n // 2``
        interactions per step.  With only a ``stop`` condition the engine
        runs until it holds.
        """
        require_budget(rounds, interactions, stop)
        target: Optional[int] = None
        if rounds is not None:
            target = self.steps + int(rounds)
        if interactions is not None:
            per_step = max(self._n // 2, 1)
            by_interactions = self.steps + int(math.ceil(interactions / per_step))
            target = by_interactions if target is None else min(target, by_interactions)
        observe_step = max(int(round(observe_every)), 1)
        stop_step = max(int(round(stop_every)), 1)
        while target is None or self.steps < target:
            self.step()
            if observer is not None and self.steps % observe_step == 0:
                observer(self.rounds, self.population)
            if stop is not None and self.steps % stop_step == 0:
                if stop(self.population):
                    break
        return self
