"""Mean-field (continuous-limit) approximation of a population protocol.

The paper's analysis identifies the configuration of a k-state protocol
with a point of the phase space [0, 1]^k (fractions of agents per state)
and approximates the evolution by the corresponding system of ordinary
differential equations (the limit n -> +infinity).  This module derives
the ODE system mechanically from a protocol's transition table and
integrates it with scipy.

With parallel time t (interactions / n), each unit of t performs n
interactions; an interaction draws an ordered pair of states (i, j) with
probability x_i * x_j in the limit, then applies the aggregated outcome
distribution.  Hence

    dx_s/dt = sum_{i,j} x_i x_j sum_{outcomes o of (i,j)} p_o * delta_s(o)

where delta_s(o) in {-2,-1,0,1,2} is the net change of state s's count in
outcome o.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .table import TransitionTable, _spans


class MeanFieldSystem:
    """The ODE system of a protocol restricted to a finite state list.

    The system is read off a closed :class:`~repro.engine.table.TransitionTable`
    over the states: one term per ordered pair with changing outcomes.
    """

    def __init__(self, protocol: Protocol, codes: Sequence[int]):
        codes = list(codes)
        try:
            # the reachable closure of a list closed under the transitions
            # is the list itself
            table = TransitionTable.from_protocol(protocol, codes, limit=len(set(codes)))
        except RuntimeError as err:
            raise ValueError(
                "an outcome state escapes the provided state list; "
                "use reachable closure"
            ) from err
        self._derive(protocol, codes, table)

    @classmethod
    def from_initial(cls, protocol: Protocol, initial_codes: Sequence[int]) -> "MeanFieldSystem":
        """Build the system over the reachable closure of the initial support
        (at most :data:`~repro.engine.compiled.COMPILE_STATE_LIMIT` states),
        in :func:`~repro.engine.table.reachable_codes` order."""
        table = TransitionTable.from_protocol(protocol, initial_codes)
        system = cls.__new__(cls)
        system._derive(protocol, table.codes.tolist(), table)
        return system

    def _derive(self, protocol: Protocol, codes: List[int], table: TransitionTable) -> None:
        """The system over the list ``codes`` from the rows of the closed
        ``table``, whose states they all are."""
        self.protocol = protocol
        self.codes: List[int] = codes
        self.index: Dict[int, int] = {code: i for i, code in enumerate(codes)}
        size = len(codes)
        states = table.indices(np.array(codes, dtype=np.int64))
        rows = table.rows(np.repeat(states, size), np.tile(states, size))
        start = table.off[rows]
        width = table.off[rows + 1] - start
        ent = _spans(start, width)
        # each table state's position in the list
        local = np.empty(table.num_states, dtype=np.int64)
        local[states] = np.arange(size)
        new_a, new_b = local[table.out_a[ent]], local[table.out_b[ent]]
        # one term per pair with changing outcomes: its delta over the
        # states, each outcome adding -p, -p, +p, +p in turn
        live = np.flatnonzero(width)
        self._ti, self._tj = live // size, live % size
        term = np.repeat(np.arange(len(live)) * size, width[live])
        pair = np.repeat(live, width[live])
        p = table.out_p[ent]
        cells = np.stack([pair // size, pair % size, new_a, new_b], axis=1)
        self._deltas = np.bincount(
            (cells + term[:, None]).ravel(),
            weights=np.stack([-p, -p, p, p], axis=1).ravel(),
            minlength=len(live) * size,
        ).reshape(len(live), size)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return (x[self._ti] * x[self._tj]) @ self._deltas

    def initial_vector(self, population: Population) -> np.ndarray:
        n = population.n
        x = np.zeros(len(self.codes), dtype=np.float64)
        for code, count in population.counts.items():
            if code not in self.index:
                raise ValueError("population occupies state outside the system")
            x[self.index[code]] = count / n
        return x

    def integrate(
        self,
        x0: np.ndarray,
        t_span: Tuple[float, float],
        t_eval: Optional[np.ndarray] = None,
        rtol: float = 1e-8,
        atol: float = 1e-10,
        dense_output: bool = False,
    ):
        """Integrate the mean-field dynamics over parallel time.

        ``dense_output=True`` attaches a continuous interpolant
        (``solution.sol``) so callers can evaluate the trajectory at
        arbitrary parallel times after the fact.  scipy is imported here,
        not at module top, so ``import repro`` stays free of it.
        """
        from scipy.integrate import solve_ivp

        def rhs(_t: float, x: np.ndarray) -> np.ndarray:
            return self.derivative(x)

        return solve_ivp(rhs, t_span, x0, t_eval=t_eval, rtol=rtol, atol=atol,
                         method="LSODA", dense_output=dense_output)

    def fraction_series(self, solution, code: int) -> np.ndarray:
        return solution.y[self.index[code]]

    def conservation_error(self, solution) -> float:
        """Max deviation of sum(x) from 1 along the trajectory."""
        return float(np.abs(solution.y.sum(axis=0) - 1.0).max())
