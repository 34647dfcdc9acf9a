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
from .table import LazyTable, reachable_codes


class MeanFieldSystem:
    """The ODE system of a protocol restricted to a finite state list."""

    def __init__(self, protocol: Protocol, codes: Sequence[int]):
        self.protocol = protocol
        self.codes: List[int] = list(codes)
        self.index: Dict[int, int] = {code: i for i, code in enumerate(self.codes)}
        self._terms: List[Tuple[int, int, np.ndarray]] = []
        table = LazyTable(protocol)
        size = len(self.codes)
        for i, a in enumerate(self.codes):
            for j, b in enumerate(self.codes):
                entry = table.outcomes(a, b)
                if not len(entry):
                    continue
                delta = np.zeros(size, dtype=np.float64)
                for new_a, new_b, p in zip(entry.codes_a, entry.codes_b, entry.probs):
                    if new_a not in self.index or new_b not in self.index:
                        raise ValueError(
                            "outcome state {} escapes the provided state list; "
                            "use reachable closure".format((new_a, new_b))
                        )
                    delta[i] -= p
                    delta[j] -= p
                    delta[self.index[new_a]] += p
                    delta[self.index[new_b]] += p
                self._terms.append((i, j, delta))
        self._rate_arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @classmethod
    def from_initial(cls, protocol: Protocol, initial_codes: Sequence[int]) -> "MeanFieldSystem":
        """Build the system over the reachable closure of the initial support."""
        return cls(protocol, reachable_codes(protocol, initial_codes))

    def _compiled_rates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked pair-rate arrays, built once and cached between RHS calls."""
        if self._rate_arrays is None:
            size = len(self.codes)
            if self._terms:
                ti = np.array([i for i, _, _ in self._terms], dtype=np.int64)
                tj = np.array([j for _, j, _ in self._terms], dtype=np.int64)
                deltas = np.stack([d for _, _, d in self._terms])
            else:
                ti = np.zeros(0, dtype=np.int64)
                tj = np.zeros(0, dtype=np.int64)
                deltas = np.zeros((0, size), dtype=np.float64)
            self._rate_arrays = (ti, tj, deltas)
        return self._rate_arrays

    def derivative(self, x: np.ndarray) -> np.ndarray:
        ti, tj, deltas = self._compiled_rates()
        if not len(ti):
            return np.zeros_like(x)
        return (x[ti] * x[tj]) @ deltas

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
