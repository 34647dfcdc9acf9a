"""Observables and diagnostics for phase clocks (Section 5.1's definition
of "operating correctly": phases advance cyclically, agents agree up to a
difference of at most one phase, ticks are separated by Theta(log n))."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.population import Population
from .base import ClockParams


def phase_histogram(population: Population, params: ClockParams) -> Dict[int, int]:
    """Counts of agents per clock phase."""
    ring = population.schema.values(params.field)
    k = params.k
    hist: Dict[int, int] = {}
    for code, count in population.counts.items():
        phase = ring[code] // k
        hist[phase] = hist.get(phase, 0) + count
    return hist


def majority_phase(population: Population, params: ClockParams) -> Tuple[int, float]:
    """The most common phase and the fraction of agents holding it."""
    hist = phase_histogram(population, params)
    phase, count = max(hist.items(), key=lambda kv: kv[1])
    return phase, count / population.n


def phase_spread(population: Population, params: ClockParams) -> int:
    """Number of distinct phases simultaneously present."""
    return len(phase_histogram(population, params))


def phases_adjacent(population: Population, params: ClockParams) -> bool:
    """Whether all present phases fit within a window of two cyclically
    adjacent phases (the paper's "up to a difference of at most 1")."""
    phases = sorted(phase_histogram(population, params))
    if len(phases) <= 1:
        return True
    if len(phases) > 2:
        return False
    a, b = phases
    return (b - a) % params.module in (1, params.module - 1)


@dataclass
class TickRecord:
    """Ticks extracted from a majority-phase trace."""

    times: List[float] = dataclass_field(default_factory=list)
    phases: List[int] = dataclass_field(default_factory=list)

    @property
    def intervals(self) -> np.ndarray:
        return np.diff(np.asarray(self.times, dtype=np.float64))

    @property
    def count(self) -> int:
        return len(self.times)

    def cyclic_ok(self, module: int) -> bool:
        """Whether recorded phases advanced by exactly +1 (mod m) each tick."""
        seq = self.phases
        return all((b - a) % module == 1 for a, b in zip(seq, seq[1:]))


def extract_ticks(
    times: Sequence[float],
    majority_phases: Sequence[int],
    majority_fractions: Sequence[float],
    quorum: float = 0.9,
) -> TickRecord:
    """Detect clock ticks in a trace of (majority phase, fraction) samples.

    A tick at phase p is recorded at the first sample where at least a
    ``quorum`` fraction of agents hold phase p, with p different from the
    previously ticked phase.
    """
    record = TickRecord()
    current: Optional[int] = None
    for t, phase, frac in zip(times, majority_phases, majority_fractions):
        if frac >= quorum and phase != current:
            record.times.append(float(t))
            record.phases.append(int(phase))
            current = int(phase)
    return record
