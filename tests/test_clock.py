"""Tests for the base phase clock C_o (Theorem 5.2)."""

import numpy as np
import pytest

from repro.core import Population
from repro.engine import MatchingEngine
from repro.clocks import (
    ClockParams,
    expected_species,
    extract_ticks,
    majority_phase,
    make_clock_protocol,
    phase_histogram,
    phase_of,
    phase_spread,
    phases_adjacent,
)
from repro.oscillator import strong_value, weak_value


def clock_population(schema, n, n_x=3):
    c1 = int(0.8 * (n - n_x))
    c2 = int(0.17 * (n - n_x))
    c3 = (n - n_x) - c1 - c2
    return Population.from_groups(
        schema,
        [
            ({"osc": strong_value(0), "clk": 0}, c1),
            ({"osc": weak_value(1), "clk": 0}, c2),
            ({"osc": weak_value(2), "clk": 0}, c3),
            ({"osc": weak_value(0), "X": True, "clk": 0}, n_x),
        ],
    )


class TestParams:
    def test_module_must_be_multiple_of_12(self):
        with pytest.raises(ValueError):
            ClockParams(module=10)

    def test_k_minimum(self):
        with pytest.raises(ValueError):
            ClockParams(k=1)

    def test_ring_size(self):
        assert ClockParams(module=12, k=6).ring_size == 72

    def test_expected_species_cycles(self):
        assert [expected_species(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_phase_of(self):
        params = ClockParams(module=12, k=6)
        assert phase_of(0, params) == 0
        assert phase_of(6, params) == 1
        assert phase_of(71, params) == 11


class TestHelpers:
    @pytest.fixture(scope="class")
    def setup(self):
        params = ClockParams()
        proto = make_clock_protocol(params=params)
        return params, proto

    def test_phase_histogram(self, setup):
        params, proto = setup
        pop = Population.from_groups(
            proto.schema,
            [({"clk": 0}, 10), ({"clk": params.k}, 5)],
        )
        assert phase_histogram(pop, params) == {0: 10, 1: 5}

    def test_majority_phase(self, setup):
        params, proto = setup
        pop = Population.from_groups(
            proto.schema, [({"clk": 0}, 10), ({"clk": params.k}, 5)]
        )
        phase, frac = majority_phase(pop, params)
        assert phase == 0 and frac == pytest.approx(10 / 15)

    def test_phases_adjacent_true(self, setup):
        params, proto = setup
        pop = Population.from_groups(
            proto.schema, [({"clk": 0}, 10), ({"clk": params.k}, 5)]
        )
        assert phases_adjacent(pop, params)

    def test_phases_adjacent_wraparound(self, setup):
        params, proto = setup
        pop = Population.from_groups(
            proto.schema,
            [({"clk": 0}, 10), ({"clk": (params.module - 1) * params.k}, 5)],
        )
        assert phases_adjacent(pop, params)

    def test_phases_adjacent_false(self, setup):
        params, proto = setup
        pop = Population.from_groups(
            proto.schema, [({"clk": 0}, 10), ({"clk": 3 * params.k}, 5)]
        )
        assert not phases_adjacent(pop, params)

    def test_extract_ticks_synthetic(self):
        times = [0, 1, 2, 3, 4, 5]
        phases = [0, 0, 1, 1, 2, 2]
        fracs = [0.99, 0.5, 0.99, 0.6, 0.99, 0.99]
        record = extract_ticks(times, phases, fracs, quorum=0.9)
        assert record.phases == [0, 1, 2]
        assert record.cyclic_ok(12)
        assert list(record.intervals) == [2.0, 2.0]


class TestOperation:
    """One medium stochastic run shared by the behavioural assertions."""

    @pytest.fixture(scope="class")
    def run(self):
        params = ClockParams()
        proto = make_clock_protocol(params=params)
        pop = clock_population(proto.schema, 3000)
        times, phases, fracs, adjacent = [], [], [], []

        def observe(t, p):
            phase, frac = majority_phase(p, params)
            times.append(t)
            phases.append(phase)
            fracs.append(frac)
            adjacent.append(phases_adjacent(p, params))

        eng = MatchingEngine(proto, pop, rng=np.random.default_rng(11))
        eng.run(rounds=12000, observer=observe, observe_every=10)
        return params, times, phases, fracs, adjacent

    def test_ticks_progress_cyclically(self, run):
        params, times, phases, fracs, _ = run
        ticks = extract_ticks(times, phases, fracs, quorum=0.95)
        assert ticks.count >= 10
        seq = ticks.phases
        # after the startup transient, ticks advance by exactly +1 mod m
        settled = seq[3:]
        assert all((b - a) % params.module == 1 for a, b in zip(settled, settled[1:]))

    def test_tick_intervals_are_regular(self, run):
        params, times, phases, fracs, _ = run
        ticks = extract_ticks(times, phases, fracs, quorum=0.95)
        intervals = ticks.intervals[3:]
        assert intervals.min() > 0.3 * np.median(intervals)
        assert intervals.max() < 3.0 * np.median(intervals)

    def test_agents_synchronized_after_transient(self, run):
        _, times, _, _, adjacent = run
        # Theorem 5.2: phases agree up to a difference of at most 1 after
        # the initial synchronization
        tail = adjacent[len(adjacent) // 4 :]
        violations = sum(1 for ok in tail if not ok)
        assert violations / len(tail) < 0.02


def test_clock_workload_stop_verdicts_on_a_recorded_trajectory():
    """The ``clock`` workload's stop predicate (its clock parameters built
    once per process) reads a recorded trajectory as the C_o phase reader
    does with fresh parameters, false before the quarter turn, true
    after it."""
    from repro.engine import BatchCountEngine
    from repro.workloads import WORKLOADS

    protocol, population, stop = WORKLOADS["clock"](n=20_000)
    trajectory = []
    BatchCountEngine(protocol, population, rng=np.random.default_rng(3)).run(
        rounds=60, observer=lambda _t, pop: trajectory.append(pop.copy()),
    )
    verdicts = [stop(pop) for pop in trajectory]
    expected = []
    for pop in trajectory:
        phase, frac = majority_phase(pop, ClockParams(module=12, k=2))
        expected.append(frac >= 0.6 and phase >= 3)
    assert verdicts == expected
    assert not verdicts[0] and verdicts[-1]
