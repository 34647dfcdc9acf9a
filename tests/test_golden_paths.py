"""Golden records of the count engines' stepping paths.

Each case pins a seeded run's record (interactions, events, batches,
final counts) and, where it takes an observer, the whole observer trace.
The values were captured before the count engines' run loops were merged
into one, so they pin the draw order of every path: any change to which
variates are drawn, in which order, breaks them.

- ``count`` on the E3 oscillator: the exact null-skipping event;
- ``batch`` on the oscillator at n = 600, where it batches between exact
  events and the observer grid clamps batches;
- ``bghkpu`` on the E4 clock at n = 20 000: dense epochs, the colliding
  tail and the repair of overdrawn batches;
- ``bghkpu`` on approximate majority to full consensus: the lean sparse
  step once a losing opinion is down to a few agents;
- ``bghkpu`` on the leader fight at n = 10⁸: the one-pair endgame loop
  under an observer grid that clamps its batches, ending at the budget,
  at a ``max_events`` cap and at the stop.
"""

import hashlib

import numpy as np

from repro.baselines.approx_majority import (
    approx_majority_population,
    make_approx_majority,
)
from repro.core import Population, V
import pytest

from repro.engine import BatchCountEngine, BGHKPUEngine, CountEngine, Trace
from repro.oscillator import make_oscillator_protocol, species, weak_value
from repro.workloads import build_workload


def oscillator_population(schema, n):
    third = (n - 3) // 3
    return Population.from_groups(
        schema,
        [
            ({"osc": weak_value(0)}, third + (n - 3) - 3 * third),
            ({"osc": weak_value(1)}, third),
            ({"osc": weak_value(2)}, third),
            ({"osc": weak_value(0), "X": True}, 3),
        ],
    )


def species_trace():
    return Trace({"A1": species(0), "A2": species(1), "A3": species(2)})


def trace_dict(trace):
    out = {"times": [float(t) for t in trace.times]}
    for name in ("A1", "A2", "A3"):
        out[name] = [int(v) for v in trace.series(name)]
    return out


def counts_digest(population):
    """Short digest of the whole final configuration."""
    text = repr(sorted(population.counts.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(engine, *fields):
    pop = engine.population
    out = {name: getattr(engine, name) for name in fields}
    out["species"] = [pop.count(species(i)) for i in range(3)]
    out["digest"] = counts_digest(pop)
    return out


def test_count_on_oscillator():
    protocol = make_oscillator_protocol()
    eng = CountEngine(
        protocol, oscillator_population(protocol.schema, 300),
        rng=np.random.default_rng(31),
    )
    trace = species_trace()
    eng.run(rounds=30.0, observer=trace, observe_every=2.0)
    assert record(eng, "interactions", "events") == {
        "interactions": 9000,
        "events": 438,
        "species": [103, 95, 99],
        "digest": "cac07adba6cdc647",
    }
    assert trace_dict(trace) == {
        "times": [float(t) for t in range(0, 31, 2)],
        "A1": [99, 101, 97, 99, 103, 104, 104, 107, 111, 109, 103, 103,
               101, 105, 102, 103],
        "A2": [99, 97, 98, 98, 91, 96, 96, 94, 94, 97, 101, 100, 97, 94,
               99, 95],
        "A3": [99, 99, 102, 100, 103, 97, 97, 96, 92, 91, 93, 94, 99, 98,
               96, 99],
    }


def test_batch_on_oscillator_where_it_batches():
    protocol = make_oscillator_protocol()
    eng = BatchCountEngine(
        protocol, oscillator_population(protocol.schema, 600),
        rng=np.random.default_rng(32),
    )
    trace = species_trace()
    eng.run(rounds=40.0, observer=trace, observe_every=4.0)
    assert record(eng, "interactions", "events", "batches", "fallbacks") == {
        "interactions": 24000,
        "events": 1090,
        "batches": 82,
        "fallbacks": 0,
        "species": [175, 252, 170],
        "digest": "22511b6f41be2e8c",
    }
    assert trace_dict(trace) == {
        "times": [float(t) for t in range(0, 41, 4)],
        "A1": [199, 201, 209, 212, 214, 209, 209, 212, 194, 182, 175],
        "A2": [199, 207, 209, 214, 212, 216, 219, 223, 241, 245, 252],
        "A3": [199, 189, 179, 171, 171, 172, 169, 162, 162, 170, 170],
    }


def test_bghkpu_on_clock_dense_epochs():
    wl = build_workload("clock", n=20_000)
    eng = BGHKPUEngine(
        wl.protocol, wl.population, rng=np.random.default_rng(33),
    )
    trace = species_trace()
    eng.run(rounds=60.0, stop=wl.stop, observer=trace, observe_every=5.0)
    assert eng.stop_verdict is True
    assert record(
        eng, "interactions", "events", "batches", "collision_events",
        "repair_events", "fallbacks",
    ) == {
        "interactions": 1036460,
        "events": 212628,
        "batches": 141,
        "collision_events": 42072,
        "repair_events": 59,
        "fallbacks": 0,
        "species": [10899, 8965, 133],
        "digest": "0c161786d4b805cb",
    }
    assert trace_dict(trace) == {
        "times": [float(t) for t in range(0, 51, 5)],
        "A1": [15997, 15775, 15467, 15106, 14718, 14259, 13762, 13186,
               12548, 11902, 11185],
        "A2": [3399, 3713, 4090, 4522, 4962, 5475, 6015, 6612, 7268, 7941,
               8677],
        "A3": [601, 509, 440, 369, 317, 263, 220, 199, 181, 154, 135],
    }


def test_bghkpu_lean_sparse_endgame():
    protocol = make_approx_majority()
    pop = approx_majority_population(protocol.schema, 20_000, 11_000, 9_000)
    eng = BGHKPUEngine(
        protocol, pop, rng=np.random.default_rng(0),
    )

    def consensus(p):
        return p.count(V("am", "A")) == p.n or p.count(V("am", "B")) == p.n

    eng.run(rounds=200.0, stop=consensus)
    assert eng.stop_verdict is True
    got = {
        name: getattr(eng, name)
        for name in (
            "interactions", "events", "batches", "collision_events",
            "repair_events", "fallbacks",
        )
    }
    assert got == {
        "interactions": 1380577,
        "events": 71012,
        "batches": 55,
        "collision_events": 14248,
        "repair_events": 2,
        "fallbacks": 0,
    }
    assert pop.count(V("am", "A")) == 20_000


@pytest.mark.parametrize("limits, expected", [
    (
        # the budget ends the run; the 2-round grid clamps batches once
        # they grow past it (~20 rounds in)
        {"rounds": 40.0, "observe_every": 2.0},
        {
            "interactions": 4000000000, "events": 97748510, "batches": 45,
            "collision_events": 19146042, "stop_evals": 45,
            "stop_verdict": False, "digest": "f7cb83ca0963e818",
            "times": [float(t) for t in range(0, 41, 2)],
            "L": [100000000, 31070225, 18384240, 13081532, 10162357,
                  8295677, 7023558, 6091384, 5374520, 4804544, 4343591,
                  3965835, 3651152, 3383661, 3154644, 2955222, 2779756,
                  2625468, 2487638, 2363827, 2251490],
        },
    ),
    (
        # max_events ends the run; the cap sizes the last batches
        {"max_events": 10**8 - 1000, "observe_every": 1e4},
        {
            "interactions": 9173861639167, "events": 99999007,
            "batches": 115, "collision_events": 19997664,
            "stop_evals": 115, "stop_verdict": False,
            "digest": "4c560681abf6b141",
            "times": [float(t) for t in range(0, 90_001, 10_000)],
            "L": [100000000, 9010, 4554, 3041, 2265, 1801, 1516, 1287,
                  1137, 1018],
        },
    ),
    (
        # the stop ends the run, deep in the sparse exact-gap steps
        {"observe_every": 1e7},
        {
            "interactions": 7413405332845243, "events": 99999999,
            "batches": 134, "collision_events": 19997962,
            "stop_evals": 208, "stop_verdict": True,
            "digest": "37d22b660912e737",
            "times": [float(t) for t in range(0, 70_000_001, 10_000_000)],
            "L": [100000000, 8, 6, 4, 3, 3, 2, 2],
        },
    ),
], ids=["grid-budget", "grid-max-events", "grid-stop"])
def test_bghkpu_leader_one_pair_loop(limits, expected):
    wl = build_workload("leader", n=10**8)
    eng = BGHKPUEngine(
        wl.protocol, wl.population, rng=np.random.default_rng(41),
    )
    trace = Trace({"L": V("L")})
    eng.run(stop=wl.stop, observer=trace, **limits)
    got = {
        name: getattr(eng, name)
        for name in ("interactions", "events", "batches", "collision_events")
    }
    got["stop_evals"] = eng.stats.stop_evals
    got["stop_verdict"] = eng.stop_verdict
    got["digest"] = counts_digest(eng.population)
    got["times"] = [float(t) for t in trace.times]
    got["L"] = [int(v) for v in trace.series("L")]
    assert got == expected
