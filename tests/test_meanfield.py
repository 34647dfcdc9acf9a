"""Tests for the mean-field ODE system."""

import numpy as np
import pytest

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import MeanFieldSystem
from repro.engine.table import reachable_codes


@pytest.fixture
def epidemic():
    schema = StateSchema()
    schema.flag("I")
    return single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )


class TestConstruction:
    def test_reachable_closure(self, epidemic):
        codes = reachable_codes(epidemic, [0, 1])
        assert sorted(codes) == [0, 1]

    def test_reachable_discovers_states(self):
        schema = StateSchema()
        schema.enum("x", 3)
        proto = single_thread(
            "chain",
            schema,
            [
                Rule(V("x", 0), None, {"x": 1}),
                Rule(V("x", 1), None, {"x": 2}),
            ],
        )
        codes = reachable_codes(proto, [schema.pack({"x": 0})])
        assert len(codes) == 3

    def test_reachable_limit(self):
        schema = StateSchema()
        schema.enum("x", 50)

        def advance(a, b):
            return [({"x": min(a["x"] + 1, 49)}, {}, 1.0)] if a["x"] < 49 else []

        from repro.core import DynamicRule

        proto = single_thread("long", schema, [DynamicRule(None, None, advance)])
        with pytest.raises(RuntimeError):
            reachable_codes(proto, [0], limit=10)

    def test_escaping_state_rejected(self):
        schema = StateSchema()
        schema.enum("x", 3)
        proto = single_thread(
            "chain", schema, [Rule(V("x", 1), None, {"x": 2})]
        )
        with pytest.raises(ValueError):
            # state 2 is reachable from 1 but missing from the state list
            MeanFieldSystem(proto, [schema.pack({"x": 0}), schema.pack({"x": 1})])


class TestDynamics:
    def test_epidemic_logistic_growth(self, epidemic):
        mf = MeanFieldSystem(epidemic, [0, 1])
        schema = epidemic.schema
        x0 = mf.initial_vector(
            Population.from_groups(schema, [({"I": True}, 10), ({}, 990)])
        )
        solution = mf.integrate(x0, (0.0, 40.0))
        infected = mf.fraction_series(solution, schema.pack({"I": True}))
        assert infected[-1] == pytest.approx(1.0, abs=1e-4)

    def test_conservation(self, epidemic):
        mf = MeanFieldSystem(epidemic, [0, 1])
        x0 = np.array([0.99, 0.01])
        solution = mf.integrate(x0, (0.0, 30.0))
        assert mf.conservation_error(solution) < 1e-6

    def test_derivative_zero_at_fixed_point(self, epidemic):
        mf = MeanFieldSystem(epidemic, [0, 1])
        # all infected is absorbing
        x = np.array([0.0, 1.0])
        assert np.abs(mf.derivative(x)).max() < 1e-12

    def test_derivative_sign(self, epidemic):
        mf = MeanFieldSystem(epidemic, [0, 1])
        x = np.array([0.5, 0.5])
        dx = mf.derivative(x)
        # susceptible fraction (index of code 0) decreases
        assert dx[mf.index[0]] < 0
        assert dx[mf.index[1]] > 0

    def test_matches_stochastic_epidemic(self, epidemic):
        """Large-n stochastic trajectory tracks the ODE."""
        from repro.engine import CountEngine, Trace

        schema = epidemic.schema
        n = 20000
        pop = Population.from_groups(schema, [({"I": True}, 200), ({}, n - 200)])
        trace = Trace({"I": V("I")})
        CountEngine(epidemic, pop, rng=np.random.default_rng(0)).run(
            rounds=8, observer=trace, observe_every=1.0
        )
        mf = MeanFieldSystem(epidemic, [0, 1])
        x0 = np.zeros(2)
        x0[mf.index[schema.pack({"I": True})]] = 0.01
        x0[mf.index[0]] = 0.99
        solution = mf.integrate(x0, (0.0, 8.0), t_eval=trace.times)
        ode = mf.fraction_series(solution, schema.pack({"I": True}))
        sim = trace.series("I") / n
        assert np.abs(ode - sim).max() < 0.05

    def test_oscillator_drift_matches_transition_pair_by_pair(self):
        """On the E3 oscillator's closure, the drift read from the table's
        rows equals the ODE summed pair by pair from
        ``Protocol.transition``."""
        from repro.oscillator import make_oscillator_protocol, weak_value

        protocol = make_oscillator_protocol()
        schema = protocol.schema
        initial = [schema.pack({"osc": weak_value(k)}) for k in range(3)]
        initial.append(schema.pack({"osc": weak_value(0), "X": True}))
        mf = MeanFieldSystem.from_initial(protocol, initial)
        size = len(mf.codes)
        assert size > len(initial)
        for x in np.random.default_rng(3).dirichlet(np.ones(size), size=4):
            want = np.zeros(size)
            for i, a in enumerate(mf.codes):
                for j, b in enumerate(mf.codes):
                    for new_a, new_b, p in protocol.transition(a, b)[0]:
                        rate = x[i] * x[j] * p
                        want[i] -= rate
                        want[j] -= rate
                        want[mf.index[new_a]] += rate
                        want[mf.index[new_b]] += rate
            np.testing.assert_allclose(mf.derivative(x), want, rtol=1e-12, atol=1e-15)
