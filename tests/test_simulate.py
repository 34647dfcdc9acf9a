"""The simulate() facade and engine registry."""

import numpy as np
import pytest

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine import BatchCountEngine, EngineConfig
from repro.simulate import (
    ENGINE_CHOICES,
    ENGINES,
    default_engine_name,
    make_engine,
    resolve_engine,
    simulate,
)


@pytest.fixture
def epidemic():
    schema = StateSchema()
    schema.flag("I")
    return single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )


def epidemic_population(schema, n, infected=1):
    return Population.from_groups(
        schema, [({"I": True}, infected), ({"I": False}, n - infected)]
    )


class TestRegistry:
    def test_choices_cover_registry(self):
        assert set(ENGINE_CHOICES) == set(ENGINES) | {"auto"}

    def test_names_match_classes(self):
        for name, cls in ENGINES.items():
            assert cls.name == name

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_resolve_each_name(self, name):
        assert resolve_engine(name) is ENGINES[name]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("quantum")

    def test_auto_needs_protocol(self):
        with pytest.raises(ValueError):
            resolve_engine("auto")


class TestAutoSelection:
    def test_small_dense_protocol_uses_batch(self, epidemic):
        assert default_engine_name(epidemic) == "batch"
        assert resolve_engine("auto", epidemic) is BatchCountEngine

    @staticmethod
    def _huge_protocol():
        # 70 flags: packed space 2^70, far past the int64 agent-array limit
        schema = StateSchema()
        for i in range(70):
            schema.flag("b{}".format(i))
        return single_thread(
            "big", schema, [Rule(V("b0"), ~V("b0"), None, {"b0": True})]
        )

    def test_huge_schema_small_support_uses_batch(self):
        proto = self._huge_protocol()
        schema = proto.schema
        pop = Population.from_groups(
            schema, [({"b0": True}, 1), ({"b0": False}, 999)]
        )
        assert schema.num_states >= 2 ** 62
        assert default_engine_name(proto, pop) == "batch"

    def test_huge_schema_no_population_falls_back(self):
        assert default_engine_name(self._huge_protocol()) == "count"


class TestMakeEngine:
    @pytest.mark.parametrize("name,cls", sorted(ENGINES.items()))
    def test_every_name_constructs(self, epidemic, name, cls):
        pop = epidemic_population(epidemic.schema, 100)
        eng = make_engine(epidemic, pop, engine=name, seed=0)
        assert isinstance(eng, cls)
        assert eng.n == 100

    def test_engine_opts_forwarded(self, epidemic):
        pop = epidemic_population(epidemic.schema, 100)
        eng = make_engine(
            epidemic, pop, EngineConfig(engine="batch", batch=1), seed=0
        )
        assert eng.batch == 1

    def test_seed_reproducible(self, epidemic):
        runs = []
        for _ in range(2):
            pop = epidemic_population(epidemic.schema, 200)
            eng = make_engine(epidemic, pop, engine="count", seed=9)
            eng.run(stop=lambda p: p.all_satisfy(V("I")))
            runs.append(eng.interactions)
        assert runs[0] == runs[1]


class TestSimulate:
    def test_runs_and_returns_engine(self, epidemic):
        pop = epidemic_population(epidemic.schema, 300)
        eng = simulate(
            epidemic, pop, seed=1, stop=lambda p: p.all_satisfy(V("I"))
        )
        assert eng.population.count(V("I")) == 300
        assert eng.rounds > 0

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_all_engines_run(self, epidemic, name):
        pop = epidemic_population(epidemic.schema, 200)
        eng = simulate(epidemic, pop, engine=name, seed=2, rounds=3)
        assert eng.rounds >= 3.0 - 1e-9

    def test_engine_opts(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        eng = simulate(
            epidemic, pop, EngineConfig(engine="batch", accuracy=0.5),
            seed=3, rounds=2,
        )
        assert eng.accuracy == 0.5

    def test_rng_passthrough(self, epidemic):
        pop = epidemic_population(epidemic.schema, 200)
        rng = np.random.default_rng(4)
        eng = simulate(epidemic, pop, engine="count", rng=rng, rounds=1)
        assert eng.rng is rng
