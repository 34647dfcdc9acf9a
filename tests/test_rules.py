"""Tests for rules, branches and dynamic rules."""

import pytest

from repro.core import DynamicRule, Rule, StateSchema, V, coin_rule
from repro.core.rules import Branch


@pytest.fixture
def schema():
    s = StateSchema()
    s.flags("A", "B", "K")
    return s


def outcomes_dict(rule, schema, ca, cb):
    return {(a, b): p for a, b, p in rule.outcomes(schema.view(ca), schema.view(cb))}


class TestRuleMatching:
    def test_any_guard_matches(self, schema):
        rule = Rule(None, None, {"A": True})
        assert rule.outcomes(schema.view(0), schema.view(0))

    def test_guard_filters_initiator(self, schema):
        rule = Rule(V("A"), None, {"B": True})
        assert rule.outcomes(schema.view(0), schema.view(0)) == []
        code_a = schema.pack({"A": True})
        assert rule.outcomes(schema.view(code_a), schema.view(0))

    def test_guard_filters_responder(self, schema):
        rule = Rule(None, V("A"), {"B": True})
        assert rule.outcomes(schema.view(0), schema.view(0)) == []

    def test_callable_guard(self, schema):
        rule = Rule(lambda s: s["A"], None, {"B": True})
        assert rule.outcomes(schema.view(schema.pack({"A": True})), schema.view(0))
        assert rule.outcomes(schema.view(0), schema.view(0)) == []

    def test_formula_update_rhs(self, schema):
        rule = Rule(V("A"), None, V("B") & ~V("A"))
        code_a = schema.pack({"A": True})
        [(new_a, _, p)] = rule.outcomes(schema.view(code_a), schema.view(0))
        assert schema.decode(new_a) == {"A": False, "B": True, "K": False}
        assert p == 1.0


class TestRuleEffects:
    def test_updates_both_agents(self, schema):
        rule = Rule(V("A"), V("B"), {"A": False}, {"B": False})
        ca, cb = schema.pack({"A": True}), schema.pack({"B": True})
        [(na, nb, _)] = rule.outcomes(schema.view(ca), schema.view(cb))
        assert na == 0 and nb == 0

    def test_effect_callable(self, schema):
        def swap(a, b):
            a["A"], b["A"] = b["A"], a["A"]

        rule = Rule(None, None, effect=swap)
        ca = schema.pack({"A": True})
        [(na, nb, _)] = rule.outcomes(schema.view(ca), schema.view(0))
        assert na == 0 and nb == ca

    def test_branches_probabilities(self, schema):
        rule = coin_rule(None, None, [(0.5, {"A": True}, None), (0.5, {"B": True}, None)])
        result = outcomes_dict(rule, schema, 0, 0)
        assert len(result) == 2
        assert abs(sum(result.values()) - 1.0) < 1e-12

    def test_branches_partial_probability(self, schema):
        rule = Rule(None, None, branches=[Branch(0.25, {"A": True})])
        result = rule.outcomes(schema.view(0), schema.view(0))
        assert len(result) == 1
        assert result[0][2] == 0.25

    def test_branch_probability_above_one_rejected(self, schema):
        with pytest.raises(ValueError):
            Rule(None, None, branches=[Branch(0.7, {}), Branch(0.7, {})])

    def test_branches_exclusive_with_updates(self):
        with pytest.raises(ValueError):
            Rule(None, None, {"A": True}, branches=[Branch(1.0, {})])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            Rule(None, None, {"A": True}, weight=0)


class TestGuarded:
    def test_adds_conjunct(self, schema):
        rule = Rule(V("A"), None, {"B": True})
        strict = rule.guarded(V("K"), V("K"))
        code = schema.pack({"A": True})
        assert strict.outcomes(schema.view(code), schema.view(0)) == []
        armed = schema.pack({"A": True, "K": True})
        responder = schema.pack({"K": True})
        assert strict.outcomes(schema.view(armed), schema.view(responder))

    def test_preserves_branches(self, schema):
        rule = coin_rule(None, None, [(0.5, {"A": True}, None)])
        strict = rule.guarded(V("K"), None)
        armed = schema.pack({"K": True})
        assert strict.outcomes(schema.view(armed), schema.view(0))[0][2] == 0.5

    def test_guard_with_callable_base(self, schema):
        rule = Rule(lambda s: s["A"], None, {"B": True})
        strict = rule.guarded(V("K"), None)
        code = schema.pack({"A": True, "K": True})
        assert strict.outcomes(schema.view(code), schema.view(0))
        assert strict.outcomes(schema.view(schema.pack({"A": True})), schema.view(0)) == []

    def test_describe_mentions_parts(self, schema):
        rule = Rule(V("A"), V("B"), {"A": False}, name="cancel")
        text = rule.describe()
        assert "A" in text and "B" in text


class TestDynamicRule:
    def test_state_dependent_outcome(self, schema):
        def advance(a, b):
            if a["A"]:
                return [({"A": False}, {"A": True}, 1.0)]
            return []

        rule = DynamicRule(None, None, advance)
        ca = schema.pack({"A": True})
        [(na, nb, p)] = rule.outcomes(schema.view(ca), schema.view(0))
        assert na == 0 and nb == ca and p == 1.0
        assert rule.outcomes(schema.view(0), schema.view(0)) == []

    def test_probabilistic_outcomes(self, schema):
        rule = DynamicRule(
            None, None, lambda a, b: [({"A": True}, {}, 0.5), ({"B": True}, {}, 0.5)]
        )
        assert len(rule.outcomes(schema.view(0), schema.view(0))) == 2

    def test_probability_overflow_rejected(self, schema):
        rule = DynamicRule(None, None, lambda a, b: [({}, {}, 0.8), ({}, {}, 0.8)])
        with pytest.raises(ValueError):
            rule.outcomes(schema.view(0), schema.view(0))

    def test_guard_respected(self, schema):
        rule = DynamicRule(V("A"), None, lambda a, b: [({"B": True}, {}, 1.0)])
        assert rule.outcomes(schema.view(0), schema.view(0)) == []

    def test_guarded_clone(self, schema):
        rule = DynamicRule(None, None, lambda a, b: [({"B": True}, {}, 1.0)])
        strict = rule.guarded(V("K"), V("K"))
        assert strict.outcomes(schema.view(0), schema.view(0)) == []
        armed = schema.pack({"K": True})
        assert strict.outcomes(schema.view(armed), schema.view(armed))
