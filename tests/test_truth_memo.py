"""The schema's per-code truth memo behind every Population query.

Over random schemas, formulas and populations, each memoized query must
answer exactly what evaluating the formula on the decoded state answers;
structurally equal formulas share one memo entry; a Predicate is never
memoized.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.core import FALSE, TRUE, Population, Predicate, StateSchema, V
from repro.core.formula import And, Not, Or, Var, structural


@st.composite
def schemas(draw):
    """Flags ``f0..`` plus one enum ``e``; returns (schema, atoms)."""
    schema = StateSchema()
    flags = ["f{}".format(i) for i in range(draw(st.integers(1, 4)))]
    schema.flags(*flags)
    size = draw(st.integers(2, 5))
    schema.enum("e", size)
    atoms = [Var(name) for name in flags] + [
        Var("e", value) for value in range(size)
    ]
    return schema, atoms


def formulas(atoms, depth=3):
    leaves = st.sampled_from(atoms + [TRUE, FALSE])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda ab: And(*ab)),
            st.tuples(inner, inner).map(lambda ab: Or(*ab)),
        ),
        max_leaves=2 ** depth,
    )


@st.composite
def cases(draw):
    schema, atoms = draw(schemas())
    counts = draw(
        st.dictionaries(
            st.integers(0, schema.num_states - 1), st.integers(1, 40),
            min_size=1, max_size=8,
        )
    )
    queries = draw(st.lists(formulas(atoms), min_size=1, max_size=6))
    return schema, Population(schema, counts), queries


def _direct(schema, formula, code):
    return bool(formula.evaluate(schema.unpack(code)))


@given(cases())
@settings(max_examples=150, deadline=None)
def test_memoized_queries_match_direct_evaluation(case):
    schema, pop, queries = case
    # each query twice: the second reads the memo the first filled
    for formula in queries + queries:
        hits = [c for c in pop.counts if _direct(schema, formula, c)]
        assert pop.count(formula) == sum(pop.counts[c] for c in hits)
        assert pop.fraction(formula) == sum(pop.counts[c] for c in hits) / pop.n
        assert pop.exists(formula) == bool(hits)
        assert pop.all_satisfy(formula) == (len(hits) == len(pop.counts))
        assert list(pop.codes_matching(formula)) == hits
    for formula in queries:
        truth = schema.truth(formula)
        for code in range(schema.num_states):
            assert truth[code] == _direct(schema, formula, code)


@given(cases())
@settings(max_examples=40, deadline=None)
def test_memo_survives_a_field_added_later(case):
    schema, pop, queries = case
    for formula in queries:
        pop.count(formula)
    schema.flag("late")
    pop.add(schema.with_values(next(iter(pop.counts)), {"late": True}), 3)
    for formula in queries:
        expected = sum(
            k for c, k in pop.counts.items() if _direct(schema, formula, c)
        )
        assert pop.count(formula) == expected


def test_structurally_equal_formulas_share_one_entry():
    schema = StateSchema()
    schema.flags("I", "L")
    pop = Population.from_groups(schema, [({"I": True}, 3), ({}, 4)])
    for _ in range(50):
        assert pop.count(~V("I") & (V("L") | ~V("L"))) == 4
        assert pop.all_satisfy(~V("I")) is False
    assert len(schema._truth) == 2
    assert schema.truth(~V("I")) is schema.truth(Not(Var("I", True)))
    assert And(V("I"), V("L")) == And(V("I"), V("L"))
    assert hash(Or(V("I"), ~V("L"))) == hash(Or(V("I"), ~V("L")))
    assert And(V("I"), V("L")) != Or(V("I"), V("L"))
    assert ~TRUE == Not(TRUE) and hash(~FALSE) == hash(Not(FALSE))


def test_predicates_are_called_on_every_query():
    schema = StateSchema()
    schema.flag("A")
    pop = Population.from_groups(schema, [({"A": True}, 2), ({}, 5)])
    calls = []

    def is_a(state):
        calls.append(state.code)
        return state["A"]

    wrapped = V("A") & Predicate(is_a, ("A",))
    assert not structural(wrapped)
    for k in range(1, 4):
        assert pop.count(wrapped) == 2
        # the And short-circuits on ~A, so only the A state reaches it
        assert len(calls) == k
    assert pop.count(Predicate(is_a, ("A",))) == 2
    assert len(calls) == 5
    assert schema._truth == {}


def test_memo_is_not_pickled():
    schema = StateSchema()
    schema.flag("A")
    pop = Population.uniform(schema, 5, {"A": True})
    assert pop.count(V("A")) == 5
    clone = pickle.loads(pickle.dumps(schema))
    assert clone._truth == {} and clone.field_names == ("A",)
    assert Population(clone, pop.counts).count(V("A")) == 5
