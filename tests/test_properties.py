"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.core.formula import And, Not, Or, Var
from repro.engine import CountEngine, LazyTable
from repro.predicates import Remainder, Threshold


# -- schema packing ---------------------------------------------------------------
@st.composite
def schema_and_assignment(draw):
    n_flags = draw(st.integers(1, 4))
    enum_sizes = draw(st.lists(st.integers(2, 6), min_size=0, max_size=3))
    schema = StateSchema()
    assignment = {}
    for i in range(n_flags):
        name = "f{}".format(i)
        schema.flag(name)
        assignment[name] = draw(st.booleans())
    for i, size in enumerate(enum_sizes):
        name = "e{}".format(i)
        schema.enum(name, size)
        assignment[name] = draw(st.integers(0, size - 1))
    return schema, assignment


@given(schema_and_assignment())
@settings(max_examples=100, deadline=None)
def test_pack_decode_roundtrip(data):
    schema, assignment = data
    code = schema.pack(assignment)
    assert 0 <= code < schema.num_states
    assert schema.decode(code) == assignment


@given(schema_and_assignment(), st.data())
@settings(max_examples=60, deadline=None)
def test_with_values_matches_repack(data, extra):
    schema, assignment = data
    code = schema.pack(assignment)
    field = extra.draw(st.sampled_from(schema.fields))
    value = extra.draw(st.sampled_from(list(field.values)))
    new_code = schema.with_values(code, {field.name: value})
    expected = dict(assignment)
    expected[field.name] = value
    assert new_code == schema.pack(expected)


@st.composite
def schema_code_and_update(draw):
    """A random schema (flags, integer and labelled enums, one-value
    fields), a random code and a random partial assignment."""
    schema = StateSchema()
    for i, kind in enumerate(draw(st.lists(st.sampled_from("fil1"), min_size=1, max_size=7))):
        name = "v{}".format(i)
        if kind == "f":
            schema.flag(name)
        elif kind == "i":
            schema.enum(name, draw(st.integers(2, 9)))
        elif kind == "l":
            size = draw(st.integers(2, 5))
            schema.enum(name, size, values=["{}-{}".format(name, j) for j in range(size)])
        else:
            schema.enum(name, 1)
    code = draw(st.integers(0, schema.num_states - 1))
    update = {}
    for field in schema.fields:
        if draw(st.booleans()):
            update[field.name] = draw(st.sampled_from(list(field.values)))
    return schema, code, update


@given(schema_code_and_update())
@settings(max_examples=200, deadline=None)
def test_stride_arithmetic_matches_decode_and_pack(data):
    schema, code, update = data
    decoded = schema.decode(code)
    for name in schema.field_names:
        assert schema.value_of(code, name) == decoded[name]
    assert schema.pack(decoded) == code
    expected = schema.pack(dict(decoded, **update))
    assert schema.with_values(code, update) == expected
    state = schema.unpack(code)
    state.update(update)
    assert state.code == expected
    assert schema.view(code).code == code


# -- formulas -----------------------------------------------------------------------
@st.composite
def formulas(draw, variables=("a", "b", "c"), depth=3):
    if depth == 0:
        return Var(draw(st.sampled_from(variables)))
    kind = draw(st.sampled_from(["var", "not", "and", "or"]))
    if kind == "var":
        return Var(draw(st.sampled_from(variables)))
    if kind == "not":
        return Not(draw(formulas(variables=variables, depth=depth - 1)))
    left = draw(formulas(variables=variables, depth=depth - 1))
    right = draw(formulas(variables=variables, depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


@given(formulas(), st.tuples(st.booleans(), st.booleans(), st.booleans()))
@settings(max_examples=150, deadline=None)
def test_formula_evaluation_matches_python_semantics(formula, values):
    schema = StateSchema()
    schema.flags("a", "b", "c")
    assignment = dict(zip(("a", "b", "c"), values))
    state = schema.unpack(schema.pack(assignment))

    def semantics(f):
        if isinstance(f, Var):
            return assignment[f.name] == f.value
        if isinstance(f, Not):
            return not semantics(f.operand)
        if isinstance(f, And):
            return all(semantics(o) for o in f.operands)
        return any(semantics(o) for o in f.operands)

    assert formula.evaluate(state) == semantics(formula)


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_double_negation(formula):
    schema = StateSchema()
    schema.flags("a", "b", "c")
    for code in range(8):
        state = schema.unpack(code)
        assert Not(Not(formula)).evaluate(state) == formula.evaluate(state)


# -- population invariants -------------------------------------------------------------
@given(
    st.lists(st.tuples(st.booleans(), st.integers(1, 50)), min_size=1, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_population_counts_consistent(groups):
    schema = StateSchema()
    schema.flag("A")
    pop = Population.from_groups(schema, [({"A": a}, c) for a, c in groups])
    assert pop.count(V("A")) + pop.count(~V("A")) == pop.n
    assert pop.fraction(V("A")) <= 1.0


@given(st.integers(2, 60), st.integers(0, 60), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_engine_conserves_population(n, infected_raw, seed):
    infected = min(infected_raw, n)
    schema = StateSchema()
    schema.flag("I")
    proto = single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )
    pop = Population.from_groups(
        schema, [({"I": True}, infected), ({"I": False}, n - infected)]
    )
    eng = CountEngine(proto, pop, rng=np.random.default_rng(seed))
    eng.run(rounds=3)
    assert pop.n == n
    # the epidemic can only grow
    assert pop.count(V("I")) >= infected


# -- transition tables ------------------------------------------------------------------
@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_table_probabilities_bounded(code_a, code_b):
    schema = StateSchema()
    schema.flags("A", "B")
    proto = single_thread(
        "p",
        schema,
        [
            Rule(V("A"), None, {"B": True}),
            Rule(V("B"), V("A"), {"A": False}, {"A": False}),
        ],
    )
    table = LazyTable(proto)
    row = table.rows(
        np.array([table.state_index(code_a)]), np.array([table.state_index(code_b)])
    )[0]
    assert 0.0 <= table.p_row[row] <= 1.0 + 1e-12
    assert (table.out_p[table.off[row] : table.off[row + 1]] >= 0).all()


# -- predicate algebra -----------------------------------------------------------------
@given(
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-10, 10),
)
@settings(max_examples=120, deadline=None)
def test_threshold_matches_arithmetic(xa, xb, ca, cb, const):
    if ca == 0 and cb == 0:
        return
    coeffs = {}
    if ca:
        coeffs["A"] = ca
    if cb:
        coeffs["B"] = cb
    if not coeffs:
        return
    pred = Threshold(coeffs, const)
    counts = {"A": xa, "B": xb}
    expected = ca * xa + cb * xb >= const
    assert pred.evaluate(counts) == expected


@given(st.integers(0, 100), st.integers(2, 9), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_remainder_matches_arithmetic(x, m, r):
    pred = Remainder({"A": 1}, r, m)
    assert pred.evaluate({"A": x}) == (x % m == r % m)


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_boolean_closure_demorgan(xa, xb):
    p = Threshold({"A": 1}, 5)
    q = Threshold({"B": 1}, 5)
    counts = {"A": xa, "B": xb}
    lhs = (~(p & q)).evaluate(counts)
    rhs = ((~p) | (~q)).evaluate(counts)
    assert lhs == rhs


# -- precompilation ----------------------------------------------------------------------
@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_precompiled_tree_always_uniform(n_assigns, loop_body):
    from repro.core.formula import TRUE
    from repro.lang import Assign, Program, Repeat, RepeatLog, ThreadDef, VarDecl, precompile

    body = [Assign("v0", TRUE) for _ in range(n_assigns)]
    body.append(RepeatLog([Assign("v0", TRUE) for _ in range(loop_body)]))
    program = Program(
        "P", [VarDecl("v0")], [ThreadDef("Main", body=Repeat(body))]
    )
    pre = precompile(program)
    depths = {len(path) for path, _ in pre.leaves()}
    assert depths == {pre.depth}

    def widths(node, acc):
        from repro.lang.precompile import LoopNode

        if isinstance(node, LoopNode):
            acc.add(len(node.children))
            for child in node.children:
                widths(child, acc)
        return acc

    assert widths(pre.root, set()) == {pre.width}


# -- the table's vectorized dict reads ---------------------------------------------
@st.composite
def key_batches(draw):
    """Batches of keys >= 0, dense (direct-address snapshots) or spread
    over 2**40 (sorted snapshots), with repeats inside a batch."""
    top = draw(st.sampled_from([64, 5000, 2 ** 40]))
    keys = st.integers(0, top)
    return draw(st.lists(st.lists(keys, max_size=40), min_size=1, max_size=12))


@given(key_batches())
@settings(max_examples=200, deadline=None)
def test_lookup_matches_a_dict(batches):
    """Every read equals the dict's; the keys missing from the snapshot go
    to ``resolve`` once each, sorted, with the position of their first
    occurrence; the snapshot is rebuilt once more keys have missed it
    than it holds."""
    from repro.engine.table import _Lookup

    lookup = _Lookup()
    mapping = {}
    snapshot = {}  # the model: the dict as of the last rebuild
    misses = 0
    calls = []

    def resolve(keys, at):
        calls.append((keys.tolist(), at.tolist()))
        for key in keys.tolist():
            if key not in mapping:  # may be there: the snapshot is older
                mapping[key] = 3 * len(mapping) + 1
        return [mapping[key] for key in keys.tolist()]

    for batch in batches:
        if misses > len(snapshot):
            snapshot, misses = dict(mapping), 0
        calls.clear()
        keys = np.array(batch, dtype=np.int64)
        found = lookup(mapping, keys, resolve)
        assert found.tolist() == [mapping[key] for key in batch]
        lost = sorted(set(batch) - set(snapshot))
        if lost:
            assert calls == [(lost, [batch.index(key) for key in lost])]
        else:
            assert calls == []
        misses += len(lost)
        assert (lookup.size, lookup.misses) == (len(snapshot), misses)
        if snapshot:
            span = max(snapshot) + 1
            assert (lookup.direct is not None) == (span <= 4 * len(snapshot) + 4096)
