"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools

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
    """Read, add the distinct missing keys, read again, as the table does.
    A read returns the position of every key it does not miss, and it
    misses exactly the keys not added yet plus the added keys still
    waiting.  Keys wait only on a sorted snapshot, until the reads since
    its rebuild have missed as many keys as it holds; a direct array
    takes new keys in place when they fit it, and a rebuild picks the
    direct array exactly when the keys are dense."""
    from repro.engine.table import _Lookup

    lookup = _Lookup()
    position = {}

    def read(keys):
        waiting = bool(lookup.pending)
        folds = waiting and (lookup.direct is not None or lookup.misses >= lookup.size)
        direct, misses = lookup.direct, lookup.misses
        found, miss = lookup(keys)
        stale = set(lookup.pending)
        assert found.tolist() == [
            -1 if key in stale else position.get(key, -1) for key in keys.tolist()
        ]
        assert miss.tolist() == np.flatnonzero(found < 0).tolist()
        if folds:
            assert lookup.pending == [] and lookup.size == len(position)
            dense = max(position) < 4 * len(position) + 4096
            assert (lookup.direct is not None) == dense
            if direct is not None and lookup.direct is direct:
                assert lookup.misses == misses + len(miss)  # written in place
            else:
                assert lookup.misses == len(miss)  # rebuilt
        else:
            assert lookup.pending == [] or lookup.direct is None
            assert lookup.misses == misses + len(miss)

    for batch in batches:
        keys = np.array(batch, dtype=np.int64)
        read(keys)
        fresh = sorted(set(batch) - set(position))
        lookup.add(fresh)
        position.update((key, len(position)) for key in fresh)
        read(keys)


# -- open-table fills -----------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _fill_protocol(top):
    """One dynamic rule over ``x < top``: the initiator takes ``(x_a +
    x_b) % top``, or with probability 1/4 the responder takes ``x_a``;
    a pair whose initiator holds ``top - 1`` raises."""
    from repro.core import DynamicRule

    schema = StateSchema()
    schema.enum("x", top)

    def outcome(a, b):
        if a["x"] == top - 1:
            raise RuntimeError("bad pair")
        return [({"x": (a["x"] + b["x"]) % top}, {}, 0.75), ({}, {"x": a["x"]}, 0.25)]

    return single_thread("fill", schema, [DynamicRule(None, None, outcome)])


@st.composite
def fills(draw):
    """A packed space, the states to index, the index pairs whose rows to
    fill (in ascending pair-key order, so a round-by-round fill lays them
    out as one call does) and how to split both into rounds.  Small
    spaces keep every snapshot direct-address; spread codes and large
    state indices reach keys past the direct span and sorted snapshots."""
    from repro.engine.table import _pair_key

    top = draw(st.sampled_from([16, 2 ** 20]))
    q = draw(st.integers(1, 15) if top == 16 else st.sampled_from([8, 160]))
    codes = sorted(draw(st.lists(st.integers(0, top - 2), min_size=q, max_size=q, unique=True)))
    # large state indices give sparse pair keys (a sorted row snapshot)
    index = st.one_of(st.integers(0, q - 1), st.integers(0, q - 1).map(lambda k: q - 1 - k))
    pairs = draw(st.lists(st.tuples(index, index), max_size=200))
    ia = np.array([i for i, _ in pairs], dtype=np.int64)
    ib = np.array([j for _, j in pairs], dtype=np.int64)
    order = np.argsort(_pair_key(ia, ib), kind="stable")
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=24)))
    state_cuts = sorted(draw(st.lists(st.integers(0, q), max_size=4)))
    return top, codes, ia[order], ib[order], cuts, state_cuts, draw(st.randoms())


def _layout(table):
    return [getattr(table, name).tolist() for name in ("codes", "off", "out_a", "out_b", "out_p", "p_row")]


@given(fills())
@settings(max_examples=150, deadline=None)
def test_many_small_fills_equal_one_fill(fill):
    """An open table filled round by round through small ``indices`` and
    ``rows`` calls (each round repeats some known codes and pairs, in
    shuffled order) ends with the layout and contents of a table filled
    in one call of each, and every round's row ids are that table's."""
    _check_small_fills(*fill)


def test_small_fills_through_a_waiting_sparse_row_snapshot():
    """The same on sparse pair keys in many rounds, so the sorted row
    snapshot keeps new keys waiting and later rounds read them from the
    table's pair dict."""
    import random

    from repro.engine.table import _pair_key

    rnd = random.Random(5)
    codes = sorted(rnd.sample(range(2 ** 20 - 1), 160))
    ia = np.array([rnd.randrange(100, 160) for _ in range(400)], dtype=np.int64)
    ib = np.array([rnd.randrange(160) for _ in range(400)], dtype=np.int64)
    order = np.argsort(_pair_key(ia, ib), kind="stable")
    _check_small_fills(2 ** 20, codes, ia[order], ib[order], list(range(10, 400, 10)), [], rnd)


def _check_small_fills(top, codes, ia, ib, cuts, state_cuts, rnd):
    protocol = _fill_protocol(top)
    whole = LazyTable(protocol)
    whole_idx = whole.indices(np.array(codes, dtype=np.int64))
    whole_rows = whole.rows(ia, ib)
    assert whole.misses == len(set(zip(ia.tolist(), ib.tolist())))

    table = LazyTable(protocol)
    bounds = list(zip([0] + state_cuts, state_cuts + [len(codes)]))
    for lo, hi in bounds:
        part = codes[lo:hi] + (rnd.sample(codes[:lo], min(lo, 3)) if lo else [])
        rnd.shuffle(part)
        got = table.indices(np.array(part, dtype=np.int64))
        assert got.tolist() == [codes.index(code) for code in part]
    bounds = list(zip([0] + cuts, cuts + [len(ia)]))
    for lo, hi in bounds:
        picks = list(range(lo, hi)) + (rnd.choices(range(hi), k=4) if hi else [])
        rnd.shuffle(picks)
        got = table.rows(ia[picks], ib[picks])
        assert got.tolist() == whole_rows[picks].tolist()
        # a second read of the same pairs computes nothing
        misses = table.misses
        assert table.rows(ia[picks], ib[picks]).tolist() == got.tolist()
        assert table.misses == misses
    assert _layout(table) == _layout(whole)
    assert table.misses == whole.misses
    assert table.indices(whole.codes).tolist() == list(range(whole.num_states))
    assert whole_idx.tolist() == list(range(len(codes)))


def _snapshot(lookup):
    return [
        None if part is None else part.tolist()
        for part in (lookup.direct, lookup.keys, lookup.values)
    ] + [lookup.size, list(lookup.pending)]


@given(fills())
@settings(max_examples=100, deadline=None)
def test_a_failing_fill_changes_nothing(fill):
    """A fill whose transition raises leaves the table's columns, state
    index and both lookup snapshots as they were, and the next fill
    equals a fresh table's."""
    top, codes, ia, ib, cuts, _, rnd = fill
    protocol = _fill_protocol(top)
    table = LazyTable(protocol)
    table.indices(np.array(codes + [top - 1], dtype=np.int64))
    first = cuts[0] if cuts else len(ia)
    table.rows(ia[:first], ib[:first])
    before = _layout(table), dict(table.index), dict(table._pair_row), table.misses
    for lookup in (table._state_lookup, table._row_lookup):
        if lookup.pending:  # no read of the failing fill may fold them in
            lookup._fold()
    lookups = _snapshot(table._state_lookup), _snapshot(table._row_lookup)
    bad = len(codes)  # the index of the state that raises
    picks = list(range(first, len(ia)))
    xa = np.append(ia[picks], bad)
    xb = np.append(ib[picks], rnd.randrange(len(codes) + 1))
    try:
        table.rows(xa, xb)
    except RuntimeError as err:
        assert "bad pair" in str(err)
    else:
        raise AssertionError("the fill did not raise")
    assert (_layout(table), table.index, table._pair_row, table.misses) == before
    assert (_snapshot(table._state_lookup), _snapshot(table._row_lookup)) == lookups
    fresh = LazyTable(protocol)
    fresh.indices(np.array(codes + [top - 1], dtype=np.int64))
    for t in (table, fresh):
        t.rows(ia, ib)
    assert _layout(table) == _layout(fresh)
