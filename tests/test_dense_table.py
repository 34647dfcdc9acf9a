"""Vectorized apply of an open transition table on small packed spaces."""

import numpy as np
import pytest

from repro.core import DynamicRule, Protocol, Rule, StateSchema, Thread, V, single_thread
from repro.core.rules import Branch  # noqa: F401 (used in fixtures)
from repro.engine import compile_table
from repro.engine.table import LazyTable, _pair_key


@pytest.fixture
def coin_protocol():
    """A protocol with a three-way probabilistic outcome."""
    schema = StateSchema()
    schema.enum("x", 4)
    rule = Rule(
        V("x", 0),
        None,
        branches=[
            Branch(0.5, {"x": 1}),
            Branch(0.3, {"x": 2}),
            Branch(0.2, {"x": 3}),
        ],
    )
    return single_thread("coin", schema, [rule])


class TestOutcomeSampling:
    def test_apply_matches_branch_distribution(self, coin_protocol):
        """Chi-square-style check of the vectorized outcome sampler."""
        table = LazyTable(coin_protocol)
        rng = np.random.default_rng(0)
        trials = 30000
        agents = table.indices(np.zeros(2 * trials, dtype=np.int64))
        idx_a = np.arange(0, 2 * trials, 2)
        idx_b = np.arange(1, 2 * trials, 2)
        table.apply(agents, idx_a, idx_b, rng)
        outcomes = table.codes[agents[idx_a]]
        fractions = np.bincount(outcomes, minlength=4) / trials
        assert fractions[1] == pytest.approx(0.5, abs=0.02)
        assert fractions[2] == pytest.approx(0.3, abs=0.02)
        assert fractions[3] == pytest.approx(0.2, abs=0.02)

    def test_scalar_interface_agrees_with_lazy(self, coin_protocol):
        # rows filled by the vectorized apply, by the scalar interface and
        # by a closure compile all hold the protocol's outcomes
        applied = LazyTable(coin_protocol)
        agents = applied.indices(np.array([0, 0, 0, 1, 2, 3, 3, 2], dtype=np.int64))
        applied.apply(agents, np.arange(4), np.arange(4, 8), np.random.default_rng(3))
        lazy = LazyTable(coin_protocol)
        closed = compile_table(coin_protocol, range(4), cache=None)
        for a in range(4):
            for b in range(4):
                changing, p_change = coin_protocol.transition(a, b)
                for table in (applied, lazy, closed):
                    entry = table.outcomes(a, b)
                    assert entry.p_change == pytest.approx(p_change)
                    assert sorted(zip(entry.codes_a, entry.codes_b)) == sorted(
                        (x, y) for x, y, _ in changing
                    )

    def test_lazy_fill_only_touches_used_pairs(self, coin_protocol):
        table = LazyTable(coin_protocol)
        rng = np.random.default_rng(1)
        agents = table.indices(np.zeros(4, dtype=np.int64))
        table.apply(agents, np.array([0]), np.array([1]), rng)
        assert table.misses == 1  # only the (0, 0) pair was computed

    def test_outcome_growth(self):
        """Rows hold as many outcomes as a pair has branches."""
        from repro.core.rules import Branch  # noqa: F401 (used in fixtures)

        schema = StateSchema()
        schema.enum("x", 8)
        rule = Rule(
            V("x", 0),
            None,
            branches=[Branch(1.0 / 7.0, {"x": i}) for i in range(1, 8)],
        )
        proto = single_thread("many", schema, [rule])
        table = LazyTable(proto)
        entry = table.outcomes(0, 0)
        assert len(entry) == 7
        rng = np.random.default_rng(2)
        agents = table.indices(np.zeros(64, dtype=np.int64))
        table.apply(agents, np.arange(0, 64, 2), np.arange(1, 64, 2), rng)
        initiators = table.codes[agents[np.arange(0, 64, 2)]]
        assert set(np.unique(initiators)) <= set(range(8))
        assert (initiators > 0).all()


class TestBatchFill:
    """Open tables compute each batch of missing rows in one pass."""

    def test_stale_snapshot_does_not_duplicate_rows(self, coin_protocol):
        table = LazyTable(coin_protocol)
        idx = table.indices(np.arange(4, dtype=np.int64))
        # the scalar path fills rows 0..7 without touching the row
        # lookup, whose snapshot is still the empty one: every pair below
        # misses it, also the eight that already have rows
        for row, (a, b) in enumerate((a, b) for a in range(2) for b in range(4)):
            table.p_change(a, b)
            assert table.num_pairs == row + 1
        ia, ib = np.repeat(idx, 4), np.tile(idx, 4)
        rows = table.rows(ia, ib)
        assert table.num_pairs == 16
        assert table.misses == 16
        assert rows[:8].tolist() == list(range(8))
        assert sorted(rows.tolist()) == list(range(16))
        np.testing.assert_array_equal(table.rows(ia, ib), rows)
        assert table.misses == 16

    def test_one_batch_equals_one_row_at_a_time(self, coin_protocol):
        """Rows, state indices and probabilities do not depend on how the
        missing rows were batched."""
        batched = LazyTable(coin_protocol)
        single = LazyTable(coin_protocol)
        for table in (batched, single):
            table.indices(np.array([0, 2], dtype=np.int64))
        ia = np.array([0, 1, 1, 0], dtype=np.int64)
        ib = np.array([0, 1, 0, 1], dtype=np.int64)
        batched.rows(ia, ib)
        for k in np.argsort(_pair_key(ia, ib)):  # the batch's row order
            single.rows(ia[k : k + 1], ib[k : k + 1])
        for name in ("codes", "off", "out_a", "out_b", "out_p", "p_row"):
            np.testing.assert_array_equal(
                getattr(batched, name), getattr(single, name)
            )

    def test_p_changes_equal_one_scalar_call_per_pair(self, coin_protocol):
        """The batched read gives the values and grows the table exactly
        as one :meth:`p_change` call per pair, in pair order: initiator,
        responder, then the row's outcome states."""
        pairs = [(2, 0), (0, 2), (0, 0), (2, 0), (3, 1), (0, 3), (1, 1)]
        batched = LazyTable(coin_protocol)
        single = LazyTable(coin_protocol)
        batched.p_change(1, 1)  # rows that already exist are read, not filled
        single.p_change(1, 1)
        got = batched.p_changes([a for a, _ in pairs], [b for _, b in pairs])
        want = [single.p_change(a, b) for a, b in pairs]
        assert got.tolist() == want
        for name in ("codes", "off", "out_a", "out_b", "out_p", "p_row"):
            np.testing.assert_array_equal(
                getattr(batched, name), getattr(single, name)
            )
        assert batched.index == single.index
        assert batched.misses == single.misses == 6
        closed = compile_table(coin_protocol, [0, 1, 2, 3], cache=None)
        got = closed.p_changes([a for a, _ in pairs], [b for _, b in pairs])
        assert got.tolist() == [closed.p_change(a, b) for a, b in pairs]

    def test_a_failing_batch_leaves_the_table_unchanged(self):
        schema = StateSchema()
        schema.enum("x", 4)

        def outcome(a, b):
            if b["x"] == 3:
                raise RuntimeError("bad pair")
            return [({"x": a["x"] + 1}, {}, 1.0)]

        rule = DynamicRule(~V("x", 3), None, outcome)
        table = LazyTable(single_thread("fails", schema, [rule]))
        idx = table.indices(np.array([0, 3], dtype=np.int64))
        # the batch's first row, (0, 0), reaches the new state 1 before
        # the second, (0, 3), raises
        with pytest.raises(RuntimeError, match="bad pair"):
            table.rows(idx[[0, 0]], idx[[0, 1]])
        assert table.codes.tolist() == [0, 3]
        assert table.index == {0: 0, 3: 1}
        assert (table.num_pairs, table.misses, len(table.out_p)) == (0, 0, 0)
        assert table.off.tolist() == [0]
        table.rows(idx[:1], idx[:1])
        assert table.codes.tolist() == [0, 3, 1]
        assert table.num_pairs == table.misses == 1

    def test_a_failing_batch_drops_the_projections_it_took(self):
        """A memoized thread's per-state projections are truncated with
        the states a failing batch indexed, so the next states to take
        those indices get their own projections."""
        schema = StateSchema()
        schema.enum("x", 6)
        schema.flag("y")

        def outcome(a, b):
            if b["x"] == 5:
                raise RuntimeError("bad pair")
            return []

        step = Thread("step", [Rule(V("x", 0), None, {"x": 1})])
        fails = Thread("fails", [DynamicRule(None, None, outcome)])
        protocol = Protocol("half-memo", schema, [step, fails])
        assert step.memo(schema) is not None
        code = [schema.pack({"x": x}) for x in range(6)]
        table = LazyTable(protocol)
        with pytest.raises(RuntimeError, match="bad pair"):
            # (2, 2) indexes x = 2 and fills its row before (3, 5) raises
            table.p_changes([code[2], code[3]], [code[2], code[5]])
        assert table.num_states == 0
        got = table.p_changes([code[0], code[0]], [code[0], code[1]])
        want = LazyTable(protocol).p_changes([code[0], code[0]], [code[0], code[1]])
        assert got.tolist() == want.tolist() == [0.5, 0.5]
