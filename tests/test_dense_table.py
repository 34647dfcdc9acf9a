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
        # rows filled by the vectorized apply, by one rows() gather and by
        # a closure compile all hold the protocol's outcomes
        applied = LazyTable(coin_protocol)
        agents = applied.indices(np.array([0, 0, 0, 1, 2, 3, 3, 2], dtype=np.int64))
        applied.apply(agents, np.arange(4), np.arange(4, 8), np.random.default_rng(3))
        lazy = LazyTable(coin_protocol)
        closed = compile_table(coin_protocol, range(4))
        codes = np.arange(4, dtype=np.int64)
        for table in (applied, lazy, closed):
            idx = table.indices(codes)
            rows = table.rows(np.repeat(idx, 4), np.tile(idx, 4)).tolist()
            for (a, b), row in zip(((a, b) for a in range(4) for b in range(4)), rows):
                changing, p_change = coin_protocol.transition(a, b)
                lo, hi = table.off[row], table.off[row + 1]
                assert table.p_row[row] == pytest.approx(p_change)
                assert sorted(zip(
                    table.codes[table.out_a[lo:hi]].tolist(),
                    table.codes[table.out_b[lo:hi]].tolist(),
                )) == sorted((x, y) for x, y, _ in changing)

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
        zero = table.indices(np.zeros(1, dtype=np.int64))
        row = table.rows(zero, zero)[0]
        assert table.off[row + 1] - table.off[row] == 7
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
        ia, ib = np.repeat(idx, 4), np.tile(idx, 4)
        table.rows(ia[:8], ib[:8])
        # every read below repeats pairs that already have rows, which
        # the row lookup's snapshot must answer without computing them
        # again
        table.rows(ia[:8], ib[:8])
        table.rows(ia[8:12], ib[8:12])
        assert table.num_pairs == table.misses == 12
        rows = table.rows(ia, ib)
        assert table.num_pairs == table.misses == 16
        assert sorted(rows.tolist()) == list(range(16))
        np.testing.assert_array_equal(table.rows(ia, ib), rows)
        assert table.misses == 16

    def test_p_change_block_reads_the_rows_it_fills(self, coin_protocol):
        table = LazyTable(coin_protocol)
        idx = table.indices(np.array([0, 1, 3], dtype=np.int64))
        block = table.p_change_block(idx)
        assert table.num_pairs == 9
        assert block.tolist() == [[1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3]

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
        """A failing batch keeps no footprint projection of a state it
        indexed, so the next state to take that index gets its own."""
        schema = StateSchema()
        schema.enum("x", 6)

        def outcome(a, b):
            if b["x"] == 5:
                raise RuntimeError("bad pair")
            return []

        step = Thread("step", [
            Rule(V("x", 0), None, {"x": 1}),
            Rule(V("x", 1), None, {"x": 2}),
        ])
        fails = Thread("fails", [DynamicRule(None, None, outcome)])
        protocol = Protocol("half-memo", schema, [step, fails])
        assert step.memo(schema) is not None
        code = np.array([schema.pack({"x": x}) for x in range(6)], dtype=np.int64)
        table = LazyTable(protocol)
        idx = table.indices(code[[0, 5]])
        with pytest.raises(RuntimeError, match="bad pair"):
            # (0, 0) indexes x = 1 as index 2 before (0, 5) raises
            table.rows(idx[[0, 0]], idx[[0, 1]])
        assert table.num_states == 2
        fresh = LazyTable(protocol)
        fresh.indices(code[[0, 5]])
        for t in (table, fresh):
            # x = 3 takes index 2; had it kept x = 1's projection, its row
            # would step on to x = 2
            i = t.indices(code[[0, 3]])
            t.rows(i, i)
        for name in ("codes", "off", "out_a", "out_b", "out_p", "p_row"):
            np.testing.assert_array_equal(getattr(table, name), getattr(fresh, name))
        assert table.codes.tolist() == code[[0, 5, 3, 1]].tolist()
        assert table.p_row[0] > 0.0 and table.p_row[1] == 0.0


def test_a_pickled_open_table_goes_on_like_the_original():
    """An unpickled open table rebuilds its lookups, its row plan's
    projections and its code list, then fills the same rows and takes the
    same sample path as the table it was pickled from."""
    import copy
    import pickle

    from repro.engine import MatchingEngine
    from repro.workloads import WORKLOADS

    protocol, population, _ = WORKLOADS["clock"](n=600)
    table = LazyTable(protocol)
    engine = MatchingEngine(protocol, population, rng=np.random.default_rng(4), table=table)
    engine.run(rounds=20)
    clone = pickle.loads(pickle.dumps(table))
    pickled = table.misses
    assert clone._threads is None and clone._code_list == []
    assert clone._state_lookup.size == clone._row_lookup.size == 0
    runs = []
    for t in (table, clone):
        agents, rng = engine.agents.copy(), copy.deepcopy(engine.rng)
        for _ in range(40):
            perm = rng.permutation(len(agents))
            t.apply(agents, perm[0::2], perm[1::2], rng)
        runs.append(agents)
    np.testing.assert_array_equal(runs[0], runs[1])
    assert clone.misses == table.misses > pickled  # both went on filling
    for name in ("codes", "off", "out_a", "out_b", "out_p", "p_row"):
        np.testing.assert_array_equal(getattr(clone, name), getattr(table, name))
    assert clone._pair_row == table._pair_row
    assert clone._code_list == table._code_list
    assert clone.indices(table.codes).tolist() == list(range(table.num_states))
