"""Per-thread footprint memos: memoized rows equal the full path.

``Protocol.transition`` answers each thread with a known footprint from
a memo keyed on the pair projected onto that footprint (see
:class:`repro.core.protocol.Thread`).  That is sound only if every
thread's declared ``reads``/``writes`` cover what its rules touch.  These
tests explore each shipped protocol from its real initial support with a
seeded walk, then compare memoized rows with the full path on sampled
reachable pairs; the positive controls show that an under-declared
footprint fails loudly instead of silently changing the law.
"""

import hashlib
import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.clocks import ClockHierarchy, ClockParams, HierarchyParams, make_clock_protocol
from repro.control import (
    JuntaParams,
    KLevelParams,
    elimination_thread,
    make_elimination_protocol,
    make_junta_protocol,
    make_klevel_protocol,
)
from repro.core import DynamicRule, Protocol, Rule, StateSchema, Thread, V, coin_rule
from repro.core.protocol import FootprintError, check_footprints
from repro.engine import BatchCountEngine, MatchingEngine
from repro.engine.compiled import compile_table
from repro.engine.table import LazyTable, TransitionTable
from repro.lang import compile_program
from repro.oscillator import weak_value
from repro.protocols import (
    leader_election_exact_program,
    leader_election_program,
    majority_exact_program,
    majority_program,
    plurality_program,
)
from repro.workloads import WORKLOADS


def reachable(protocol, seeds, rng, steps):
    """States met by a seeded walk: each step runs the row of a random
    pair of known states and adds one of its outcomes."""
    states = sorted(set(int(c) for c in seeds))
    seen = set(states)
    for _ in range(steps):
        i, j = rng.integers(len(states), size=2)
        outcomes, _ = protocol.transition(states[i], states[j])
        if outcomes:
            new_a, new_b, _ = outcomes[rng.integers(len(outcomes))]
            for code in (new_a, new_b):
                if code not in seen:
                    seen.add(code)
                    states.append(code)
    return states


def sampled_pairs(states, rng, count):
    picks = rng.integers(len(states), size=(count, 2))
    return [(states[i], states[j]) for i, j in picks]


def check(protocol, seeds, seed=0, steps=600, pairs=600):
    rng = np.random.default_rng(seed)
    states = reachable(protocol, seeds, rng, steps)
    assert check_footprints(protocol, sampled_pairs(states, rng, pairs)) == pairs
    return states


def memoized_threads(protocol):
    return [t.name for t in protocol.threads if t.memo(protocol.schema) is not None]


# -- the shipped protocols ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_registered_workloads(name):
    protocol, population, _ = WORKLOADS[name](n=1000)
    schema = protocol.schema
    whole = set(schema.field_names)
    for thread in protocol.threads:
        sides = thread.footprint(schema)
        assert sides is not None
        # a footprint covering the whole schema on both sides would only
        # duplicate the table's rows
        assert (thread.memo(schema) is None) == (set(sides[0]) == set(sides[1]) == whole)
    check(protocol, population.counts)


def _compiled(program, groups):
    compiled = compile_program(program)
    return compiled.protocol, compiled.make_population(groups, x_agents=2)


PROGRAMS = {
    "leader_election": lambda: _compiled(leader_election_program(), [({}, 60)]),
    "leader_election_exact": lambda: _compiled(
        leader_election_exact_program(), [({}, 60)]
    ),
    "majority": lambda: _compiled(
        majority_program(), [({"A": True}, 30), ({"B": True}, 20), ({}, 10)]
    ),
    "majority_exact": lambda: _compiled(
        majority_exact_program(), [({"A": True}, 30), ({"B": True}, 20), ({}, 10)]
    ),
    "plurality": lambda: _compiled(
        plurality_program(3),
        [({"C0": True}, 20), ({"C1": True}, 20), ({"C2": True}, 20)],
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_compiled_programs(name):
    protocol, population = PROGRAMS[name]()
    assert memoized_threads(protocol) == [t.name for t in protocol.threads]
    check(protocol, population.counts, steps=1500, pairs=800)


def test_two_level_hierarchy():
    schema = StateSchema()
    hierarchy = ClockHierarchy(schema, HierarchyParams(levels=2, module=12, k=4))
    protocol = Protocol(
        "hierarchy", schema, hierarchy.threads + [elimination_thread("X")]
    )
    assert memoized_threads(protocol) == [t.name for t in protocol.threads]
    seeds = [
        schema.pack(hierarchy.initial_assignment(weak_value(i))) for i in range(3)
    ]
    seeds.append(schema.pack(dict(hierarchy.initial_assignment(weak_value(0)), X=True)))
    states = check(protocol, seeds, steps=3000, pairs=1500)
    assert len(states) > 100  # the walk left the synchronized start


@pytest.mark.parametrize(
    "build",
    [
        lambda schema: make_junta_protocol(schema, JuntaParams(level_cap=6)),
        lambda schema: make_klevel_protocol(schema, KLevelParams(k=3)),
        lambda schema: make_elimination_protocol(schema),
    ],
    ids=["junta", "klevel", "elimination"],
)
def test_control_threads(build):
    # composed as in the paper: other threads' fields share the schema
    schema = StateSchema()
    schema.flags("other", "X")
    schema.enum("level", 3)
    protocol = build(schema)
    assert memoized_threads(protocol) == [t.name for t in protocol.threads]
    names = schema.field_names
    rng = np.random.default_rng(1)
    seeds = [
        schema.pack({name: schema.field(name).values[rng.integers(schema.field(name).size)] for name in names})
        for _ in range(12)
    ]
    check(protocol, seeds, steps=400, pairs=400)


# -- positive controls ------------------------------------------------------------


def _xy_schema():
    schema = StateSchema()
    schema.flags("X", "Y")
    schema.enum("Z", 3)
    return schema


def _copy_y_to_x(a, b):
    """X := Y of the responder (reads Y)."""
    if a["X"] == b["Y"]:
        return []
    return [({"X": b["Y"]}, {}, 1.0)]


def test_under_declared_reads_fail_loudly():
    schema = _xy_schema()
    thread = Thread("copy", [DynamicRule(None, None, _copy_y_to_x)], writes=("X",))
    protocol = Protocol("leaky", schema, [thread])
    codes = list(schema.all_codes())
    pairs = [(a, b) for a in codes for b in codes]
    with pytest.raises(FootprintError, match="footprint"):
        check_footprints(protocol, pairs)


def test_declared_reads_pass():
    schema = _xy_schema()
    thread = Thread(
        "copy", [DynamicRule(None, None, _copy_y_to_x)], writes=("X",), reads=("Y",)
    )
    protocol = Protocol("sound", schema, [thread])
    codes = list(schema.all_codes())
    assert check_footprints(protocol, [(a, b) for a in codes for b in codes]) == 144
    # only X and Y are in the footprint: Z never splits the memo
    assert len(thread.memo(schema).rows) == 16


def test_under_declared_writes_raise_on_miss():
    schema = _xy_schema()

    def bump_z(a, b):
        return [({"X": True, "Z": (a["Z"] + 1) % 3}, {}, 1.0)]

    thread = Thread("bump", [DynamicRule(None, None, bump_z)], writes=("X",))
    protocol = Protocol("leaky-writes", schema, [thread])
    with pytest.raises(FootprintError, match=r"\['Z'\]"):
        protocol.transition(0, 0)


def _copy_initiator_y(a, b):
    """Responder X := initiator Y (reads the initiator's Y)."""
    if b["X"] == a["Y"]:
        return []
    return [({}, {"X": a["Y"]}, 1.0)]


def test_under_declared_initiator_side_fails_loudly():
    schema = _xy_schema()
    # the initiator's Y is read but not declared on its side
    leaky = DynamicRule(None, None, _copy_initiator_y, footprint=((), ("X",)))
    protocol = Protocol("leaky-initiator", schema, [Thread("copy", [leaky])])
    codes = list(schema.all_codes())
    with pytest.raises(FootprintError, match="footprint"):
        check_footprints(protocol, [(a, b) for a in codes for b in codes])


def test_declared_sides_pass_and_key_each_side():
    schema = _xy_schema()
    rule = DynamicRule(None, None, _copy_initiator_y, footprint=(("Y",), ("X",)))
    thread = Thread("copy", [rule])
    protocol = Protocol("sound-sides", schema, [thread])
    codes = list(schema.all_codes())
    assert check_footprints(protocol, [(a, b) for a in codes for b in codes]) == 144
    memo = thread.memo(schema)
    assert (memo.names_a, memo.names_b) == ({"Y"}, {"X"})
    # the initiator's Y times the responder's X: four keys, not sixteen
    assert len(memo.rows) == 4


def test_undeclared_dynamic_thread_takes_full_path():
    schema = _xy_schema()
    opaque = Thread("opaque", [DynamicRule(None, None, _copy_y_to_x)])
    callable_guard = Thread(
        "callable", [Rule(lambda s: s["Y"], None, {"X": True})]
    )
    static = Thread("static", [Rule(V("Y"), ~V("X"), None, {"X": True})])
    assert opaque.memo(schema) is None
    assert callable_guard.memo(schema) is None
    assert static.memo(schema).names == frozenset({"X", "Y"})
    protocol = Protocol("mixed", schema, [opaque, callable_guard, static])
    codes = list(schema.all_codes())
    check_footprints(protocol, [(a, b) for a in codes for b in codes])


# -- read-only views ------------------------------------------------------------------


def test_mutating_outcome_fn_raises():
    schema = _xy_schema()

    def mutate(a, b):
        a["Z"] = 2  # would leak into every later rule of the row
        return []

    protocol = Protocol(
        "mutating",
        schema,
        [Thread("m", [DynamicRule(None, None, mutate), Rule(V("X"), None, {"Y": True})])],
    )
    with pytest.raises(TypeError, match="read-only"):
        protocol.transition(schema.pack({"X": True}), 0)


def test_mutating_guard_raises():
    schema = _xy_schema()

    def guard(state):
        state.Y = True
        return True

    protocol = Protocol("mutating-guard", schema, [Thread("g", [Rule(guard, None, {"X": True})])])
    with pytest.raises(TypeError, match="read-only"):
        protocol.transition(0, 0)


# -- sharing and pickling ------------------------------------------------------------------


def test_memo_is_shared_across_protocols():
    schema = _xy_schema()
    shared = Thread("shared", [Rule(V("Y"), None, {"X": True})])
    first = Protocol("one", schema, [shared])
    second = Protocol("two", schema, [shared, Thread("other", [Rule(V("X"), None, {"Y": False})])])
    first.transition(schema.pack({"Y": True}), 0)
    memo = shared.memo(schema)
    assert len(memo.rows) == 1
    # a pair with the same projection (Z differs) hits the shared memo
    outcomes, p = second.transition(schema.pack({"Y": True, "Z": 2}), 0)
    assert len(memo.rows) == 1
    assert outcomes == [(schema.pack({"X": True, "Y": True, "Z": 2}), 0, 0.5)]
    assert p == 0.5


def test_memo_is_left_out_of_pickles():
    protocol, population, _ = WORKLOADS["clock"](n=1000)
    codes = sorted(population.counts)
    rows = [protocol.transition(a, b) for a in codes for b in codes]
    assert protocol.thread("P_o[osc]").memo(protocol.schema).rows
    clone = pickle.loads(pickle.dumps(protocol))
    assert all(not t._memos for t in clone.threads)
    assert clone._plan is None
    assert [clone.transition(a, b) for a in codes for b in codes] == rows


def test_concurrent_fills_agree():
    """Service jobs fill one shared memo from several threads; a race only
    computes the same row twice, so every answer equals the full path."""
    walk, population, _ = WORKLOADS["clock"](n=1000)
    states = reachable(walk, population.counts, np.random.default_rng(3), 300)
    pairs = sampled_pairs(states, np.random.default_rng(4), 400)
    protocol, _, _ = WORKLOADS["clock"](n=1000)  # fresh threads, empty memos
    expected = [protocol._transition(a, b, memo=False) for a, b in pairs]
    results = {}

    def work(k):
        results[k] = [protocol.transition(a, b) for a, b in pairs[k:] + pairs[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for k in range(6):
        assert results[k] == expected[k:] + expected[:k]


# -- rows are bit-identical to the pre-memo implementation ----------------------------


def _digest(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_e14_rows_match_reference():
    """E14 rows on seeded pairs, digested; the reference digest was taken
    with the per-rule decoding implementation this memo replaced."""
    protocol, population = _compiled(leader_election_program(), [({}, 200)])
    rng = np.random.default_rng(2024)
    states = reachable(protocol, population.counts, rng, 1500)
    rows = []
    for a, b in sampled_pairs(states, rng, 1500):
        outcomes, p_change = protocol.transition(a, b)
        rows.append([a, b, [list(o) for o in outcomes], p_change])
    assert len(states) == E14_STATES
    assert _digest(rows) == E14_ROWS_SHA256


def _table_digest(table):
    h = hashlib.sha256()
    for name in ("codes", "off", "out_a", "out_b", "out_p", "p_row"):
        h.update(name.encode())
        h.update(np.ascontiguousarray(getattr(table, name)).tobytes())
    return h.hexdigest()


def test_closed_clock_table_matches_reference():
    protocol, population, _ = WORKLOADS["clock"](n=1000)
    table = compile_table(protocol, sorted(population.counts))
    assert len(table.codes) == 168
    assert _table_digest(table) == CLOCK_TABLE_SHA256


def test_closed_k6_clock_table_matches_reference():
    """The default k = 6 ring: 504 states, 254 016 rows; the reference
    digest was taken with the LazyTable fill this compile replaced."""
    protocol, population, _ = WORKLOADS["clock"](n=1000)
    big = make_clock_protocol(params=ClockParams(module=12, k=6))
    codes = [
        big.schema.pack(protocol.schema.decode(code)) for code in population.counts
    ]
    table = compile_table(big, sorted(codes))
    assert (table.num_states, table.num_pairs) == (504, 254_016)
    assert _table_digest(table) == CLOCK_K6_TABLE_SHA256


def test_clock_ring_memo_keys_its_initiator_on_the_ring():
    """The ring thread reads only the initiator's ring position, so its
    memo holds one row per ring position and responder state."""
    protocol, population, _ = WORKLOADS["clock"](n=1000)
    # compile this protocol object's closure itself: a memoized table
    # would have filled another object's thread memos
    table = TransitionTable.from_protocol(protocol, sorted(population.counts))
    ring = protocol.thread("C_o[clk]").memo(protocol.schema)
    assert (ring.names_a, ring.names_b) == ({"clk"}, {"clk", "osc", "X"})
    assert len(ring.rows) == 24 * table.num_states == 4032


def _sum_parity(a, b):
    """An opaque rule: the responder's Z becomes the pair's Z sum mod 3."""
    z = (a["Z"] + b["Z"]) % 3
    return [({}, {"Z": z}, 0.5)] if z != b["Z"] else []


def test_closed_rows_equal_transition_pair_by_pair():
    """Two threads write X, so a pair's outcomes coincide across threads
    (and across branches within one); a third thread is opaque.  Every
    closed row must equal ``Protocol.transition``, float for float."""
    schema = _xy_schema()
    set_x = Thread("set-x", [
        Rule(V("Y"), None, {"X": True}, weight=3.0),
        Rule(None, ~V("X"), None, {"X": True}),
    ])
    also_x = Thread("also-x", [
        coin_rule(V("Y"), None, [(0.3, {"X": True}, None), (0.6, {"X": True}, None)]),
        Rule(V("X"), V("X"), None, {"Y": True, "X": False}),
    ])
    opaque = Thread("opaque", [DynamicRule(None, None, _sum_parity)])
    protocol = Protocol("coinciding", schema, [set_x, also_x, opaque])
    assert [t.memo(schema) is None for t in protocol.threads] == [False, False, True]
    start = [schema.pack({"Y": True}), schema.pack({"Z": 1})]
    table = compile_table(protocol, start)
    assert table.num_states > len(start)
    merged = 0
    codes = table.codes.tolist()
    idx = table.indices(table.codes)
    rows = iter(table.rows(np.repeat(idx, len(idx)), np.tile(idx, len(idx))).tolist())
    for a in codes:
        for b in codes:
            outcomes, p_change = protocol.transition(a, b)
            row = next(rows)
            lo, hi = int(table.off[row]), int(table.off[row + 1])
            got = list(zip(
                table.codes[table.out_a[lo:hi]].tolist(),
                table.codes[table.out_b[lo:hi]].tolist(),
                table.out_p[lo:hi].tolist(),
            ))
            assert got == outcomes, (a, b)
            assert table.p_row[row] == p_change, (a, b)
            raw = sum(
                (new_a, new_b) != (a, b)
                for rule in protocol.rules
                for new_a, new_b, _ in rule.outcomes(schema.view(a), schema.view(b))
            )
            merged += len(outcomes) < raw
    assert merged  # some rows did merge coinciding outcomes


# An open table's index and row order follow the order in which an engine
# met states and pairs, so these pin the whole layout of open tables; the
# E14 reference was taken with the one-row-at-a-time fill that the batched
# fill replaced, the clock one once the count engines filled rows by
# index pairs.  The canonical digests pin the contents alone: they were
# taken before that change and did not move with it.


def _canonical_digest(table):
    """A digest of an open table's contents that its fill order cannot
    move: states sorted by code, rows keyed by their code pair and sorted,
    each row's outcomes (as codes) in row order, then its change
    probability."""
    codes = table.codes.tolist()
    rows = []
    for key, row in table._pair_row.items():
        root = math.isqrt(key)  # invert the table's Szudzik pair key
        i, j = (key - root * root, root) if key - root * root < root else (
            root, key - root * root - root
        )
        lo, hi = int(table.off[row]), int(table.off[row + 1])
        rows.append([
            codes[i], codes[j],
            [[codes[a], codes[b], p] for a, b, p in zip(
                table.out_a[lo:hi].tolist(),
                table.out_b[lo:hi].tolist(),
                table.out_p[lo:hi].tolist(),
            )],
            float(table.p_row[row]),
        ])
    rows.sort(key=lambda r: (r[0], r[1]))
    assert len(rows) == table.num_pairs
    return _digest([sorted(codes), rows])


def test_open_e14_table_matches_reference():
    """Compiled E14 (Thm 2.4) at n = 200 after 125 seeded matching rounds."""
    protocol, population = _compiled(leader_election_program(), [({}, 200)])
    table = LazyTable(protocol)
    MatchingEngine(
        protocol, population, rng=np.random.default_rng(7), table=table
    ).run(rounds=125)
    assert (table.num_states, table.num_pairs, table.misses) == (61, 954, 954)
    assert _table_digest(table) == OPEN_E14_TABLE_SHA256
    assert _canonical_digest(table) == OPEN_E14_CANONICAL_SHA256


def test_open_clock_table_matches_reference():
    """The E4 clock on BatchCountEngine over an open table, 60 rounds."""
    protocol, population, _ = WORKLOADS["clock"](n=2000)
    table = LazyTable(protocol)
    BatchCountEngine(
        protocol, population, rng=np.random.default_rng(7), table=table
    ).run(rounds=60)
    assert (table.num_states, table.num_pairs, table.misses) == (73, 2500, 2500)
    assert _table_digest(table) == OPEN_CLOCK_TABLE_SHA256
    assert _canonical_digest(table) == OPEN_CLOCK_CANONICAL_SHA256


E14_STATES = 100
E14_ROWS_SHA256 = "cb96c5d6f340330d5aed7ac4c30bcb10302d890546e15b8592013bd8d931cf91"
CLOCK_TABLE_SHA256 = "8a69ae1da5f997f96a7fef3b8f34e3836d953e74881f6234a7aa1438007c15a0"
OPEN_E14_TABLE_SHA256 = "acd417c5766cfef990d01f6c6d8874927bb54deac384ccc609cc50b1392e9cd1"
OPEN_CLOCK_TABLE_SHA256 = "362bc3cd93c2176a4717baa8ecb562b8d5d04198782376bdc49d1db654cab0f3"
CLOCK_K6_TABLE_SHA256 = "2e7792d10c41185f377031fb1c186377a1025cd9c16b2279ea63545003488810"
# contents of the two open tables above, independent of their fill order
OPEN_E14_CANONICAL_SHA256 = "72c7d62717bdfb8bbb2c16fd12139f7f4edbf8429018602c9b553920333752c1"
OPEN_CLOCK_CANONICAL_SHA256 = "cea8ec7283573362405a16c8d66eb189dd001c2f3f50208d4ad58d9e4eb28f9b"
