"""Protocols: rulesets grouped into threads over a shared state schema.

The paper composes protocols by putting rulesets together as *threads*
(Section 1.3): the scheduler picks one thread uniformly at random, then one
rule uniformly within the thread (the paper normalizes rule counts across
threads; weighting achieves the same effect here).  Composing protocol P2
"on top of" P1 means P2's rules never write P1's variables; this module
checks that discipline when asked.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from .formula import Formula
from .rules import Outcome, Rule, Sides
from .state import State, StateSchema

#: One memoized rule outcome: (rule position in its thread, code delta of
#: the initiator, code delta of the responder, branch probability).
RowEntry = Tuple[int, int, int, float]


class Views(dict):
    """``code -> read-only view`` for one batch of rows, decoded on first use."""

    __slots__ = ("schema",)

    def __init__(self, schema: StateSchema):
        self.schema = schema

    def __missing__(self, code: int) -> State:
        state = self[code] = self.schema.view(code)
        return state


class FootprintError(ValueError):
    """A thread touched a field outside its footprint (``reads ∪ writes``
    plus what its rules show, per side), or its memoized rows differ from
    the full path."""


class Thread:
    """A named ruleset participating in a protocol composition.

    ``writes``/``reads`` declare fields the thread's rules may write and
    read on either side of a pair.  The thread's *footprint* is, per side
    (initiator, responder), those declarations plus what its rules show
    on that side (see :meth:`~repro.core.rules.Rule.footprint`: a static
    rule's guard variables and update keys, a
    :class:`~repro.core.rules.DynamicRule`'s declared sides).  Thread
    composition (paper Section 1.3) means a thread's outcome on a pair
    depends only on the initiator's footprint fields and the responder's,
    and changes only those, so :meth:`Protocol.transition` memoizes each
    thread's rule outcomes on the pair projected side by side onto the
    footprint and lifts a hit by adding code deltas.  A thread with an
    undeclared dynamic rule, a callable guard or an effect must declare
    what those touch in ``reads``/``writes``; without any declaration it
    takes the full path (every rule on every pair), and so does a thread
    whose footprint is the whole schema on both sides.  A write outside a
    side's footprint raises :class:`FootprintError` when the memo computes
    the row; :func:`check_footprints` also catches under-declared reads on
    sampled pairs.

    The memo lives on the thread, one per schema, so every protocol that
    reuses the thread shares it; it is not pickled.
    """

    __slots__ = ("name", "rules", "writes", "reads", "_memos")

    def __init__(
        self,
        name: str,
        rules: Sequence[Rule],
        writes: Iterable[str] = (),
        reads: Iterable[str] = (),
    ):
        if not rules:
            raise ValueError("thread {!r} has no rules".format(name))
        self.name = name
        self.rules = tuple(rules)
        self.writes = frozenset(writes)
        self.reads = frozenset(reads)
        self._memos: Dict[StateSchema, Optional[FootprintMemo]] = {}

    def __getstate__(self):
        return (self.name, self.rules, self.writes, self.reads)

    def __setstate__(self, state) -> None:
        self.name, self.rules, self.writes, self.reads = state
        self._memos = {}

    @property
    def total_weight(self) -> float:
        return sum(rule.weight for rule in self.rules)

    def footprint(self, schema: StateSchema) -> Optional[Sides]:
        """Fields the thread's outcomes depend on and change, per side
        ``(initiator, responder)``, or ``None`` when they are unknown (an
        opaque rule and no declaration, or a name missing from
        ``schema``)."""
        declared = self.reads | self.writes
        side_a, side_b = set(declared), set(declared)
        for rule in self.rules:
            seen = rule.footprint()
            if seen is None:
                if not declared:
                    return None
            else:
                side_a |= seen[0]
                side_b |= seen[1]
        if not all(schema.has_field(name) for name in side_a | side_b):
            return None
        return frozenset(side_a), frozenset(side_b)

    def memo(self, schema: StateSchema) -> Optional["FootprintMemo"]:
        """This thread's row memo over ``schema`` (``None``: full path)."""
        try:
            return self._memos[schema]
        except KeyError:
            sides = self.footprint(schema)
            # a footprint covering the whole schema on both sides projects
            # each pair onto itself: the memo would only duplicate the
            # transition table
            whole = len(schema.fields)
            if sides is None or (len(sides[0]) == whole and len(sides[1]) == whole):
                memo = None
            else:
                memo = FootprintMemo(self, schema, *sides)
            self._memos[schema] = memo
            return memo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Thread({}, {} rules)".format(self.name, len(self.rules))


def _runs(schema: StateSchema, names: FrozenSet[str]) -> Tuple[Tuple[int, int], ...]:
    """``names`` as runs of adjacent digits: ``(stride, span)`` pairs."""
    runs: List[List[int]] = []
    for stride, size in sorted(
        (schema.stride(name), schema.field(name).size) for name in names
    ):
        if runs and runs[-1][0] * runs[-1][1] == stride:
            runs[-1][1] *= size
        else:
            runs.append([stride, size])
    return tuple((stride, span) for stride, span in runs)


def _project(runs: Tuple[Tuple[int, int], ...], code):
    """The digits of ``runs`` in ``code`` (an int or an int array) as one
    mixed-radix integer."""
    key = 0
    for stride, span in runs:
        key = key * span + code // stride % span
    return key


def _outside(runs: Tuple[Tuple[int, int], ...], code: int) -> int:
    """``code`` with the digits of ``runs`` zeroed."""
    for stride, span in runs:
        code -= code // stride % span * stride
    return code


class FootprintMemo:
    """One thread's rule outcomes, keyed by the pair's footprint projection.

    Each side's footprint fields are grouped into runs of adjacent digits,
    so the projection of a code is one ``code // stride % span`` per run;
    a pair's key is the initiator's projection times ``span_b`` plus the
    responder's.  A row is a tuple of :data:`RowEntry` in rule and branch
    order, identity outcomes left out; it holds code *deltas*, which are
    the same for every pair with the same projections.
    """

    __slots__ = (
        "thread", "schema", "names_a", "names_b", "runs_a", "runs_b", "span_b",
        "rows",
    )

    def __init__(
        self,
        thread: Thread,
        schema: StateSchema,
        names_a: FrozenSet[str],
        names_b: FrozenSet[str],
    ):
        self.thread = thread
        self.schema = schema
        self.names_a = names_a
        self.names_b = names_b
        self.runs_a = _runs(schema, names_a)
        self.runs_b = _runs(schema, names_b)
        self.span_b = 1  # how many values the responder's projection takes
        for _, span in self.runs_b:
            self.span_b *= span
        self.rows: Dict[int, Tuple[RowEntry, ...]] = {}

    @property
    def names(self) -> FrozenSet[str]:
        """Every footprint field, on either side."""
        return self.names_a | self.names_b

    def project_a(self, code):
        """The initiator ``code``'s footprint digits (an int or int array)."""
        return _project(self.runs_a, code)

    def project_b(self, code):
        """The responder ``code``'s footprint digits (an int or int array)."""
        return _project(self.runs_b, code)

    def key(self, code_a: int, code_b: int) -> int:
        """The memo key of the pair ``(code_a, code_b)``."""
        return _project(self.runs_a, code_a) * self.span_b + _project(self.runs_b, code_b)

    def compute(self, key: int, a: State, b: State) -> Tuple[RowEntry, ...]:
        """Run every rule on the views, check each side's writes, store the
        row."""
        runs_a, runs_b = self.runs_a, self.runs_b
        code_a, code_b = a.code, b.code
        out_a, out_b = _outside(runs_a, code_a), _outside(runs_b, code_b)
        row: List[RowEntry] = []
        for pos, rule in enumerate(self.thread.rules):
            for new_a, new_b, branch_p in rule.outcomes(a, b):
                if _outside(runs_a, new_a) != out_a or _outside(runs_b, new_b) != out_b:
                    raise FootprintError(self._leak_message(a, b, new_a, new_b))
                if new_a != code_a or new_b != code_b:
                    row.append((pos, new_a - code_a, new_b - code_b, branch_p))
        entry = self.rows[key] = tuple(row)
        return entry

    def _leak_message(self, a: State, b: State, new_a: int, new_b: int) -> str:
        schema = self.schema
        leaked = sorted(
            name
            for old, new, names in (
                (a.code, new_a, self.names_a), (b.code, new_b, self.names_b)
            )
            for name in schema.field_names
            if name not in names
            and schema.value_of(old, name) != schema.value_of(new, name)
        )
        return (
            "thread {!r} wrote {} outside its footprint (initiator {}, "
            "responder {}); declare them in the thread's writes= or the "
            "rule's footprint=".format(
                self.thread.name, leaked, sorted(self.names_a), sorted(self.names_b)
            )
        )


class Protocol:
    """A population protocol: a state schema plus one or more threads.

    The per-interaction semantics follow the paper's convention: the
    scheduler activates exactly one rule, drawn by first picking a thread
    uniformly at random and then a rule within the thread proportionally to
    its weight.  A drawn rule whose guards do not match the interacting
    pair is a null event.
    """

    def __init__(
        self,
        name: str,
        schema: StateSchema,
        threads: Sequence[Thread],
    ):
        if not threads:
            raise ValueError("protocol {!r} has no threads".format(name))
        names = [t.name for t in threads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate thread names in protocol {!r}".format(name))
        self.name = name
        self.schema = schema
        self.threads = tuple(threads)
        self._draw_probabilities: Optional[List[Tuple[Rule, float]]] = None
        self._plan: Optional[List[Tuple[Optional[FootprintMemo], Thread, List[float]]]] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_plan"] = None
        return state

    # -- structure -----------------------------------------------------------
    @property
    def rules(self) -> List[Rule]:
        return [rule for thread in self.threads for rule in thread.rules]

    def rule_draw_probabilities(self) -> List[Tuple[Rule, float]]:
        """Probability of the scheduler drawing each rule in one interaction."""
        if self._draw_probabilities is None:
            per_thread = 1.0 / len(self.threads)
            out: List[Tuple[Rule, float]] = []
            for thread in self.threads:
                total = thread.total_weight
                for rule in thread.rules:
                    out.append((rule, per_thread * rule.weight / total))
            self._draw_probabilities = out
        return self._draw_probabilities

    def thread(self, name: str) -> Thread:
        for thread in self.threads:
            if thread.name == name:
                return thread
        raise KeyError("no thread {!r} in protocol {!r}".format(name, self.name))

    def row_plan(self) -> List[Tuple[Optional[FootprintMemo], Thread, List[float]]]:
        """Per thread: its memo (``None``: full path) and its rules' draw
        probabilities."""
        if self._plan is None:
            draws = [p for _, p in self.rule_draw_probabilities()]
            plan = []
            start = 0
            for thread in self.threads:
                stop = start + len(thread.rules)
                plan.append((thread.memo(self.schema), thread, draws[start:stop]))
                start = stop
            self._plan = plan
        return self._plan

    # -- semantics -------------------------------------------------------------
    def transition(self, code_a: int, code_b: int) -> Tuple[List[Outcome], float]:
        """Aggregate outcome distribution for an ordered interacting pair.

        Returns ``(changing_outcomes, p_change)`` where ``changing_outcomes``
        lists the distinct ``(code_a', code_b', probability)`` results that
        differ from ``(code_a, code_b)``, and ``p_change`` is their total
        probability.  The remaining ``1 - p_change`` is the null event
        (non-matching rule drawn, identity update, or a rule's explicit null
        branch).  This is the one-pair case of :meth:`transitions`.
        """
        return self._transition(code_a, code_b, memo=True)

    def transitions(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> Iterator[Tuple[List[Outcome], float]]:
        """:meth:`transition` of every ``(code_a, code_b)`` in ``pairs``,
        streamed in order.

        Each distinct code of the batch is decoded at most once, into a
        read-only view shared by every rule of every row that needs it; a
        thread with a known footprint answers from its memo (see
        :class:`Thread`).  Outcomes are merged in rule order either way, so
        the floats do not depend on which path a thread took or on which
        batch a pair came in.
        """
        return self._transitions(pairs, memo=True)

    def _transition(
        self, code_a: int, code_b: int, memo: bool
    ) -> Tuple[List[Outcome], float]:
        return next(self._transitions(((code_a, code_b),), memo))

    def _transitions(
        self, pairs: Iterable[Tuple[int, int]], memo: bool
    ) -> Iterator[Tuple[List[Outcome], float]]:
        plan = self.row_plan()
        views = Views(self.schema)  # each code decoded once per batch
        for code_a, code_b in pairs:
            code_a, code_b = int(code_a), int(code_b)
            merged: Dict[Tuple[int, int], float] = {}
            for thread_memo, thread, draws in plan:
                if memo and thread_memo is not None:
                    key = thread_memo.key(code_a, code_b)
                    row = thread_memo.rows.get(key)
                    if row is None:
                        row = thread_memo.compute(key, views[code_a], views[code_b])
                    for pos, delta_a, delta_b, branch_p in row:
                        out = (code_a + delta_a, code_b + delta_b)
                        merged[out] = merged.get(out, 0.0) + draws[pos] * branch_p
                    continue
                a, b = views[code_a], views[code_b]
                for rule, draw_p in zip(thread.rules, draws):
                    for new_a, new_b, branch_p in rule.outcomes(a, b):
                        if new_a == code_a and new_b == code_b:
                            continue
                        out = (new_a, new_b)
                        merged[out] = merged.get(out, 0.0) + draw_p * branch_p
            outcomes = [(a_, b_, p) for (a_, b_), p in merged.items()]
            yield outcomes, sum(p for _, _, p in outcomes)

    # -- composition ------------------------------------------------------------
    def composed_with(self, *others: "Protocol", name: Optional[str] = None) -> "Protocol":
        """Compose this protocol with others sharing the same schema."""
        threads = list(self.threads)
        for other in others:
            if other.schema is not self.schema:
                raise ValueError(
                    "cannot compose {!r} with {!r}: protocols must be built on "
                    "the same shared StateSchema object".format(self.name, other.name)
                )
            threads.extend(other.threads)
        return Protocol(
            name or "+".join([self.name] + [o.name for o in others]),
            self.schema,
            threads,
        )

    def check_layering(self) -> None:
        """Verify the "composed on top of" discipline between threads.

        For every pair of threads, a later thread may read but must not
        write variables written by an earlier thread unless it declares
        them.  Threads that did not declare reads/writes are skipped.
        """
        for i, upper in enumerate(self.threads):
            for lower in self.threads[:i]:
                if not upper.writes or not lower.writes:
                    continue
                clash = upper.writes & lower.writes
                if clash:
                    raise ValueError(
                        "thread {!r} writes variables {} owned by thread "
                        "{!r}".format(upper.name, sorted(clash), lower.name)
                    )

    def describe(self) -> str:
        lines = ["protocol {}".format(self.name)]
        for thread in self.threads:
            lines.append("  thread {}:".format(thread.name))
            for rule in thread.rules:
                lines.append("    " + rule.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Protocol({}, {} threads, {} rules)".format(
            self.name, len(self.threads), len(self.rules)
        )


def check_footprints(protocol: Protocol, pairs: Iterable[Tuple[int, int]]) -> int:
    """Compare memoized rows with the full path on ``pairs``.

    Every thread runs every rule on every pair once with its memo and once
    without; any difference raises :class:`FootprintError` naming the
    pair, which is what an under-declared ``reads`` produces once two
    pairs share a projection but differ in the undeclared field.  Returns
    the number of pairs checked.
    """
    pairs = list(pairs)
    checked = 0
    for (code_a, code_b), fast, full in zip(
        pairs,
        protocol._transitions(pairs, memo=True),
        protocol._transitions(pairs, memo=False),
    ):
        if fast != full:
            memoized = [
                thread.name
                for thread_memo, thread, _ in protocol.row_plan()
                if thread_memo is not None
            ]
            raise FootprintError(
                "protocol {!r}: memoized row of pair ({}, {}) differs from the "
                "full path ({} vs {}); a thread among {} reads a field its "
                "footprint does not declare".format(
                    protocol.name, code_a, code_b, fast, full, memoized
                )
            )
        checked += 1
    return checked


def single_thread(name: str, schema: StateSchema, rules: Sequence[Rule]) -> Protocol:
    """Build a one-thread protocol (the common case for base building blocks)."""
    return Protocol(name, schema, [Thread(name, rules)])


def compose(name: str, *protocols: Protocol) -> Protocol:
    """Compose protocols sharing one schema into a multi-thread protocol."""
    if not protocols:
        raise ValueError("compose() needs at least one protocol")
    first = protocols[0]
    return first.composed_with(*protocols[1:], name=name)


def count_matching(
    schema: StateSchema, counts: Dict[int, int], formula: Formula
) -> int:
    """Number of agents whose state satisfies ``formula``."""
    truth = schema.truth(formula)
    total = 0
    for code, count in counts.items():
        if count and truth[code]:
            total += count
    return total
