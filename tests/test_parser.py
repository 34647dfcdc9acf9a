"""Tests for the pseudocode parser (paper-style protocol text)."""

import numpy as np
import pytest

from repro.core import Population, V
from repro.core.formula import ANY
from repro.lang import (
    Assign,
    Execute,
    IfExists,
    IdealInterpreter,
    ParseError,
    Repeat,
    RepeatLog,
    parse_formula,
    parse_program,
    parse_rule,
    program_schema,
)


class TestFormulaParsing:
    def _state(self, **values):
        from repro.core import StateSchema

        schema = StateSchema()
        schema.flags("A", "B", "C")
        return schema.unpack(schema.pack(values))

    def test_single_variable(self):
        assert parse_formula("A").evaluate(self._state(A=True))

    def test_negation(self):
        assert parse_formula("~A").evaluate(self._state(A=False))

    def test_conjunction(self):
        f = parse_formula("A & ~B")
        assert f.evaluate(self._state(A=True))
        assert not f.evaluate(self._state(A=True, B=True))

    def test_disjunction_precedence(self):
        # & binds tighter than |
        f = parse_formula("A | B & C")
        assert f.evaluate(self._state(A=True))
        assert not f.evaluate(self._state(B=True))
        assert f.evaluate(self._state(B=True, C=True))

    def test_parentheses(self):
        f = parse_formula("(A | B) & C")
        assert not f.evaluate(self._state(A=True))
        assert f.evaluate(self._state(A=True, C=True))

    def test_dot_is_any(self):
        assert parse_formula(".") is ANY

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("A &")
        with pytest.raises(ParseError):
            parse_formula("(A")
        with pytest.raises(ParseError):
            parse_formula("A ! B")


class TestRuleParsing:
    def test_paper_rule(self):
        rule = parse_rule("> (A) + (B) -> (~A) + (~B)")
        from repro.core import StateSchema

        schema = StateSchema()
        schema.flags("A", "B")
        ca, cb = schema.pack({"A": True}), schema.pack({"B": True})
        [(na, nb, p)] = rule.outcomes(schema.view(ca), schema.view(cb))
        assert na == 0 and nb == 0 and p == 1.0

    def test_dot_guard(self):
        rule = parse_rule("> (X) + (.) -> (~X) + (.)")
        from repro.core import StateSchema

        schema = StateSchema()
        schema.flag("X")
        assert rule.outcomes(schema.view(schema.pack({"X": True})), schema.view(0))

    def test_conjunction_update(self):
        rule = parse_rule("> (I) + (I) -> (~I & S) + (~I & ~S)")
        from repro.core import StateSchema

        schema = StateSchema()
        schema.flags("I", "S")
        code = schema.pack({"I": True})
        [(na, nb, _)] = rule.outcomes(schema.view(code), schema.view(code))
        assert schema.value_of(na, "S") is True
        assert schema.value_of(nb, "S") is False

    def test_malformed_rule(self):
        with pytest.raises(ParseError):
            parse_rule("(A) + (B) -> (A)")
        with pytest.raises(ParseError):
            parse_rule("> (A) + (B) -> (A | B) + (.)")  # disjunctive update


LEADER_ELECTION_TEXT = """
def protocol LeaderElection
var L <- on as output, D <- off, F <- on:
thread Main uses L:
  repeat:
    if exists (L):
      F := {on, off} uniformly at random
      D := L & F
      if exists (D):
        L := D
    else:
      L := on
"""

EXACT_TEXT = """
def protocol MiniExact
var L <- on as output, R <- on:
thread Main uses L, reads R:
  repeat:
    if exists (L):
      L := L & R
    else:
      L := R
thread ReduceSets uses R:
  execute ruleset:
    > (R) + (R & ~L) -> (R) + (~R & ~L)
"""

MAJORITY_TEXT = """
def protocol MiniMajority
var YA <- off as output, A <- off as input, B <- off as input:
thread Main uses YA:
  var As <- off, Bs <- off, K <- off
  repeat:
    As := A
    Bs := B
    repeat >= 2 ln n times:
      execute for >= 2 ln n rounds ruleset:
        > (As) + (Bs) -> (~As) + (~Bs)
      K := off
      execute for >= 2 ln n rounds ruleset:
        > (As & ~K) + (~As & ~Bs) -> (As & K) + (As & K)
        > (Bs & ~K) + (~As & ~Bs) -> (Bs & K) + (Bs & K)
    if exists (As):
      YA := on
    if exists (Bs):
      YA := off
"""


class TestProgramParsing:
    def test_header_and_variables(self):
        prog = parse_program(LEADER_ELECTION_TEXT)
        assert prog.name == "LeaderElection"
        assert prog.outputs == ["L"]
        assert prog.variable("F").init is True

    def test_structure(self):
        prog = parse_program(LEADER_ELECTION_TEXT)
        body = prog.main_thread.body
        assert isinstance(body, Repeat)
        [outer_if] = body.body
        assert isinstance(outer_if, IfExists)
        assert isinstance(outer_if.then_block[0], Assign)
        assert outer_if.then_block[0].random
        assert isinstance(outer_if.else_block[0], Assign)

    def test_perpetual_thread(self):
        prog = parse_program(EXACT_TEXT)
        assert [t.name for t in prog.threads] == ["Main", "ReduceSets"]
        assert len(prog.background_threads) == 1
        assert len(prog.background_threads[0].perpetual) == 1

    def test_thread_uses_and_reads(self):
        prog = parse_program(EXACT_TEXT)
        assert prog.main_thread.uses == ("L",)
        assert prog.main_thread.reads == ("R",)

    def test_local_var_lines(self):
        prog = parse_program(MAJORITY_TEXT)
        assert prog.variable("As").init is False
        assert prog.variable("K").init is False

    def test_nested_loops_and_rulesets(self):
        prog = parse_program(MAJORITY_TEXT)
        assert prog.loop_depth() == 2
        [a1, a2, loop, if1, if2] = prog.main_thread.body.body
        assert isinstance(loop, RepeatLog)
        assert loop.c == 2
        assert isinstance(loop.body[0], Execute)
        assert len(loop.body[2].rules) == 2

    def test_roundtrip_via_pretty(self):
        prog = parse_program(LEADER_ELECTION_TEXT)
        again = parse_program(prog.pretty())
        assert again.pretty() == prog.pretty()

    def test_parsed_program_runs(self):
        prog = parse_program(LEADER_ELECTION_TEXT)
        schema = program_schema(prog)
        pop = Population.uniform(
            schema, 300, {d.name: d.init for d in prog.variables}
        )
        interp = IdealInterpreter(prog, pop, rng=np.random.default_rng(1))
        interp.run(30, stop=lambda p: p.count(V("L")) == 1)
        assert pop.count(V("L")) == 1

    def test_parsed_majority_runs(self):
        prog = parse_program(MAJORITY_TEXT)
        schema = program_schema(prog)
        base = {d.name: d.init for d in prog.variables}
        pop = Population.from_groups(
            schema,
            [
                (dict(base, A=True), 70),
                (dict(base, B=True), 60),
                (base, 70),
            ],
        )
        interp = IdealInterpreter(prog, pop, rng=np.random.default_rng(2))
        interp.run(2)
        assert pop.count(V("YA")) == pop.n  # A wins


class TestProgramErrors:
    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_program("var L <- on:\nthread T:\n  repeat:\n    L := on")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_program("   \n  \n")

    def test_no_variables(self):
        with pytest.raises(ParseError):
            parse_program("def protocol P\nthread T:\n  repeat:\n    L := on")

    def test_bad_instruction(self):
        source = LEADER_ELECTION_TEXT.replace("L := on", "L <- on")
        with pytest.raises(ParseError):
            parse_program(source)

    def test_empty_ruleset(self):
        source = """
def protocol P
var L <- on:
thread Main:
  repeat:
    execute for >= 2 ln n rounds ruleset:
    L := on
"""
        with pytest.raises(ParseError):
            parse_program(source)

    def test_thread_without_body(self):
        source = "def protocol P\nvar L <- on:\nthread Main:\n"
        with pytest.raises(ParseError):
            parse_program(source)

    def test_error_carries_line_number(self):
        try:
            parse_program(LEADER_ELECTION_TEXT.replace("L := on", "@@@"))
        except ParseError as exc:
            assert "line" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected ParseError")
