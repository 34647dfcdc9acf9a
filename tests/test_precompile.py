"""Tests for precompilation (Fig. 1 assignments, Fig. 2 branching, padding)."""

import pytest

from repro.core import Rule, StateSchema, V
from repro.core.formula import TRUE
from repro.lang import (
    Assign,
    Execute,
    IfExists,
    Program,
    Repeat,
    RepeatLog,
    ThreadDef,
    VarDecl,
    precompile,
)
from repro.lang.precompile import LeafNode, LoopNode


def program_of(body):
    return Program(
        "P",
        [VarDecl("L", init=True), VarDecl("M", init=False)],
        [ThreadDef("Main", body=Repeat(body), uses=("L", "M"))],
    )


class TestAssignLowering:
    def test_assignment_becomes_two_leaves(self):
        pre = precompile(program_of([Assign("L", V("M"))]))
        leaves = [leaf for _, leaf in pre.leaves() if not leaf.is_nil]
        assert len(leaves) == 2
        assert leaves[0].label.startswith("arm")
        assert leaves[1].label.startswith("assign")

    def test_trigger_flag_allocated(self):
        pre = precompile(program_of([Assign("L", V("M"))]))
        assert any(flag.startswith("K") for flag in pre.aux_flags)

    def test_fire_leaf_sets_and_unsets(self):
        pre = precompile(program_of([Assign("L", V("M"))]))
        fire = [leaf for _, leaf in pre.leaves() if leaf.label.startswith("assign")][0]
        assert len(fire.rules) == 2  # set branch and unset branch

    def test_random_assignment_single_coin_rule(self):
        pre = precompile(program_of([Assign("L", random=True)]))
        fire = [leaf for _, leaf in pre.leaves() if leaf.label.startswith("assign")][0]
        assert len(fire.rules) == 1
        assert len(fire.rules[0].branches) == 2

    def test_assignment_semantics_via_rules(self):
        """The Fig. 1 rules implement the assignment on a concrete state."""
        pre = precompile(program_of([Assign("L", V("M"))]))
        schema = StateSchema()
        schema.flags("L", "M")
        for flag in pre.aux_flags:
            schema.flag(flag)
        trigger = pre.aux_flags[0]
        fire = [leaf for _, leaf in pre.leaves() if leaf.label.startswith("assign")][0]
        armed_with_m = schema.pack({"L": False, "M": True, trigger: True})
        for rule in fire.rules:
            outs = rule.outcomes(schema.view(armed_with_m), schema.view(0))
            if outs:
                new_code = outs[0][0]
                assert schema.value_of(new_code, "L") is True
                assert schema.value_of(new_code, trigger) is False


class TestBranchLowering:
    def test_if_produces_clear_and_eval_leaves(self):
        pre = precompile(program_of([IfExists(V("M"), [Assign("L", TRUE)])]))
        labels = [leaf.label for _, leaf in pre.leaves()]
        assert any(l.startswith("clear") for l in labels)
        assert any(l.startswith("eval") for l in labels)

    def test_branch_rules_guarded_by_flag(self):
        pre = precompile(program_of([IfExists(V("M"), [Assign("L", TRUE)])]))
        z_flag = [f for f in pre.aux_flags if f.startswith("Z")][0]
        schema = StateSchema()
        schema.flags("L", "M")
        for flag in pre.aux_flags:
            schema.flag(flag)
        arm = [leaf for _, leaf in pre.leaves() if leaf.label.startswith("arm")][0]
        # without the Z flag the guarded arm rule must not fire
        plain = schema.pack({})
        assert all(not r.outcomes(schema.view(plain), schema.view(plain)) for r in arm.rules)
        flagged = schema.pack({z_flag: True})
        assert any(r.outcomes(schema.view(flagged), schema.view(flagged)) for r in arm.rules)

    def test_else_rules_guarded_negatively(self):
        pre = precompile(
            program_of(
                [IfExists(V("M"), [Assign("L", TRUE)], [Assign("L", V("M"))])]
            )
        )
        z_flag = [f for f in pre.aux_flags if f.startswith("Z")][0]
        schema = StateSchema()
        schema.flags("L", "M")
        for flag in pre.aux_flags:
            schema.flag(flag)
        merged = [leaf for _, leaf in pre.leaves() if "|" in leaf.label]
        assert merged  # then/else leaves were unified
        leaf = merged[0]
        # exactly one side fires for each valuation of Z
        z_on = schema.pack({z_flag: True})
        z_off = schema.pack({})
        on_fires = sum(bool(r.outcomes(schema.view(z_on), schema.view(z_on))) for r in leaf.rules)
        off_fires = sum(bool(r.outcomes(schema.view(z_off), schema.view(z_off))) for r in leaf.rules)
        assert on_fires >= 1 and off_fires >= 1

    def test_unbalanced_branches_padded(self):
        pre = precompile(
            program_of(
                [
                    IfExists(
                        V("M"),
                        [Assign("L", TRUE), Assign("M", TRUE)],
                        [Assign("L", V("M"))],
                    )
                ]
            )
        )
        # no error and the tree is uniform
        depths = {len(path) for path, _ in pre.leaves()}
        assert len(depths) == 1


class TestTreeShape:
    def test_flat_program_depth_one(self):
        pre = precompile(program_of([Execute([Rule(V("L"), None, {"L": False})])]))
        assert pre.depth == 1

    def test_nested_loop_depth(self):
        body = [RepeatLog([Execute([Rule(V("L"), None, {"L": False})])])]
        pre = precompile(program_of(body))
        assert pre.depth == 2

    def test_all_leaves_at_uniform_depth(self):
        body = [
            Assign("L", TRUE),
            RepeatLog([Assign("M", TRUE), Assign("L", V("M"))]),
        ]
        pre = precompile(program_of(body))
        depths = {len(path) for path, _ in pre.leaves()}
        assert depths == {pre.depth}

    def test_all_nodes_have_width_children(self):
        body = [
            Assign("L", TRUE),
            RepeatLog([Assign("M", TRUE)]),
        ]
        pre = precompile(program_of(body))

        def check(node):
            if isinstance(node, LeafNode):
                return
            assert len(node.children) == pre.width
            for child in node.children:
                check(child)

        for child in pre.root.children:
            check(child)
        assert len(pre.root.children) == pre.width

    def test_leaf_paths_in_program_order(self):
        body = [Assign("L", TRUE), Assign("M", TRUE)]
        pre = precompile(program_of(body))
        paths = [path for path, leaf in pre.leaves() if not leaf.is_nil]
        assert paths == sorted(paths)

    def test_majority_tree_depth_two(self):
        from repro.protocols import majority_program

        pre = precompile(majority_program())
        assert pre.depth == 2

    def test_leader_election_tree_depth_one(self):
        from repro.protocols import leader_election_program

        pre = precompile(leader_election_program())
        assert pre.depth == 1
        assert pre.width == 10

    def test_pretty_renders(self):
        from repro.protocols import leader_election_program

        pre = precompile(leader_election_program())
        assert "repeat-forever" in pre.pretty()
