"""The hierarchy of logarithmically slowed clocks (paper Section 5.3).

Level 1 is a base clock C^(1) (oscillator P_o + ring, Section 5.2) running
at the natural rate of the scheduler, with phase ticks every Theta(log n)
rounds.  Each higher level j+1 is *another copy* of the base clock whose
rules are executed under a slowed scheduler emulated by clock j:

* every agent carries two copies of level-(j+1)'s state variables — the
  *current* copy and a *new* copy — plus a trigger flag ``S``;
* **run rule** — when two agents meet while both are at a clock-j phase
  divisible by 4 and both still hold the trigger, they simulate one
  interaction of the level-(j+1) protocol on their current copies, write
  the results into the new copies, and drop their triggers (so each agent
  participates at most once per window: the window computes one random
  near-perfect matching);
* **commit rule** — when two agents meet at a clock-j phase congruent to
  2 mod 4, each assigns its new copy to its current copy and re-arms the
  trigger.

Because an agent executes at most one simulated interaction per run
window, each window realizes one step of a *random-matching scheduler*
for the level-(j+1) protocol — slowed by a factor Theta(r^(j)) relative
to its natural rate.  Hence ``r^(j) = Theta((alpha ln n)^j)``: each clock
performs ``alpha ln n - O(1)`` cycles per cycle of the next one.

For the compiled program's time paths (Prop. 5.6/5.7), each agent also
keeps a *snapshot* ``C*`` of the phase of clock j+1, refreshed at clock-j
phase 0 and reconciled (cyclic-successor consensus) at phase 2, so that
between snapshots every agent agrees on a frozen value of all
higher-level clocks.

All levels share the control state ``X`` (one flag): the same control
processes of Propositions 5.3-5.5 drive every oscillator in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Dict, List, Optional

from ..core.formula import Formula, Predicate
from ..core.protocol import Protocol, Thread
from ..core.rules import DynamicRule, Rule
from ..core.state import StateSchema
from ..oscillator.dk18 import OscillatorParams, add_oscillator_fields, oscillator_thread
from .base import ClockParams, add_clock_field, clock_thread


@dataclass
class HierarchyParams:
    """Shape of the clock stack."""

    levels: int = 2
    module: int = 12
    k: int = 6
    weak_rate: float = 0.5
    x_flag: str = "X"

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("hierarchy needs at least one level")


@dataclass
class LevelFields:
    """Names of the state variables belonging to one hierarchy level."""

    level: int
    osc: str
    clk: str
    osc_new: Optional[str] = None
    clk_new: Optional[str] = None
    trigger: Optional[str] = None
    snapshot: Optional[str] = None

    @property
    def simulated(self) -> bool:
        return self.osc_new is not None


def _diff_assignments(
    schema: StateSchema, names, old_code: int, new_code: int
) -> Dict[str, object]:
    """The fields among ``names`` whose value differs between the codes."""
    out: Dict[str, object] = {}
    for name in names:
        value = schema.value_of(new_code, name)
        if schema.value_of(old_code, name) != value:
            out[name] = value
    return out


class ClockHierarchy:
    """Declares and wires ``levels`` clocks on a shared schema.

    After construction, :attr:`threads` holds every thread of the stack
    (level-1 oscillator and ring, plus one simulation thread per higher
    level), ready to be composed with user protocols and an X-control
    thread into a single :class:`~repro.core.protocol.Protocol`.
    """

    def __init__(self, schema: StateSchema, params: Optional[HierarchyParams] = None):
        if params is None:
            params = HierarchyParams()
        self.schema = schema
        self.params = params
        self.levels: List[LevelFields] = []
        self.clock_params: List[ClockParams] = []
        self.threads: List[Thread] = []
        self._build()

    # -- construction ----------------------------------------------------------
    def _level_clock_params(self, osc_field: str, clk_field: str) -> ClockParams:
        return ClockParams(
            module=self.params.module,
            k=self.params.k,
            field=clk_field,
            osc=OscillatorParams(
                weak_rate=self.params.weak_rate,
                field=osc_field,
                x_flag=self.params.x_flag,
            ),
        )

    def _build(self) -> None:
        p = self.params
        # level 1: a base clock at natural rate
        cp1 = self._level_clock_params("osc1", "clk1")
        add_oscillator_fields(self.schema, cp1.osc)
        add_clock_field(self.schema, cp1)
        self.levels.append(LevelFields(1, "osc1", "clk1"))
        self.clock_params.append(cp1)
        self.threads.append(oscillator_thread(cp1.osc))
        self.threads.append(clock_thread(cp1))

        for j in range(2, p.levels + 1):
            fields = LevelFields(
                level=j,
                osc="osc{}".format(j),
                clk="clk{}".format(j),
                osc_new="osc{}_new".format(j),
                clk_new="clk{}_new".format(j),
                trigger="S{}".format(j),
                snapshot="cstar{}".format(j),
            )
            cp = self._level_clock_params(fields.osc, fields.clk)
            # current copy
            add_oscillator_fields(self.schema, cp.osc)
            add_clock_field(self.schema, cp)
            # new copy
            cp_new = self._level_clock_params(fields.osc_new, fields.clk_new)
            add_oscillator_fields(self.schema, cp_new.osc)
            add_clock_field(self.schema, cp_new)
            self.schema.flag(fields.trigger)
            self.schema.enum(fields.snapshot, p.module)
            self.levels.append(fields)
            self.clock_params.append(cp)
            self.threads.append(self._simulation_thread(j))

    # -- phase access ---------------------------------------------------------------
    def live_phase(self, level: int, state) -> int:
        """Clock phase of ``level`` read from an agent's live (current) state."""
        fields = self.levels[level - 1]
        return state[fields.clk] // self.params.k

    def phase_formula(self, level: int, phase: int) -> Formula:
        fields = self.levels[level - 1]
        k = self.params.k
        clk = fields.clk

        def check(state) -> bool:
            return state[clk] // k == phase

        return Predicate(
            check, variables=(clk,), label="C({})@{}".format(level, phase)
        )

    def snapshot_formula(self, level: int, phase: int) -> Formula:
        """Formula on the *snapshot* C* of a level > 1 clock."""
        fields = self.levels[level - 1]
        if fields.snapshot is None:
            raise ValueError("level 1 has no snapshot; use phase_formula")
        from ..core.formula import V

        return V(fields.snapshot, phase)

    # -- simulation thread for level j (driven by clock j-1) ---------------------------
    def _simulation_thread(self, level: int) -> Thread:
        p = self.params
        k = p.k
        fields = self.levels[level - 1]
        driver = self.levels[level - 2]
        driver_clk = driver.clk
        module = p.module

        # Inner protocol: a base clock over this level's *current* fields.
        inner_cp = self.clock_params[level - 1]
        inner = Protocol(
            "inner-C{}".format(level),
            self.schema,
            [oscillator_thread(inner_cp.osc), clock_thread(inner_cp)],
        )
        schema = self.schema
        cur_to_new = {
            fields.osc: fields.osc_new,
            fields.clk: fields.clk_new,
        }
        trigger = fields.trigger
        snapshot = fields.snapshot

        def driver_phase(state) -> int:
            return state[driver_clk] // k

        def run_window(state) -> bool:
            return driver_phase(state) % 4 == 0

        def commit_window(state) -> bool:
            return driver_phase(state) % 4 == 2

        def simulate(a, b):
            """Run one inner interaction on current copies into new copies."""
            if not (run_window(a) and run_window(b) and a[trigger] and b[trigger]):
                return []
            ca, cb = a.code, b.code
            outcomes, p_change = inner.transition(ca, cb)
            result = []
            for new_a, new_b, prob in outcomes:
                # the inner threads' footprint memos guarantee that only
                # the current copies (osc, clk) can differ
                assign_a = {
                    cur_to_new[name]: value
                    for name, value in _diff_assignments(schema, cur_to_new, ca, new_a).items()
                }
                assign_b = {
                    cur_to_new[name]: value
                    for name, value in _diff_assignments(schema, cur_to_new, cb, new_b).items()
                }
                assign_a[trigger] = False
                assign_b[trigger] = False
                result.append((assign_a, assign_b, prob))
            remaining = 1.0 - p_change
            if remaining > 1e-12:
                # a null inner interaction still consumes both slots
                result.append(({trigger: False}, {trigger: False}, remaining))
            return result

        def commit_assignments(state) -> Dict[str, object]:
            assign: Dict[str, object] = {}
            for cur_name, new_name in cur_to_new.items():
                if state[cur_name] != state[new_name]:
                    assign[cur_name] = state[new_name]
            if not state[trigger]:
                assign[trigger] = True
            return assign

        def commit(a, b):
            """Assign new copies to current copies; re-arm triggers."""
            if not (commit_window(a) and commit_window(b)):
                return []
            assign_a = commit_assignments(a)
            assign_b = commit_assignments(b)
            if not assign_a and not assign_b:
                return []
            return [(assign_a, assign_b, 1.0)]

        def take_snapshot(a, b):
            """At driver phase 0, record the current phase of this clock."""
            if not (driver_phase(a) == 0 and driver_phase(b) == 0):
                return []
            phase_a = a[fields.clk] // k
            phase_b = b[fields.clk] // k
            assign_a = {snapshot: phase_a} if a[snapshot] != phase_a else {}
            assign_b = {snapshot: phase_b} if b[snapshot] != phase_b else {}
            if not assign_a and not assign_b:
                return []
            return [(assign_a, assign_b, 1.0)]

        def reconcile(a, b):
            """At driver phase 2, agree on the cyclically larger snapshot."""
            if not (driver_phase(a) == 2 and driver_phase(b) == 2):
                return []
            sa, sb = a[snapshot], b[snapshot]
            if sa == sb:
                return []
            if (sb - sa) % module == 1:
                return [({snapshot: sb}, {}, 1.0)]
            if (sa - sb) % module == 1:
                return [({}, {snapshot: sa}, 1.0)]
            return []

        rules: List[Rule] = [
            DynamicRule(None, None, simulate, name="sim-run-L{}".format(level)),
            DynamicRule(None, None, commit, name="sim-commit-L{}".format(level)),
            DynamicRule(None, None, take_snapshot, name="snapshot-L{}".format(level)),
            DynamicRule(None, None, reconcile, name="reconcile-L{}".format(level)),
        ]
        return Thread(
            "Sim-C{}".format(level),
            rules,
            writes=(
                fields.osc,
                fields.clk,
                fields.osc_new,
                fields.clk_new,
                trigger,
                snapshot,
            ),
            reads=(driver_clk, p.x_flag),
        )

    # -- initialization ---------------------------------------------------------------
    def initial_assignment(self, species_value: str) -> Dict[str, object]:
        """A synchronized start: every clock at ring 0, copies equal,
        triggers armed, snapshots at phase 0."""
        assignment: Dict[str, object] = {}
        for fields in self.levels:
            assignment[fields.osc] = species_value
            assignment[fields.clk] = 0
            if fields.simulated:
                assignment[fields.osc_new] = species_value
                assignment[fields.clk_new] = 0
                assignment[fields.trigger] = True
                assignment[fields.snapshot] = 0
        return assignment
