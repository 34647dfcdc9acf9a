"""The base modulo-m phase clock C_o (paper Section 5.2, Theorem 5.2).

The clock composes with the DK18 oscillator P_o.  Each agent walks a ring
of ``m * k`` micro-states ``C'_s``; the ring is divided into ``m``
*segments* of ``k`` consecutive states, and segment ``i`` corresponds to
clock *phase* ``i``.  Within segment ``i``, an agent advances one
micro-state whenever it meets an agent of species ``A_{(i mod 3)+1}`` and
falls back to the start of the segment on any other meeting: it only
crosses into segment ``i+1`` after ``k`` *consecutive* meetings with
``A_{(i mod 3)+1}``.  Since the oscillator keeps each species' fraction
either close to 1 (dominant) or polynomially small, a phase advance
happens exactly once per oscillator sweep, with all agents advancing
within a small skew — this is the paper's "missing species detection".

The module ``m`` must be divisible by 3 (so that segment -> species
assignment is consistent around the ring) and by 4 (required by the
hierarchy construction of Section 5.3); the paper's ``4 | m`` plus species
alignment gives ``12 | m``.

The clock advance is expressed as a single :class:`~repro.core.rules.DynamicRule`
rather than ``m * k`` bit-mask rule pairs: the paper's per-state rules are
mutually exclusive, and folding them into one rule both matches the
"k consecutive meetings" accounting (every activation of the clock rule
either advances or resets) and keeps the scheduler's per-rule dilution
independent of ``m`` and ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional

from ..core.formula import Formula, Predicate, V
from ..core.protocol import Protocol, Thread
from ..core.rules import DynamicRule, Rule
from ..core.state import StateSchema
from ..oscillator.dk18 import (
    NUM_SPECIES,
    OscillatorParams,
    add_oscillator_fields,
    oscillator_thread,
    strong_value,
    weak_value,
)


@dataclass
class ClockParams:
    """Constants of the base clock.

    ``module`` is the number of phases m (must be divisible by 12);
    ``k`` the consecutive-meeting count per segment.  ``field`` names the
    ring-position state variable; ``osc`` configures/names the driving
    oscillator.
    """

    module: int = 12
    k: int = 6
    field: str = "clk"
    sync_jump: bool = True
    osc: OscillatorParams = dataclass_field(default_factory=OscillatorParams)

    def __post_init__(self) -> None:
        if self.module % 12 != 0:
            raise ValueError(
                "clock module must be divisible by 12 (3 for species "
                "alignment, 4 for the hierarchy construction); got {}".format(
                    self.module
                )
            )
        if self.k < 2:
            raise ValueError("segment length k must be at least 2")

    @property
    def ring_size(self) -> int:
        return self.module * self.k


def add_clock_field(schema: StateSchema, params: ClockParams) -> None:
    """Declare the clock ring field (micro-state ``C'_s``)."""
    schema.enum(params.field, params.ring_size)


def phase_of(ring_state: int, params: ClockParams) -> int:
    """Clock phase (segment index) of a ring micro-state."""
    return ring_state // params.k


def phase_formula(phase: int, params: ClockParams) -> Formula:
    """Formula matching agents whose clock phase equals ``phase``."""
    field = params.field
    k = params.k

    def check(state) -> bool:
        return state[field] // k == phase

    return Predicate(check, variables=(field,), label="{}@{}".format(field, phase))


def expected_species(phase: int) -> int:
    """Species index (0-based) awaited by a segment: phase i awaits
    ``A_{(i mod 3)+1}``."""
    return phase % NUM_SPECIES


class _ClockAdvance:
    """The clock-advance rule body, as a picklable callable.

    A module-level class instead of a closure over the params so the
    composed protocol survives pickling into replica worker processes
    (the ``clock`` workload of :mod:`repro.workloads` fans out sweeps).
    """

    __slots__ = (
        "field", "osc_field", "x_flag", "k", "ring", "sync_jump", "module"
    )

    def __init__(self, params: ClockParams) -> None:
        self.field = params.field
        self.osc_field = params.osc.field
        self.x_flag = params.osc.x_flag
        self.k = params.k
        self.ring = params.ring_size
        self.sync_jump = params.sync_jump
        self.module = params.module

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)

    def __call__(self, a, b):
        field, k, module = self.field, self.k, self.module
        s = a[field]
        phase = s // k
        if self.sync_jump:
            # Catch-up synchronization.  Cohorts whose phases differ by a
            # multiple of 3 await the same species and are invisible to
            # the missing-species mechanism, so they would stay separated
            # forever.  An agent seeing a partner 2..m/2 phases ahead
            # (cyclically) jumps to the partner's segment; at the exact
            # antipode m/2 the direction is ambiguous and a fair coin
            # breaks the symmetry.  Under correct operation the spread is
            # at most one phase (d <= 1) and this rule never fires; a
            # single agent that wrongly advanced by one phase (an
            # eta^k-probability event) cannot drag others, because d = 1
            # does not trigger a jump.  This realizes the paper's "after
            # one cycle of the oscillator, all agents become
            # synchronized".
            phase_b = b[field] // k
            d = (phase_b - phase) % module
            if 2 <= d < module // 2:
                return [({field: phase_b * k}, {}, 1.0)]
            if d == module // 2:
                return [({field: phase_b * k}, {}, 0.5)]
        wanted = expected_species(phase)
        is_wanted = (not b[self.x_flag]) and b[self.osc_field] in (
            weak_value(wanted),
            strong_value(wanted),
        )
        if is_wanted:
            new_s = (s + 1) % self.ring
        else:
            new_s = phase * k
        if new_s == s:
            return []
        return [({field: new_s}, {}, 1.0)]


def clock_rules(params: ClockParams) -> List[Rule]:
    """The clock-advance rule (as one dynamic rule over the ring).

    It reads and writes only the initiator's ring position, and reads the
    responder's ring position, species and ``X`` flag; declaring those
    sides lets the thread memoize its rows on ``ring × state`` keys.
    """
    osc = params.osc
    return [
        DynamicRule(
            None,
            None,
            _ClockAdvance(params),
            name="clock-advance",
            footprint=((params.field,), (params.field, osc.field, osc.x_flag)),
        )
    ]


def clock_thread(params: ClockParams) -> Thread:
    return Thread("C_o[{}]".format(params.field), clock_rules(params))


def make_clock_protocol(
    schema: Optional[StateSchema] = None,
    params: Optional[ClockParams] = None,
    include_oscillator: bool = True,
) -> Protocol:
    """The composed protocol C_o = P_o + clock ring.

    When ``schema`` is given, the oscillator/clock fields are added to it
    (for further composition); otherwise a fresh schema is created.
    """
    if params is None:
        params = ClockParams()
    if schema is None:
        schema = StateSchema()
    if not schema.has_field(params.osc.field):
        add_oscillator_fields(schema, params.osc)
    add_clock_field(schema, params)
    threads = []
    if include_oscillator:
        threads.append(oscillator_thread(params.osc))
    threads.append(clock_thread(params))
    return Protocol("C_o[{}]".format(params.field), schema, threads)
