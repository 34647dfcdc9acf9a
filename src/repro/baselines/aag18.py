"""An AAG18-style O(polylog n)-state exact majority baseline (Section 1.2).

[AAG18] achieve exact majority in O(log^2 n) expected time with O(log n)
states using synchronized cancellation/doubling phases driven by a
leaderless phase clock.  This baseline implements the same
cancellation/doubling engine with the simplest synchronizer that keeps
the state count logarithmic: each agent times its phases with a private
interaction counter of length Theta(log n) (a standard device in this
literature; AAG18's clock is more refined, so treat this row of the
comparison as "AAG18-style").  States: token (A / B / blank) x phase
parity x counter in [0, c log n] — O(log n) states for fixed c, against
the paper's O(1).

Phase structure per counter wrap: even phases cancel, odd phases double
(one doubling per token per phase).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.formula import Predicate, V
from ..core.population import Population
from ..core.protocol import Protocol, single_thread
from ..core.rules import DynamicRule
from ..core.state import StateSchema
from ..engine.batch import ArrayEngine

TOKEN_VALUES = ("blank", "A", "B")


def make_aag18_majority(n: int, c: float = 4.0) -> Tuple[Protocol, int]:
    """Build the protocol for population size ``n``.

    Returns (protocol, counter_length).  The counter length is the
    Theta(log n) quantity that makes the state count logarithmic.
    """
    counter_len = max(4, int(round(c * math.log(max(n, 2)))))
    schema = StateSchema()
    schema.enum("tok", 3, values=TOKEN_VALUES)
    schema.flag("doubled")
    schema.flag("odd_phase")
    schema.enum("ctr", counter_len)

    def step(a, b):
        assign_a: Dict[str, object] = {}
        assign_b: Dict[str, object] = {}
        # advance the initiator's private counter; wrap flips its phase
        ctr = a["ctr"] + 1
        if ctr >= counter_len:
            assign_a["ctr"] = 0
            assign_a["odd_phase"] = not a["odd_phase"]
            assign_a["doubled"] = False
        else:
            assign_a["ctr"] = ctr
        # interaction effect depends on the initiator's current phase
        if not a["odd_phase"]:
            # cancellation phase
            if a["tok"] == "A" and b["tok"] == "B":
                assign_a["tok"] = "blank"
                assign_b["tok"] = "blank"
            elif a["tok"] == "B" and b["tok"] == "A":
                assign_a["tok"] = "blank"
                assign_b["tok"] = "blank"
        else:
            # doubling phase: one doubling per token per phase
            if a["tok"] in ("A", "B") and not a["doubled"] and b["tok"] == "blank":
                assign_b["tok"] = a["tok"]
                assign_a["doubled"] = True
        return [(assign_a, assign_b, 1.0)]

    protocol = single_thread(
        "AAG18Majority",
        schema,
        [DynamicRule(None, None, step, name="aag18-step")],
    )
    return protocol, counter_len


def aag18_population(schema: StateSchema, n: int, count_a: int, count_b: int) -> Population:
    groups = []
    if count_a:
        groups.append(({"tok": "A"}, count_a))
    if count_b:
        groups.append(({"tok": "B"}, count_b))
    if n - count_a - count_b:
        groups.append(({"tok": "blank"}, n - count_a - count_b))
    return Population.from_groups(schema, groups)


def run_aag18_majority(
    n: int,
    count_a: int,
    count_b: int,
    rng: Optional[np.random.Generator] = None,
    max_rounds: float = 4000.0,
) -> Tuple[Optional[bool], float]:
    """Run until one token colour is extinct; returns (A wins, rounds)."""
    protocol, _ = make_aag18_majority(n)
    population = aag18_population(protocol.schema, n, count_a, count_b)
    # every interaction advances a private counter, so null skipping never
    # helps here; the vectorized array engine is the right tool
    engine = ArrayEngine(protocol, population, rng=rng)
    a_formula, b_formula = V("tok", "A"), V("tok", "B")

    def settled(pop: Population) -> bool:
        return pop.count(a_formula) == 0 or pop.count(b_formula) == 0

    engine.run(rounds=max_rounds, stop=settled, stop_every=5.0)
    final = engine.population
    remaining_a = final.count(a_formula)
    remaining_b = final.count(b_formula)
    if remaining_a and not remaining_b:
        return True, engine.rounds
    if remaining_b and not remaining_a:
        return False, engine.rounds
    return None, engine.rounds
