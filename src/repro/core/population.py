"""Population configurations: multisets of agent states.

A configuration of a population protocol is a multiset over the state
space.  :class:`Population` stores it as a sparse ``code -> count`` mapping
(the number of *distinct occupied* states stays tiny even when the packed
state space is astronomically large, which is exactly the regime of the
paper's compiled protocols).  Formula queries (:meth:`Population.count`
and friends) read the schema's per-code truth memo
(:meth:`StateSchema.truth`), so a support state is decoded once per
formula, not once per query.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .formula import Formula
from .state import StateSchema


class Population:
    """A multiset of agent states over a shared schema."""

    def __init__(self, schema: StateSchema, counts: Optional[Mapping[int, int]] = None):
        self.schema = schema
        self.counts: Dict[int, int] = {}
        if counts:
            for code, count in counts.items():
                self.add(code, count)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_groups(
        cls,
        schema: StateSchema,
        groups: Sequence[Tuple[Mapping[str, object], int]],
    ) -> "Population":
        """Build a population from ``(partial assignment, count)`` groups."""
        pop = cls(schema)
        for assignment, count in groups:
            pop.add(schema.pack(assignment), count)
        return pop

    @classmethod
    def uniform(
        cls, schema: StateSchema, n: int, assignment: Mapping[str, object]
    ) -> "Population":
        """All ``n`` agents share one initial assignment."""
        return cls.from_groups(schema, [(assignment, n)])

    def copy(self) -> "Population":
        return Population(self.schema, dict(self.counts))

    # -- mutation ------------------------------------------------------------
    def add(self, code: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot add a negative count")
        if count == 0:
            return
        self.counts[code] = self.counts.get(code, 0) + count

    def remove(self, code: int, count: int = 1) -> None:
        have = self.counts.get(code, 0)
        if have < count:
            raise ValueError(
                "cannot remove {} agents from state {} (have {})".format(
                    count, code, have
                )
            )
        if have == count:
            del self.counts[code]
        else:
            self.counts[code] = have - count

    def move(self, old_code: int, new_code: int, count: int = 1) -> None:
        if old_code == new_code:
            return
        self.remove(old_code, count)
        self.add(new_code, count)

    # -- queries ---------------------------------------------------------------
    @property
    def n(self) -> int:
        return sum(self.counts.values())

    @property
    def support_size(self) -> int:
        return len(self.counts)

    def count(self, formula: Formula) -> int:
        """Number of agents satisfying a formula (the paper's ``#X``)."""
        truth = self.schema.truth(formula)
        total = 0
        for code, count in self.counts.items():
            if truth[code]:
                total += count
        return total

    def fraction(self, formula: Formula) -> float:
        n = self.n
        return self.count(formula) / n if n else 0.0

    def exists(self, formula: Formula) -> bool:
        truth = self.schema.truth(formula)
        return any(truth[code] for code, count in self.counts.items() if count)

    def all_satisfy(self, formula: Formula) -> bool:
        truth = self.schema.truth(formula)
        return all(truth[code] for code, count in self.counts.items() if count)

    def codes_matching(self, formula: Formula) -> Iterable[int]:
        truth = self.schema.truth(formula)
        for code in list(self.counts):
            if truth[code]:
                yield code

    # -- bulk rewrites (used by idealized runtimes) ------------------------------
    def assign_where(
        self,
        formula: Formula,
        assignment: Mapping[str, object],
    ) -> int:
        """Apply ``assignment`` to every agent satisfying ``formula``.

        Returns the number of agents rewritten.  This realizes the intended
        (w.h.p.) outcome of the paper's ``X := condition`` instruction when
        ``formula`` is the condition (or its negation for the unset half).
        """
        moved = 0
        for code in list(self.codes_matching(formula)):
            new_code = self.schema.with_values(code, assignment)
            count = self.counts[code]
            self.move(code, new_code, count)
            if new_code != code:
                moved += count
        return moved

    def assign_all(self, variable: str, condition: Formula) -> None:
        """Intended outcome of ``variable := condition`` for all agents."""
        truth = self.schema.truth(condition)
        for code in list(self.counts):
            value = truth[code]
            new_code = self.schema.with_values(code, {variable: value})
            self.move(code, new_code, self.counts.get(code, 0))

    # -- conversions ----------------------------------------------------------
    def to_agent_array(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Expand to an array of per-agent state codes (shuffled if rng given)."""
        parts = [np.full(count, code, dtype=np.int64) for code, count in self.counts.items()]
        agents = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        if rng is not None:
            rng.shuffle(agents)
        return agents

    @classmethod
    def from_agent_array(cls, schema: StateSchema, agents: np.ndarray) -> "Population":
        codes, counts = np.unique(agents, return_counts=True)
        return cls(schema, {int(c): int(k) for c, k in zip(codes, counts)})

    def summary(self, limit: int = 10) -> str:
        items = sorted(self.counts.items(), key=lambda kv: -kv[1])[:limit]
        lines = ["Population(n={}, support={})".format(self.n, self.support_size)]
        for code, count in items:
            state = self.schema.unpack(code)
            lines.append("  {:>8}  {}".format(count, state))
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Population)
            and other.schema is self.schema
            and other.counts == self.counts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Population(n={}, support={})".format(self.n, self.support_size)
