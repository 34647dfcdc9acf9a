"""Transition rules for population protocols.

A rule follows the paper's bit-mask convention (Section 1.3)::

    > (S1) + (S2) -> (S3) + (S4)

It may be activated when the ordered pair of interacting agents (initiator,
responder) satisfies guards ``S1`` and ``S2``; its execution performs the
minimal update making ``S3`` and ``S4`` hold.  We represent guards as
:class:`~repro.core.formula.Formula` objects (or arbitrary predicates) and
updates either as literal conjunctions (dicts / formulas) or as effect
callables mutating :class:`~repro.core.state.State` views.

Randomized rules — the paper's model grants each agent a constant number of
fair coin tosses per interaction — are expressed through *branches*: a list
of ``(probability, update)`` alternatives.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .formula import ANY, Formula, read_set
from .state import State

UpdateLike = Union[None, Mapping[str, object], Formula]
Effect = Callable[[State, State], None]
Guard = Union[None, bool, Formula, Callable[[State], bool]]

#: An outcome of one interaction: (initiator code, responder code, probability).
Outcome = Tuple[int, int, float]

#: What a rule or thread touches: (initiator fields, responder fields).
Sides = Tuple[FrozenSet[str], FrozenSet[str]]


def _coerce_update(update: UpdateLike) -> Dict[str, object]:
    if update is None:
        return {}
    if isinstance(update, Formula):
        return update.as_assignments()
    return dict(update)


def _guard_reads(guard: Guard) -> Optional[set]:
    """The fields ``guard`` reads, or ``None`` when a callable hides them."""
    if guard is None or guard is True:
        return set()
    seen = read_set(guard) if isinstance(guard, Formula) else None
    return None if seen is None else set(seen)


def _coerce_guard(guard: Guard) -> Callable[[State], bool]:
    if guard is None or guard is True:
        return ANY.evaluate
    if isinstance(guard, Formula):
        return guard.evaluate
    if callable(guard):
        return guard
    raise TypeError("cannot interpret {!r} as a guard".format(guard))


class Branch:
    """One probabilistic alternative of a rule's right-hand side."""

    __slots__ = ("probability", "update_a", "update_b", "effect")

    def __init__(
        self,
        probability: float,
        update_a: UpdateLike = None,
        update_b: UpdateLike = None,
        effect: Optional[Effect] = None,
    ):
        if probability <= 0:
            raise ValueError("branch probability must be positive")
        self.probability = float(probability)
        self.update_a = _coerce_update(update_a)
        self.update_b = _coerce_update(update_b)
        self.effect = effect

    def apply(self, a: State, b: State) -> None:
        a.update(self.update_a)
        b.update(self.update_b)
        if self.effect is not None:
            self.effect(a, b)


class Rule:
    """A single interaction rule.

    Parameters
    ----------
    guard_a, guard_b:
        Conditions on the initiator / responder (``None`` matches any agent,
        the paper's ``(.)``).
    update_a, update_b:
        Literal updates applied on activation (dict or conjunction formula).
    effect:
        Alternative/additional update as a callable ``effect(a, b)`` mutating
        the two state views; applied after the literal updates.
    branches:
        Probabilistic alternatives.  When given, exactly one branch fires
        (chosen with the stated probabilities, which must sum to <= 1; any
        remaining probability is a null outcome).  ``update_*``/``effect`` must
        then be omitted.
    weight:
        Relative probability of this rule being drawn by the scheduler
        within its protocol (see :mod:`repro.core.protocol`).
    name:
        Optional label used in pretty-printing and diagnostics.
    """

    __slots__ = ("guard_a", "guard_b", "branches", "weight", "name", "_ga", "_gb")

    def __init__(
        self,
        guard_a: Guard = None,
        guard_b: Guard = None,
        update_a: UpdateLike = None,
        update_b: UpdateLike = None,
        effect: Optional[Effect] = None,
        branches: Optional[Sequence[Branch]] = None,
        weight: float = 1.0,
        name: Optional[str] = None,
    ):
        self.guard_a = guard_a
        self.guard_b = guard_b
        self._ga = _coerce_guard(guard_a)
        self._gb = _coerce_guard(guard_b)
        if branches is not None:
            if update_a is not None or update_b is not None or effect is not None:
                raise ValueError("give either branches or updates, not both")
            self.branches: Tuple[Branch, ...] = tuple(branches)
            total = sum(b.probability for b in self.branches)
            if total > 1.0 + 1e-9:
                raise ValueError(
                    "branch probabilities sum to {} > 1".format(total)
                )
        else:
            self.branches = (Branch(1.0, update_a, update_b, effect),)
        if weight <= 0:
            raise ValueError("rule weight must be positive")
        self.weight = float(weight)
        self.name = name

    # -- matching and application -------------------------------------------
    def matches(self, a: State, b: State) -> bool:
        return self._ga(a) and self._gb(b)

    def outcomes(self, a: State, b: State) -> List[Outcome]:
        """All (code_a', code_b', probability) alternatives of activating
        this rule on the pair of state views ``a``, ``b``, or ``[]`` when
        the guards do not match.

        Probabilities are conditional on this rule having been drawn; they
        sum to at most 1 (deficit = explicit null branch).  The views are
        only read: literal updates are applied to the codes, effects to
        copies."""
        if not self.matches(a, b):
            return []
        schema = a.schema
        results: List[Outcome] = []
        for branch in self.branches:
            if branch.effect is None:
                new_a = schema.with_values(a.code, branch.update_a)
                new_b = schema.with_values(b.code, branch.update_b)
            else:
                copy_a = a.copy()
                copy_b = b.copy()
                branch.apply(copy_a, copy_b)
                new_a, new_b = copy_a.code, copy_b.code
            results.append((new_a, new_b, branch.probability))
        return results

    def footprint(self) -> Optional[Sides]:
        """The fields this rule reads or writes on each side, as its
        structure shows them: ``(initiator fields, responder fields)``,
        each side's guard variables plus its update keys.  ``None`` when a
        callable guard or an effect hides what it touches."""
        side_a, side_b = _guard_reads(self.guard_a), _guard_reads(self.guard_b)
        if side_a is None or side_b is None:
            return None
        for branch in self.branches:
            if branch.effect is not None:
                return None
            side_a.update(branch.update_a)
            side_b.update(branch.update_b)
        return frozenset(side_a), frozenset(side_b)

    # -- transformations used by the compiler --------------------------------
    def guarded(
        self,
        extra_a: Guard = None,
        extra_b: Guard = None,
        name_suffix: str = "",
    ) -> "Rule":
        """Return a copy with extra conjuncts added to both guards.

        This is the operation used both for branch compaction (Fig. 2:
        prefixing rules with ``Z`` / ``~Z``) and for time-path filtering in
        the final compilation step (Section 5.4: prefixing with ``Pi_tau``).
        """
        ga = _conjoin(self.guard_a, extra_a)
        gb = _conjoin(self.guard_b, extra_b)
        clone = Rule.__new__(Rule)
        clone.guard_a = ga
        clone.guard_b = gb
        clone._ga = _coerce_guard(ga)
        clone._gb = _coerce_guard(gb)
        clone.branches = self.branches
        clone.weight = self.weight
        clone.name = (self.name or "rule") + name_suffix
        return clone

    def describe(self) -> str:
        def fmt_guard(guard: Guard) -> str:
            if guard is None or guard is True:
                return "."
            if isinstance(guard, Formula):
                return guard.describe()
            return getattr(guard, "__name__", "<fn>")

        def fmt_update(update: Mapping[str, object], effect) -> str:
            parts = []
            for key, value in update.items():
                if value is True:
                    parts.append(key)
                elif value is False:
                    parts.append("~" + key)
                else:
                    parts.append("{}={}".format(key, value))
            if effect is not None:
                parts.append(getattr(effect, "__name__", "<effect>"))
            return " & ".join(parts) if parts else "."

        lhs = "({}) + ({})".format(fmt_guard(self.guard_a), fmt_guard(self.guard_b))
        rhs_parts = []
        for branch in self.branches:
            rhs = "({}) + ({})".format(
                fmt_update(branch.update_a, None),
                fmt_update(branch.update_b, branch.effect),
            )
            if len(self.branches) > 1:
                rhs += " @{:g}".format(branch.probability)
            rhs_parts.append(rhs)
        return "> {} -> {}".format(lhs, " | ".join(rhs_parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Rule({})".format(self.name or self.describe())


def _conjoin(base: Guard, extra: Guard) -> Guard:
    if extra is None or extra is True:
        return base
    if base is None or base is True:
        return extra
    if isinstance(base, Formula) and isinstance(extra, Formula):
        return base & extra
    base_fn = _coerce_guard(base)
    extra_fn = _coerce_guard(extra)

    def both(state: State) -> bool:
        return base_fn(state) and extra_fn(state)

    return both


class DynamicRule(Rule):
    """A rule whose outcome distribution depends on the matched states.

    ``outcome_fn(a, b)`` receives the two read-only state views (setting
    a field on one raises :class:`TypeError`) and
    returns a list of ``(assignments_a, assignments_b, probability)``
    triples (probabilities summing to at most 1; the deficit is a null
    branch).  Used for rules that are natural as *functions* of the pair —
    the clock ring advance (one rule instead of ``3k`` bit-mask rules) and
    the hierarchy's slowed simulation of an inner protocol (Section 5.3).

    Rules written this way remain finite-state population-protocol rules:
    the function is evaluated once per distinct state pair by the
    transition table and could be expanded into an equivalent finite list
    of bit-mask rules.

    ``footprint=(initiator fields, responder fields)`` declares what
    ``outcome_fn`` reads or writes on each side; the guards' variables are
    added to it.  Without it the rule's footprint is unknown (see
    :meth:`Rule.footprint`).
    """

    __slots__ = ("outcome_fn", "declared")

    def __init__(
        self,
        guard_a: Guard,
        guard_b: Guard,
        outcome_fn: Callable[[State, State], List[Tuple[Mapping[str, object], Mapping[str, object], float]]],
        weight: float = 1.0,
        name: Optional[str] = None,
        footprint: Optional[Tuple[Iterable[str], Iterable[str]]] = None,
    ):
        super().__init__(guard_a, guard_b, weight=weight, name=name)
        self.outcome_fn = outcome_fn
        self.declared: Optional[Sides] = None
        if footprint is not None:
            side_a, side_b = footprint
            self.declared = frozenset(side_a), frozenset(side_b)

    def outcomes(self, a: State, b: State) -> List[Outcome]:
        if not self.matches(a, b):
            return []
        schema = a.schema
        results: List[Outcome] = []
        total = 0.0
        for assign_a, assign_b, prob in self.outcome_fn(a, b):
            if prob <= 0:
                raise ValueError("dynamic outcome probability must be positive")
            total += prob
            new_a = schema.with_values(a.code, assign_a or {})
            new_b = schema.with_values(b.code, assign_b or {})
            results.append((new_a, new_b, prob))
        if total > 1.0 + 1e-9:
            raise ValueError(
                "dynamic outcome probabilities sum to {} > 1".format(total)
            )
        return results

    def footprint(self) -> Optional[Sides]:
        """The declared sides plus the guards' variables; ``None`` when
        nothing is declared (the outcome function may read any field) or a
        guard is a callable."""
        if self.declared is None:
            return None
        guard_a, guard_b = _guard_reads(self.guard_a), _guard_reads(self.guard_b)
        if guard_a is None or guard_b is None:
            return None
        return self.declared[0] | guard_a, self.declared[1] | guard_b

    def guarded(self, extra_a: Guard = None, extra_b: Guard = None, name_suffix: str = "") -> "DynamicRule":
        clone = DynamicRule(
            _conjoin(self.guard_a, extra_a),
            _conjoin(self.guard_b, extra_b),
            self.outcome_fn,
            weight=self.weight,
            name=(self.name or "dynamic") + name_suffix,
            footprint=self.declared,
        )
        return clone

    def describe(self) -> str:
        def fmt_guard(guard: Guard) -> str:
            if guard is None or guard is True:
                return "."
            if isinstance(guard, Formula):
                return guard.describe()
            return getattr(guard, "__name__", "<fn>")

        return "> ({}) + ({}) -> [{}]".format(
            fmt_guard(self.guard_a),
            fmt_guard(self.guard_b),
            self.name or getattr(self.outcome_fn, "__name__", "dynamic"),
        )


def rule(
    guard_a: Guard = None,
    guard_b: Guard = None,
    update_a: UpdateLike = None,
    update_b: UpdateLike = None,
    **kwargs,
) -> Rule:
    """Convenience constructor mirroring the paper's rule syntax order."""
    return Rule(guard_a, guard_b, update_a, update_b, **kwargs)


def coin_rule(
    guard_a: Guard,
    guard_b: Guard,
    alternatives: Sequence[Tuple[float, UpdateLike, UpdateLike]],
    **kwargs,
) -> Rule:
    """A randomized rule choosing among ``(prob, update_a, update_b)``."""
    branches = [Branch(p, ua, ub) for p, ua, ub in alternatives]
    return Rule(guard_a, guard_b, branches=branches, **kwargs)
