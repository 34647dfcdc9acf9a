"""Boolean formulas over agent state variables.

The paper (Section 1.3) describes agent states as tuples of boolean *state
variables* and writes rules through bit-masks: four boolean formulas
``(S1) + (S2) -> (S3) + (S4)``.  This module provides the formula language:
a tiny AST with ``&``, ``|`` and ``~`` operators, evaluated against a
:class:`repro.core.state.State` view.

Formulas double as *guards* (left-hand sides, arbitrary boolean structure)
and, when they are conjunctions of literals, as *updates* (right-hand sides,
applied as the paper's "minimal update": set exactly the mentioned literals).

Example
-------
>>> from repro.core.formula import V
>>> f = V("L") & ~V("F")
>>> f.describe()
'(L & ~F)'
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, Optional, Tuple, Union


class Formula:
    """Base class for boolean formulas over state variables."""

    def evaluate(self, state) -> bool:
        raise NotImplementedError

    def variables(self) -> Iterator[str]:
        """Yield the names of all variables mentioned in the formula."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, _coerce(other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, _coerce(other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __call__(self, state) -> bool:
        return self.evaluate(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({!r})".format(type(self).__name__, self.describe())

    # -- update interface --------------------------------------------------
    def as_assignments(self) -> Dict[str, object]:
        """Interpret the formula as a conjunction of literals.

        Returns a mapping ``variable -> value`` representing the paper's
        minimal update semantics.  Raises :class:`ValueError` when the
        formula has disjunctive structure and therefore does not denote a
        unique minimal update.
        """
        raise ValueError(
            "formula {!r} is not a conjunction of literals and cannot be "
            "used as an update".format(self.describe())
        )


class Var(Formula):
    """Atomic formula: a boolean variable, or an enum variable compared to
    a value (``Var('phase', 2)`` reads "phase == 2")."""

    __slots__ = ("name", "value", "_hash")

    def __init__(self, name: str, value: object = True):
        self.name = name
        self.value = value
        # hashed once: a memo lookup (StateSchema.truth) hashes on every read
        self._hash = hash((Var, name, value))

    def __reduce__(self):
        # str hashes differ between processes: the copy hashes afresh
        return Var, (self.name, self.value)

    def evaluate(self, state) -> bool:
        return state[self.name] == self.value

    def variables(self) -> Iterator[str]:
        yield self.name

    def describe(self) -> str:
        if self.value is True:
            return self.name
        if self.value is False:
            return "~" + self.name
        return "{}={}".format(self.name, self.value)

    def as_assignments(self) -> Dict[str, object]:
        return {self.name: self.value}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Var)
            and other.name == self.name
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return self._hash


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        self.operand = _coerce(operand)

    def evaluate(self, state) -> bool:
        return not self.operand.evaluate(state)

    def variables(self) -> Iterator[str]:
        return self.operand.variables()

    def describe(self) -> str:
        return "~" + self.operand.describe()

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash((Not, self.operand))

    def as_assignments(self) -> Dict[str, object]:
        inner = self.operand
        if isinstance(inner, Var) and inner.value in (True, False):
            return {inner.name: not inner.value}
        return super().as_assignments()


class And(Formula):
    __slots__ = ("operands",)

    def __init__(self, *operands: Formula):
        flat = []
        for op in operands:
            op = _coerce(op)
            if isinstance(op, And):
                flat.extend(op.operands)
            else:
                flat.append(op)
        self.operands = tuple(flat)

    def evaluate(self, state) -> bool:
        return all(op.evaluate(state) for op in self.operands)

    def variables(self) -> Iterator[str]:
        for op in self.operands:
            yield from op.variables()

    def describe(self) -> str:
        return "(" + " & ".join(op.describe() for op in self.operands) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, And) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash((And, self.operands))

    def as_assignments(self) -> Dict[str, object]:
        merged: Dict[str, object] = {}
        for op in self.operands:
            for name, value in op.as_assignments().items():
                if name in merged and merged[name] != value:
                    raise ValueError(
                        "contradictory literals for {!r} in update".format(name)
                    )
                merged[name] = value
        return merged


class Or(Formula):
    __slots__ = ("operands",)

    def __init__(self, *operands: Formula):
        flat = []
        for op in operands:
            op = _coerce(op)
            if isinstance(op, Or):
                flat.extend(op.operands)
            else:
                flat.append(op)
        self.operands = tuple(flat)

    def evaluate(self, state) -> bool:
        return any(op.evaluate(state) for op in self.operands)

    def variables(self) -> Iterator[str]:
        for op in self.operands:
            yield from op.variables()

    def describe(self) -> str:
        return "(" + " | ".join(op.describe() for op in self.operands) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, Or) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash((Or, self.operands))


class _Constant(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def evaluate(self, state) -> bool:
        return self.value

    def variables(self) -> Iterator[str]:
        return iter(())

    def describe(self) -> str:
        return "true" if self.value else "false"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Constant) and other.value == self.value

    def __hash__(self) -> int:
        return hash((_Constant, self.value))

    def as_assignments(self) -> Dict[str, object]:
        if self.value:
            return {}
        return super().as_assignments()


class Predicate(Formula):
    """Escape hatch: wrap an arbitrary callable as a formula.

    Useful for guards that are awkward as boolean structure (e.g. arithmetic
    on enum fields).  ``variables`` must be declared explicitly so that
    composition machinery can reason about which fields a thread touches.
    A predicate compares by identity and is never memoized: population
    queries call it on every support state each time.
    """

    __slots__ = ("func", "_variables", "label")

    def __init__(
        self,
        func: Callable[[object], bool],
        variables: Tuple[str, ...] = (),
        label: Optional[str] = None,
    ):
        self.func = func
        self._variables = tuple(variables)
        self.label = label or getattr(func, "__name__", "<predicate>")

    def evaluate(self, state) -> bool:
        return bool(self.func(state))

    def variables(self) -> Iterator[str]:
        return iter(self._variables)

    def describe(self) -> str:
        return self.label


#: The paper's ``(.)`` — the empty boolean formula matching any agent.
ANY = _Constant(True)
TRUE = ANY
FALSE = _Constant(False)

FormulaLike = Union[Formula, bool, None]


def _coerce(value: FormulaLike) -> Formula:
    if value is None:
        return ANY
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, Formula):
        return value
    raise TypeError("cannot interpret {!r} as a formula".format(value))


def coerce_formula(value: FormulaLike) -> Formula:
    """Public coercion entry point: ``None``/``True`` become ``ANY``."""
    return _coerce(value)


def read_set(formula: Formula) -> Optional[FrozenSet[str]]:
    """The variables ``formula`` can read, or ``None`` when that is unknown.

    Unknown means a :class:`Predicate` that declares no variables, or a
    formula type without :meth:`Formula.variables`.  Per-thread memoization
    (:mod:`repro.core.protocol`) keys rows on these names, so a guess here
    would silently change the law.
    """
    if isinstance(formula, Predicate):
        return frozenset(formula.variables()) or None
    if isinstance(formula, Not):
        return read_set(formula.operand)
    if isinstance(formula, (And, Or)):
        names: set = set()
        for operand in formula.operands:
            seen = read_set(operand)
            if seen is None:
                return None
            names |= seen
        return frozenset(names)
    try:
        return frozenset(formula.variables())
    except NotImplementedError:
        return None


def structural(formula: Formula) -> bool:
    """Whether ``formula`` is built only of ``Var``/``Not``/``And``/``Or``
    and the constants.

    Such a formula is a pure function of the state's fields and compares
    and hashes by structure, so its truth per state code can be memoized
    (:meth:`repro.core.state.StateSchema.truth`).  A :class:`Predicate`
    anywhere inside, or any other formula type, makes it ``False``.
    """
    kind = type(formula)
    if kind is Var or kind is _Constant:
        return True
    if kind is Not:
        return structural(formula.operand)
    if kind is And or kind is Or:
        return all(structural(op) for op in formula.operands)
    return False


def V(name: str, value: object = True) -> Var:
    """Shorthand constructor for an atomic formula."""
    return Var(name, value)


def all_of(*formulas: FormulaLike) -> Formula:
    """Conjunction of the given formulas (``ANY`` when empty)."""
    coerced = [_coerce(f) for f in formulas]
    if not coerced:
        return ANY
    if len(coerced) == 1:
        return coerced[0]
    return And(*coerced)


def any_of(*formulas: FormulaLike) -> Formula:
    """Disjunction of the given formulas (``FALSE`` when empty)."""
    coerced = [_coerce(f) for f in formulas]
    if not coerced:
        return FALSE
    if len(coerced) == 1:
        return coerced[0]
    return Or(*coerced)
