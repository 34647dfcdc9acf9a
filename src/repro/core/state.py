"""Agent state schemas: named fields packed into small integers.

The paper describes agent states as Cartesian products of boolean *state
variables* (Section 1.3).  For convenience and compactness we additionally
support *enum* fields with arbitrary finite domains (e.g. the clock position
``C'_s`` with ``s in {0, ..., 3k-1}`` is one enum field rather than ``3k``
one-hot booleans).  A full agent state is an assignment to every field of a
:class:`StateSchema`, packed into a single integer using mixed-radix
encoding; engines operate on these integer codes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .formula import Formula, FormulaLike, coerce_formula, structural


class Field:
    """A single state variable: a name plus a finite domain.

    Boolean fields have ``size == 2`` and values ``False``/``True``; enum
    fields carry ``size`` distinct values, by default the integers
    ``0..size-1``.
    """

    __slots__ = ("name", "size", "values", "_index", "boolean")

    def __init__(
        self,
        name: str,
        size: int,
        values: Optional[Sequence[object]] = None,
        boolean: bool = False,
    ):
        if size < 1:
            raise ValueError("field {!r} must have at least one value".format(name))
        self.name = name
        self.size = size
        self.boolean = boolean
        if boolean:
            if size != 2:
                raise ValueError("boolean field {!r} must have size 2".format(name))
            self.values: Tuple[object, ...] = (False, True)
        elif values is None:
            self.values = tuple(range(size))
        else:
            values = tuple(values)
            if len(values) != size:
                raise ValueError(
                    "field {!r}: {} values given for size {}".format(
                        name, len(values), size
                    )
                )
            self.values = values
        self._index = {value: i for i, value in enumerate(self.values)}
        if len(self._index) != size:
            raise ValueError("field {!r} has duplicate values".format(name))

    def index_of(self, value: object) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(
                "{!r} is not a value of field {!r} (domain: {!r})".format(
                    value, self.name, self.values
                )
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "flag" if self.boolean else "enum[{}]".format(self.size)
        return "Field({}:{})".format(self.name, kind)


#: Stands for "no formula asked yet" in :meth:`StateSchema.truth`.
_NOTHING = object()


class StateSchema:
    """An ordered collection of fields defining the agent state space.

    The schema assigns each full assignment a unique integer code in
    ``range(self.num_states)`` via mixed-radix packing.  Schemas are
    *extensible before freezing*: protocol composition adds the fields of
    each thread to one shared schema (the paper's shared pool of state
    variables).
    """

    def __init__(self, fields: Iterable[Field] = ()):  # noqa: D401
        self.fields: List[Field] = []
        # name -> (field, stride): the field's digit of a code is
        # ``code // stride % field.size``; strides never change once set,
        # because a new field only ever becomes the most significant digit
        self._slots: Dict[str, Tuple[Field, int]] = {}
        self._layout: List[Tuple[str, int, Tuple[object, ...]]] = []
        self._num_states = 1
        self._frozen = False
        self._memos()
        for field in fields:
            self.add_field(field)

    def _memos(self) -> None:
        """Empty per-code memos (see truth() and values()); not pickled."""
        self._truth: Dict[Formula, _Truth] = {}
        self._last_truth: Tuple[object, Optional[_Truth]] = (_NOTHING, None)
        self._values: Dict[str, _Values] = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("_truth", "_last_truth", "_values"):
            del state[name]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._memos()

    # -- construction ------------------------------------------------------
    def add_field(self, field: Field) -> Field:
        if self._frozen:
            raise RuntimeError("schema is frozen; cannot add fields")
        if field.name in self._slots:
            raise ValueError("duplicate field name {!r}".format(field.name))
        self.fields.append(field)
        self._slots[field.name] = (field, self._num_states)
        self._layout.append((field.name, field.size, field.values))
        self._num_states *= field.size
        return field

    def flag(self, name: str) -> Field:
        """Declare a boolean state variable (the paper's default kind)."""
        return self.add_field(Field(name, 2, boolean=True))

    def flags(self, *names: str) -> List[Field]:
        return [self.flag(name) for name in names]

    def enum(self, name: str, size: int, values: Optional[Sequence[object]] = None) -> Field:
        """Declare a finite-domain state variable."""
        return self.add_field(Field(name, size, values=values))

    def freeze(self) -> "StateSchema":
        self._frozen = True
        return self

    # -- introspection -----------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(field.name for field in self.fields)

    def field(self, name: str) -> Field:
        try:
            return self._slots[name][0]
        except KeyError:
            raise KeyError(
                "no field {!r}; schema fields: {}".format(name, self.field_names)
            ) from None

    def has_field(self, name: str) -> bool:
        return name in self._slots

    def stride(self, name: str) -> int:
        """Place value of ``name``'s digit in a state code."""
        return self._slots[name][1]

    # -- packing -----------------------------------------------------------
    def pack(self, assignment: Mapping[str, object]) -> int:
        """Pack a complete or partial assignment into a state code.

        Unmentioned fields default to their first value (``False`` for
        flags, the first enum value otherwise).
        """
        code = 0
        unknown = []
        for name, value in assignment.items():
            slot = self._slots.get(name)
            if slot is None:
                unknown.append(name)
                continue
            code += slot[0].index_of(value) * slot[1]
        if unknown:
            raise ValueError(
                "assignment mentions unknown fields: {}".format(sorted(unknown))
            )
        return code

    def unpack(self, code: int) -> "State":
        """A mutable :class:`State` holding ``code``'s assignment."""
        return State(self, code)

    def view(self, code: int) -> "State":
        """A read-only :class:`State` view of ``code`` (what rules see)."""
        return _View(self, code)

    def decode(self, code: int) -> Dict[str, object]:
        """Return the full ``field -> value`` mapping for a state code."""
        out: Dict[str, object] = {}
        for name, size, values in self._layout:
            code, idx = divmod(code, size)
            out[name] = values[idx]
        return out

    def value_of(self, code: int, name: str) -> object:
        """Extract one field's value from a state code."""
        field, stride = self._slots[name]
        return field.values[code // stride % field.size]

    def with_values(self, code: int, assignment: Mapping[str, object]) -> int:
        """Return a new code equal to ``code`` with the given fields replaced."""
        code = int(code)
        for name, value in assignment.items():
            slot = self._slots.get(name)
            if slot is None:
                raise ValueError("unknown field {!r}".format(name))
            field, stride = slot
            code += (field.index_of(value) - code // stride % field.size) * stride
        return code

    def all_codes(self) -> Iterable[int]:
        return range(self.num_states)

    # -- formula truth -----------------------------------------------------
    def truth(self, formula: FormulaLike) -> "_Truth":
        """``truth(f)[code]``: whether state ``code`` satisfies ``f``.

        A :func:`~repro.core.formula.structural` formula's answers are
        memoized per code, one memo per structurally equal formula, so a
        formula rebuilt on every call still hits the same entry.  The memo
        stays valid when fields are added later: a field's stride never
        changes, so an existing code keeps its digits, and no answer was
        stored where evaluation read a field the schema lacked (it raised).
        Any other formula (one holding a
        :class:`~repro.core.formula.Predicate`) is evaluated on every read.
        Threads sharing a schema may fill the memo at once: every writer
        stores the same answer, so no lock is needed.
        """
        last, memo = self._last_truth
        if formula is last:
            # a stop predicate asks for the same formula object every call
            return memo
        if not isinstance(formula, Formula):
            formula = coerce_formula(formula)
        memo = self._truth.get(formula)
        if memo is None:
            memo = _Truth(self, formula, structural(formula))
            if not memo.keep:
                return memo
            self._truth[formula] = memo
        self._last_truth = formula, memo
        return memo

    def values(self, name: str) -> "_Values":
        """``values(name)[code]``: field ``name``'s value in state ``code``,
        decoded on a code's first read and memoized (the schema-side
        counterpart of :meth:`value_of` for observers that read the same
        codes over and over)."""
        memo = self._values.get(name)
        if memo is None:
            memo = self._values[name] = _Values(self, name)
        return memo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StateSchema({} fields, {} states)".format(
            len(self.fields), self.num_states
        )


class _Truth(dict):
    """``code -> bool`` for one formula, evaluated on a code's first read.

    With ``keep`` off the answer is not stored, so every read evaluates.
    """

    __slots__ = ("schema", "formula", "keep")

    def __init__(self, schema: StateSchema, formula: Formula, keep: bool):
        super().__init__()
        self.schema = schema
        self.formula = formula
        self.keep = keep

    def __missing__(self, code: int) -> bool:
        value = bool(self.formula.evaluate(self.schema.unpack(code)))
        if self.keep:
            self[code] = value
        return value


class _Values(dict):
    """``code -> value`` of one field, decoded on a code's first read."""

    __slots__ = ("schema", "name")

    def __init__(self, schema: StateSchema, name: str):
        super().__init__()
        self.schema = schema
        self.name = name

    def __missing__(self, code: int) -> object:
        value = self[code] = self.schema.value_of(code, self.name)
        return value


class State:
    """A view over a single agent's state.

    Supports mapping access (``state['L']``), attribute access
    (``state.L``) and, unless read-only, assignment through either.  The
    code is kept up to date on every assignment, so ``state.code`` is free.
    :meth:`StateSchema.view` makes the read-only views that
    :meth:`~repro.core.protocol.Protocol.transition` shares between all
    rules of a row; :meth:`copy` gives a mutable copy (what branch updates
    and effect callables write to).
    """

    __slots__ = ("_schema", "_values", "_code")

    def __init__(self, schema: StateSchema, code: int = 0):
        code = int(code)
        _set_schema(self, schema)
        _set_values(self, schema.decode(code))
        _set_code(self, code)

    @property
    def schema(self) -> StateSchema:
        return self._schema

    @property
    def code(self) -> int:
        return self._code

    def copy(self) -> "State":
        """A mutable copy (also of a read-only view)."""
        clone = State.__new__(State)
        _set_schema(clone, self._schema)
        _set_values(clone, dict(self._values))
        _set_code(clone, self._code)
        return clone

    def as_dict(self) -> Dict[str, object]:
        return dict(self._values)

    def update(self, assignment: Mapping[str, object]) -> None:
        for name, value in assignment.items():
            self[name] = value

    # -- mapping access ----------------------------------------------------
    def __getitem__(self, name: str) -> object:
        try:
            return self._values[name]
        except KeyError:
            raise KeyError(
                "no field {!r}; schema fields: {}".format(
                    name, self._schema.field_names
                )
            ) from None

    def __setitem__(self, name: str, value: object) -> None:
        field = self._schema.field(name)
        new = field.index_of(value)  # validates
        old = field.index_of(self._values[name])
        _set_code(self, self._code + (new - old) * self._schema.stride(name))
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    # -- attribute access --------------------------------------------------
    def __getattr__(self, name: str) -> object:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: object) -> None:
        self[name] = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, State)
            and other._schema is self._schema
            and other._values == self._values
        )

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = {
            k: v
            for k, v in self._values.items()
            if v is not False and v != 0
        }
        return "State({})".format(on)


# the slots' own setters: ``State.__setattr__`` is field assignment
_set_schema = State._schema.__set__
_set_values = State._values.__set__
_set_code = State._code.__set__


class _View(State):
    """A read-only :class:`State`: what :meth:`StateSchema.view` returns."""

    __slots__ = ()

    def __setitem__(self, name: str, value: object) -> None:
        raise TypeError(
            "cannot set {!r}: this state view is read-only (rules get "
            "shared views; write to a copy())".format(name)
        )
