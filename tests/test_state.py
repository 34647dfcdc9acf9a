"""Tests for state schemas, packing and state views."""

import pytest

from repro.core import Field, StateSchema


@pytest.fixture
def schema():
    s = StateSchema()
    s.flag("L")
    s.enum("phase", 5)
    s.enum("species", 3, values=("A1", "A2", "A3"))
    return s


class TestField:
    def test_boolean_values(self):
        f = Field("L", 2, boolean=True)
        assert f.values == (False, True)

    def test_enum_default_values(self):
        f = Field("phase", 4)
        assert f.values == (0, 1, 2, 3)

    def test_named_values(self):
        f = Field("sp", 2, values=("x", "y"))
        assert f.index_of("y") == 1

    def test_unknown_value_rejected(self):
        f = Field("sp", 2, values=("x", "y"))
        with pytest.raises(ValueError):
            f.index_of("z")

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            Field("sp", 2, values=("x", "x"))

    def test_size_value_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field("sp", 3, values=("x", "y"))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Field("sp", 0)


class TestSchema:
    def test_num_states(self, schema):
        assert schema.num_states == 2 * 5 * 3

    def test_duplicate_field_rejected(self, schema):
        with pytest.raises(ValueError):
            schema.flag("L")

    def test_pack_defaults(self, schema):
        code = schema.pack({})
        assert schema.decode(code) == {"L": False, "phase": 0, "species": "A1"}

    def test_pack_unpack_roundtrip(self, schema):
        assignment = {"L": True, "phase": 3, "species": "A2"}
        code = schema.pack(assignment)
        assert schema.decode(code) == assignment

    def test_pack_unknown_field_rejected(self, schema):
        with pytest.raises(ValueError):
            schema.pack({"nope": True})

    def test_value_of(self, schema):
        code = schema.pack({"phase": 4, "species": "A3"})
        assert schema.value_of(code, "phase") == 4
        assert schema.value_of(code, "species") == "A3"
        assert schema.value_of(code, "L") is False

    def test_with_values(self, schema):
        code = schema.pack({"L": True, "phase": 1})
        new_code = schema.with_values(code, {"phase": 2})
        assert schema.value_of(new_code, "phase") == 2
        assert schema.value_of(new_code, "L") is True

    def test_with_values_unknown_field(self, schema):
        with pytest.raises(ValueError):
            schema.with_values(0, {"nope": 1})

    def test_all_codes_distinct(self, schema):
        decodes = {tuple(sorted(schema.decode(c).items())) for c in schema.all_codes()}
        assert len(decodes) == schema.num_states

    def test_frozen_schema_rejects_fields(self, schema):
        schema.freeze()
        with pytest.raises(RuntimeError):
            schema.flag("new")

    def test_field_lookup_error_lists_fields(self, schema):
        with pytest.raises(KeyError, match="phase"):
            schema.field("missing")


class TestStateView:
    def test_attribute_access(self, schema):
        state = schema.unpack(schema.pack({"L": True, "phase": 2}))
        assert state.L is True
        assert state.phase == 2

    def test_item_access_and_mutation(self, schema):
        state = schema.unpack(0)
        state["phase"] = 4
        assert state["phase"] == 4
        assert schema.value_of(state.code, "phase") == 4

    def test_attribute_mutation(self, schema):
        state = schema.unpack(0)
        state.L = True
        assert state.code == schema.pack({"L": True})

    def test_invalid_value_rejected(self, schema):
        state = schema.unpack(0)
        with pytest.raises(ValueError):
            state["phase"] = 99

    def test_unknown_field_rejected(self, schema):
        state = schema.unpack(0)
        with pytest.raises(KeyError):
            state["nope"]

    def test_copy_is_independent(self, schema):
        state = schema.unpack(0)
        clone = state.copy()
        clone.L = True
        assert state.L is False

    def test_update(self, schema):
        state = schema.unpack(0)
        state.update({"L": True, "species": "A3"})
        assert state.L and state.species == "A3"

    def test_equality(self, schema):
        a = schema.unpack(schema.pack({"phase": 1}))
        b = schema.unpack(schema.pack({"phase": 1}))
        assert a == b

    def test_code_roundtrip(self, schema):
        for code in (0, 7, schema.num_states - 1):
            assert schema.unpack(code).code == code

    def test_code_tracks_assignments(self, schema):
        state = schema.unpack(0)
        state.species = "A3"
        state["phase"] = 4
        assert state.code == schema.pack({"species": "A3", "phase": 4})


class TestReadOnlyView:
    def test_view_reads(self, schema):
        code = schema.pack({"L": True, "phase": 3})
        view = schema.view(code)
        assert view.code == code
        assert view.L is True and view["phase"] == 3

    @pytest.mark.parametrize("write", [
        lambda v: v.__setitem__("phase", 1),
        lambda v: setattr(v, "L", True),
        lambda v: v.update({"species": "A2"}),
    ], ids=["item", "attribute", "update"])
    def test_view_rejects_writes(self, schema, write):
        view = schema.view(0)
        with pytest.raises(TypeError, match="read-only"):
            write(view)
        assert view.code == 0 and view.phase == 0

    def test_copy_of_view_is_mutable(self, schema):
        view = schema.view(0)
        clone = view.copy()
        clone.phase = 2
        assert clone.code == schema.pack({"phase": 2})
        assert view.phase == 0
