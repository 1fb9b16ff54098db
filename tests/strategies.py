"""Shared hypothesis strategies: field values, schemas, records, batches,
control messages.

Schemas span every shape the record codecs tell apart: fixed-size and
variable-length (``X_STRING``/``X_OPAQUE``), wider than six fields (the
compressed meta header's extension words), ``X_TS`` fields (which shift
under a clock correction) and causal markers (the native causal flag).
"""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from repro.core.filtering import FIELD_TEST_OPS, FieldTest
from repro.core.records import EventRecord, FieldType
from repro.wire import protocol

INT_RANGES = {
    FieldType.X_BYTE: (-(2**7), 2**7 - 1),
    FieldType.X_UBYTE: (0, 2**8 - 1),
    FieldType.X_SHORT: (-(2**15), 2**15 - 1),
    FieldType.X_USHORT: (0, 2**16 - 1),
    FieldType.X_INT: (-(2**31), 2**31 - 1),
    FieldType.X_UINT: (0, 2**32 - 1),
    FieldType.X_HYPER: (-(2**63), 2**63 - 1),
    FieldType.X_UHYPER: (0, 2**64 - 1),
    FieldType.X_TS: (-(2**63), 2**63 - 1),
    FieldType.X_REASON: (0, 2**32 - 1),
    FieldType.X_CONSEQ: (0, 2**32 - 1),
}

# Printable text without NUL for X_STRING (the C representation is
# null-terminated).
text = st.text(
    alphabet=st.characters(blacklist_characters="\x00", codec="utf-8"),
    max_size=40,
)


def field_values(ftype: FieldType):
    """Valid values of one field type (floats exact in their width)."""
    if ftype in INT_RANGES:
        lo, hi = INT_RANGES[ftype]
        return st.integers(min_value=lo, max_value=hi)
    if ftype is FieldType.X_FLOAT:
        return st.floats(width=32, allow_nan=False)
    if ftype is FieldType.X_DOUBLE:
        return st.floats(allow_nan=False)
    if ftype is FieldType.X_STRING:
        return text
    return st.binary(max_size=40)


def schemas(max_fields: int = 8):
    """Field-type tuples of up to *max_fields* fields, any types."""
    return st.lists(st.sampled_from(list(FieldType)), max_size=max_fields).map(tuple)


@st.composite
def records(draw, max_fields: int = 8, schema: tuple | None = None) -> EventRecord:
    """One valid record of *schema*, or of a drawn schema."""
    types = draw(schemas(max_fields)) if schema is None else schema
    return EventRecord(
        event_id=draw(st.integers(0, 2**32 - 1)),
        timestamp=draw(st.integers(-(2**62), 2**62)),
        field_types=types,
        values=tuple(draw(field_values(t)) for t in types),
        node_id=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def batches(draw, max_fields: int = 16) -> list[EventRecord]:
    """Records of a few schemas, interleaved: schema runs start and break
    the way a real EXS drain produces them."""
    kinds = draw(st.lists(schemas(max_fields), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(kinds), max_size=12))
    return [draw(records(schema=schema)) for schema in picks]


# ----------------------------------------------------------------------
# control messages, drawn from their declarations
# ----------------------------------------------------------------------

_uint32 = st.integers(0, 2**32 - 1)
_CONTROL_SCALARS = {
    protocol.UINT["xdr"]: _uint32,
    protocol.INT["xdr"]: st.integers(-(2**31), 2**31 - 1),
    protocol.HYPER["xdr"]: st.integers(-(2**63), 2**63 - 1),
    protocol.BOOL["xdr"]: st.booleans(),
    protocol.FLAG["xdr"]: st.booleans(),
}
_field_tests = st.builds(
    FieldTest,
    st.integers(0, 254),
    st.sampled_from(FIELD_TEST_OPS),
    st.one_of(st.integers(-(2**63), 2**63 - 1), st.floats(allow_nan=False)),
)
#: Containers by declared type; element counts stay small, far inside
#: every wire bound.
_CONTROL_CONTAINERS = {
    "str": text,
    "tuple[int, ...]": st.lists(_uint32, max_size=6).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(
        st.tuples(_uint32, _uint32), max_size=6
    ).map(tuple),
    "tuple[FieldTest, ...]": st.lists(_field_tests, max_size=4).map(tuple),
}


def control_field_values(f: dataclasses.Field):
    """In-range values of one declared control-message field."""
    scalar = _CONTROL_SCALARS.get(f.metadata["xdr"])
    return scalar if scalar is not None else _CONTROL_CONTAINERS[f.type]


def control_messages(classes=tuple(protocol.CONTROL_MESSAGES.values())):
    """Any control message of *classes*, every field drawn in range."""
    return st.sampled_from(classes).flatmap(
        lambda cls: st.builds(
            cls,
            **{f.name: control_field_values(f) for f in dataclasses.fields(cls)},
        )
    )
