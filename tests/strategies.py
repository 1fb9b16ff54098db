"""Shared hypothesis strategies: field values, schemas, records, batches.

Schemas span every shape the record codecs tell apart: fixed-size and
variable-length (``X_STRING``/``X_OPAQUE``), wider than six fields (the
compressed meta header's extension words), ``X_TS`` fields (which shift
under a clock correction) and causal markers (the native causal flag).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.records import EventRecord, FieldType

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
