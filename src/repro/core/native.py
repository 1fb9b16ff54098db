"""Native binary record layout.

This is the reproduction of "the same binary structure used by the NOTICE
macros": the compact, *node-local* representation that internal sensors write
into the shared-memory ring buffer and that the ISM writes into its output
memory buffer for consumer tools.  It is deliberately distinct from the XDR
wire format — memory transfers between processes on one node do not pay for
heterogeneity, so this layout is little-endian with natural field sizes and
no alignment padding.

Layout of one record::

    u32  total_length      (bytes, including this header)
    u32  event_id
    u32  node_id
    u16  n_fields
    u16  flags             (bit 0: record carries causal markers)
    i64  timestamp         (microseconds UTC)
    then per field:
      u8   field type      (FieldType value)
      payload              (native size; strings/opaque: u32 length + bytes)
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.plan import (
    FIELD_CODES,
    FLAG_CAUSAL,
    NATIVE_HEADER,
    PACK_ERRORS,
    native_match,
    plan_for,
)
from repro.core.records import EventRecord, FieldType, intern_schema
from repro.util.timebase import check_timestamp

HEADER = NATIVE_HEADER
HEADER_SIZE = HEADER.size  # 24 bytes

#: Per-field structs of the reference codec, from the plan's one table.
_FIELD_STRUCTS = {t: struct.Struct("<" + codes[0]) for t, codes in FIELD_CODES.items()}
_LEN = struct.Struct("<I")
_TYPE = struct.Struct("<B")


class NativeCodecError(ValueError):
    """A buffer does not hold a valid native-layout record."""


def pack_record(record: EventRecord) -> bytes:
    """Serialize *record* into the native node-local layout."""
    plan = plan_for(record.field_types)
    if plan is not None:
        try:
            return plan.native_pack(
                record.event_id, record.node_id, record.timestamp, record.values
            )
        except PACK_ERRORS:
            pass  # the per-field codec raises the canonical error
    return pack_fields(record)


def pack_fields(record: EventRecord) -> bytes:
    """The per-field reference packer the compiled plans are tested against."""
    parts: list[bytes] = []
    for ftype, value in zip(record.field_types, record.values):
        parts.append(_TYPE.pack(ftype))
        codec = _FIELD_STRUCTS.get(ftype)
        if codec is not None:
            parts.append(codec.pack(value))
        else:
            data = value.encode("utf-8") if ftype is FieldType.X_STRING else bytes(value)
            parts.append(_LEN.pack(len(data)))
            parts.append(data)
    body = b"".join(parts)
    flags = FLAG_CAUSAL if record.is_causal else 0
    header = HEADER.pack(
        HEADER_SIZE + len(body),
        record.event_id,
        record.node_id,
        len(record.field_types),
        flags,
        record.timestamp,
    )
    return header + body


def packed_size(record: EventRecord) -> int:
    """Size in bytes :func:`pack_record` produces for *record*."""
    return len(pack_record(record))


def unpack_record(buf, offset: int = 0) -> tuple[EventRecord, int]:
    """Deserialize one record from *buf* at *offset*.

    Returns ``(record, next_offset)``.  Raises :class:`NativeCodecError` on
    truncation, an unknown field type or invalid UTF-8 in a string.

    A record of a schema seen before decodes through its compiled plan;
    the first of each schema takes the per-field path, which compiles the
    plan for the rest.
    """
    if offset + HEADER_SIZE <= len(buf):
        total, event_id, node_id, n_fields, _flags, timestamp = HEADER.unpack_from(
            buf, offset
        )
        if HEADER_SIZE <= total and offset + total <= len(buf):
            plan, values = native_match(buf, offset, total, n_fields)
            if plan is not None:
                record = EventRecord.from_wire(
                    event_id, timestamp, plan.field_types, values, node_id
                )
                return record, offset + total
    return unpack_fields(buf, offset)


def unpack_fields(buf, offset: int = 0) -> tuple[EventRecord, int]:
    """The per-field reference decoder: canonical errors, and the plan
    compiled (:func:`repro.core.plan.plan_for`) for every schema it parses."""
    buf_len = len(buf)
    if offset + HEADER_SIZE > buf_len:
        raise NativeCodecError("truncated record header")
    total, event_id, node_id, n_fields, _flags, timestamp = HEADER.unpack_from(
        buf, offset
    )
    end = offset + total
    if total < HEADER_SIZE or end > buf_len:
        raise NativeCodecError(f"record length {total} out of bounds")
    view = memoryview(buf)
    pos = offset + HEADER_SIZE
    field_types: list[FieldType] = []
    values: list[Any] = []
    for _ in range(n_fields):
        if pos + 1 > end:
            raise NativeCodecError("truncated field type tag")
        code = view[pos]
        pos += 1
        try:
            ftype = FieldType(code)
        except ValueError as exc:
            raise NativeCodecError(f"unknown field type {code}") from exc
        codec = _FIELD_STRUCTS.get(ftype)
        if codec is not None:
            if pos + codec.size > end:
                raise NativeCodecError("truncated fixed field payload")
            (value,) = codec.unpack_from(view, pos)
            pos += codec.size
        else:
            if pos + 4 > end:
                raise NativeCodecError("truncated length prefix")
            (length,) = _LEN.unpack_from(view, pos)
            pos += 4
            if pos + length > end:
                raise NativeCodecError("truncated variable field payload")
            value = bytes(view[pos : pos + length])
            pos += length
            if ftype is FieldType.X_STRING:
                try:
                    value = value.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise NativeCodecError(f"invalid UTF-8 in string field: {exc}") from exc
        field_types.append(ftype)
        values.append(value)
    if pos != end:
        raise NativeCodecError(f"{end - pos} stray bytes inside record")
    # Interning gives every record of one schema the same field-type tuple
    # (so the wire codec's identity checks hit), and the struct widths above
    # already bound every value — from_wire skips the redundant revalidation.
    interned = intern_schema(tuple(field_types)).field_types
    plan_for(interned)
    record = EventRecord.from_wire(event_id, timestamp, interned, tuple(values), node_id)
    return record, end


def unpack_record_stamped(
    buf, node_id: int, correction: int = 0
) -> EventRecord:
    """Decode one whole-buffer record with node and clock stamping fused in.

    The EXS poll loop decodes a ring payload and immediately rebuilds the
    record with the clock correction applied and its node identity stamped;
    fusing both into the decode constructs each record once instead of
    twice.  ``X_TS`` user fields shift with the timestamp, which is then
    range-checked as :meth:`EventRecord.with_timestamp` would.
    """
    plan = None
    if len(buf) >= HEADER_SIZE:
        total, event_id, _node, n_fields, _flags, timestamp = HEADER.unpack_from(buf, 0)
        if HEADER_SIZE <= total <= len(buf):
            plan, values = native_match(buf, 0, total, n_fields)
    if plan is None:
        record, _ = unpack_fields(buf)
        event_id, timestamp, field_types, values = (
            record.event_id, record.timestamp, record.field_types, record.values
        )
    else:
        field_types = plan.field_types
    if correction:
        timestamp += correction
        if FieldType.X_TS in field_types:
            check_timestamp(timestamp)
            values = tuple(
                v + correction if t is FieldType.X_TS else v
                for t, v in zip(field_types, values)
            )
    return EventRecord.from_wire(event_id, timestamp, field_types, values, node_id)


#: Byte offset of the timestamp inside the native header (<IIIHHq).
_TS_OFFSET = 16
_TS = struct.Struct("<q")


def timestamp_of(payload: bytes) -> int:
    """Read a packed record's timestamp without decoding the record.

    The EXS's multi-ring merge sorts drained payloads by this key; full
    decoding happens later (once) on the batching path.
    """
    if len(payload) < HEADER_SIZE:
        raise NativeCodecError("truncated record header")
    return _TS.unpack_from(payload, _TS_OFFSET)[0]


def unpack_all(buf) -> list[EventRecord]:
    """Deserialize every record packed back-to-back in *buf*."""
    records: list[EventRecord] = []
    offset = 0
    view = memoryview(buf)
    while offset < len(view):
        record, offset = unpack_record(view, offset)
        records.append(record)
    return records
