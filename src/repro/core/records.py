"""Event records and their dynamic field-type system.

BRISK's internal sensors write *dynamically typed* records: each field
carries its own type tag, chosen from "over ten basic types ... ranging from
bytes, to floats, to null-terminated strings", plus three *system* types used
for coordination between BRISK, the application, and analysis tools:

* ``X_TS`` — embeds BRISK's internal timestamp (eight-byte microseconds UTC),
* ``X_REASON`` / ``X_CONSEQ`` — mark causally-related events by a ``u_long``
  identifier so the ISM can enforce reason-before-consequence ordering even
  when clock synchronization leaves tachyons.

Type codes fit in four bits, which is what makes the transfer protocol's
*compressed meta-information header* possible (two field types per byte; see
:mod:`repro.wire.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterator, Sequence

from repro.util.timebase import check_timestamp

_U32_MAX = 2**32 - 1


class FieldType(IntEnum):
    """Wire type tags for record fields.

    The numeric values are part of the wire format: they are packed two per
    byte into the compressed meta header, so they must stay within a nibble
    (0..14; 15 is the header's end-of-fields sentinel).
    """

    # --- basic data types (the paper's "over ten basic types") ----------
    X_BYTE = 0       #: signed 8-bit integer
    X_UBYTE = 1      #: unsigned 8-bit integer
    X_SHORT = 2      #: signed 16-bit integer
    X_USHORT = 3     #: unsigned 16-bit integer
    X_INT = 4        #: signed 32-bit integer
    X_UINT = 5       #: unsigned 32-bit integer
    X_HYPER = 6      #: signed 64-bit integer
    X_UHYPER = 7     #: unsigned 64-bit integer
    X_FLOAT = 8      #: IEEE-754 single precision
    X_DOUBLE = 9     #: IEEE-754 double precision
    X_STRING = 10    #: null-terminated string (length-prefixed on the wire)
    X_OPAQUE = 11    #: raw bytes
    # --- system types ----------------------------------------------------
    X_TS = 12        #: embedded BRISK timestamp (microseconds UTC, int64)
    X_REASON = 13    #: causal "reason" marker (u_long identifier)
    X_CONSEQ = 14    #: causal "consequence" marker (u_long identifier)


#: The coordination types of §3.2; everything else is application data.
SYSTEM_FIELD_TYPES = frozenset(
    {FieldType.X_TS, FieldType.X_REASON, FieldType.X_CONSEQ}
)

#: Meta-header sentinel: "no more fields".  Never a valid FieldType.
FIELD_TYPE_END = 15

#: Default NOTICE macros support up to eight dynamically typed fields; the
#: specialization tool (``compile_notice``) can exceed this, mirroring the
#: paper's custom-macro utility.
DEFAULT_MAX_FIELDS = 8

# Integer range per integral field type, used for eager validation so a bad
# value is rejected in the application (cheap, debuggable) instead of
# corrupting a batch at the EXS.
_INT_RANGES: dict[FieldType, tuple[int, int]] = {
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

def validate_field(ftype: FieldType, value: Any) -> None:
    """Raise :class:`TypeError`/:class:`ValueError` unless *value* is a
    legal payload for *ftype*."""
    if ftype in _INT_RANGES:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{ftype.name} field requires int, got {type(value).__name__}")
        lo, hi = _INT_RANGES[ftype]
        if not lo <= value <= hi:
            raise ValueError(f"{ftype.name} value {value} outside [{lo}, {hi}]")
    elif ftype in (FieldType.X_FLOAT, FieldType.X_DOUBLE):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"{ftype.name} field requires float, got {type(value).__name__}")
    elif ftype is FieldType.X_STRING:
        if not isinstance(value, str):
            raise TypeError(f"X_STRING field requires str, got {type(value).__name__}")
        if "\x00" in value:
            # The C representation is null-terminated; an embedded NUL would
            # silently truncate for C consumers, so reject it here.
            raise ValueError("X_STRING value contains an embedded NUL")
    elif ftype is FieldType.X_OPAQUE:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"X_OPAQUE field requires bytes, got {type(value).__name__}")
    else:  # pragma: no cover - exhaustive over FieldType
        raise TypeError(f"unknown field type {ftype!r}")


@dataclass(frozen=True, slots=True)
class RecordSchema:
    """An ordered tuple of field types describing one kind of event record.

    Schemas are what the paper's custom-``NOTICE``-macro utility produces:
    a sensor specialized to a schema skips per-field dynamic dispatch.  A
    schema is hashable so the ISM and consumers can key statistics by it.
    """

    field_types: tuple[FieldType, ...]

    def __post_init__(self) -> None:
        for ftype in self.field_types:
            if not isinstance(ftype, FieldType):
                raise TypeError(f"schema entries must be FieldType, got {ftype!r}")

    def __len__(self) -> int:
        return len(self.field_types)

    def __iter__(self) -> Iterator[FieldType]:
        return iter(self.field_types)

    @property
    def has_embedded_ts(self) -> bool:
        """True when the schema embeds an ``X_TS`` user field."""
        return FieldType.X_TS in self.field_types

    @property
    def is_causal(self) -> bool:
        """True when the schema carries any causal marker field."""
        return (
            FieldType.X_REASON in self.field_types
            or FieldType.X_CONSEQ in self.field_types
        )

    def validate(self, values: Sequence[Any]) -> None:
        """Validate one value tuple against the schema."""
        if len(values) != len(self.field_types):
            raise ValueError(
                f"schema has {len(self.field_types)} fields, "
                f"got {len(values)} values"
            )
        for ftype, value in zip(self.field_types, values):
            validate_field(ftype, value)

    def payload_wire_size(self, values: Sequence[Any]) -> int:
        """XDR payload bytes for *values* (excludes meta header/timestamp)."""
        from repro.core.plan import wire_payload_size  # the plan module builds on this one

        return wire_payload_size(self.field_types, values)


#: Interned schemas, keyed by their (canonical) field-type tuple.  Interning
#: makes ``EventRecord.schema`` O(1) after first use and gives the wire
#: layer's per-schema codec cache a stable identity to key on.  The cap is a
#: backstop against an adversarial stream minting unbounded distinct schemas;
#: past it schemas are still built, just not retained.
_SCHEMA_CACHE: dict[tuple[FieldType, ...], RecordSchema] = {}
_SCHEMA_CACHE_CAP = 4096


def intern_schema(field_types: Sequence[FieldType]) -> RecordSchema:
    """Return the canonical :class:`RecordSchema` for *field_types*.

    Equal field-type tuples yield the *same* schema object, and the
    returned schema's ``field_types`` is the canonical tuple — callers on
    hot paths (the EXS drain loop, the wire decoder) substitute it for
    their own copy so later identity checks short-circuit.
    """
    ft = field_types if type(field_types) is tuple else tuple(field_types)
    schema = _SCHEMA_CACHE.get(ft)
    if schema is None:
        schema = RecordSchema(ft)
        if len(_SCHEMA_CACHE) < _SCHEMA_CACHE_CAP:
            _SCHEMA_CACHE[schema.field_types] = schema
    return schema


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One instrumentation event.

    Attributes mirror what the NOTICE macro writes into the ring buffer plus
    the identity the EXS attaches before shipment:

    * ``event_id`` — the application-chosen event/sensor identifier,
    * ``timestamp`` — microseconds UTC.  At the sensor this is the raw local
      ``gettimeofday``; the external sensor adds its clock-sync correction
      before the record leaves the node (:meth:`with_timestamp`),
    * ``node_id`` — which LIS produced the record (0 until the EXS stamps it),
    * ``field_types`` / ``values`` — the dynamically typed payload.
    """

    event_id: int
    timestamp: int
    field_types: tuple[FieldType, ...] = ()
    values: tuple[Any, ...] = ()
    node_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.event_id <= _U32_MAX:
            raise ValueError(f"event_id {self.event_id} outside u32 range")
        if not 0 <= self.node_id <= _U32_MAX:
            raise ValueError(f"node_id {self.node_id} outside u32 range")
        check_timestamp(self.timestamp)
        if len(self.field_types) != len(self.values):
            raise ValueError(
                f"{len(self.field_types)} field types but {len(self.values)} values"
            )

    # ------------------------------------------------------------------
    # construction from trusted sources
    # ------------------------------------------------------------------
    @classmethod
    def from_wire(
        cls,
        event_id: int,
        timestamp: int,
        field_types: tuple[FieldType, ...],
        values: tuple[Any, ...],
        node_id: int = 0,
    ) -> "EventRecord":
        """Build a record from already-validated data, skipping validation.

        Decoded wire payloads were validated once at the sensor and again
        structurally by the codec (field widths bound every integral value,
        so range checks cannot fail); re-running ``__post_init__`` per
        record is pure overhead on the ISM's decode hot path.  Only use
        this with values that came out of a codec — hand-built records must
        go through the normal constructor.
        """
        rec = object.__new__(cls)
        _set = object.__setattr__
        _set(rec, "event_id", event_id)
        _set(rec, "timestamp", timestamp)
        _set(rec, "field_types", field_types)
        _set(rec, "values", values)
        _set(rec, "node_id", node_id)
        return rec

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RecordSchema:
        """The record's schema (types only, not values), interned."""
        return intern_schema(self.field_types)

    def fields_of_type(self, ftype: FieldType) -> tuple[Any, ...]:
        """All values whose field type equals *ftype*, in order."""
        return tuple(
            v for t, v in zip(self.field_types, self.values) if t is ftype
        )

    @property
    def reason_ids(self) -> tuple[int, ...]:
        """Causal identifiers this record *provides* (X_REASON fields)."""
        return self.fields_of_type(FieldType.X_REASON)

    @property
    def conseq_ids(self) -> tuple[int, ...]:
        """Causal identifiers this record *depends on* (X_CONSEQ fields)."""
        return self.fields_of_type(FieldType.X_CONSEQ)

    @property
    def is_causal(self) -> bool:
        """True when the record carries any causal marker."""
        return bool(self.reason_ids) or bool(self.conseq_ids)

    # ------------------------------------------------------------------
    # functional updates (records are frozen; the pipeline rewrites them)
    # ------------------------------------------------------------------
    def with_timestamp(self, timestamp: int) -> "EventRecord":
        """Return a copy with a corrected timestamp.

        Used by the EXS (clock-sync correction before shipment) and the
        ISM's causal matcher (tachyon override, §3.6).  Any embedded
        ``X_TS`` user fields holding the old timestamp are shifted by the
        same delta so the record stays self-consistent.
        """
        delta = timestamp - self.timestamp
        if delta == 0:
            return self
        if FieldType.X_TS in self.field_types:
            values = tuple(
                v + delta if t is FieldType.X_TS else v
                for t, v in zip(self.field_types, self.values)
            )
        else:
            values = self.values
        return EventRecord(
            event_id=self.event_id,
            timestamp=check_timestamp(timestamp),
            field_types=self.field_types,
            values=values,
            node_id=self.node_id,
        )

    def with_node(self, node_id: int) -> "EventRecord":
        """Return a copy stamped with the producing node's identifier."""
        if node_id == self.node_id:
            return self
        return EventRecord(
            event_id=self.event_id,
            timestamp=self.timestamp,
            field_types=self.field_types,
            values=self.values,
            node_id=node_id,
        )

    def sort_key(self) -> tuple[int, int, int]:
        """Total-order key used by the ISM's on-line sorter.

        Primary key is the corrected timestamp; node and event identifiers
        break ties deterministically so replays of the same trace always
        produce the same output order.
        """
        return (self.timestamp, self.node_id, self.event_id)
