"""Internal sensors: the ``NOTICE`` entry point of the LIS.

BRISK applications call ``NOTICE`` macros that write a dynamically typed
record into the node's ring buffer; the raw local time comes from
``gettimeofday`` inside the macro (the EXS adds the clock-sync correction
later, before shipment).  The paper stresses two flexibility/performance
points that this module reproduces:

* **dynamic typing for convenience** — :meth:`Sensor.notice` takes
  ``(FieldType, value)`` pairs and validates them, like the stock
  eight-field macros;
* **on-demand specialization for speed** — the paper ships a utility tool
  that generates custom ``NOTICE`` macros for a user schema ("an on-demand
  partial evaluation/specialization of sensors that results in smaller and
  faster code").  :func:`compile_notice` is that tool: given a
  :class:`RecordSchema` it *generates and compiles* a packing function
  specialized to the schema, bypassing per-field dispatch and validation.
  Benchmark E1/A2 measures the gap.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Sequence

from repro.core import native
from repro.core.plan import FIELD_CODES, SchemaPlan, plan_for
from repro.core.records import (
    DEFAULT_MAX_FIELDS,
    EventRecord,
    FieldType,
    RecordSchema,
    validate_field,
)
from repro.core.ringbuffer import RingBuffer
from repro.util.timebase import now_micros

ClockFn = Callable[[], int]


class Sensor:
    """A node-local internal sensor writing into a ring buffer.

    Parameters
    ----------
    ring:
        The LIS ring buffer shared with the external sensor.
    node_id:
        Identifier of this LIS; stamped into every record.
    clock:
        Microsecond clock; defaults to the real ``gettimeofday``
        (:func:`repro.util.timebase.now_micros`).  The simulator passes a
        :class:`repro.clocksync.clocks.DriftingClock` read instead.
    max_fields:
        Dynamic-notice field limit (eight, per the paper's stock macros).
        Specialized notices compiled for an explicit schema may exceed it,
        exactly as the paper's custom-macro tool may.
    """

    __slots__ = ("ring", "node_id", "clock", "max_fields", "emitted", "dropped")

    def __init__(
        self,
        ring: RingBuffer,
        node_id: int = 0,
        clock: ClockFn = now_micros,
        max_fields: int = DEFAULT_MAX_FIELDS,
    ) -> None:
        self.ring = ring
        self.node_id = node_id
        self.clock = clock
        self.max_fields = max_fields
        #: Records successfully written to the ring.
        self.emitted = 0
        #: Records the ring rejected (DROP_NEW overflow).
        self.dropped = 0

    # ------------------------------------------------------------------
    # dynamic NOTICE
    # ------------------------------------------------------------------
    def notice(self, event_id: int, *fields: tuple[FieldType, Any]) -> bool:
        """Emit one event with dynamically typed fields.

        ``fields`` are ``(FieldType, value)`` pairs.  Returns True when the
        record was written, False when the ring dropped it (so callers can
        account for intrusion-vs-completeness trade-offs without exceptions
        on the hot path).
        """
        if len(fields) > self.max_fields:
            raise ValueError(
                f"dynamic notice limited to {self.max_fields} fields; "
                f"use compile_notice() for wider records"
            )
        field_types: list[FieldType] = []
        values: list[Any] = []
        for ftype, value in fields:
            validate_field(ftype, value)
            field_types.append(ftype)
            values.append(value)
        record = EventRecord(
            event_id=event_id,
            timestamp=self.clock(),
            field_types=tuple(field_types),
            values=tuple(values),
            node_id=self.node_id,
        )
        return self._push(native.pack_record(record))

    def notice_record(self, record: EventRecord) -> bool:
        """Emit a pre-built record (timestamp and node stamped here)."""
        stamped = record.with_node(self.node_id).with_timestamp(self.clock())
        return self._push(native.pack_record(stamped))

    # ------------------------------------------------------------------
    # convenience typed notices (the stock macro family)
    # ------------------------------------------------------------------
    def notice_ints(self, event_id: int, *values: int) -> bool:
        """Emit an all-``X_INT`` record — the paper's benchmark workload
        ("simple looping applications using sensors having six fields of
        type integer")."""
        return self.notice(
            event_id, *((FieldType.X_INT, v) for v in values)
        )

    def notice_reason(self, event_id: int, reason_id: int, *fields) -> bool:
        """Emit a record providing causal identifier *reason_id*."""
        return self.notice(
            event_id, (FieldType.X_REASON, reason_id), *fields
        )

    def notice_conseq(self, event_id: int, conseq_id: int, *fields) -> bool:
        """Emit a record depending on causal identifier *conseq_id*."""
        return self.notice(
            event_id, (FieldType.X_CONSEQ, conseq_id), *fields
        )

    # ------------------------------------------------------------------
    def _push(self, payload: bytes) -> bool:
        if self.ring.push_bytes(payload):
            self.emitted += 1
            return True
        self.dropped += 1
        return False


# ----------------------------------------------------------------------
# specialization tool
# ----------------------------------------------------------------------

def compile_notice(
    schema: RecordSchema | Sequence[FieldType],
) -> Callable[[Sensor, int, Any], bool]:
    """Generate a packing function specialized to *schema*.

    This reproduces the paper's custom-NOTICE utility: for a fixed field
    layout the entire native record (header + field tags + payload) is
    emitted by **one** precompiled ``struct`` pack call — no per-field
    dispatch, no validation, no intermediate :class:`EventRecord`.  The
    returned callable has the signature ``fast_notice(sensor, event_id,
    *values) -> bool``.

    Schemas containing variable-length fields (``X_STRING``/``X_OPAQUE``)
    cannot be fully pre-sized; for those the schema's compiled native pack
    (:mod:`repro.core.plan`) emits one ``struct`` call per run of
    fixed-size fields and splices in each encoded string/opaque.
    """
    if not isinstance(schema, RecordSchema):
        schema = RecordSchema(tuple(schema))
    types = schema.field_types
    has_var = any(
        t in (FieldType.X_STRING, FieldType.X_OPAQUE) for t in types
    )
    flags = native.FLAG_CAUSAL if schema.is_causal else 0
    n_fields = len(types)

    if not has_var:
        # One flat struct: header, then (tag, payload) per field.
        fmt = "<IIIHHq"
        for t in types:
            fmt += "B" + FIELD_CODES[t][0]
        packer = struct.Struct(fmt)
        total = packer.size
        tags = tuple(int(t) for t in types)

        def fast_notice(sensor: Sensor, event_id: int, *values: Any) -> bool:
            # Interleave tags and values without a Python-level loop body
            # per field: zip + chain is the cheapest portable spelling.
            interleaved: list[Any] = [None] * (2 * n_fields)
            interleaved[0::2] = tags
            interleaved[1::2] = values
            payload = packer.pack(
                total,
                event_id,
                sensor.node_id,
                n_fields,
                flags,
                sensor.clock(),
                *interleaved,
            )
            if sensor.ring.push_bytes(payload):
                sensor.emitted += 1
                return True
            sensor.dropped += 1
            return False

        fast_notice.__name__ = f"notice_{'_'.join(t.name[2:].lower() for t in types)}"
        fast_notice.schema = schema  # type: ignore[attr-defined]
        fast_notice.wire_struct = packer  # type: ignore[attr-defined]
        return fast_notice

    plan = plan_for(types) or SchemaPlan(types)
    pack = plan.native_pack

    def flexible_notice(sensor: Sensor, event_id: int, *values: Any) -> bool:
        if sensor.ring.push_bytes(pack(event_id, sensor.node_id, sensor.clock(), values)):
            sensor.emitted += 1
            return True
        sensor.dropped += 1
        return False

    flexible_notice.schema = schema  # type: ignore[attr-defined]
    return flexible_notice
