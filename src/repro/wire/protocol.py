"""BRISK message layer: XDR batches with compressed meta headers (§3.4).

The paper's transfer protocol does *not* use XDR "in the typical way, with
rpcgen and static typing": every record is dynamically typed, so each record
travels with a meta-information header describing its fields — and that
header is *compressed*, because "minimizing the slack in instrumentation
data messages is important".

Record wire layout (compressed meta, the default)::

    u32  event_id
    u32  meta          n_fields in the top byte; six 4-bit type codes in
                       the low 24 bits (extension words of eight codes each
                       follow for records wider than six fields)
    i64  timestamp     microseconds UTC (already EXS-corrected)
    ...  field payloads, XDR-encoded per type

A six-``X_INT``-field record therefore costs 4 + 4 + 8 + 6·4 = **40 bytes**,
the figure the paper reports.  With compression disabled (ablation A1) the
meta section degenerates to the naive XDR spelling — a counted array of
uint32 type codes — costing ``4 + 4·n`` bytes instead of ``4·ceil`` words.

An optional *delta timestamp* knob (one of the §2 tuning knobs; off by
default to match the paper's 40-byte figure) encodes each timestamp as a
32-bit delta against the batch's base timestamp, with an escape to the full
form for out-of-range deltas.

Control messages (``Hello`` … ``SetFilter``) share the connection with
batches; acks, resume, steering and the clock-synchronization algorithms in
:mod:`repro.clocksync` speak them.  Each is declared once, as its
dataclass: every field names its XDR codec in ``field(metadata=...)``, in
wire order, and :data:`CONTROL_MESSAGES` maps wire type ids to classes.
One generic encode/decode pair interprets those declarations.  Fields
marked trailing are the only extension mechanism: they end the class,
default to zero, and are written up to the last one that is set (XDR is
positional, so a later word forces the earlier ones out); the decoder reads
each only while a word remains.  A legacy frame therefore decodes with the
defaults, and an all-default message encodes to the legacy bytes.

A trailing field that needs a negotiated capability names its bit
(``_trailing(codec, cap=CAP_STEERING)``), and a message a legacy peer
cannot read at all declares its bit and its legacy form on the class
(:class:`AckBundle`).  :func:`encode_for` writes a message for one peer's
advertised bits, downgrading by those declarations; the batch writers
:func:`splice_batch` and :func:`compress_frame` take the peer's bits too.
A sending tier passes along the bits it learnt from the peer's
``Hello``/``HelloReply`` and tests none itself.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Any, Callable, ClassVar, Mapping, Sequence

from repro.core.filtering import FIELD_TEST_OPS, FieldTest, FilterSpec
from repro.core.plan import (
    PACK_ERRORS,
    SchemaPlan,
    compressed_meta_words,
    plan_at,
    plan_for,
    wire_payload_size,
)
from repro.core.records import FIELD_TYPE_END, EventRecord, FieldType
from repro.util.timebase import MAX_TIMESTAMP, MIN_TIMESTAMP
from repro.xdr import XdrDecodeError, XdrDecoder, XdrEncoder

#: Protocol magic: identifies a BRISK stream and its wire version.
MAGIC = 0xB215C001

#: Largest record width the meta header can express.
MAX_WIRE_FIELDS = 255

_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
#: Escape sentinel for the delta-timestamp encoding.
_DELTA_ESCAPE = _I32_MIN


class MsgType(IntEnum):
    """Top-level message discriminator."""

    BATCH = 1        #: instrumentation data batch (EXS → ISM)
    HELLO = 2        #: connection preamble (EXS → ISM)
    TIME_REQ = 3     #: clock-sync probe (ISM → EXS)
    TIME_REPLY = 4   #: clock-sync probe answer (EXS → ISM)
    ADJUST = 5       #: clock correction (ISM → EXS)
    BYE = 6          #: orderly shutdown (either direction)
    SET_FILTER = 7   #: push a source-side record filter (ISM → EXS)
    ACK = 8          #: cumulative batch acknowledgment (ISM → EXS)
    HELLO_REPLY = 9  #: resume point answering a Hello (ISM → EXS)
    HEARTBEAT = 10   #: idle-liveness beacon (EXS → ISM)
    COMPRESSED = 11  #: zlib envelope around one complete message payload
    ACK_BUNDLE = 12  #: per-cycle bundle of cumulative acks (ISM → relay)


#: Capability bits a peer advertises in ``Hello.capabilities`` and a
#: server answers in ``HelloReply.capabilities``.  Both fields ride the
#: trailing-word extension scheme, so capability negotiation is invisible
#: to legacy peers: a sender may only use a feature after the *receiving*
#: side advertised the matching bit.
CAP_COMPRESS = 0x1    #: receiver accepts ``MsgType.COMPRESSED`` envelopes
CAP_ACK_BUNDLE = 0x2  #: peer accepts ``MsgType.ACK_BUNDLE`` control frames
CAP_SEQ_RANGE = 0x4   #: receiver accepts coalesced batches with ``first_seq``
CAP_STEERING = 0x8    #: receiver accepts extended ``SetFilter`` frames
#: (epoch / routing target / field tests as trailing words)
_CAP_BITS = frozenset({CAP_COMPRESS, CAP_ACK_BUNDLE, CAP_SEQ_RANGE, CAP_STEERING})

#: Upper bound a COMPRESSED envelope may claim for its decompressed size;
#: a corrupt or hostile length word must not drive a giant allocation.
MAX_DECOMPRESSED_BYTES = 64 << 20


class ProtocolError(XdrDecodeError):
    """The stream is framed correctly but violates the BRISK protocol."""


# ----------------------------------------------------------------------
# control-message field codecs
# ----------------------------------------------------------------------

#: A control-message field's XDR codec: ``pack(enc, value)`` writes the
#: value, ``unpack(dec)`` reads it back (rejecting what the wire forbids).
Pack = Callable[[XdrEncoder, Any], None]
Unpack = Callable[[XdrDecoder], Any]

#: A SetFilter frame may carry at most this many field tests; the
#: compiled evaluator is a linear conjunction, so a hostile frame must
#: not smuggle an unbounded per-record loop into the EXS hot path.
MAX_FIELD_TESTS = 64


def _codec(pack: Pack, unpack: Unpack) -> dict[str, Any]:
    return {"xdr": (pack, unpack), "trailing": False, "cap": 0}


def _trailing(codec: dict[str, Any], cap: int = 0) -> dict[str, Any]:
    """*codec* as a trailing extension word: emitted only up to the last
    set one, read only while the frame has a word left.  With *cap* (one
    ``CAP_*`` bit) it is written as its default toward a peer that did not
    advertise the bit."""
    return {**codec, "trailing": True, "cap": cap}


UINT = _codec(XdrEncoder.pack_uint, XdrDecoder.unpack_uint)
INT = _codec(XdrEncoder.pack_int, XdrDecoder.unpack_int)
HYPER = _codec(XdrEncoder.pack_hyper, XdrDecoder.unpack_hyper)
#: Strict XDR bool: any word but 0 or 1 is rejected.
BOOL = _codec(XdrEncoder.pack_bool, XdrDecoder.unpack_bool)
#: A uint read as a bool leniently (any nonzero word is True), as legacy
#: ``Hello`` peers have always been read.
FLAG = _codec(
    lambda enc, value: enc.pack_uint(1 if value else 0),
    lambda dec: bool(dec.unpack_uint()),
)


def _string(max_length: int) -> dict[str, Any]:
    return _codec(
        XdrEncoder.pack_string, lambda dec: dec.unpack_string(max_length=max_length)
    )


def _uint_array(max_length: int) -> dict[str, Any]:
    return _codec(
        lambda enc, values: enc.pack_array(values, enc.pack_uint),
        lambda dec: tuple(dec.unpack_array(dec.unpack_uint, max_length=max_length)),
    )


def _pair_array(max_length: int) -> dict[str, Any]:
    """A counted array of ``(uint, uint)`` pairs."""

    def pack(enc: XdrEncoder, pairs: Sequence[tuple[int, int]]) -> None:
        enc.pack_uint(len(pairs))
        for first, second in pairs:
            enc.pack_uint(first)
            enc.pack_uint(second)

    def unpack(dec: XdrDecoder) -> tuple[tuple[int, int], ...]:
        count = dec.unpack_uint()
        if count > max_length:
            raise ProtocolError(f"pair array claims {count} entries")
        return tuple((dec.unpack_uint(), dec.unpack_uint()) for _ in range(count))

    return _codec(pack, unpack)


def _field_tests(max_length: int) -> dict[str, Any]:
    """A counted array of :class:`FieldTest`: field index, op code, value
    kind (0 = hyper, 1 = double) and value."""

    def pack(enc: XdrEncoder, tests: Sequence[FieldTest]) -> None:
        enc.pack_uint(len(tests))
        for test in tests:
            enc.pack_uint(test.field_index)
            enc.pack_uint(FIELD_TEST_OPS.index(test.op))
            if isinstance(test.value, float):
                enc.pack_uint(1)
                enc.pack_double(test.value)
            else:
                enc.pack_uint(0)
                enc.pack_hyper(test.value)

    def unpack(dec: XdrDecoder) -> tuple[FieldTest, ...]:
        count = dec.unpack_uint()
        if count > max_length:
            raise ProtocolError(f"SetFilter claims {count} field tests")
        tests = []
        for _ in range(count):
            field_index = dec.unpack_uint()
            op_code = dec.unpack_uint()
            if op_code >= len(FIELD_TEST_OPS):
                raise ProtocolError(f"unknown field-test op code {op_code}")
            value_kind = dec.unpack_uint()
            if value_kind == 1:
                value: int | float = dec.unpack_double()
            elif value_kind == 0:
                value = dec.unpack_hyper()
            else:
                raise ProtocolError(f"unknown field-test value kind {value_kind}")
            try:
                tests.append(FieldTest(field_index, FIELD_TEST_OPS[op_code], value))
            except ValueError as exc:
                raise ProtocolError(f"invalid field test: {exc}") from exc
        return tuple(tests)

    return _codec(pack, unpack)


# ----------------------------------------------------------------------
# message dataclasses
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Batch:
    """A batch of records from one external sensor.

    ``seq`` increments per batch per EXS; the ISM checks it to detect
    transport-level loss (impossible over healthy TCP, cheap to verify).

    A relay that coalesces several consecutive downstream batches into one
    upstream frame preserves the original sequence numbers: the coalesced
    frame carries ``seq`` = the *last* contained batch's sequence and
    ``first_seq`` = the first's, so the receiver's cumulative-ack and
    dedup watermarks keep their end-to-end meaning.  ``first_seq`` rides
    behind ``_FLAG_SEQ_RANGE``, which :func:`splice_batch` writes only
    toward peers that advertised :data:`CAP_SEQ_RANGE`; a plain batch is
    byte-identical to the original wire format.
    """

    exs_id: int
    seq: int
    records: tuple[EventRecord, ...]
    first_seq: int | None = None


@dataclass(frozen=True, slots=True)
class Hello:
    """Connection preamble identifying the EXS and its node."""

    exs_id: int = field(metadata=UINT)
    node_id: int = field(metadata=UINT)
    #: Event records/sec the sensor side was configured for; advisory,
    #: lets the ISM size its queues.
    advertised_rate: int = field(default=0, metadata=UINT)
    # The trailing words name no capability bit: they are the negotiation.
    #: Whether the sender consumes :class:`Ack`/:class:`HelloReply`
    #: traffic.  Encoded as a trailing word only when True, so a plain
    #: Hello is byte-identical to the original wire format and a
    #: fire-and-forget sender that never reads is never written to
    #: (writing to a peer that already closed raises an RST that can
    #: discard its still-buffered batches).
    wants_ack: bool = field(default=False, metadata=_trailing(FLAG))
    #: Capability bits (``CAP_*``) the sender can *receive*; it forces the
    #: ``wants_ack`` word out, which only capability-aware peers ever see.
    capabilities: int = field(default=0, metadata=_trailing(UINT))


@dataclass(frozen=True, slots=True)
class Ack:
    """Cumulative batch acknowledgment (ISM → EXS).

    ``up_to_seq`` is the highest batch sequence number the ISM has
    *admitted* (pushed past dedup into the sorter) for this EXS; every
    batch with ``seq <= up_to_seq`` may be released from the sender's
    in-flight outbox.  Acks are sent once per pump cycle, not per batch,
    so the acknowledgment traffic stays O(cycles) rather than O(batches).
    """

    exs_id: int = field(metadata=UINT)
    up_to_seq: int = field(metadata=UINT)


@dataclass(frozen=True, slots=True)
class HelloReply:
    """Answer to a Hello carrying the ISM's resume point (ISM → EXS).

    ``last_seq`` is the last admitted batch sequence for this EXS, or
    ``-1`` when the ISM holds no state for it (first contact, or a
    restarted ISM without resume state).  A reconnecting EXS drops
    outbox entries up to ``last_seq`` and retransmits the remainder, so
    the at-least-once wire converges to exactly-once delivery.

    ``capabilities`` answers the Hello's capability bits with the subset
    the server supports.  It is a trailing extension word emitted *only*
    toward peers whose Hello advertised capabilities — legacy decoders
    reject trailing bytes, and a legacy peer by definition sent none.
    """

    exs_id: int = field(metadata=UINT)
    last_seq: int = field(default=-1, metadata=INT)
    capabilities: int = field(default=0, metadata=_trailing(UINT))


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Idle-liveness beacon (EXS → ISM).

    Sent when the data path has been quiet for the heartbeat interval so
    the ISM's idle-deadline sweep can tell a quiet peer from a hung one.
    """

    exs_id: int = field(default=0, metadata=UINT)


@dataclass(frozen=True, slots=True)
class AckBundle:
    """Per-cycle bundle of cumulative acks (ISM → relay).

    A relay multiplexes many EXS streams over one connection; acking each
    per cycle as individual :class:`Ack` frames would make the control
    plane O(sources).  Peers that advertised :data:`CAP_ACK_BUNDLE`
    receive one bundle per pump cycle instead: ``acks`` holds
    ``(exs_id, up_to_seq)`` pairs with the same cumulative semantics as
    :class:`Ack`.  Any other peer receives :meth:`legacy`.
    """

    #: The bit a peer must have advertised to receive this message.
    requires: ClassVar[int] = CAP_ACK_BUNDLE

    acks: tuple[tuple[int, int], ...] = field(metadata=_pair_array(65536))

    def legacy(self) -> tuple[Ack, ...]:
        """One :class:`Ack` per pair, in pair order."""
        return tuple(Ack(exs_id=e, up_to_seq=s) for e, s in self.acks)


@dataclass(frozen=True, slots=True)
class TimeRequest:
    """Cristian-style probe: "what is your clock now?"."""

    probe_id: int = field(metadata=UINT)


@dataclass(frozen=True, slots=True)
class TimeReply:
    """Probe answer carrying the slave's (corrected) clock reading."""

    probe_id: int = field(metadata=UINT)
    slave_time: int = field(metadata=HYPER)


@dataclass(frozen=True, slots=True)
class Adjust:
    """Clock correction: the slave must *advance* its correction term.

    ``correction`` is in microseconds and, per §3.3, is never negative —
    BRISK only ever advances EXS clocks toward the fastest one.
    """

    correction: int = field(metadata=HYPER)
    round_id: int = field(default=0, metadata=UINT)


@dataclass(frozen=True, slots=True)
class Bye:
    """Orderly shutdown; ``reason`` is advisory free text."""

    reason: str = field(default="", metadata=_string(4096))


@dataclass(frozen=True, slots=True)
class SetFilter:
    """Push a source-side record filter to an external sensor (§2).

    The wire form mirrors :class:`repro.core.filtering.FilterSpec`:
    ``allow_all_events`` distinguishes "no whitelist" from an empty one.

    The steering extension rides trailing words, emitted only when set
    and only toward peers that advertised :data:`CAP_STEERING` — a plain
    SetFilter stays byte-identical to the original wire format, and a
    legacy peer receives the identity/sampling part of the spec (records
    the field tests would have dropped still ship — conservative, never
    lossy):

    * ``filter_epoch`` — monotone per-sender spec version.  Receivers
      ignore epochs older than the installed one and treat a re-send of
      the installed epoch as a no-op (sampling counters survive), which
      is what makes the ISM's re-apply-on-reconnect idempotent.
    * ``target_exs_id`` — routing hint for relays, which multiplex many
      EXS streams over one upstream connection and otherwise could not
      tell which downstream source the spec is for (0 = the connection's
      only peer, the point-to-point case).
    * ``field_tests`` — pushed-down value predicates, compiled at the
      receiver (:mod:`repro.core.predicate`) to run on packed payloads.
    """

    allow_all_events: bool = field(default=True, metadata=BOOL)
    allowed_events: tuple[int, ...] = field(default=(), metadata=_uint_array(65536))
    blocked_events: tuple[int, ...] = field(default=(), metadata=_uint_array(65536))
    sample_every: int = field(default=1, metadata=UINT)
    filter_epoch: int = field(default=0, metadata=_trailing(UINT, cap=CAP_STEERING))
    target_exs_id: int = field(default=0, metadata=_trailing(UINT, cap=CAP_STEERING))
    field_tests: tuple[FieldTest, ...] = field(
        default=(),
        metadata=_trailing(_field_tests(MAX_FIELD_TESTS), cap=CAP_STEERING),
    )

    @classmethod
    def from_spec(
        cls,
        spec: FilterSpec,
        *,
        epoch: int = 0,
        target_exs_id: int = 0,
    ) -> "SetFilter":
        """Build the wire message from a ``FilterSpec``.

        Node filtering is intentionally absent: an EXS only ever ships its
        own node's records, so the knob is meaningless at the source.
        """
        return cls(
            allow_all_events=spec.allowed_events is None,
            allowed_events=tuple(sorted(spec.allowed_events or ())),
            blocked_events=tuple(sorted(spec.blocked_events)),
            sample_every=spec.sample_every,
            filter_epoch=epoch,
            target_exs_id=target_exs_id,
            field_tests=spec.field_tests,
        )

    def to_spec(self) -> FilterSpec:
        """Rebuild the ``FilterSpec`` on the receiving side."""
        return FilterSpec(
            allowed_events=(
                None if self.allow_all_events else frozenset(self.allowed_events)
            ),
            blocked_events=frozenset(self.blocked_events),
            sample_every=self.sample_every,
            field_tests=self.field_tests,
        )


ControlMessage = (
    Hello | HelloReply | Ack | AckBundle | Heartbeat | TimeRequest | TimeReply
    | Adjust | Bye | SetFilter
)
Message = Batch | ControlMessage

#: The type-id registry: every control message's class by its wire type.
CONTROL_MESSAGES: dict[MsgType, type[ControlMessage]] = {
    MsgType.HELLO: Hello,
    MsgType.TIME_REQ: TimeRequest,
    MsgType.TIME_REPLY: TimeReply,
    MsgType.ADJUST: Adjust,
    MsgType.BYE: Bye,
    MsgType.SET_FILTER: SetFilter,
    MsgType.ACK: Ack,
    MsgType.HELLO_REPLY: HelloReply,
    MsgType.HEARTBEAT: Heartbeat,
    MsgType.ACK_BUNDLE: AckBundle,
}


#: One field as the writer reads it: name, pack, capability bit (0 = none)
#: and the default written in its place toward a peer without the bit.
_FieldLayout = tuple[str, Pack, int, Any]
#: The class's capability bit (0 = none) and its legacy form.
_ClassCaps = tuple[int, Callable[[Any], Sequence[ControlMessage]] | None]
_EncodeLayout = dict[type, tuple[int, tuple[_FieldLayout, ...], int, _ClassCaps]]
_DecodeLayout = dict[
    int, tuple[type[ControlMessage], tuple[Unpack, ...], tuple[Unpack, ...]]
]


def _read_declarations(
    registry: Mapping[MsgType, type[ControlMessage]],
) -> tuple[_EncodeLayout, _DecodeLayout]:
    """Each declaration, read once: ``class → (type id, ((name, pack, cap,
    default), ...), required count, (class cap, legacy form))`` and
    ``type id → (class, required unpacks, trailing unpacks)``.  Rejects a
    registry that is not a bijection onto the control type ids, a field
    without a codec, trailing fields that do not end their class with zero
    defaults, a capability that is not exactly one ``CAP_*`` bit, and a
    class capability without a legacy form."""
    if set(registry) != set(MsgType) - {MsgType.BATCH, MsgType.COMPRESSED}:
        raise TypeError("the registry must map every control type id, and no other")
    if len(set(registry.values())) != len(registry):
        raise TypeError("the registry maps two type ids to one class")
    encode: _EncodeLayout = {}
    decode: _DecodeLayout = {}
    for type_id, cls in registry.items():
        declared = fields(cls)
        if not all("xdr" in f.metadata for f in declared):
            raise TypeError(f"{cls.__name__}: every field needs a codec")
        trailing = [f.metadata["trailing"] for f in declared]
        required = trailing.index(True) if True in trailing else len(declared)
        if not all(trailing[required:]) or any(f.default for f in declared[required:]):
            raise TypeError(f"{cls.__name__}: trailing fields must come last, zero by default")
        requires = getattr(cls, "requires", 0)
        legacy = getattr(cls, "legacy", None)
        caps = [f.metadata["cap"] for f in declared]
        if any(cap and cap not in _CAP_BITS for cap in [*caps, requires]):
            raise TypeError(f"{cls.__name__}: a capability is exactly one CAP_* bit")
        if bool(requires) != (legacy is not None):
            raise TypeError(f"{cls.__name__}: a class capability needs a legacy form")
        packs, unpacks = zip(*(f.metadata["xdr"] for f in declared))
        layout = tuple(
            (f.name, pack, cap, f.default) for f, pack, cap in zip(declared, packs, caps)
        )
        encode[cls] = (type_id, layout, required, (requires, legacy))
        decode[type_id] = (cls, unpacks[:required], unpacks[required:])
    return encode, decode


_ENCODE_LAYOUT, _DECODE_LAYOUT = _read_declarations(CONTROL_MESSAGES)


# ----------------------------------------------------------------------
# field payload codecs
# ----------------------------------------------------------------------

def _encode_field(enc: XdrEncoder, ftype: FieldType, value: Any) -> None:
    if ftype in (
        FieldType.X_BYTE,
        FieldType.X_SHORT,
        FieldType.X_INT,
    ):
        enc.pack_int(value)
    elif ftype in (
        FieldType.X_UBYTE,
        FieldType.X_USHORT,
        FieldType.X_UINT,
        FieldType.X_REASON,
        FieldType.X_CONSEQ,
    ):
        enc.pack_uint(value)
    elif ftype is FieldType.X_HYPER or ftype is FieldType.X_TS:
        enc.pack_hyper(value)
    elif ftype is FieldType.X_UHYPER:
        enc.pack_uhyper(value)
    elif ftype is FieldType.X_FLOAT:
        enc.pack_float(value)
    elif ftype is FieldType.X_DOUBLE:
        enc.pack_double(value)
    elif ftype is FieldType.X_STRING:
        enc.pack_string(value)
    else:  # X_OPAQUE
        enc.pack_opaque(bytes(value))


def _decode_field(dec: XdrDecoder, ftype: FieldType) -> int | float | str | bytes:
    if ftype in (FieldType.X_BYTE, FieldType.X_SHORT, FieldType.X_INT):
        return dec.unpack_int()
    if ftype in (
        FieldType.X_UBYTE,
        FieldType.X_USHORT,
        FieldType.X_UINT,
        FieldType.X_REASON,
        FieldType.X_CONSEQ,
    ):
        return dec.unpack_uint()
    if ftype is FieldType.X_HYPER or ftype is FieldType.X_TS:
        return dec.unpack_hyper()
    if ftype is FieldType.X_UHYPER:
        return dec.unpack_uhyper()
    if ftype is FieldType.X_FLOAT:
        return dec.unpack_float()
    if ftype is FieldType.X_DOUBLE:
        return dec.unpack_double()
    if ftype is FieldType.X_STRING:
        return dec.unpack_string()
    return dec.unpack_opaque()


# ----------------------------------------------------------------------
# meta header
# ----------------------------------------------------------------------

def _encode_meta_compressed(enc: XdrEncoder, types: Sequence[FieldType]) -> None:
    """Pack the field-type list as nibbles: count byte + 6 codes in word 0,
    then 8 codes per extension word."""
    for word in compressed_meta_words(types):
        enc.pack_uint(word)


def _decode_meta_compressed(dec: XdrDecoder) -> tuple[FieldType, ...]:
    word = dec.unpack_uint()
    n = word >> 24
    if n > MAX_WIRE_FIELDS:
        raise ProtocolError(f"record claims {n} fields")
    types: list[FieldType] = []
    for i in range(min(n, 6)):
        types.append(_nibble_to_type((word >> (20 - 4 * i)) & 0xF))
    remaining = n - len(types)
    while remaining > 0:
        word = dec.unpack_uint()
        for i in range(min(remaining, 8)):
            types.append(_nibble_to_type((word >> (28 - 4 * i)) & 0xF))
        remaining = n - len(types)
    return tuple(types)


def _nibble_to_type(nibble: int) -> FieldType:
    if nibble == FIELD_TYPE_END:
        raise ProtocolError("field count exceeds encoded type codes")
    try:
        return FieldType(nibble)
    except ValueError as exc:
        raise ProtocolError(f"unknown field type code {nibble}") from exc


def _encode_meta_plain(enc: XdrEncoder, types: Sequence[FieldType]) -> None:
    """The naive rpcgen-style spelling: a counted array of uint32 codes."""
    enc.pack_uint(len(types))
    for t in types:
        enc.pack_uint(int(t))


def _decode_meta_plain(dec: XdrDecoder) -> tuple[FieldType, ...]:
    n = dec.unpack_uint()
    if n > MAX_WIRE_FIELDS:
        raise ProtocolError(f"record claims {n} fields")
    return tuple(_nibble_to_type(dec.unpack_uint()) for _ in range(n))


# ----------------------------------------------------------------------
# batch encode/decode
# ----------------------------------------------------------------------

_FLAG_COMPRESS_META = 0x1
_FLAG_DELTA_TS = 0x2
_FLAG_SEQ_RANGE = 0x4


def _encode_record_dynamic(
    enc: XdrEncoder,
    record: EventRecord,
    encode_meta: Callable[[XdrEncoder, Sequence[FieldType]], None],
    delta_ts: bool,
    base_ts: int,
) -> None:
    """The seed per-field encode path; also the fast path's fallback."""
    enc.pack_uint(record.event_id)
    encode_meta(enc, record.field_types)
    if delta_ts:
        delta = record.timestamp - base_ts
        if _I32_MIN < delta <= _I32_MAX:
            enc.pack_int(delta)
        else:
            enc.pack_int(_DELTA_ESCAPE)
            enc.pack_hyper(record.timestamp)
    else:
        enc.pack_hyper(record.timestamp)
    for ftype, value in zip(record.field_types, record.values):
        _encode_field(enc, ftype, value)


def encode_batch_records(
    exs_id: int,
    seq: int,
    records: Sequence[EventRecord],
    *,
    compress_meta: bool = True,
    delta_ts: bool = False,
    use_fastpath: bool = True,
    enc: XdrEncoder | None = None,
    first_seq: int | None = None,
) -> bytes:
    """Encode a data batch message (``MsgType.BATCH``) to bytes.

    ``compress_meta`` and ``delta_ts`` are the §2 "tuning knobs" exercised
    by ablations A1 and E8.  With the default knobs every record is emitted
    by its schema's compiled plan (:mod:`repro.core.plan`) — one
    ``struct`` call per run of fixed-size fields; the ablation modes and
    ``use_fastpath=False`` take the seed dynamic path.  Output is
    byte-identical either way.  Pass a reusable *enc* (it is reset) to
    amortize buffer allocation across batches.

    ``first_seq`` marks a relay-coalesced batch covering downstream
    sequences ``first_seq..seq``; it adds one word behind
    ``_FLAG_SEQ_RANGE``, which only a :data:`CAP_SEQ_RANGE` peer reads
    (the writer for one peer is :func:`splice_batch`).
    """
    if enc is None:
        enc = XdrEncoder()
    else:
        enc.reset()
    enc.pack_uint(MAGIC)
    enc.pack_uint(MsgType.BATCH)
    flags = (_FLAG_COMPRESS_META if compress_meta else 0) | (
        _FLAG_DELTA_TS if delta_ts else 0
    )
    if first_seq is not None:
        flags |= _FLAG_SEQ_RANGE
    enc.pack_uint(flags)
    enc.pack_uint(exs_id)
    enc.pack_uint(seq)
    if first_seq is not None:
        enc.pack_uint(first_seq)
    enc.pack_uint(len(records))
    base_ts = records[0].timestamp if records else 0
    enc.pack_hyper(base_ts)
    if use_fastpath and compress_meta and not delta_ts:
        append = enc.append_raw
        last_types: tuple | None = None
        plan: SchemaPlan | None = None
        for record in records:
            ft = record.field_types
            if ft is not last_types:
                plan = plan_for(ft)
                last_types = ft
            if plan is not None:
                try:
                    append(plan.wire_pack(record))
                    continue
                except PACK_ERRORS:
                    pass  # re-encode dynamically for the canonical error
            _encode_record_dynamic(
                enc, record, _encode_meta_compressed, delta_ts, base_ts
            )
    else:
        encode_meta = (
            _encode_meta_compressed if compress_meta else _encode_meta_plain
        )
        for record in records:
            _encode_record_dynamic(enc, record, encode_meta, delta_ts, base_ts)
    return enc.getvalue()


def _read_record_dynamic(
    dec: XdrDecoder,
    decode_meta: Callable[[XdrDecoder], tuple[FieldType, ...]],
    delta_ts: bool,
    base_ts: int,
) -> tuple[int, int, tuple[FieldType, ...], tuple[Any, ...]]:
    """The seed per-field reader: ``(event_id, timestamp, types, values)``."""
    event_id = dec.unpack_uint()
    types = decode_meta(dec)
    if delta_ts:
        delta = dec.unpack_int()
        ts = dec.unpack_hyper() if delta == _DELTA_ESCAPE else base_ts + delta
        if not MIN_TIMESTAMP <= ts <= MAX_TIMESTAMP:
            raise ProtocolError(f"delta timestamp {base_ts} + {delta} leaves int64")
    else:
        ts = dec.unpack_hyper()
    return event_id, ts, types, tuple(_decode_field(dec, t) for t in types)


def _decode_record_dynamic(
    dec: XdrDecoder,
    decode_meta: Callable[[XdrDecoder], tuple[FieldType, ...]],
    delta_ts: bool,
    base_ts: int,
    node_id: int = 0,
) -> EventRecord:
    """The seed per-field decode path; also the fast path's fallback."""
    event_id, ts, types, values = _read_record_dynamic(
        dec, decode_meta, delta_ts, base_ts
    )
    return EventRecord(
        event_id=event_id,
        timestamp=ts,
        field_types=types,
        values=values,
        node_id=node_id,
    )


def _decode_batch(
    dec: XdrDecoder,
    *,
    use_fastpath: bool = True,
    node_id: int | Mapping[int, int] = 0,
) -> Batch:
    flags = dec.unpack_uint()
    exs_id = dec.unpack_uint()
    seq = dec.unpack_uint()
    first_seq = dec.unpack_uint() if flags & _FLAG_SEQ_RANGE else None
    count = dec.unpack_uint()
    base_ts = dec.unpack_hyper()
    if not isinstance(node_id, int):
        node_id = node_id.get(exs_id, 0)
    compress = bool(flags & _FLAG_COMPRESS_META)
    delta_ts = bool(flags & _FLAG_DELTA_TS)
    decode_meta = _decode_meta_compressed if compress else _decode_meta_plain
    records: list[EventRecord] = []
    append = records.append
    if use_fastpath and compress and not delta_ts:
        # Zero-copy batch decode: each record unpacks straight out of the
        # buffer through the plan its meta word(s) select; the XdrDecoder
        # cursor is only engaged for records no plan takes — an unknown or
        # non-canonical schema, or anything irregular, which the dynamic
        # path then accepts or rejects canonically.
        mv = dec.buffer
        end = len(mv)
        pos = dec.position
        for _ in range(count):
            plan = plan_at(mv, pos, end)
            if plan is not None:
                try:
                    pos = plan.wire_unpack(mv, pos, end, node_id, append)
                    continue
                except (struct.error, ValueError):
                    pass
            dec.seek(pos)
            append(_decode_record_dynamic(dec, decode_meta, delta_ts, base_ts, node_id))
            pos = dec.position
        dec.seek(pos)
    else:
        for _ in range(count):
            append(
                _decode_record_dynamic(dec, decode_meta, delta_ts, base_ts, node_id)
            )
    dec.done()
    return Batch(
        exs_id=exs_id, seq=seq, records=tuple(records), first_seq=first_seq
    )


def encode_record(record: EventRecord) -> bytes:
    """One record as a default batch carries it (compressed meta, absolute
    timestamp): its plan's ``wire_pack``, or the dynamic encoder, which
    also raises the canonical error."""
    plan = plan_for(record.field_types)
    if plan is not None:
        try:
            wire: bytes = plan.wire_pack(record)
            return wire
        except PACK_ERRORS:
            pass
    enc = XdrEncoder()
    _encode_record_dynamic(enc, record, _encode_meta_compressed, False, 0)
    return enc.getvalue()


def record_wire_size(
    record: EventRecord, *, compress_meta: bool = True, delta_ts: bool = False
) -> int:
    """Per-record bytes on the wire (excluding the batch header).

    Used by benchmark E8 to reproduce the paper's "each instrumentation data
    record requires 40 bytes" figure.  With the default knobs the schema's
    plan answers: a constant for a fixed-size schema, byte counts of its
    strings and opaques otherwise.
    """
    types = record.field_types
    plan = plan_for(types)
    if plan is not None:
        size = plan.wire_size(record.values)
    else:
        size = 12 + 4 * len(compressed_meta_words(types))
        size += wire_payload_size(types, record.values)
    return size + mode_size_delta(len(types), compress_meta=compress_meta, delta_ts=delta_ts)


def mode_size_delta(n_fields: int, *, compress_meta: bool, delta_ts: bool) -> int:
    """Bytes a record of *n_fields* fields gains over its default-batch
    size under the ablation knobs: a counted array of type words instead
    of the compressed meta (one word for up to six fields, one more per
    eight beyond), a four-byte delta instead of the absolute timestamp
    (the escape ignored: sizes for in-range deltas)."""
    delta = -4 if delta_ts else 0
    if not compress_meta:
        delta += 4 + 4 * n_fields - 4 * (1 + max(0, -(-(n_fields - 6) // 8)))
    return delta


# ----------------------------------------------------------------------
# batch views: validated record bytes, spliced without decoding
# ----------------------------------------------------------------------

_RECORD_HEAD = struct.Struct(">II").unpack_from
_DELTA_WORD = struct.Struct(">i").unpack_from
_TS_WORD = struct.Struct(">q").unpack_from
_SPLICE_HEAD = struct.Struct(">IIIIIIq")
_SPLICE_HEAD_RANGE = struct.Struct(">IIIIIIIq")


@dataclass(frozen=True, slots=True)
class BatchView:
    """A batch whose records were validated but not built.

    Default-flag records are self-delimiting and context-free (compressed
    meta, absolute timestamp), so batches of one source join by joining
    their record bytes: :func:`view_message` checks a batch with one walk
    that accepts exactly what :func:`decode_message` accepts, and
    :func:`splice_batch` writes a run of views as one batch.  ``payload``
    is the uncompressed batch message, its records from ``start`` on;
    ``key`` is the first record's ``(timestamp, 0, event_id)`` — the sort
    key it decodes to before node stamping — or zeros when empty.
    """

    exs_id: int
    seq: int
    first_seq: int | None
    flags: int
    count: int
    base_ts: int
    payload: bytes
    start: int
    key: tuple[int, int, int]

    @property
    def region(self) -> memoryview:
        """The record bytes."""
        return memoryview(self.payload)[self.start :]

    def splices_with(self, other: "BatchView") -> bool:
        """Whether *other*'s records may follow this batch's in one frame:
        same meta spelling, and neither has timestamps relative to its own
        base (``DELTA_TS``)."""
        flags = self.flags | other.flags
        return not flags & _FLAG_DELTA_TS and not (
            (self.flags ^ other.flags) & _FLAG_COMPRESS_META
        )

    def spans(self) -> list[memoryview]:
        """Each record's bytes, in order."""
        dec = XdrDecoder(self.payload)
        dec.seek(self.start)
        starts: list[int] = []
        _walk_records(dec, self.count, self.flags, self.base_ts, starts)
        starts.append(len(self.payload))
        view = memoryview(self.payload)
        return [view[a:b] for a, b in zip(starts, starts[1:])]

    def decode_span(self, span: bytes | memoryview) -> EventRecord:
        """Build the record one of :meth:`spans` holds."""
        compress = self.flags & _FLAG_COMPRESS_META
        return _decode_record_dynamic(
            XdrDecoder(span),
            _decode_meta_compressed if compress else _decode_meta_plain,
            bool(self.flags & _FLAG_DELTA_TS),
            self.base_ts,
        )


def _uniform_run(mv: memoryview, pos: int, end: int, plan: SchemaPlan, n: int) -> bool:
    """Whether *mv[pos:end]* is exactly *n* records of fixed-size *plan*:
    every record's meta words are compared in one strided slice each."""
    size = plan.wire_fixed_size
    if end - pos != n * size:
        return False
    stride = size >> 2
    for k, word in enumerate(plan.meta_words):
        words = mv[pos + 4 + 4 * k : end].cast("I")[::stride]
        if words.tobytes() != word.to_bytes(4, "big") * n:
            return False
    return True


def _walk_records(
    dec: XdrDecoder,
    count: int,
    flags: int,
    base_ts: int,
    starts: list[int] | None = None,
) -> None:
    """Validate *count* records from *dec*'s cursor without building them,
    leaving the cursor past the last; *starts* receives record offsets.

    Mirrors :func:`_decode_batch`: a plan record is skipped by the plan
    (one strided check for a batch of one fixed-size schema), anything
    else is read by the per-field reader, so it accepts and rejects
    exactly what the decoder does.
    """
    compress = bool(flags & _FLAG_COMPRESS_META)
    delta_ts = bool(flags & _FLAG_DELTA_TS)
    decode_meta = _decode_meta_compressed if compress else _decode_meta_plain
    planned = compress and not delta_ts
    mv = dec.buffer
    end = len(mv)
    pos = dec.position
    for left in range(count, 0, -1):
        if planned:
            plan = plan_at(mv, pos, end)
            if plan is not None:
                if left == count and not plan.var_fields and _uniform_run(
                    mv, pos, end, plan, left
                ):
                    if starts is not None:
                        starts.extend(range(pos, end, plan.wire_fixed_size))
                    pos = end
                    break
                try:
                    after = plan.wire_skip(mv, pos, end)
                except (struct.error, ValueError):
                    pass
                else:
                    if starts is not None:
                        starts.append(pos)
                    pos = after
                    continue
        if starts is not None:
            starts.append(pos)
        dec.seek(pos)
        _read_record_dynamic(dec, decode_meta, delta_ts, base_ts)
        pos = dec.position
    dec.seek(pos)


def _record_head(buf: Any, pos: int, flags: int, base_ts: int) -> tuple[int, int]:
    """``(event_id, timestamp)`` of the validated record at *pos*."""
    event_id, word = _RECORD_HEAD(buf, pos)
    if not flags & _FLAG_COMPRESS_META:
        pos += 8 + 4 * word
    elif word >> 24 <= 6:
        pos += 8
    else:
        pos += 8 + 4 * -(-((word >> 24) - 6) // 8)
    if not flags & _FLAG_DELTA_TS:
        return event_id, _TS_WORD(buf, pos)[0]
    delta = _DELTA_WORD(buf, pos)[0]
    return event_id, (
        _TS_WORD(buf, pos + 4)[0] if delta == _DELTA_ESCAPE else base_ts + delta
    )


def _view_batch(dec: XdrDecoder) -> BatchView:
    payload = dec.buffer.obj  # the frame, or the one a COMPRESSED frame held
    flags = dec.unpack_uint()
    exs_id = dec.unpack_uint()
    seq = dec.unpack_uint()
    first_seq = dec.unpack_uint() if flags & _FLAG_SEQ_RANGE else None
    count = dec.unpack_uint()
    base_ts = dec.unpack_hyper()
    start = dec.position
    _walk_records(dec, count, flags, base_ts)
    dec.done()
    key = (0, 0, 0)
    if count:
        event_id, ts = _record_head(payload, start, flags, base_ts)
        key = (ts, 0, event_id)
    return BatchView(
        exs_id, seq, first_seq, flags, count, base_ts, payload, start, key
    )


def view_message(payload: bytes) -> BatchView | Message:
    """:func:`decode_message`, except that a batch comes back as a
    :class:`BatchView` (a ``COMPRESSED`` one unwrapped): same accept and
    reject, no record built."""
    dec, kind = _open(payload)
    if kind == MsgType.BATCH:
        return _view_batch(dec)
    return decode_message(payload)


def splice_batch(
    views: Sequence[BatchView],
    seq: int,
    *,
    caps: int,
    first_seq: int | None = None,
    records: Sequence[bytes | memoryview] | None = None,
) -> bytes:
    """One batch message carrying *views*' records, joined as bytes, for a
    peer that advertised *caps*.

    The views are consecutive batches of one source that
    :meth:`BatchView.splices_with` each other; the frame takes the first
    one's exs id and meta spelling, *seq*, and the first record's
    timestamp as its base — for canonical records the bytes
    :func:`encode_batch_records` writes for the decoded run.  A
    ``DELTA_TS`` view travels alone and keeps its base.  *records*, when
    given, replaces the joined regions: some of the views' :meth:`spans`,
    in order.

    ``FLAG_SEQ_RANGE`` and *first_seq* are written only when *first_seq*
    differs from *seq* and only toward a :data:`CAP_SEQ_RANGE` peer; any
    other peer receives a plain batch at *seq*, which its cumulative watermark
    reads the same way (the views are consecutive, so it covers all of
    them or none).  A lone view at *seq* whose header the peer can read
    as it stands is returned as its own payload, uncopied.
    """
    head = views[0]
    range_ok = caps & CAP_SEQ_RANGE
    if (
        records is None
        and len(views) == 1
        and head.seq == seq
        and (range_ok or head.first_seq is None)
    ):
        return head.payload
    if not range_ok or first_seq == seq:
        first_seq = None
    flags = head.flags & ~_FLAG_SEQ_RANGE
    if records is None:
        parts: Sequence[bytes | memoryview] = [view.region for view in views]
        count = sum(view.count for view in views)
    else:
        parts, count = records, len(records)
    base_ts: int | None = None
    if flags & _FLAG_DELTA_TS:
        if len(views) > 1:
            raise ValueError("DELTA_TS batches cannot be spliced")
        base_ts = head.base_ts
    return frame_batch(
        head.exs_id, seq, parts, count=count, flags=flags, base_ts=base_ts, first_seq=first_seq
    )


def frame_batch(
    exs_id: int,
    seq: int,
    records: Sequence[bytes | memoryview],
    *,
    count: int | None = None,
    flags: int = _FLAG_COMPRESS_META,
    base_ts: int | None = None,
    first_seq: int | None = None,
) -> bytes:
    """One batch message: a header written over *records*, record bytes
    already spelled as *flags* says (by default, as :func:`encode_record`
    frames them).  *count* defaults to one record per part; *base_ts* to
    the first record's timestamp, which is what :func:`encode_batch_records`
    writes; ``FLAG_SEQ_RANGE`` and its word come with *first_seq* only."""
    if count is None:
        count = len(records)
    if base_ts is None:
        base_ts = next(
            (_record_head(part, 0, flags, 0)[1] for part in records if len(part)), 0
        )
    if first_seq is None:
        header = _SPLICE_HEAD.pack(
            MAGIC, MsgType.BATCH, flags, exs_id, seq, count, base_ts
        )
    else:
        header = _SPLICE_HEAD_RANGE.pack(
            MAGIC,
            MsgType.BATCH,
            flags | _FLAG_SEQ_RANGE,
            exs_id,
            seq,
            first_seq,
            count,
            base_ts,
        )
    return b"".join([header, *records])


# ----------------------------------------------------------------------
# compressed envelope
# ----------------------------------------------------------------------

def compress_frame(
    payload: bytes | bytearray | memoryview, *, caps: int, level: int = 1
) -> bytes:
    """Wrap one complete encoded message payload in a COMPRESSED envelope
    for a peer that advertised *caps*.

    Layout: ``MAGIC, COMPRESSED, u32 raw_len, opaque zlib(payload)``.
    :func:`decode_message` unwraps it transparently, so the envelope is a
    pure transport concern — a peer without :data:`CAP_COMPRESS` receives
    the payload itself (a legacy receiver would see an unknown message
    type and drop the connection).  ``level=1`` favors throughput: relay
    coalescing already removed most of the slack, so deeper search buys
    little.
    """
    raw = bytes(payload)
    if not caps & CAP_COMPRESS:
        return raw
    enc = XdrEncoder()
    enc.pack_uint(MAGIC)
    enc.pack_uint(MsgType.COMPRESSED)
    enc.pack_uint(len(raw))
    enc.pack_opaque(zlib.compress(raw, level))
    return enc.getvalue()


#: Byte offset of the zlib stream inside a COMPRESSED envelope:
#: magic(4) + type(4) + raw_len(4) + opaque count(4).
_COMPRESSED_DATA_OFFSET = 16


def peek_compressed(payload: bytes | bytearray | memoryview) -> tuple[int, int]:
    """Peek ``(inner_msg_type, inner_exs_id)`` of a COMPRESSED envelope.

    Decompresses only the first 16 inner bytes — enough for the routing
    dispatcher to read a batch's type and exs id without inflating the
    records.  ``exs_id`` is only meaningful when the inner type is
    ``BATCH``; it is ``-1`` for inner messages shorter than 16 bytes.
    """
    try:
        head = zlib.decompressobj().decompress(
            memoryview(payload)[_COMPRESSED_DATA_OFFSET:], 16
        )
    except zlib.error as exc:
        raise ProtocolError(f"corrupt compressed frame: {exc}") from exc
    if len(head) < 8:
        raise ProtocolError("compressed frame too short to peek")
    magic = int.from_bytes(head[0:4], "big")
    if magic != MAGIC:
        raise ProtocolError(f"bad inner magic 0x{magic:08X}")
    mtype = int.from_bytes(head[4:8], "big")
    exs_id = int.from_bytes(head[12:16], "big") if len(head) >= 16 else -1
    return mtype, exs_id


# ----------------------------------------------------------------------
# top-level dispatch
# ----------------------------------------------------------------------

def encode_message(msg: Message, **batch_opts: Any) -> bytes:
    """Encode any protocol message to bytes (batch knobs via kwargs), every
    field as set: what a peer with every capability bit receives."""
    return _encode_message(msg, **batch_opts).getvalue()


def encode_for(caps: int, msg: ControlMessage) -> list[bytes]:
    """The frames a peer that advertised *caps* receives for *msg*.

    A message whose class bit the peer lacks goes as its legacy form (an
    :class:`AckBundle` as one :class:`Ack` per pair), and a trailing field
    whose bit it lacks is written as its default — so a :class:`SetFilter`
    reaches a peer without :data:`CAP_STEERING` as the legacy frame.
    """
    requires, legacy = _layout(msg)[3]
    if requires & ~caps and legacy is not None:
        return [frame for part in legacy(msg) for frame in encode_for(caps, part)]
    return [_encode_control(msg, caps).getvalue()]


def encode_message_view(msg: Message, **batch_opts: Any) -> memoryview:
    """Encode any protocol message, returning a zero-copy view.

    The view aliases the encoder's internal buffer (no ``bytes`` snapshot);
    the TCP transport hands it straight to the socket layer.  The buffer
    stays alive as long as the view does.
    """
    return _encode_message(msg, **batch_opts).getbuffer()


def _encode_message(msg: Message, **batch_opts: Any) -> XdrEncoder:
    if isinstance(msg, Batch):
        enc = batch_opts.pop("enc", None)
        if enc is None:  # no `or`: an empty reusable encoder is falsy
            enc = XdrEncoder()
        encode_batch_records(
            msg.exs_id, msg.seq, msg.records, first_seq=msg.first_seq,
            enc=enc, **batch_opts
        )
        return enc
    return _encode_control(msg, ~0)


def _layout(msg: Any) -> tuple[int, tuple[_FieldLayout, ...], int, _ClassCaps]:
    try:
        return _ENCODE_LAYOUT[type(msg)]
    except KeyError:
        raise TypeError(f"not a protocol message: {msg!r}") from None


def _encode_control(msg: ControlMessage, caps: int) -> XdrEncoder:
    """*msg*, each field whose bit is not in *caps* written as its default."""
    type_id, layout, required, _ = _layout(msg)
    values = [
        default if cap & ~caps else getattr(msg, name)
        for name, _, cap, default in layout
    ]
    end = len(layout)
    while end > required and not values[end - 1]:
        end -= 1  # an unset trailing word, with nothing set after it
    enc = XdrEncoder()
    enc.pack_uint(MAGIC)
    enc.pack_uint(type_id)
    for (_, pack, _, _), value in zip(layout[:end], values):
        pack(enc, value)
    return enc


def _open(payload: bytes | bytearray | memoryview) -> tuple[XdrDecoder, int]:
    """A decoder past the magic and message type, and the type; a
    ``COMPRESSED`` envelope is unwrapped to the message inside."""
    dec = XdrDecoder(payload)
    magic = dec.unpack_uint()
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:08X}")
    kind = dec.unpack_uint()
    if kind == MsgType.COMPRESSED:
        # Transparent unwrap: swap in the decompressed inner payload and
        # fall through to the normal dispatch on its message type.
        raw_len = dec.unpack_uint()
        if raw_len > MAX_DECOMPRESSED_BYTES:
            raise ProtocolError(
                f"compressed frame claims {raw_len} raw bytes"
            )
        try:
            raw = zlib.decompress(dec.unpack_opaque(), bufsize=raw_len or 64)
        except zlib.error as exc:
            raise ProtocolError(f"corrupt compressed frame: {exc}") from exc
        dec.done()
        if len(raw) != raw_len:
            raise ProtocolError(
                f"compressed frame declared {raw_len} raw bytes, "
                f"decompressed to {len(raw)}"
            )
        dec = XdrDecoder(raw)
        magic = dec.unpack_uint()
        if magic != MAGIC:
            raise ProtocolError(f"bad inner magic 0x{magic:08X}")
        kind = dec.unpack_uint()
        if kind == MsgType.COMPRESSED:
            raise ProtocolError("nested COMPRESSED frame")
    return dec, kind


def decode_message(
    payload: bytes | bytearray | memoryview,
    *,
    use_fastpath: bool = True,
    node_id: int | Mapping[int, int] = 0,
) -> Message:
    """Decode one record-marked payload into its message object.

    ``use_fastpath=False`` forces the seed per-field decode loop (the
    codec-guard benchmark and the byte-identity tests compare against it).

    *node_id* stamps decoded batch records with their node (the wire
    format does not carry node identity per record): one node, or a
    mapping from exs id to node read with the batch's exs id (0 when
    absent).  The ISM passes its live Hello registry, so the manager's
    stamping pass finds every record already stamped and builds each
    once; a wrong or missing node is corrected there.
    """
    dec, kind = _open(payload)
    if kind == MsgType.BATCH:
        return _decode_batch(dec, use_fastpath=use_fastpath, node_id=node_id)
    try:
        cls, required, trailing = _DECODE_LAYOUT[kind]
    except KeyError:
        raise ProtocolError(f"unknown message type {kind}") from None
    args = [unpack(dec) for unpack in required]
    for unpack in trailing:
        if dec.remaining < 4:
            break  # a shorter (legacy) frame: the rest keep their defaults
        args.append(unpack(dec))
    dec.done()
    return cls(*args)


def decode_messages(
    payloads: Sequence[bytes | bytearray | memoryview],
    *,
    use_fastpath: bool = True,
    node_id: int | Mapping[int, int] = 0,
) -> list[Message]:
    """Decode a list of record-marked payloads, in order.

    The staged receive path's decode stage: one framing pass hands every
    complete payload here in a single call.  Raises on the first malformed
    payload — callers that must keep the prefix decode incrementally.
    """
    return [
        decode_message(p, use_fastpath=use_fastpath, node_id=node_id)
        for p in payloads
    ]
