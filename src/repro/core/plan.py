"""One compiled plan per record schema: every framing from one table.

The paper's custom-``NOTICE`` utility specialises record packing to a
known schema.  A :class:`SchemaPlan` applies that to every place a record
is (de)serialised.  From the single per-field-type table
:data:`FIELD_CODES` it compiles, for one interned schema,

* the native node-local layout (:mod:`repro.core.native`): pack, and
  unpack with the field tags checked — the sensor's variable-length
  notices, the EXS drain, commit-log entries, shard rings and the memory
  buffer all go through these two;
* the XDR record of a default batch (:mod:`repro.wire.protocol`:
  compressed meta, absolute timestamp): encode, decode keyed by the raw
  meta word(s) (:func:`plan_at`), and a validate-only skip that makes the
  same checks as the decode without building the record (the relay);
* the two joined: a native ring record transcoded straight to its XDR
  record under a clock correction, tags checked as the native unpack
  checks them (the EXS).

Each framing is a generated straight-line function (``SchemaPlan.source``
prints them): every run of fixed-size fields is one ``struct`` call, every
variable-length field (``X_STRING``/``X_OPAQUE``) one length read, one
slice and — on the wire — one zero-pad check, and a fixed-size schema is
a single ``struct`` call per record.  Tags, meta words and offsets are
constants in the generated code, not loop state.

The per-field codecs stay as the reference the plans are tested against
(byte for byte, record for record), serve the paper's ablation modes
(plain meta, delta timestamps), and produce the canonical error: a
compiled framing that meets anything irregular — truncation, a tag or pad
mismatch, invalid UTF-8, an out-of-domain value — raises ``struct.error``
or a ``ValueError`` (a native unpack may also return ``None`` for "not
this schema"), and the caller redoes that record on the per-field path.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.core.records import FIELD_TYPE_END, EventRecord, FieldType, intern_schema

#: The per-field-type table every framing derives from: (native struct
#: code, XDR struct code).  Native is little-endian at natural width; XDR
#: widens sub-word integers to four bytes.  ``X_STRING``/``X_OPAQUE`` are
#: absent — variable-length: a u32 byte count then the bytes (UTF-8 for
#: strings), zero-padded to a multiple of four on the wire only.
FIELD_CODES: dict[FieldType, tuple[str, str]] = {
    FieldType.X_BYTE: ("b", "i"),
    FieldType.X_UBYTE: ("B", "I"),
    FieldType.X_SHORT: ("h", "i"),
    FieldType.X_USHORT: ("H", "I"),
    FieldType.X_INT: ("i", "i"),
    FieldType.X_UINT: ("I", "I"),
    FieldType.X_HYPER: ("q", "q"),
    FieldType.X_UHYPER: ("Q", "Q"),
    FieldType.X_FLOAT: ("f", "f"),
    FieldType.X_DOUBLE: ("d", "d"),
    FieldType.X_TS: ("q", "q"),
    FieldType.X_REASON: ("I", "I"),
    FieldType.X_CONSEQ: ("I", "I"),
}
_WIRE_SIZES = {t: struct.calcsize(">" + codes[1]) for t, codes in FIELD_CODES.items()}

#: Native record header: total length, event id, node id, field count,
#: flags, timestamp.
NATIVE_HEADER = struct.Struct("<IIIHHq")
#: Native header flag: the record carries causal markers.
FLAG_CAUSAL = 0x0001

#: Backstop against a stream minting unbounded distinct schemas: past the
#: cap no plan is built (callers take the per-field path), so hostile
#: input never pays, nor makes anyone else pay, for code generation.
_CACHE_CAP = 1024
#: Native candidates tried per lookup key.
_BUCKET_CAP = 8

#: What a compiled pack raises on a value outside its field's domain (an
#: overflowing X_FLOAT, a non-str X_STRING, ...): the caller then packs
#: that record on the per-field path, which raises the canonical error.
PACK_ERRORS = (struct.error, OverflowError, TypeError, ValueError, AttributeError)

_UNPACK_U32 = struct.Struct(">I").unpack_from
#: A native header's total length and field count.
_TOTAL_COUNT = struct.Struct("<I8xH").unpack_from
_ZERO_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")
_XDR_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


def compressed_meta_words(types: Sequence[FieldType]) -> tuple[int, ...]:
    """The compressed meta header for *types* as u32 words: count byte
    plus six type nibbles in word 0, eight nibbles per extension word,
    unused nibbles carrying the end sentinel (so a truncated-width bug
    cannot decode as ``X_BYTE`` fields)."""
    n = len(types)
    word = n << 24
    for i, t in enumerate(types[:6]):
        word |= int(t) << (20 - 4 * i)
    words = [word]
    rest = types[6:]
    for base in range(0, len(rest), 8):
        chunk = rest[base : base + 8]
        word = 0
        for i, t in enumerate(chunk):
            word |= int(t) << (28 - 4 * i)
        for i in range(len(chunk), 8):
            word |= FIELD_TYPE_END << (28 - 4 * i)
        words.append(word)
    return tuple(words)


def _byte_len(value: Any) -> int:
    """Encoded length of a variable-length value; ASCII text (O(1) to
    recognise) is not re-encoded just to be counted."""
    if type(value) is str and not value.isascii():
        return len(value.encode("utf-8"))
    return len(value)


def wire_payload_size(field_types: Sequence[FieldType], values: Sequence[Any]) -> int:
    """XDR payload bytes of one record's fields, without compiling a plan."""
    total = 0
    for ftype, value in zip(field_types, values):
        size = _WIRE_SIZES.get(ftype)
        total += size if size is not None else 4 + ((_byte_len(value) + 3) & ~3)
    return total


class SchemaPlan:
    """Every framing of one record schema, compiled.

    The framings are plain functions (no ``self``):

    * ``native_pack(event_id, node_id, timestamp, values) -> bytes``
    * ``native_unpack(buf, body_pos, end) -> values | None`` — ``None``
      when the tags say the record is not of this schema or the lengths
      do not add up to *end*
    * ``wire_pack(record) -> bytes`` — one record of a default batch
    * ``wire_unpack(buf, pos, end, node_id, out) -> next_pos`` — passes the
      decoded record to ``out``
    * ``wire_skip(buf, pos, end) -> next_pos`` — accepts exactly what
      ``wire_unpack`` accepts, building nothing
    * ``native_to_wire(buf, correction) -> bytes | None`` — the native
      record that fills *buf* from offset 0, as ``wire_pack`` frames it
      once its timestamp and ``X_TS`` fields are shifted by *correction*;
      ``None`` when the header, tags or lengths say "not this schema"
    """

    __slots__ = (
        "field_types",
        "meta_words",
        "flags",
        "var_fields",
        "native_fixed_size",
        "wire_fixed_size",
        "native_pack",
        "native_unpack",
        "wire_pack",
        "wire_unpack",
        "wire_skip",
        "native_to_wire",
        "source",
    )

    def __init__(self, field_types: Sequence[FieldType]) -> None:
        types = intern_schema(tuple(field_types)).field_types
        self.field_types = types
        self.meta_words = compressed_meta_words(types)
        causal = FieldType.X_REASON in types or FieldType.X_CONSEQ in types
        self.flags = FLAG_CAUSAL if causal else 0
        self.var_fields = tuple(i for i, t in enumerate(types) if t not in FIELD_CODES)
        n_var = len(self.var_fields)
        fixed = [t for t in types if t in FIELD_CODES]
        # Sizes that do not depend on string/opaque contents (the whole
        # record's, for a fixed-size schema).
        self.native_fixed_size = (
            NATIVE_HEADER.size
            + sum(1 + struct.calcsize("<" + FIELD_CODES[t][0]) for t in fixed)
            + 5 * n_var
        )
        self.wire_fixed_size = (
            12 + 4 * len(self.meta_words) + sum(_WIRE_SIZES[t] for t in fixed) + 4 * n_var
        )
        self.source, ns = _generate(self)
        self.native_pack = ns["native_pack"]
        self.native_unpack = ns["native_unpack"]
        self.wire_pack = ns["wire_pack"]
        self.wire_unpack = ns["wire_unpack"]
        self.wire_skip = ns["wire_skip"]
        self.native_to_wire = ns["native_to_wire"]

    def wire_size(self, values: Sequence[Any]) -> int:
        """Bytes of this record in a default batch (excludes the batch header)."""
        size = self.wire_fixed_size
        for i in self.var_fields:
            size += (_byte_len(values[i]) + 3) & ~3
        return size


# ----------------------------------------------------------------------
# plan lookup: by field types, by wire meta words, by native header
# ----------------------------------------------------------------------

_by_types: dict[tuple, SchemaPlan | None] = {}
#: Raw meta word (or tuple of words past six fields) -> plan, or None for
#: a valid-but-non-canonical spelling the dynamic decoder must handle.
_by_meta: dict[int | tuple[int, ...], SchemaPlan | None] = {}
#: Fixed-size plans by ``total length << 16 | field count``; variable-length
#: plans by ``field count << 8 | first field's tag``.  A full tag match
#: picks the one a record is.
_native_fixed: dict[int, list[SchemaPlan]] = {}
_native_var: dict[int, list[SchemaPlan]] = {}


def plan_for(field_types: tuple) -> SchemaPlan | None:
    """The plan for this field-type tuple; ``None`` for tuples that are not
    a wire-expressible schema, or once the cache is full."""
    try:
        return _by_types[field_types]
    except KeyError:
        pass
    if len(_by_types) >= _CACHE_CAP:
        return None
    try:
        plan: SchemaPlan | None = SchemaPlan(field_types)
    except TypeError:
        plan = None  # non-FieldType entries: the per-field path decides
    _by_types[field_types] = plan
    if plan is not None:
        _by_types[plan.field_types] = plan
        key = plan.meta_words[0] if len(plan.meta_words) == 1 else plan.meta_words
        _by_meta[key] = plan
        n = len(plan.field_types)
        if plan.var_fields:
            bucket = _native_var.setdefault(n << 8 | plan.field_types[0], [])
        else:
            bucket = _native_fixed.setdefault(plan.native_fixed_size << 16 | n, [])
        if len(bucket) < _BUCKET_CAP:
            bucket.append(plan)
    return plan


def plan_at(buf: memoryview, pos: int, end: int) -> SchemaPlan | None:
    """Plan for the wire record starting at *pos*, or ``None`` for the
    dynamic decoder.

    Reads only the meta word(s), which name the field count and every
    type: the raw words are the lookup key.  Truncation, unknown nibbles
    and non-canonical spellings all defer to the dynamic decoder, which
    produces the canonical accept-or-error behaviour.
    """
    if pos + 8 > end:
        return None
    word = _UNPACK_U32(buf, pos + 4)[0]
    if (word >> 24) <= 6:
        key: int | tuple[int, ...] = word
    else:
        n_ext = -(-((word >> 24) - 6) // 8)
        if pos + 8 + 4 * n_ext > end:
            return None
        key = (word,) + tuple(_UNPACK_U32(buf, pos + 8 + 4 * i)[0] for i in range(n_ext))
    try:
        return _by_meta[key]
    except KeyError:
        pass
    words = (key,) if type(key) is int else key
    types = _parse_meta_words(words)
    plan = None
    if types is not None and compressed_meta_words(types) == words:
        plan = plan_for(types)
    if plan is None and len(_by_meta) < _CACHE_CAP:
        _by_meta[key] = None
    return plan


def _parse_meta_words(words: tuple[int, ...]) -> tuple[FieldType, ...] | None:
    """Decode meta words back to field types; ``None`` on any bad nibble."""
    n = words[0] >> 24
    types: list[FieldType] = []
    try:
        for i in range(min(n, 6)):
            types.append(FieldType((words[0] >> (20 - 4 * i)) & 0xF))
        for word in words[1:]:
            for i in range(min(n - len(types), 8)):
                types.append(FieldType((word >> (28 - 4 * i)) & 0xF))
    except ValueError:  # FIELD_TYPE_END or an unassigned code
        return None
    return tuple(types) if len(types) == n else None


def native_match(
    buf: Any, offset: int, total: int, n_fields: int
) -> tuple[SchemaPlan, tuple] | tuple[None, None]:
    """``(plan, values)`` for the native record at *offset* whose header
    says *total* bytes and *n_fields* fields, or ``(None, None)`` when no
    known plan's tags match (an unseen schema, or corrupt bytes: the
    per-field decoder then compiles the plan or raises).

    The caller has checked that the record's *total* bytes lie in *buf*,
    so a fixed-size plan (chosen by exactly that total) reads in bounds.
    """
    body, end = offset + NATIVE_HEADER.size, offset + total
    for plan in _native_fixed.get(total << 16 | n_fields, ()):
        values = plan.native_unpack(buf, body, end)
        if values is not None:
            return plan, values
    if body >= end:  # no field to read a first tag from
        return None, None
    for plan in _native_var.get(n_fields << 8 | buf[body], ()):
        try:
            values = plan.native_unpack(buf, body, end)
        except (struct.error, ValueError):  # ran off the buffer, or bad UTF-8
            continue
        if values is not None:
            return plan, values
    return None, None


def native_transcode(buf: Any, correction: int) -> tuple[SchemaPlan, bytes] | tuple[None, None]:
    """``(plan, wire record)`` for the native record that fills *buf*, its
    timestamp and ``X_TS`` fields shifted by *correction*, or ``(None,
    None)`` when no known plan takes it: candidates are picked as
    :func:`native_match` picks them, and a candidate that raises (the
    record is irregular, or a shifted value leaves its field) is passed
    over, so the per-field decoder decides."""
    if len(buf) < NATIVE_HEADER.size:
        return None, None
    total, n_fields = _TOTAL_COUNT(buf)
    for plan in _native_fixed.get(total << 16 | n_fields, ()):
        try:
            wire = plan.native_to_wire(buf, correction)
        except (struct.error, ValueError):
            continue
        if wire is not None:
            return plan, wire
    if len(buf) == NATIVE_HEADER.size:  # no field to read a first tag from
        return None, None
    for plan in _native_var.get(n_fields << 8 | buf[NATIVE_HEADER.size], ()):
        try:
            wire = plan.native_to_wire(buf, correction)
        except (struct.error, ValueError):
            continue
        if wire is not None:
            return plan, wire
    return None, None


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

def _tuple(items: Sequence[str]) -> str:
    """Source of a tuple display/target, valid for zero and one items."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _generate(plan: SchemaPlan) -> tuple[str, dict[str, Any]]:
    """Source and namespace of the plan's framings.

    The schema is cut at its variable-length fields into segments of
    ``(fixed-field run, var field or None)``; each framing spends one
    ``struct`` call per segment (the run plus the var field's tag/length
    word) and one slice per var field.
    """
    types = plan.field_types
    segments: list[tuple[list[int], int | None]] = []
    run: list[int] = []
    for i, ftype in enumerate(types):
        if ftype in FIELD_CODES:
            run.append(i)
        else:
            segments.append((run, i))
            run = []
    segments.append((run, None))
    values = _tuple([f"v{i}" for i in range(len(types))])
    ns: dict[str, Any] = {
        "W": EventRecord.from_wire,
        "FT": types,
        "Z": _ZERO_PAD,
        "P": _XDR_PAD,
        "U": _UNPACK_U32,
    }

    def native(i: int) -> str:
        return "B" + FIELD_CODES[types[i]][0]

    def xdr(i: int) -> str:
        return FIELD_CODES[types[i]][1]

    def encoded(i: int) -> str:
        return f"v{i}.encode()" if types[i] is FieldType.X_STRING else f"bytes(v{i})"

    def decoded(i: int, buf: str) -> str:
        if types[i] is FieldType.X_STRING:
            return f"str({buf}[p:q], 'utf-8')"
        return f"bytes({buf}[p:q])"

    def struct_call(name: str, fmt: str, method: str = "pack") -> tuple[str, int]:
        compiled = struct.Struct(fmt)
        ns[name] = getattr(compiled, method)
        return name, compiled.size

    var_lines = [
        line
        for _, var in segments[:-1]
        for line in (f"    d{var} = {encoded(var)}", f"    n{var} = len(d{var})")
    ]
    lens = "".join(f" + n{var}" for _, var in segments[:-1])

    # native pack: header + (tag, value) per fixed field + (tag, length) per var field
    src = ["def native_pack(e, node, t, v):", f"    {values} = v", *var_lines]
    parts = []
    for k, (run, var) in enumerate(segments):
        fmt = "".join(native(i) for i in run) + ("BI" if var is not None else "")
        args = [f"{int(types[i])}, v{i}" for i in run]
        if var is not None:
            args.append(f"{int(types[var])}, n{var}")
        if k == 0:
            fmt = NATIVE_HEADER.format.lstrip("<") + fmt
            header = f"{plan.native_fixed_size}{lens}, e, node, {len(types)}, {plan.flags}, t"
            args.insert(0, header)
        if fmt:
            parts.append(f"{struct_call(f'NP{k}', '<' + fmt)[0]}({', '.join(args)})")
        if var is not None:
            parts.append(f"d{var}")
    src.append("    return " + " + ".join(parts))

    # native unpack: the same segments, every tag checked, lengths summing to end
    src.append("def native_unpack(b, p, end):")
    for k, (run, var) in enumerate(segments):
        fields = run + ([var] if var is not None else [])
        if not fields:
            continue
        fmt = "<" + "".join(native(i) for i in run) + ("BI" if var is not None else "")
        name, size = struct_call(f"NU{k}", fmt, "unpack_from")
        targets = [f"t{i}, v{i}" for i in run] + ([f"t{var}, n{var}"] if var is not None else [])
        tags = _tuple([f"t{i}" for i in fields])
        src += [
            f"    {_tuple(targets)} = {name}(b, p)",
            f"    if {tags} != {_tuple([str(int(types[i])) for i in fields])}:",
            "        return None",
            f"    p += {size}",
        ]
        if var is not None:
            src += [
                f"    q = p + n{var}",
                "    if q > end:",
                "        return None",
                f"    v{var} = {decoded(var, 'b')}",
                "    p = q",
            ]
    src += ["    if p != end:", "        return None", f"    return {values}"]

    # wire pack: one default-batch record (compressed meta, absolute timestamp)
    src += ["def wire_pack(r):", f"    {values} = r.values", *var_lines]
    meta = ", ".join(f"0x{word:08X}" for word in plan.meta_words)
    parts = []
    for k, (run, var) in enumerate(segments):
        fmt = "".join(xdr(i) for i in run) + ("I" if var is not None else "")
        args = [f"v{i}" for i in run] + ([f"n{var}"] if var is not None else [])
        if k == 0:
            fmt = "I" * (1 + len(plan.meta_words)) + "q" + fmt
            args = ["r.event_id", meta, "r.timestamp", *args]
        if fmt:
            parts.append(f"{struct_call(f'WP{k}', '>' + fmt)[0]}({', '.join(args)})")
        if var is not None:
            parts += [f"d{var}", f"P[n{var} & 3]"]
    src.append("    return " + " + ".join(parts))

    # wire unpack: meta words skipped (the plan was chosen by them), pads checked
    src.append("def wire_unpack(m, p, end, node, out):")
    for k, (run, var) in enumerate(segments):
        fmt = "".join(xdr(i) for i in run) + ("I" if var is not None else "")
        targets = [f"v{i}" for i in run] + ([f"n{var}"] if var is not None else [])
        if k == 0:
            fmt = "I" + "4x" * len(plan.meta_words) + "q" + fmt
            targets = ["e", "t", *targets]
        if not fmt:
            continue
        name, size = struct_call(f"WU{k}", ">" + fmt, "unpack_from")
        src += [f"    {_tuple(targets)} = {name}(m, p)", f"    p += {size}"]
        if var is not None:
            src += [
                f"    q = p + n{var}",
                f"    s = q + (-n{var} & 3)",
                "    if s > end or m[q:s] != Z[s - q]:",
                "        raise ValueError('irregular variable-length field')",
                f"    v{var} = {decoded(var, 'm')}",
                "    p = s",
            ]
    src += [f"    out(W(e, t, FT, {values}, node))", "    return p"]

    # wire skip: wire_unpack's bounds, pad and UTF-8 checks, only the
    # variable-length fields' length words read
    src.append("def wire_skip(m, p, end):")
    for k, (run, var) in enumerate(segments):
        size = struct.calcsize(">" + "".join(xdr(i) for i in run) + ("I" if var is not None else ""))
        if k == 0:
            size += 12 + 4 * len(plan.meta_words)
        if var is None:
            if size:
                src += [f"    p += {size}", "    if p > end:", "        raise ValueError('truncated record')"]
            continue
        src += [
            f"    (n{var}, ) = U(m, p + {size - 4})",
            f"    p += {size}",
            f"    q = p + n{var}",
            f"    s = q + (-n{var} & 3)",
            "    if s > end or m[q:s] != Z[s - q]:",
            "        raise ValueError('irregular variable-length field')",
        ]
        if types[var] is FieldType.X_STRING:
            src.append("    str(m[p:q], 'utf-8')")
        src.append("    p = s")
    src.append("    return p")

    # native to wire: native_unpack's checks, wire_pack's output, the
    # timestamp and X_TS fields shifted on the way; node id and flags are
    # skipped (the ISM stamps the node)
    src.append("def native_to_wire(b, c):")
    parts = []
    for k, (run, var) in enumerate(segments):
        fields = run + ([var] if var is not None else [])
        if not fields and k:
            continue
        native_fmt = "".join(native(i) for i in run) + ("BI" if var is not None else "")
        wire_fmt = "".join(xdr(i) for i in run) + ("I" if var is not None else "")
        targets = [f"t{i}, v{i}" for i in run] + ([f"t{var}, n{var}"] if var is not None else [])
        tags = [f"t{i}" for i in fields]
        want = [str(int(types[i])) for i in fields]
        args = [f"v{i} + c" if types[i] is FieldType.X_TS else f"v{i}" for i in run]
        args += [f"n{var}"] if var is not None else []
        if k == 0:
            native_fmt = "II4xH2xq" + native_fmt  # node id and flags skipped
            targets.insert(0, "L, e, n, t")
            tags.insert(0, "n")
            want.insert(0, str(len(types)))
            if not plan.var_fields:  # the total length is a constant too
                tags.insert(0, "L")
                want.insert(0, str(plan.native_fixed_size))
            wire_fmt = "I" * (1 + len(plan.meta_words)) + "q" + wire_fmt
            args = ["e", meta, "t + c", *args]
        name, size = struct_call(f"NT{k}", "<" + native_fmt, "unpack_from")
        src += [
            f"    {_tuple(targets)} = {name}(b{', p' if k else ''})",
            f"    if {_tuple(tags)} != {_tuple(want)}:",
            "        return None",
        ]
        if plan.var_fields:
            step = ["    if L > len(b):", "        return None", f"    p = {size}"]
            src += step if k == 0 else [f"    p += {size}"]
        parts.append(f"{struct_call(f'WT{k}', '>' + wire_fmt)[0]}({', '.join(args)})")
        if var is not None:
            src += [f"    q = p + n{var}", "    if q > L:", "        return None"]
            src.append(f"    d{var} = b[p:q]")
            if types[var] is FieldType.X_STRING:
                src.append(f"    str(d{var}, 'utf-8')")
            src.append("    p = q")
            parts += [f"d{var}", f"P[n{var} & 3]"]
    if plan.var_fields:
        src += ["    if p != L:", "        return None"]
    src.append("    return " + " + ".join(parts))

    source = "\n".join(src) + "\n"
    exec(compile(source, f"<plan {'/'.join(t.name for t in types)}>", "exec"), ns)
    return source, ns
