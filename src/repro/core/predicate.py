"""Compiled source-side filter predicates over packed native payloads.

The ISM pushes :class:`~repro.core.filtering.FilterSpec` down to external
sensors at runtime; this module is the compile step that makes the pushed
filter *cheap*.  A :class:`CompiledFilterState` evaluates the spec
directly on the packed ring payloads — the EXS filters each drain with
one call **before** transcoding, so a dropped record never pays clock
correction or XDR encoding:

* the event and node ids are one slice of the raw header bytes, and the
  identity decision (whitelist/blocklist/node) is memoized per raw id —
  steady state is a slice and a dict hit per record;
* field tests compile, per schema plan (:mod:`repro.core.plan`), into a
  generated check that makes the native decoder's checks — field count,
  every tag, the lengths — and evaluates the tests as one expression: for
  a fixed-size schema one ``struct`` read of the tags and only the tested
  values, for a variable-length one the plan's native unpack.  Within a
  drain the check last used at a payload length is tried before the plan
  lookup; no :class:`EventRecord` is ever built;
* a schema no plan knows yet takes one full decode (which compiles its
  plan) plus the shared Python evaluation, so the compiled decision is
  *exactly* :meth:`FilterSpec.matches` on the decoded record
  (property-tested).

Field tests see the record as the sensor wrote it: node-local values,
pre-correction timestamps.  That is the documented pushdown semantics —
the filter runs at the source, upstream of the EXS's stamping pass.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional, Sequence

from repro.core import native
from repro.core.filtering import FieldTest, FilterSpec
from repro.core.plan import FIELD_CODES, SchemaPlan, native_match
from repro.core.records import EventRecord

__all__ = ["CompiledFilterState"]

#: ``event_id`` and ``node_id`` live at bytes 4..12 of the native header:
#: the identity decision's memo key, as raw bytes.
_EVENT = slice(4, 8)
_EVENT_NODE = slice(4, 12)
#: The schema key of the field-test path: total length and field count.
_TOTAL_COUNT = struct.Struct("<I8xH").unpack_from

#: Memo cap: an adversarial stream minting unbounded distinct event ids
#: (or schemas) must not grow the decision caches without bound.  Past
#: the cap the decision is recomputed per record (correct, just slower).
_MAX_STATIC_MEMO = 4096


#: Each field-test op as the Python operator the generated check spells
#: (:data:`repro.core.filtering._OP_FNS` applies the same ones).
_OP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: A compiled test: ``None`` when the payload is not a record of the plan
#: it was compiled for, else whether the record passes.
Check = Callable[[bytes], Optional[bool]]


def _compile_tests(tests: tuple[FieldTest, ...], plan: SchemaPlan) -> Check:
    """Compile *tests* against one schema plan into a generated check.

    For a fixed-size schema the check is one ``struct`` read of the
    header's total and field count, every field tag and only the tested
    values (the rest skipped as pad bytes), one tuple compare — what
    :func:`native_match` and the plan's native unpack check — and the
    tests as one expression.  A variable-length schema's check runs the
    plan's native unpack.  A test naming a field the schema does not have,
    or a string/opaque field (tests are numeric), makes the expression
    ``False``: the schema can never pass.
    """
    types = plan.field_types
    ns: dict[str, Any] = {"TC": _TOTAL_COUNT, "NU": plan.native_unpack}
    conds = []
    for k, test in enumerate(tests):
        index = test.field_index
        if index >= len(types) or index in plan.var_fields:
            conds = ["False"]
            break
        ns[f"X{k}"] = test.value
        conds.append(f"v{index} {_OP_SYMBOLS[test.op]} X{k}")
    verdict = " and ".join(conds) or "True"
    values = "".join(f"v{i}, " for i in range(len(types)))
    if plan.var_fields:
        src = [
            "    L, n = TC(b)",
            f"    if n != {len(types)} or L > len(b):",
            "        return None",
            f"    values = NU(b, {native.HEADER_SIZE}, L)",
            "    if values is None:",
            "        return None",
            f"    ({values}) = values",
        ]
    else:
        tested = {test.field_index for test in tests}
        fmt = "<I8xH10x"
        targets = ["L", "n"]
        for i, ftype in enumerate(types):
            code = FIELD_CODES[ftype][0]
            fmt += "B" + (code if i in tested else f"{struct.calcsize(code)}x")
            targets += [f"t{i}"] + ([f"v{i}"] if i in tested else [])
        ns["U"] = struct.Struct(fmt).unpack_from
        tags = "".join(f"t{i}, " for i in range(len(types)))
        want = (plan.native_fixed_size, len(types), *map(int, types))
        src = [
            f"    ({', '.join(targets)}, ) = U(b)",
            f"    if (L, n, {tags}) != {want}:",
            "        return None",
        ]
    source = "def check(b):\n" + "\n".join(src) + f"\n    return {verdict}\n"
    exec(compile(source, "<field tests>", "exec"), ns)
    return ns["check"]


class CompiledFilterState:
    """A :class:`FilterSpec` compiled to run on packed native payloads.

    Mirrors :class:`~repro.core.filtering.FilterState`'s surface
    (``spec``/``dropped``/``passed``/``admit``) and adds
    :meth:`admit_many`, the pre-decode path the EXS filters each drain
    through (:meth:`admit_payload` is its one-payload form).  Sampling
    counters are shared between the entry points, so mixing them keeps
    the per-event-id modular arithmetic exact.
    """

    __slots__ = (
        "spec",
        "dropped",
        "passed",
        "_counters",
        "_static",
        "_key",
        "_tests",
        "_sample_every",
        "_plans",
    )

    def __init__(self, spec: FilterSpec) -> None:
        self.spec = spec
        #: Records dropped by this filter.
        self.dropped = 0
        #: Records passed.
        self.passed = 0
        self._counters: dict[int, int] = {}
        #: Identity-decision memo, keyed by the payload's raw event id
        #: bytes (and node id bytes, when the spec filters nodes).
        self._static: dict[bytes, bool] = {}
        self._key = _EVENT_NODE if spec.allowed_nodes is not None else _EVENT
        self._tests = spec.field_tests
        self._sample_every = spec.sample_every
        #: Compiled tests per schema plan.
        self._plans: dict[SchemaPlan, Check] = {}

    # ------------------------------------------------------------------
    def _static_admit(self, key: bytes) -> bool:
        """The identity decision for raw id bytes, memoized (to the cap)."""
        event_id = int.from_bytes(key[:4], "little")
        node_id = int.from_bytes(key[4:], "little")
        spec = self.spec
        admitted = not (
            (spec.allowed_events is not None and event_id not in spec.allowed_events)
            or event_id in spec.blocked_events
            or (spec.allowed_nodes is not None and node_id not in spec.allowed_nodes)
        )
        if len(self._static) < _MAX_STATIC_MEMO:
            self._static[key] = admitted
        return admitted

    def _sampled_out(self, event_id: int) -> bool:
        """Advance the per-event-id sampling counter; True = drop."""
        count = self._counters.get(event_id, 0)
        self._counters[event_id] = count + 1
        return count % self._sample_every != 0

    def _tests_pass(self, payload: bytes) -> tuple[Check | None, bool]:
        """The field tests' verdict on a payload no guessed check took, and
        the check of its schema (``None`` for a schema with no plan yet).
        A payload that is not a record passes — the EXS rejects (and
        counts) it next."""
        plan = None
        if len(payload) >= native.HEADER_SIZE:
            total, n_fields = _TOTAL_COUNT(payload)
            if total <= len(payload):
                plan, _ = native_match(payload, 0, total, n_fields)
        if plan is None:
            # Unseen schema: decode once (compiling its plan) and share the
            # reference evaluation.
            try:
                record, _ = native.unpack_record(payload)
            except native.NativeCodecError:
                return None, True
            return None, self.spec.matches(record)
        try:
            check = self._plans[plan]
        except KeyError:
            check = _compile_tests(self._tests, plan)
            if len(self._plans) < _MAX_STATIC_MEMO:
                self._plans[plan] = check
        return check, bool(check(payload))

    # ------------------------------------------------------------------
    def admit_many(self, payloads: Sequence[bytes]) -> list[bytes]:
        """The *payloads* the filter admits, in order: the identity
        decision (a slice of the raw ids and a memo hit per payload), then
        the field tests when the spec has any, then the sampling counter
        when it samples."""
        get = self._static.get
        key = self._key
        kept = [
            payload
            for payload in payloads
            if get(payload[key])
            or get(payload[key]) is None and self._static_admit(payload[key])
        ]
        if self._tests:
            kept = self._tested(kept)
        if self._sample_every > 1:
            kept = [p for p in kept if not self._sampled_out(int.from_bytes(p[4:8], "little"))]
        self.passed += len(kept)
        self.dropped += len(payloads) - len(kept)
        return kept

    def _tested(self, payloads: list[bytes]) -> list[bytes]:
        """The *payloads* that pass the field tests."""
        # The check compiled for the schema last seen at a length is tried
        # before the lookup: a fixed-size schema is one length.
        guesses: dict[int, Check | None] = {}
        kept = []
        for payload in payloads:
            check = guesses.get(len(payload))
            verdict = None
            if check is not None:
                try:
                    verdict = check(payload)
                except (struct.error, ValueError):
                    pass
            if verdict is None:
                check, verdict = self._tests_pass(payload)
                guesses[len(payload)] = check
            if verdict:
                kept.append(payload)
        return kept

    def admit_payload(self, payload: bytes) -> bool:
        """:meth:`admit_many` for one payload."""
        return bool(self.admit_many((payload,)))

    def admit(self, record: EventRecord) -> bool:
        """Decoded-record entry point, identical in effect to
        :meth:`FilterState.admit <repro.core.filtering.FilterState.admit>`."""
        if not self.spec.matches(record) or (
            self._sample_every > 1 and self._sampled_out(record.event_id)
        ):
            self.dropped += 1
            return False
        self.passed += 1
        return True
