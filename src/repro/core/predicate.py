"""Compiled source-side filter predicates over packed native payloads.

The ISM pushes :class:`~repro.core.filtering.FilterSpec` down to external
sensors at runtime; this module is the compile step that makes the pushed
filter *cheap*.  A :class:`CompiledFilterState` evaluates the spec
directly on the packed ring payload — the EXS poll loop asks it **before**
decoding, so a dropped record never pays decode, clock correction, or XDR
encoding:

* the event and node ids are read with one ``struct`` peek from the fixed
  header offsets, and the identity decision (whitelist/blocklist/node) is
  memoized per id — steady state is a dict hit per record;
* field tests compile against the schema plans the native decoder uses
  (:mod:`repro.core.plan`): the plan's native unpack yields every field
  value with the tags checked — fixed-size and variable-length schemas
  alike — and the precompiled ``(position, op, operand)`` triples run over
  that tuple — no :class:`EventRecord` is ever built;
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
from typing import Any, Callable

from repro.core import native
from repro.core.filtering import _OP_FNS, FieldTest, FilterSpec
from repro.core.plan import SchemaPlan, native_match
from repro.core.records import EventRecord

__all__ = ["CompiledFilterState"]

#: ``event_id`` and ``node_id`` live at bytes 4..12 of the native header.
_EVENT_NODE = struct.Struct("<II")
#: One-shot header peek for the field-test path: ``total_length``,
#: ``event_id``, ``node_id``, ``n_fields`` — everything the schema key
#: and the identity decision need, in a single struct call.
_HEADER = struct.Struct("<IIIH")

#: Memo cap: an adversarial stream minting unbounded distinct event ids
#: (or schemas) must not grow the decision caches without bound.  Past
#: the cap the decision is recomputed per record (correct, just slower).
_MAX_STATIC_MEMO = 4096


def _compile_tests(
    tests: tuple[FieldTest, ...], plan: SchemaPlan
) -> tuple[tuple[int, Callable[[Any, Any], bool], int | float], ...] | None:
    """Compile *tests* against one schema plan.

    Returns ``(field_index, op_fn, operand)`` triples over the plan's
    unpacked values, or ``None`` when a test names a field the schema does
    not have or a string/opaque field (tests are numeric) — the schema can
    never pass.  Every other field is numeric, so no type check is needed
    per value.
    """
    compiled = []
    for test in tests:
        index = test.field_index
        if index >= len(plan.field_types) or index in plan.var_fields:
            return None
        compiled.append((index, _OP_FNS[test.op], test.value))
    return tuple(compiled)


class CompiledFilterState:
    """A :class:`FilterSpec` compiled to run on packed native payloads.

    Mirrors :class:`~repro.core.filtering.FilterState`'s surface
    (``spec``/``dropped``/``passed``/``admit``) and adds
    :meth:`admit_payload`, the pre-decode fast path the EXS drains
    through.  Sampling counters are shared between both entry points, so
    mixing them keeps the per-event-id modular arithmetic exact.
    """

    __slots__ = (
        "spec",
        "dropped",
        "passed",
        "admit_payload",
        "_counters",
        "_static",
        "_node_sensitive",
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
        #: Identity-decision memo: event_id -> bool, or
        #: (event_id, node_id) -> bool when the spec filters nodes.
        self._static: dict[Any, bool] = {}
        self._node_sensitive = spec.allowed_nodes is not None
        self._tests = spec.field_tests
        self._sample_every = spec.sample_every
        #: Compiled tests per schema plan (``None`` = can never pass).
        self._plans: dict[SchemaPlan, tuple | None] = {}
        #: The per-record entry point, bound once: specs without field
        #: tests never branch on them in the hot loop.
        self.admit_payload = (
            self._admit_tests if spec.field_tests else self._admit_static
        )

    # ------------------------------------------------------------------
    def _static_admit(self, event_id: int, node_id: int) -> bool:
        spec = self.spec
        if spec.allowed_events is not None and event_id not in spec.allowed_events:
            return False
        if event_id in spec.blocked_events:
            return False
        if spec.allowed_nodes is not None and node_id not in spec.allowed_nodes:
            return False
        return True

    def _sample(self, event_id: int) -> bool:
        """Advance the per-event-id sampling counter; True = keep."""
        n = self._sample_every
        if n > 1:
            count = self._counters.get(event_id, 0)
            self._counters[event_id] = count + 1
            if count % n:
                self.dropped += 1
                return False
        self.passed += 1
        return True

    # ------------------------------------------------------------------
    # admit_payload is one of the two bound methods below, chosen once in
    # __init__ — the hot loop never branches on spec shape per record.
    # ------------------------------------------------------------------
    def _admit_static(self, payload: bytes) -> bool:
        """Payload decision for specs without field tests: one header
        peek, one memo hit, the sampling counter."""
        event_id, node_id = _EVENT_NODE.unpack_from(payload, 4)
        key = (event_id, node_id) if self._node_sensitive else event_id
        static = self._static.get(key)
        if static is None:
            static = self._static_admit(event_id, node_id)
            if len(self._static) < _MAX_STATIC_MEMO:
                self._static[key] = static
        if not static:
            self.dropped += 1
            return False
        # _sample, inlined: the sampling counter is the common tail of
        # every admitted record and a call frame per record is measurable.
        n = self._sample_every
        if n > 1:
            count = self._counters.get(event_id, 0)
            self._counters[event_id] = count + 1
            if count % n:
                self.dropped += 1
                return False
        self.passed += 1
        return True

    def _admit_tests(self, payload: bytes) -> bool:
        """Payload decision for specs with field tests: one header peek,
        the schema plan's native unpack, the compiled tests."""
        total, event_id, node_id, n_fields = _HEADER.unpack_from(payload, 0)
        key = (event_id, node_id) if self._node_sensitive else event_id
        static = self._static.get(key)
        if static is None:
            static = self._static_admit(event_id, node_id)
            if len(self._static) < _MAX_STATIC_MEMO:
                self._static[key] = static
        if not static:
            self.dropped += 1
            return False
        plan, values = native_match(payload, 0, total, n_fields)
        if plan is None:
            # Unseen schema: decode once (compiling its plan) and share the
            # reference evaluation.
            record, _ = native.unpack_record(payload)
            if not self.spec.matches(record):
                self.dropped += 1
                return False
            return self._sample(event_id)
        try:
            compiled = self._plans[plan]
        except KeyError:
            compiled = _compile_tests(self._tests, plan)
            if len(self._plans) < _MAX_STATIC_MEMO:
                self._plans[plan] = compiled
        if compiled is None:
            self.dropped += 1
            return False
        for index, op_fn, operand in compiled:
            if not op_fn(values[index], operand):
                self.dropped += 1
                return False
        return self._sample(event_id)

    def admit(self, record: EventRecord) -> bool:
        """Decoded-record entry point, identical in effect to
        :meth:`FilterState.admit <repro.core.filtering.FilterState.admit>`."""
        if not self.spec.matches(record):
            self.dropped += 1
            return False
        return self._sample(record.event_id)
