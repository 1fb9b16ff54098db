"""The five benchmark workloads and their seeded input generator.

A workload fixes a topology (which processes, which delivery mode) and a
traffic shape (saturated backlog or open-loop paced); :func:`generate`
turns ``(workload, seed, n)`` into the records the application thread
will ``notice`` — the program under test receives nothing else.

Every record's first field is its per-source sequence number; the fixed
six-int schema carries the record's *due time* (µs after the run's start
signal) as its second field.  A preloaded (saturated) record is due at
the start signal, so its due field is 0.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from repro.core.records import FieldType as FT

#: Event id of the paper's six-int benchmark record.
FIXED_EVENT = 100
#: The paper's 40-byte wire record: six X_INT fields.
FIXED_SCHEMA = (FT.X_INT,) * 6

#: ``stream_mixed`` schema table: (weight %, field types).  Half the
#: traffic is variable-length (dynamic XDR fallback on the wire), a tenth
#: carries causal markers (the only records the CRE hash tables touch).
MIXED_SCHEMAS: tuple[tuple[int, tuple[FT, ...]], ...] = (
    (10, (FT.X_INT,)),
    (20, FIXED_SCHEMA),
    (10, (FT.X_INT, FT.X_TS, FT.X_DOUBLE, FT.X_UINT)),
    (20, (FT.X_INT, FT.X_STRING)),
    (15, (FT.X_INT, FT.X_INT, FT.X_STRING, FT.X_DOUBLE)),
    (
        15,
        (
            FT.X_INT,
            FT.X_OPAQUE,
            FT.X_UINT,
            FT.X_SHORT,
            FT.X_UBYTE,
            FT.X_FLOAT,
            FT.X_HYPER,
            FT.X_INT,
        ),
    ),
    (5, (FT.X_INT, FT.X_REASON, FT.X_INT)),
    (5, (FT.X_INT, FT.X_CONSEQ, FT.X_INT)),
)
_REASON, _CONSEQ = 6, 7
#: Generous per-record ring footprint used to size the preload ring.
RING_BYTES_PER_RECORD = {False: 72, True: 160}


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over one process topology."""

    name: str
    #: One line for ``BENCHMARK.json``: which layers this stresses.
    why: str
    #: Closed/saturated or open loop, with its rate — printed in reports.
    loop: str
    sources: int = 1
    #: Open-loop rate per source (records/s); None = preloaded backlog.
    rate_per_source: int | None = None
    #: Saturated sizing: records offered per timed second, all sources.
    #: A constant (not a calibration) so counts repeat run to run; set
    #: near the seed's delivered rate so a repetition lasts about as
    #: long as asked.
    nominal_ev_s: int = 0
    mixed: bool = False
    #: ``process`` = ExsProcess on a pre-connected socket;
    #: ``reconnecting`` = ReconnectingExs (shared outbox, resume).
    exs: str = "process"
    durable: bool = False
    relay: bool = False
    select_timeout_s: float = 0.040
    flush_timeout_us: int = 40_000
    #: Fixed clock-correction offset per source (µs ahead).
    clock_offsets_us: tuple[int, ...] = (0,)

    @property
    def saturated(self) -> bool:
        return self.rate_per_source is None

    def records_per_source(self, rep_seconds: float) -> int:
        """Records each source offers in one repetition of *rep_seconds*."""
        if self.rate_per_source is not None:
            return max(100, int(self.rate_per_source * rep_seconds))
        return max(1000, int(self.nominal_ev_s * rep_seconds) // self.sources)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream_fixed",
            why="paper E3: 6-int record, every fast path (compile_notice, native "
            "unpack, fastcodec, push_many, deliver_many) is hot; ISM-bound",
            loop="closed: 1 preloaded ring, EXS drains as fast as acks allow",
            nominal_ev_s=300_000,
        ),
        Workload(
            name="stream_mixed",
            why="same layers used differently: 8 schemas, half var-length (dynamic "
            "XDR fallback), causal pairs; a fixed-schema gain must move nothing here",
            loop="closed: 1 preloaded ring, EXS drains as fast as acks allow",
            nominal_ev_s=90_000,
            mixed=True,
        ),
        Workload(
            name="paced_two_source",
            why="paper E4/E4b: open loop at a third of capacity; latency is set by "
            "poll/flush/tick/sort-hold, not codec CPU. Provisional: ring access serialised "
            "by a benchmark lock until the ring header race is fixed",
            loop="open: 2 sources x 10000 records/s, timed from each record's due time",
            sources=2,
            rate_per_source=10_000,
            exs="reconnecting",
            select_timeout_s=0.001,
            flush_timeout_us=1_000,
            clock_offsets_us=(0, 1_500),
        ),
        Workload(
            name="durable_stream",
            why="the write path: commit-log framing/append/fsync/checkpoint and "
            "ack-after-fsync gating do most of the work here and none in stream_fixed",
            loop="closed: 1 preloaded ring, outbox waits for fsync-gated acks",
            nominal_ev_s=110_000,
            exs="reconnecting",
            durable=True,
        ),
        Workload(
            name="relay_tree",
            why="only socket-path cover of the relay tier: coalescing, pre-sort, negotiated "
            "compression, hop-by-hop acks; two EXS threads fan in through one RelayServer",
            loop="closed: 2 preloaded rings, 2 EXS threads, relay to IsmServer",
            sources=2,
            nominal_ev_s=160_000,
            relay=True,
            clock_offsets_us=(0, 0),
        ),
    )
}

@dataclass
class SourceInput:
    """Everything one source's application thread will emit, in order."""

    node_id: int
    exs_id: int
    #: ``(schema index, event id, values)`` per record; ``values[0]`` is
    #: the per-source sequence number.
    events: list[tuple[int, int, tuple[Any, ...]]]


def schemas_of(workload: Workload) -> tuple[tuple[FT, ...], ...]:
    """Field-type tuples the workload's records use (by schema index)."""
    if workload.mixed:
        return tuple(types for _, types in MIXED_SCHEMAS)
    return (FIXED_SCHEMA,)


def generate(workload: Workload, seed: int, n: int) -> list[SourceInput]:
    """Seeded inputs: *n* records per source.  Same arguments, same bytes."""
    out = []
    for index in range(workload.sources):
        rng = random.Random(f"{seed}/{workload.name}/{index}")
        events = _mixed_events(rng, n) if workload.mixed else _fixed_events(
            rng, n, workload.rate_per_source
        )
        out.append(SourceInput(node_id=index + 1, exs_id=index + 1, events=events))
    return out


def _fixed_events(rng: random.Random, n: int, rate: int | None) -> list:
    bits = rng.getrandbits
    interval_us = 0.0 if rate is None else 1e6 / rate
    return [
        (0, FIXED_EVENT, (seq, int(seq * interval_us), bits(31), bits(31), bits(31), bits(31)))
        for seq in range(n)
    ]


def _mixed_events(rng: random.Random, n: int) -> list:
    bits = rng.getrandbits
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789/_-"
    # Contents are seeded; the *lengths* are the same multiset for every
    # seed (3..48 and 1..32, evenly spread), so bytes per record depend
    # on the seed only through which pool entries get picked.
    strings = ["".join(rng.choices(alphabet, k=3 + i * 45 // 255)) for i in range(256)]
    blobs = [rng.randbytes(1 + i * 31 // 63) for i in range(64)]
    picks = rng.choices(
        range(len(MIXED_SCHEMAS)), weights=[w for w, _ in MIXED_SCHEMAS], k=n
    )
    open_reasons: list[int] = []
    next_reason = 1
    events = []
    for seq, si in enumerate(picks):
        if si == _CONSEQ and not open_reasons:
            si = _REASON  # a consequence always follows its reason
        if si == 0:
            values: tuple = (seq,)
        elif si == 1:
            values = (seq, bits(31), bits(31), bits(31), bits(31), bits(31))
        elif si == 2:
            values = (seq, 1_700_000_000_000_000 + bits(40), rng.random(), bits(32))
        elif si == 3:
            values = (seq, strings[bits(8)])
        elif si == 4:
            values = (seq, bits(31), strings[bits(8)], rng.random())
        elif si == 5:
            values = (
                seq,
                blobs[bits(6)],
                bits(32),
                bits(15),
                bits(8),
                bits(16) / 8.0,  # exact in float32, so it round-trips
                bits(62),
                bits(31),
            )
        elif si == _REASON:
            values = (seq, next_reason, bits(31))
            open_reasons.append(next_reason)
            next_reason += 1
        else:
            values = (seq, open_reasons.pop(0), bits(31))
        events.append((si, FIXED_EVENT + si, values))
    return events


def inputs_digest(inputs: list[SourceInput]) -> str:
    """SHA-256 over the generated inputs (the same-seed-same-bytes check)."""
    h = hashlib.sha256()
    for src in inputs:
        h.update(repr((src.node_id, src.exs_id, src.events)).encode())
    return h.hexdigest()


def journal_of(inputs: list[SourceInput]) -> list[tuple[int, int]]:
    """The generator's ``(source, seq)`` journal, in offered order."""
    return [(src.node_id, ev[2][0]) for src in inputs for ev in src.events]
