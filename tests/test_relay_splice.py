"""The relay forwards record bytes; the ISM builds each record once.

A relay checks a downstream batch with one validating walk
(:func:`protocol.view_message`) and splices runs of batches as bytes
(:func:`protocol.splice_batch`); records first become objects at the ISM,
whose decode stamps each batch's node from the manager's Hello registry.

* Differential properties (``@pytest.mark.property``): the walk accepts a
  frame exactly when :func:`protocol.decode_message` does, over every
  truncation and byte flip; and what the relay sends upstream decodes to
  the records, in the order, that the decode + re-encode relay it replaced
  sent — byte for byte for canonical input.  That relay is modelled here
  (:func:`_reencoded_frames`) as the reference.
* Counted: a default-config relay builds no record, and neither an ISM
  behind a relay nor a shard worker rebuilds one after decode.
"""

from __future__ import annotations

import collections
import multiprocessing as mp
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from tests.conftest import wait_until
from tests.strategies import batches as record_lists, text

from repro.core import plan
from repro.core.consumers import CollectingConsumer
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.merge import OrderedMerger
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import ring_for_records
from repro.obs.reporter import METRICS_EVENT_ID
from repro.runtime.ism_proc import IsmServer
from repro.runtime.plane import PLANE_CAPS
from repro.runtime.relay_proc import RelayConfig, RelayServer, _Envelope, _Source
from repro.runtime.shard import ShardConfig, ShardWorker
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import MessageListener, connect

FT = FieldType

#: How a downstream batch is spelled on the wire.  The first four are
#: canonical: the relay's output is byte-identical to a re-encode.
CANONICAL = ("plain", "compressed", "range", "empty")
FLAVOURS = CANONICAL + ("plain_meta", "delta")


@pytest.fixture(autouse=True)
def _fresh_plans(monkeypatch):
    """Empty plan caches per test (see ``tests/test_plan.py``)."""
    for cache in ("_by_types", "_by_meta", "_native_fixed", "_native_var"):
        monkeypatch.setattr(plan, cache, {})


def _frame(exs_id, seq, records, flavour, span=1):
    """One downstream batch frame of *flavour*; ``range`` covers *span*
    sequence numbers, as a child relay's coalesced frame does."""
    if flavour == "empty":
        records = []
    payload = protocol.encode_batch_records(
        exs_id,
        seq,
        records,
        compress_meta=flavour != "plain_meta",
        delta_ts=flavour == "delta",
        first_seq=seq - span + 1 if flavour == "range" else None,
    )
    if flavour == "compressed":
        return protocol.compress_frame(payload, caps=protocol.CAP_COMPRESS)
    return payload


def _outcome(fn, payload):
    try:
        fn(payload)
    except Exception as exc:  # noqa: BLE001 - the type *is* the observation
        return type(exc)
    return "ok"


def _corruptions(payload: bytes, flip: int):
    """Every truncation of *payload*, then every byte XORed with *flip*."""
    for cut in range(len(payload)):
        yield payload[:cut]
    for position in range(len(payload)):
        flipped = bytearray(payload)
        flipped[position] ^= flip
        yield bytes(flipped)


# ----------------------------------------------------------------------
# the walk accepts exactly what the decoder accepts
# ----------------------------------------------------------------------


@pytest.mark.property
@settings(deadline=None)
@given(record_lists(max_fields=8), st.sampled_from(FLAVOURS), st.integers(1, 255))
def test_walk_accepts_what_decode_accepts(recs, flavour, flip):
    frame = _frame(5, 9, recs, flavour, span=3)
    for payload in (frame, *_corruptions(frame, flip)):
        decoded = _outcome(protocol.decode_message, payload)
        assert _outcome(protocol.view_message, payload) == decoded
        if decoded != "ok":
            continue
        batch = protocol.decode_message(payload)
        view = protocol.view_message(payload)
        if not isinstance(batch, protocol.Batch):
            assert view == batch  # a flip turned it into a control message
            continue
        assert (view.exs_id, view.seq, view.first_seq, view.count) == (
            batch.exs_id, batch.seq, batch.first_seq, len(batch.records)
        )
        # repr: a NaN a flip produced compares equal to itself
        assert repr([view.decode_span(s) for s in view.spans()]) == repr(list(batch.records))
        assert view.key == (batch.records[0].sort_key() if batch.records else (0, 0, 0))


# ----------------------------------------------------------------------
# the splice sends what the re-encode sent
# ----------------------------------------------------------------------


def _metric(name: str, value: float, ts: int) -> EventRecord:
    return EventRecord(METRICS_EVENT_ID, ts, (FT.X_STRING, FT.X_DOUBLE), (name, value))


@st.composite
def _payloads(draw):
    """One batch's records: a schema mix, or metric snapshots among them."""
    recs = draw(record_lists(max_fields=8))
    if draw(st.booleans()):
        names = st.sampled_from(["a", "b", draw(text)])
        snapshots = draw(st.lists(
            st.builds(_metric, names, st.floats(allow_nan=False), st.integers(0, 2**40)),
            max_size=4,
        ))
        recs = snapshots + recs
    return recs


@st.composite
def _streams(draw, flavours):
    """Two sources' downstream frames, each source's seqs consecutive:
    ``(exs_id, frame)`` in arrival order."""
    frames = []
    for exs_id in (1, 2):
        seq = draw(st.integers(0, 1000))
        for _ in range(draw(st.integers(0, 5))):
            flavour = draw(st.sampled_from(flavours))
            span = draw(st.integers(2, 3)) if flavour == "range" else 1
            seq += span
            frames.append((exs_id, _frame(exs_id, seq, draw(_payloads()), flavour, span)))
    return frames


def _relay_frames(frames, caps, reduce_metrics, batch_max_bytes=4096):
    """Frames the relay sends upstream for one coalescing window."""
    relay = RelayServer(
        RelayConfig(reduce_metrics=reduce_metrics, batch_max_bytes=batch_max_bytes)
    )
    try:
        relay.uplink.peer_caps = caps
        relay.uplink.conn = object()  # connected: the flush ships
        sent = []
        relay.uplink.send = lambda out: (sent.extend(out), (0, 0))[1]
        for exs_id in (1, 2):
            relay.sources[exs_id] = _Source(exs_id)
            relay.merger.add_shard(exs_id)
        for exs_id, frame in frames:
            relay.sources[exs_id].queued += 1
            relay.merger.push(exs_id, (_Envelope(protocol.view_message(frame), len(frame)),))
        relay._flush_upstream()
        return sent
    finally:
        relay.listener.close()


class _Decoded:
    """The re-encode relay's envelope: the batch decoded to records."""

    def __init__(self, frame):
        batch = protocol.decode_message(frame)
        self.exs_id = batch.exs_id
        self.first = batch.seq if batch.first_seq is None else batch.first_seq
        self.last = batch.seq
        self.records = batch.records
        compressed = int.from_bytes(frame[4:8], "big") == protocol.MsgType.COMPRESSED
        self.raw = None if compressed else frame
        self.wire_bytes = len(frame)

    def sort_key(self):
        return self.records[0].sort_key() if self.records else (0, 0, 0)


def _reencoded_frames(frames, caps, reduce_metrics, batch_max_bytes=4096):
    """The reference: the relay that decoded every batch and re-encoded
    each coalesced run through ``encode_batch_records``."""
    merger = OrderedMerger()
    for exs_id in (1, 2):
        merger.add_shard(exs_id)
    for exs_id, frame in frames:
        merger.push(exs_id, (_Decoded(frame),))
    runs: list[list[_Decoded]] = []
    for env in merger.flush():
        run = runs[-1] if runs else None
        if (
            run is None
            or env.exs_id != run[-1].exs_id
            or env.first != run[-1].last + 1
            or sum(e.wire_bytes for e in run) + env.wire_bytes > batch_max_bytes
        ):
            runs.append([env])
        else:
            run.append(env)
    coalesce_ok = bool(caps & protocol.CAP_SEQ_RANGE)
    out = []
    for run in runs:
        first, last = run[0].first, run[-1].last
        if len(run) == 1 and not reduce_metrics and run[0].raw is not None:
            if first == last or coalesce_ok:
                out.append((run[0].exs_id, last, run[0].raw))
                continue
        records = [rec for env in run for rec in env.records]
        if reduce_metrics:
            seen, kept = set(), []
            for rec in reversed(records):
                if rec.event_id == METRICS_EVENT_ID and rec.values:
                    if (rec.node_id, rec.values[0]) in seen:
                        continue
                    seen.add((rec.node_id, rec.values[0]))
                kept.append(rec)
            records = kept[::-1]
        payload = protocol.encode_batch_records(
            run[0].exs_id, last, records,
            first_seq=first if coalesce_ok and first != last else None,
        )
        out.append((run[0].exs_id, last, payload))
    return out


def _records(sent):
    """Every record the frames carry, in order, and each source's last seq
    (the frames' seqs rise per source: acks stay cumulative)."""
    records, last_seq = [], {}
    for exs_id, last, payload in sent:
        batch = protocol.decode_message(payload)
        assert (batch.exs_id, batch.seq) == (exs_id, last)
        assert batch.seq > last_seq.get(exs_id, -1)
        records.extend(batch.records)
        last_seq[exs_id] = batch.seq
    return records, last_seq


def _fold_invariant(records):
    """What every fold window keeps: the non-snapshot records in order, and
    each snapshot name's latest record."""
    plain, latest = [], {}
    for rec in records:
        if rec.event_id == METRICS_EVENT_ID and rec.values:
            latest[rec.values[0]] = rec
        else:
            plain.append(rec)
    return plain, latest


@pytest.mark.property
@settings(deadline=None)
@given(
    _streams(FLAVOURS),
    st.sampled_from([PLANE_CAPS, PLANE_CAPS & ~protocol.CAP_SEQ_RANGE]),
    st.booleans(),
)
def test_splice_decodes_like_reencode(frames, caps, reduce_metrics):
    spliced = _relay_frames(frames, caps, reduce_metrics)
    reference = _reencoded_frames(frames, caps, reduce_metrics)
    if not reduce_metrics:
        assert _records(spliced) == _records(reference)
    else:
        # A plain-meta or DELTA_TS batch now ends its frame, and the fold
        # works within one frame: a superseded snapshot may survive, but
        # every other record, and each name's latest snapshot, is the same.
        (got, got_seqs), (want, want_seqs) = _records(spliced), _records(reference)
        assert got_seqs == want_seqs
        assert _fold_invariant(got) == _fold_invariant(want)
    if not caps & protocol.CAP_SEQ_RANGE:
        for _, _, payload in spliced:
            assert protocol.decode_message(payload).first_seq is None


@pytest.mark.property
@settings(deadline=None)
@given(
    _streams(CANONICAL),
    st.sampled_from([PLANE_CAPS, PLANE_CAPS & ~protocol.CAP_SEQ_RANGE]),
    st.booleans(),
)
def test_splice_is_byte_identical_for_canonical_input(frames, caps, reduce_metrics):
    assert _relay_frames(frames, caps, reduce_metrics) == _reencoded_frames(
        frames, caps, reduce_metrics
    )


def test_delta_ts_batches_travel_alone_and_verbatim():
    recs = [EventRecord(1, 1_000 + i, (FT.X_INT,), (i,)) for i in range(4)]
    frames = [(1, _frame(1, seq, recs, "delta")) for seq in (1, 2, 3)]
    sent = _relay_frames(frames, PLANE_CAPS, False)
    assert [payload for _, _, payload in sent] == [frame for _, frame in frames]
    # Toward an upstream without CAP_SEQ_RANGE only the first_seq word goes.
    ranged = protocol.encode_batch_records(1, 6, recs, delta_ts=True, first_seq=4)
    [(_, _, payload)] = _relay_frames(
        [(1, ranged)], PLANE_CAPS & ~protocol.CAP_SEQ_RANGE, False
    )
    assert payload == protocol.encode_batch_records(1, 6, recs, delta_ts=True)


def test_no_first_seq_toward_a_legacy_upstream():
    # A one-seq range frame went out verbatim, first_seq and all, before.
    frame = protocol.encode_batch_records(1, 3, [], first_seq=3)
    [(_, _, payload)] = _relay_frames(
        [(1, frame)], PLANE_CAPS & ~protocol.CAP_SEQ_RANGE, False
    )
    assert payload == protocol.encode_batch_records(1, 3, [])


def test_a_lone_view_the_peer_can_read_is_its_own_payload():
    """The relay's common case, a run of one batch, is forwarded uncopied
    unless the peer cannot read its header."""
    recs = [EventRecord(7, 10, (FT.X_INT,), (1,))]
    plain = protocol.view_message(_frame(1, 5, recs, "plain"))
    ranged = protocol.view_message(_frame(1, 5, recs, "range", span=2))
    for caps in (0, PLANE_CAPS):
        assert protocol.splice_batch([plain], 5, caps=caps, first_seq=5) is plain.payload
    assert protocol.splice_batch([ranged], 5, caps=PLANE_CAPS, first_seq=4) is ranged.payload
    legacy = protocol.splice_batch([ranged], 5, caps=0, first_seq=4)
    assert legacy == protocol.encode_batch_records(1, 5, recs)


def test_non_canonical_record_is_forwarded_as_sent():
    # A float32 signalling NaN does not survive a decode + re-encode
    # (Python widens it to a quiet NaN); the splice keeps its bits.
    rec = EventRecord(1, 5, (FT.X_FLOAT,), (0.0,))
    frames = []
    for seq in (1, 2):
        payload = bytearray(protocol.encode_batch_records(1, seq, [rec]))
        payload[-4:] = b"\x7f\x80\x00\x01"
        frames.append((1, bytes(payload)))
    [(_, _, spliced)] = _relay_frames(frames, PLANE_CAPS, False)
    [(_, _, reencoded)] = _reencoded_frames(frames, PLANE_CAPS, False)
    assert spliced.count(b"\x7f\x80\x00\x01") == 2
    assert reencoded.count(b"\x7f\x80\x00\x01") == 0


# ----------------------------------------------------------------------
# counted: where records are built
# ----------------------------------------------------------------------


#: A schema mix like the benchmark's mixed workload: fixed and
#: variable-length, wide, causal.
MIXED = (
    (FT.X_INT,),
    (FT.X_INT,) * 6,
    (FT.X_INT, FT.X_TS, FT.X_DOUBLE, FT.X_UINT),
    (FT.X_INT, FT.X_STRING),
    (FT.X_INT, FT.X_INT, FT.X_STRING, FT.X_DOUBLE),
    (FT.X_INT, FT.X_OPAQUE, FT.X_UINT, FT.X_SHORT, FT.X_UBYTE, FT.X_FLOAT, FT.X_HYPER, FT.X_INT),
    (FT.X_INT, FT.X_REASON, FT.X_INT),
    (FT.X_INT, FT.X_CONSEQ, FT.X_INT),
)
_SAMPLE = {
    FT.X_STRING: "héllo", FT.X_OPAQUE: b"\x01\x02\x03", FT.X_DOUBLE: 2.5, FT.X_FLOAT: 0.5,
}


def _stream(exs_id, n_batches, mixed, per_batch=32):
    """One source's batch frames: the 6-int schema, or the mix."""
    frames, records = [], []
    ts = now_micros()
    for seq in range(n_batches):
        batch = []
        for i in range(per_batch):
            types = MIXED[i % len(MIXED)] if mixed else MIXED[1]
            values = tuple(_SAMPLE.get(t, seq + i) for t in types)
            batch.append(EventRecord(7, ts + seq * per_batch + i, types, values))
        frames.append(protocol.encode_batch_records(exs_id, seq, batch))
        records.extend(batch)
    return frames, records


@pytest.fixture
def built_on(monkeypatch):
    """Records built per thread name: both constructors counted (plans
    compiled from here on bind the counting ``from_wire``)."""
    built: collections.Counter[str] = collections.Counter()
    init = EventRecord.__init__
    from_wire = EventRecord.from_wire.__func__

    def counting_init(self, *args, **kwargs):
        built[threading.current_thread().name] += 1
        init(self, *args, **kwargs)

    def counting_from_wire(cls, *args):
        built[threading.current_thread().name] += 1
        return from_wire(cls, *args)

    monkeypatch.setattr(EventRecord, "__init__", counting_init)
    monkeypatch.setattr(EventRecord, "from_wire", classmethod(counting_from_wire))
    return built


def test_default_relay_builds_no_record(built_on):
    streams = [_stream(1, 20, mixed=False), _stream(2, 20, mixed=True)]
    want = [records for _, records in streams]
    upstream = MessageListener("127.0.0.1", 0)
    relay = RelayServer(RelayConfig(
        upstream_host="127.0.0.1",
        upstream_port=upstream.address[1],
        compress_min_bytes=4096,
    ))
    thread = threading.Thread(target=relay.serve, name="relay", daemon=True)
    thread.start()
    down = up = None
    relayed: dict[int, list[EventRecord]] = {1: [], 2: []}
    try:
        down = connect(*relay.address)
        for exs_id, (frames, _) in enumerate(streams, 1):
            down.send(protocol.Hello(exs_id, 10 + exs_id, wants_ack=True, capabilities=PLANE_CAPS))
            for frame in frames:
                down.send_raw(frame)
        up = upstream.accept(timeout=5.0)
        deadline = time.monotonic() + 10.0
        while [relayed[1], relayed[2]] != want and time.monotonic() < deadline:
            for payload in up.recv_frames(timeout=0.05):
                msg = protocol.decode_message(payload)
                if isinstance(msg, protocol.Hello):
                    up.send(protocol.HelloReply(msg.exs_id, -1, PLANE_CAPS))
                elif isinstance(msg, protocol.Batch):
                    relayed[msg.exs_id].extend(msg.records)
    finally:
        relay.stop()
        thread.join(5.0)
        for conn in (down, up):
            if conn is not None:
                conn.close()
        upstream.close()
    assert [relayed[1], relayed[2]] == want
    assert built_on["relay"] == 0


@pytest.fixture
def decoded_objects(monkeypatch):
    """Ids of every record the protocol decoder returns, and the ids each
    ``push_many`` is handed — the latter must lie in the former."""
    decoded: set[int] = set()
    decode = protocol.decode_message

    def remembering_decode(payload, **kwargs):
        msg = decode(payload, **kwargs)
        if isinstance(msg, protocol.Batch):
            decoded.update(map(id, msg.records))
        return msg

    monkeypatch.setattr(protocol, "decode_message", remembering_decode)
    return decoded


def _pushes(manager):
    """Wrap *manager*'s sorter intake; returns the list of pushed records."""
    pushed: list[EventRecord] = []
    push_many = manager.sorter.push_many

    def recording_push_many(source, records, now):
        pushed.extend(records)
        return push_many(source, records, now)

    manager.sorter.push_many = recording_push_many
    return pushed


def test_ism_behind_relay_rebuilds_no_record(decoded_objects):
    streams = [_stream(1, 10, mixed=False), _stream(2, 10, mixed=True)]
    want = sum(len(records) for _, records in streams)
    consumer = CollectingConsumer()
    manager = InstrumentationManager(IsmConfig(), [consumer])
    pushed = _pushes(manager)
    ism = IsmServer(manager, MessageListener("127.0.0.1", 0), sync_period_s=3600)
    relay = RelayServer(RelayConfig(
        upstream_host="127.0.0.1", upstream_port=ism.listener.address[1],
        compress_min_bytes=4096,
    ))
    threads = [
        threading.Thread(target=ism.serve, kwargs={"until_records": want}, daemon=True),
        threading.Thread(target=relay.serve, daemon=True),
    ]
    for thread in threads:
        thread.start()
    down = connect(*relay.address)
    try:
        for exs_id, (frames, _) in enumerate(streams, 1):
            down.send(protocol.Hello(exs_id, 10 + exs_id, wants_ack=True, capabilities=PLANE_CAPS))
            for frame in frames:
                down.send_raw(frame)
        wait_until(lambda: manager.stats.records_received >= want, timeout=10.0)
    finally:
        relay.stop()
        ism.stop()
        for thread in threads:
            thread.join(5.0)
        down.close()
    assert len(pushed) == want
    assert all(id(rec) in decoded_objects for rec in pushed)
    assert {rec.node_id for rec in pushed} == {11, 12}


def test_shard_worker_queues_the_decoded_records(decoded_objects):
    control, _peer = mp.Pipe()
    worker = ShardWorker(
        ShardConfig(shard_id=0, input_ring="", output_ring=""),
        ring_for_records(1_000), ring_for_records(1_000), control,
    )
    pushed = _pushes(worker.manager)
    frames, records = _stream(4, 3, mixed=True)
    now = now_micros()
    worker._handle_frame(protocol.encode_message(protocol.Hello(4, 44)), now)
    for frame in frames:
        worker._handle_frame(frame, now)
    assert len(pushed) == len(records)
    assert all(id(rec) in decoded_objects for rec in pushed)
    assert {rec.node_id for rec in pushed} == {44}
