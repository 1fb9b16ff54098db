"""Robustness tests: fuzzing, concurrency, failure injection.

A monitoring kernel must be the *last* thing to fall over: decoders face
corrupt bytes, the ring faces a true concurrent producer/consumer, and the
ISM faces peers that vanish mid-stream.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st
from tests.conftest import make_mixed_record, make_record

from repro.core import native
from repro.core.cre import CausalMatcher, CreConfig
from repro.core.records import EventRecord, FieldType
from repro.core.ringbuffer import HEADER_SIZE, RingBuffer
from repro.wire import protocol
from repro.xdr import RecordMarkingReader, XdrDecodeError


class TestDecoderFuzzing:
    """Corrupt inputs must raise the codec's error types — never crash
    with arbitrary exceptions, never hang, never allocate unboundedly."""

    @given(st.binary(max_size=512))
    @settings(max_examples=200)
    def test_message_decoder_total(self, data):
        try:
            protocol.decode_message(data)
        except (XdrDecodeError, protocol.ProtocolError):
            pass  # the contract: structured rejection

    @given(st.binary(max_size=256))
    @settings(max_examples=200)
    def test_native_decoder_total(self, data):
        try:
            native.unpack_record(data)
        except native.NativeCodecError:
            pass

    @given(
        st.binary(max_size=256),
        st.integers(0, 255),
        st.integers(0, 600),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_bitflipped_valid_batch(self, extra, flip_value, position, delta_ts):
        # String/opaque fields, a wide record and (with delta_ts) a flipped
        # base timestamp: every decoder path a bit can land in.
        encoded = bytearray(
            protocol.encode_batch_records(
                1, 0, [make_record(), make_mixed_record(), make_record(event_id=2)],
                delta_ts=delta_ts,
            )
        )
        if position < len(encoded):
            encoded[position] ^= flip_value or 0xFF
        try:
            protocol.decode_message(bytes(encoded) + extra)
        except XdrDecodeError:
            pass  # ProtocolError included: the contract is structured rejection

    @given(st.integers(0, 255), st.integers(0, 200), st.binary(max_size=8))
    @settings(max_examples=200)
    def test_bitflipped_native_record(self, flip_value, position, extra):
        packed = bytearray(native.pack_record(make_mixed_record()))
        native.unpack_record(bytes(packed))  # the compiled plan meets the flips
        if position < len(packed):
            packed[position] ^= flip_value or 0xFF
        try:
            native.unpack_record(bytes(packed) + extra)
        except native.NativeCodecError:
            pass

    @given(st.binary(max_size=400))
    @settings(max_examples=100)
    def test_record_marking_reader_total(self, data):
        reader = RecordMarkingReader(max_record=1 << 16)
        try:
            list(reader.feed(data))
        except XdrDecodeError:
            pass


class TestConcurrentRing:
    """True SPSC concurrency: a producer thread racing a consumer thread.

    The ring's documented contract is single-producer/single-consumer with
    monotonic head/tail counters; this drives it with a real producer and
    consumer running simultaneously and checks nothing is lost, duplicated
    or reordered.
    """

    @pytest.mark.parametrize("capacity", [512, 4096])
    def test_spsc_threads(self, capacity):
        ring = RingBuffer(bytearray(HEADER_SIZE + capacity))
        n = 20_000
        received: list[int] = []
        produced: list[int] = []
        done = threading.Event()

        def producer():
            sent = 0
            while sent < n:
                record = make_record(event_id=sent % (2**31), n_ints=1)
                if ring.push(record):
                    produced.append(sent)
                    sent += 1
            done.set()

        def consumer():
            while not (done.is_set() and not ring):
                record = ring.pop()
                if record is not None:
                    received.append(record.event_id)

        threads = [
            threading.Thread(target=producer),
            threading.Thread(target=consumer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert received == list(range(n))


class TestCreConservation:
    """Everything entering the matcher leaves it exactly once."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["plain", "reason", "conseq"]),
                st.integers(0, 5),   # marker id
                st.integers(0, 10_000),  # timestamp
            ),
            max_size=60,
        ),
        st.integers(100, 5_000),
    )
    @settings(max_examples=100)
    def test_exactly_once_delivery(self, plan, timeout_us):
        matcher = CausalMatcher(CreConfig(timeout_us=timeout_us))
        delivered = 0
        now = 0
        for kind, cid, ts in plan:
            now += 50
            if kind == "plain":
                record = make_record(timestamp=ts, n_ints=1)
            elif kind == "reason":
                record = EventRecord(
                    event_id=1, timestamp=ts,
                    field_types=(FieldType.X_REASON,), values=(cid,),
                )
            else:
                record = EventRecord(
                    event_id=2, timestamp=ts,
                    field_types=(FieldType.X_CONSEQ,), values=(cid,),
                )
            delivered += len(matcher.process(record, now))
            delivered += len(matcher.expire(now))
        # Force every timeout.
        delivered += len(matcher.expire(now + timeout_us + 1))
        assert delivered == len(plan)
        assert matcher.parked_count == 0


class TestIsmPeerFailures:
    def test_partial_frame_then_disconnect(self):
        """A peer dying mid-frame must not wedge or corrupt the server."""
        from repro.core.consumers import CollectingConsumer
        from repro.core.ism import InstrumentationManager
        from repro.runtime.ism_proc import IsmServer
        from repro.wire.tcp import MessageListener, connect
        from repro.xdr import frame_record

        collected = CollectingConsumer()
        manager = InstrumentationManager(consumers=[collected])
        listener = MessageListener()
        host, port = listener.address
        server = IsmServer(manager, listener)
        conn = connect(host, port)
        conn.send(protocol.Hello(exs_id=1, node_id=1))
        batch = protocol.encode_batch_records(1, 0, [make_record()])
        conn.send_raw(batch)
        # Half a frame, then vanish.
        frame = frame_record(
            protocol.encode_batch_records(1, 1, [make_record()])
        )
        conn._sock.sendall(frame[: len(frame) // 2])  # noqa: SLF001
        conn._sock.close()  # noqa: SLF001 - simulate a crash, no shutdown
        server.serve(duration_s=5.0, expected_connections=1)
        listener.close()
        # The complete batch before the crash was delivered.
        assert manager.stats.records_received == 1
        assert server.closed_connections == 1

    def test_overflowing_delta_frame_drops_only_its_connection(self):
        """A delta-ts batch whose base + delta leaves int64 is a protocol
        error: the server drops that peer and keeps delivering the other."""
        from repro.core.consumers import CollectingConsumer
        from repro.core.ism import InstrumentationManager
        from repro.runtime.ism_proc import IsmServer
        from repro.wire.tcp import MessageListener, connect

        collected = CollectingConsumer()
        manager = InstrumentationManager(consumers=[collected])
        listener = MessageListener()
        server = IsmServer(manager, listener)
        bad, good = connect(*listener.address), connect(*listener.address)
        bad.send(protocol.Hello(exs_id=1, node_id=1))
        good.send(protocol.Hello(exs_id=2, node_id=2))
        frame = bytearray(
            protocol.encode_batch_records(
                1, 0, [make_record(timestamp=1_000), make_record(timestamp=1_005)],
                delta_ts=True,
            )
        )
        frame[24:32] = (2**63 - 1).to_bytes(8, "big")  # base_ts: +5 overflows
        bad.send_raw(bytes(frame))
        for seq in range(3):
            good.send_raw(
                protocol.encode_batch_records(2, seq, [make_record(timestamp=2_000 + seq)])
            )
        good.close()
        server.serve(duration_s=10.0, expected_connections=2)
        listener.close()
        bad.close()
        assert server.closed_connections == 2
        assert [r.node_id for r in collected.records] == [2, 2, 2]
