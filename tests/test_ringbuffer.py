"""Unit tests for the SPSC ring buffer."""

import multiprocessing as mp
import time

import pytest
from tests.conftest import make_record, wait_until

from repro.core import native
from repro.core.ringbuffer import (
    HEADER_SIZE,
    OverflowPolicy,
    RingBuffer,
    RingBufferFull,
    ring_for_records,
)
from repro.runtime.shm import attach_shared_ring, create_shared_ring


def small_ring(data_bytes: int = 256, policy=OverflowPolicy.DROP_NEW) -> RingBuffer:
    return RingBuffer(bytearray(HEADER_SIZE + data_bytes), policy)


class TestBasics:
    def test_empty_pop_returns_none(self):
        ring = small_ring()
        assert ring.pop() is None
        assert not ring

    def test_push_pop_roundtrip(self):
        ring = small_ring(1024)
        record = make_record()
        assert ring.push(record)
        assert ring.pop() == record
        assert ring.pop() is None

    def test_fifo_order(self):
        ring = small_ring(4096)
        for i in range(10):
            ring.push(make_record(event_id=i))
        assert [r.event_id for r in ring.drain()] == list(range(10))

    def test_used_free_accounting(self):
        ring = small_ring(1024)
        assert ring.free == 1024
        ring.push(make_record())
        assert ring.used > 0
        assert ring.used + ring.free == 1024
        ring.pop()
        assert ring.used == 0

    def test_iteration_is_destructive(self):
        ring = small_ring(1024)
        ring.push(make_record(event_id=1))
        ring.push(make_record(event_id=2))
        assert [r.event_id for r in ring] == [1, 2]
        assert not ring

    def test_peek_does_not_consume(self):
        ring = small_ring(1024)
        ring.push(make_record(event_id=7))
        first = ring.peek_bytes()
        assert first is not None
        assert ring.peek_bytes() == first
        assert ring.pop().event_id == 7

    def test_buffer_too_small_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer(bytearray(HEADER_SIZE + 10))

    def test_readonly_buffer_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer(bytes(4096))

    def test_oversize_record_rejected(self):
        ring = small_ring(256)
        big = make_record()
        with pytest.raises(ValueError):
            ring.push_bytes(b"x" * 200)


class TestWrapAround:
    def test_many_cycles_wrap_cleanly(self):
        ring = small_ring(300)
        record = make_record()
        for i in range(100):
            assert ring.push(make_record(event_id=i))
            popped = ring.pop()
            assert popped.event_id == i

    def test_partial_fill_then_wrap(self):
        ring = small_ring(512)
        pushed = 0
        popped = 0
        # Interleave pushes and pops so the write offset crosses the
        # boundary at many different phases.
        for cycle in range(50):
            while ring.push(make_record(event_id=pushed)):
                pushed += 1
                if pushed - popped > 3:
                    break
            record = ring.pop()
            assert record.event_id == popped
            popped += 1
        while (record := ring.pop()) is not None:
            assert record.event_id == popped
            popped += 1
        assert popped == pushed


class TestDropNew:
    def test_drop_counted(self):
        ring = small_ring(128)
        while ring.push(make_record()):
            pass
        assert ring.dropped == 1
        before = ring.used
        assert not ring.push(make_record())
        assert ring.dropped == 2
        assert ring.used == before  # nothing was written

    def test_raise_on_full(self):
        ring = small_ring(128)
        while ring.push(make_record()):
            pass
        with pytest.raises(RingBufferFull):
            ring.push(make_record(), raise_on_full=True)

    def test_drain_after_drop_preserves_existing(self):
        ring = small_ring(256)
        kept = 0
        while ring.push(make_record(event_id=kept)):
            kept += 1
        assert [r.event_id for r in ring.drain()] == list(range(kept))


class TestOverwriteOld:
    def test_overwrite_evicts_oldest(self):
        ring = small_ring(256, OverflowPolicy.OVERWRITE_OLD)
        total = 40
        for i in range(total):
            assert ring.push(make_record(event_id=i))
        survivors = [r.event_id for r in ring.drain()]
        assert survivors == list(range(total - len(survivors), total))
        assert ring.overwritten == total - len(survivors)
        assert ring.dropped == 0

    def test_overwrite_never_refuses(self):
        ring = small_ring(200, OverflowPolicy.OVERWRITE_OLD)
        for i in range(500):
            assert ring.push(make_record(event_id=i))


class TestSharedHeaderSemantics:
    def test_attach_adopts_existing_state(self):
        buf = bytearray(HEADER_SIZE + 512)
        producer = RingBuffer(buf)
        producer.push(make_record(event_id=11))
        consumer = RingBuffer(buf, attach=True)
        assert consumer.pop().event_id == 11
        # The producer sees the consumption through the shared header.
        assert producer.used == 0

    def test_fresh_init_clears_header(self):
        buf = bytearray(HEADER_SIZE + 512)
        RingBuffer(buf).push(make_record())
        fresh = RingBuffer(buf)  # re-init without attach
        assert fresh.used == 0
        assert fresh.dropped == 0


_WORD_A = 0x0101_0101_0101_0101
_WORD_B = 0xFEFE_FEFE_FEFE_FEFE


def _flip_header_word(ring_name: str, seconds: float) -> None:
    shared = attach_shared_ring(ring_name)
    try:
        ring = shared.ring
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            for _ in range(1_000):
                ring._set_dropped(_WORD_B)
                ring._set_dropped(_WORD_A)
    finally:
        shared.close()


class TestHeaderWordsAcrossProcesses:
    def test_peer_process_never_sees_a_torn_header_word(self):
        """A header word is read while another *process* rewrites it.

        ``struct.pack_into`` zeroes the word and fills it byte by byte,
        so a reader caught roughly one write in nine half-done — for
        ``head`` that means draining memory nobody wrote yet.  Every byte
        of the two values differs, so any mix of them is neither.
        """
        shared = create_shared_ring(4096)
        writer = mp.get_context("spawn").Process(
            target=_flip_header_word, args=(shared.name, 1.5), daemon=True
        )
        try:
            ring = shared.ring
            ring._set_dropped(_WORD_A)
            writer.start()
            wait_until(lambda: ring.dropped == _WORD_B, timeout=20.0, interval=0)
            seen = {_WORD_A: 0, _WORD_B: 0}
            while writer.is_alive():
                for _ in range(10_000):
                    seen[ring.dropped] += 1  # KeyError = a torn read
            assert min(seen.values()) > 0  # the reads really did race the writes
        finally:
            writer.join(timeout=10)
            shared.close()


class TestFactory:
    def test_ring_for_records_capacity(self):
        ring = ring_for_records(100, approx_record_bytes=64)
        record = make_record()
        pushed = 0
        while ring.push(record) and pushed < 1000:
            pushed += 1
        assert pushed >= 90  # sized generously for the ask

    def test_drain_limit(self):
        ring = ring_for_records(50)
        for i in range(20):
            ring.push(make_record(event_id=i))
        first = ring.drain(limit=5)
        assert [r.event_id for r in first] == [0, 1, 2, 3, 4]
        assert len(ring.drain()) == 15

    def test_drain_bytes_matches_pack(self):
        ring = ring_for_records(10)
        record = make_record()
        ring.push(record)
        payloads = ring.drain_bytes()
        assert payloads == [native.pack_record(record)]
