"""Shared-memory ring buffers for the two-process LIS.

The internal sensors live in the application process; the external sensor
is "another process on the same node".  They share the ring through a named
``multiprocessing.shared_memory`` segment — the portable stand-in for the
SysV segment the paper uses.

Only the ``DROP_NEW`` overflow policy is allowed across processes: the
overwrite policy has the consumer and producer racing on the tail pointer,
which is safe only inside one process (see
:mod:`repro.core.ringbuffer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.core.ringbuffer import HEADER_SIZE, OverflowPolicy, RingBuffer


@dataclass
class SharedRing:
    """A ring buffer plus the shared-memory segment backing it.

    Keep the object alive as long as the ring is used; closing/unlinking is
    explicit because the creator and attachers have different duties
    (attachers ``close()``, only the creator ``unlink()``s).
    """

    ring: RingBuffer
    shm: shared_memory.SharedMemory
    owner: bool

    @property
    def name(self) -> str:
        """Segment name to pass to :func:`attach_shared_ring`."""
        return self.shm.name

    def close(self) -> None:
        """Detach (and destroy, when owner) the segment."""
        # Drop the ring's memoryviews before closing, else CPython refuses
        # to release the mapping ("cannot close exported pointers exist").
        self.ring.release()
        self.shm.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # another owner already unlinked
                pass

    def __enter__(self) -> "SharedRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_shared_ring(capacity_bytes: int, name: str | None = None) -> SharedRing:
    """Create a fresh shared ring of *capacity_bytes* data capacity."""
    if capacity_bytes < 64:
        raise ValueError("capacity_bytes must be >= 64")
    shm = shared_memory.SharedMemory(
        create=True, size=HEADER_SIZE + capacity_bytes, name=name
    )
    ring = RingBuffer(shm.buf, OverflowPolicy.DROP_NEW)
    return SharedRing(ring=ring, shm=shm, owner=True)


def attach_shared_ring(name: str) -> SharedRing:
    """Attach to an existing shared ring by segment name."""
    shm = shared_memory.SharedMemory(name=name)
    ring = RingBuffer(shm.buf, OverflowPolicy.DROP_NEW, attach=True)
    return SharedRing(ring=ring, shm=shm, owner=False)
