"""BRK701-704 true positives: every durability-ordering mistake once."""

from repro.core.ackgate import AckGate
from repro.wire import protocol


class Dispatcher:
    def __init__(self, durable_sink, merger):
        self.durable_sink = durable_sink
        self.merger = merger
        self._gate = AckGate()
        self.errors = 0

    def release_unsynced(self):
        # BRK701: releases acks on the durable path with no sync first.
        if self.durable_sink is not None:
            pending = self._gate.take_dirty()
            return pending
        return []

    def flush(self):
        # BRK704: sync failure counted, then falls through to the release.
        try:
            self.durable_sink.sync()
        except OSError:
            self.errors += 1
        self._gate.commit(7)

    def on_hello(self, exs_id):
        # BRK702: resume reply quotes the acked watermark.
        last = self._gate.acked(exs_id)
        return protocol.HelloReply(exs_id, last)

    def collect(self, handle):
        # BRK703: output-ring drain straight into delivery.
        items = handle.shared_out.ring.drain_bytes()
        self.merger.push(items)


from repro.runtime.plane import ConnectionPlane


class PlaneOwner:
    def __init__(self, durable_sink):
        self.durable_sink = durable_sink
        self.plane = ConnectionPlane()

    def flush_cycle(self):
        # BRK701: the release is the plane's helper — the Ack is built in
        # another module — and still nothing synced before it.
        if self.durable_sink is not None:
            self.plane.flush_acks()
