"""Durability true negatives: the sanctioned orderings must stay quiet."""

from repro.core.ackgate import AckGate
from repro.wire import protocol


class Dispatcher:
    def __init__(self, durable_sink, merger):
        self.durable_sink = durable_sink
        self.merger = merger
        self._gate = AckGate()
        self.staged = []

    def flush_durable(self):
        # sync -> commit -> release, failure path diverts: all clean.
        try:
            self.durable_sink.sync()
        except OSError:
            return []
        self._gate.commit(7)
        return self._gate.take_dirty()

    def release_non_durable(self):
        # Release without sync is fine on the explicit non-durable path.
        if self.durable_sink is None:
            return self._gate.take_dirty()
        return []

    def on_hello(self, exs_id):
        # Resume quotes the committed watermark.
        return protocol.HelloReply(exs_id, self._gate.committed(exs_id))

    def collect(self, handle):
        # Output-ring drain lands in commit staging, not delivery.
        staged = handle.shared_out.ring.drain_bytes()
        self._ingest_items(handle, staged)

    def deliver_input(self, ring):
        # Draining an *input* ring into delivery is the normal hot path.
        frames = ring.drain_bytes()
        self.merger.push(frames)

    def _ingest_items(self, handle, items):
        self.staged.extend(items)


from repro.runtime.plane import ConnectionPlane


class PlaneOwner:
    def __init__(self, durable_sink):
        self.durable_sink = durable_sink
        self.plane = ConnectionPlane()

    def flush_cycle(self):
        # The plane's release helper after the covering sync: clean.
        try:
            self.durable_sink.sync()
        except OSError:
            return
        self.plane.flush_acks()
