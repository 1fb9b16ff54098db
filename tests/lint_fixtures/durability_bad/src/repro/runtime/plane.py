"""Stub of the connection plane: the ack frames are built here, not in
the server module the durability rules scope to."""

from repro.wire import protocol


class ConnectionPlane:
    def __init__(self):
        self.staged = {}

    def flush_acks(self):
        return [protocol.Ack(e, s) for e, s in self.staged.items()]
