"""Cap-gating true negatives: every sanctioned guard shape once."""

from repro.wire import protocol


class Relay:
    def __init__(self, caps):
        self._caps = caps

    def compress(self, payload):
        # Early-bail guard (the _maybe_compress shape).
        if not self._caps & protocol.CAP_COMPRESS:
            return payload
        return protocol.compress_frame(payload)

    def bundle(self, pairs):
        # Ancestor-if guard.
        if self._caps & protocol.CAP_ACK_BUNDLE:
            return protocol.AckBundle(pairs)
        return None

    def steer(self, conn, spec: "protocol.SetFilter"):
        # Consults the cap and downgrades for legacy peers.
        if self._caps & protocol.CAP_STEERING:
            conn.send(spec)
        else:
            conn.send(spec.downgraded())

    def emit(self, batches, first, last):
        # Value-ternary gate on a cap-tainted variable (the shipped fix).
        ok = bool(self._caps & protocol.CAP_SEQ_RANGE)
        return protocol.splice_batch(
            batches, last, first_seq=first if ok and first != last else None
        )
