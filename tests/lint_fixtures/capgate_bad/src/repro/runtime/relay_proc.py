"""BRK801-804 true positives: extensions sent without their cap check."""

from repro.wire import protocol


class Relay:
    def __init__(self, caps):
        self._caps = caps

    def compress(self, payload):
        # BRK801: compressed envelope toward a possibly-legacy peer.
        return protocol.compress_frame(payload)

    def bundle(self, pairs):
        # BRK802: bundled acks with no negotiation check.
        return protocol.AckBundle(pairs)

    def steer(self, conn, spec):
        # BRK803: full SetFilter spec sent without consulting CAP_STEERING.
        conn.send(spec.desired_filter)

    def emit(self, batches, first, last):
        # BRK804: the original relay bug shape — the cap is *computed*
        # and even guards an unrelated fast path, but the splice sends
        # first_seq unconditionally.
        ok = bool(self._caps & protocol.CAP_SEQ_RANGE)
        if first == last or ok:
            return b""
        return protocol.splice_batch(batches, last, first_seq=first)
