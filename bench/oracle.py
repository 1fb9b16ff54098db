"""Delivery oracle: did every offered record arrive exactly once, in order?

Independent of the program under test: it sees only the generator's
``(source, seq)`` journal and the ``(source, seq)`` pairs a sink observed
(the terminal consumer's, or a re-read commit log's), and imports nothing
from ``repro.runtime``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Verdict:
    """Outcome of one delivery check; all fields count records."""

    offered: int
    #: Offered records delivered exactly once with per-source order intact.
    ok: int
    lost: int
    #: Extra copies beyond the first of an offered record.
    duplicated: int
    #: Records delivered after a later record of the same source.
    reordered: int
    #: Delivered records the journal never offered.
    unexpected: int

    @property
    def failed(self) -> int:
        """Offered records that missed exactly-once in-order delivery,
        plus records that should not exist at all."""
        return self.offered - self.ok + self.unexpected

    @property
    def failed_share(self) -> float:
        return self.failed / self.offered if self.offered else 1.0


def _by_source(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for source, seq in pairs:
        out.setdefault(source, []).append(seq)
    return out


def check_delivery(
    journal: Iterable[tuple[int, int]], delivered: Iterable[tuple[int, int]]
) -> Verdict:
    """Compare *delivered* ``(source, seq)`` pairs against the *journal*.

    Order is judged per source against the journal's own order, so the
    interleaving of sources in *delivered* is free.
    """
    offered_by = _by_source(journal)
    delivered_by = _by_source(delivered)
    offered = sum(len(seqs) for seqs in offered_by.values())
    if delivered_by == offered_by:
        # The common case, at list-compare speed; a million-record run
        # need not pay for the bookkeeping below.
        return Verdict(offered, offered, 0, 0, 0, 0)
    ok = lost = duplicated = reordered = unexpected = 0
    for source in offered_by.keys() | delivered_by.keys():
        position = {seq: i for i, seq in enumerate(offered_by.get(source, ()))}
        copies: dict[int, int] = {}
        late: set[int] = set()
        high_water = -1
        for seq in delivered_by.get(source, ()):
            pos = position.get(seq)
            if pos is None:
                unexpected += 1
                continue
            seen = copies.get(seq, 0)
            copies[seq] = seen + 1
            if seen:
                continue
            if pos < high_water:
                late.add(seq)
            else:
                high_water = pos
        repeated = {seq for seq, n in copies.items() if n > 1}
        ok += len(copies) - len(repeated | late)
        lost += len(position) - len(copies)
        duplicated += sum(copies[seq] - 1 for seq in repeated)
        reordered += len(late)
    return Verdict(offered, ok, lost, duplicated, reordered, unexpected)
