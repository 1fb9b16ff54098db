"""Wire a :class:`~repro.obs.metrics.MetricsRegistry` over live pipeline
objects.

Everything here registers **pull gauges**: closures evaluated only when a
snapshot is taken, so an instrumented pipeline pays nothing per record —
the metric *is* the state the stage already maintains (ring head/tail,
outbox deque length, sorter held count, CRE table sizes).  The functions
are duck-typed on purpose: this module imports no core/runtime classes,
which keeps it importable from any layer without cycles, and lets tests
wire registries over stubs.

Metric namespace (the inventory DESIGN.md §5.6 documents):

========================  ==============================================
``ring.*``                LIS ring occupancy, capacity, drop counts
``sensor.*``              internal-sensor emit/drop counts
``exs.*``                 EXS drain/ship/filter counters, pending batch
``outbox.*``              in-flight (unacked) depth, acks, retransmits
``wire.*``                bytes and frames each way, reconnect counts
``ism.*``                 manager intake/delivery/dedup counters
``sorter.*``              heap depth, time frame ``T``, disorder, release
                          path (frontier/frame) and the gating source
``cre.*``                 table sizes, parked now, tachyons, timeouts
``consumer.*``            queue depth and delivered counts per sink
``relay.*``               relay tier coalesce/compress/fold accounting
``log.*``                 commit-log append/fsync/segment/lag accounting
========================  ==============================================
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "wire_ring",
    "wire_sensor",
    "wire_exs",
    "wire_exs_rejects",
    "wire_outbox",
    "wire_connection",
    "wire_manager",
    "wire_sorter",
    "wire_cre",
    "wire_consumers",
    "wire_reconnector",
    "wire_relay",
    "wire_commit_log",
    "wire_monitor",
]


def wire_ring(registry: MetricsRegistry, ring: Any, prefix: str = "ring") -> None:
    """Ring-buffer occupancy and overflow accounting (all O(1) reads)."""
    registry.gauge_fn(f"{prefix}.used_bytes", lambda: ring.used)
    registry.gauge_fn(f"{prefix}.free_bytes", lambda: ring.free)
    registry.gauge_fn(f"{prefix}.capacity_bytes", lambda: ring.capacity)
    registry.gauge_fn(f"{prefix}.dropped", lambda: ring.dropped)
    registry.gauge_fn(f"{prefix}.overwritten", lambda: ring.overwritten)
    registry.gauge_fn(
        f"{prefix}.fill_fraction",
        lambda: ring.used / ring.capacity if ring.capacity else 0.0,
    )


def wire_sensor(registry: MetricsRegistry, sensor: Any, prefix: str = "sensor") -> None:
    """Internal-sensor emit/drop counts."""
    registry.gauge_fn(f"{prefix}.emitted", lambda: sensor.emitted)
    registry.gauge_fn(f"{prefix}.dropped", lambda: sensor.dropped)


def wire_exs(registry: MetricsRegistry, exs: Any, prefix: str = "exs") -> None:
    """External-sensor shipping counters plus its ring(s)."""
    stats = exs.stats
    registry.gauge_fn(f"{prefix}.records_drained", lambda: stats.records_drained)
    registry.gauge_fn(f"{prefix}.records_shipped", lambda: stats.records_shipped)
    registry.gauge_fn(f"{prefix}.records_filtered", lambda: stats.records_filtered)
    registry.gauge_fn(f"{prefix}.batches_shipped", lambda: stats.batches_shipped)
    registry.gauge_fn(f"{prefix}.bytes_shipped", lambda: stats.bytes_shipped)
    registry.gauge_fn(f"{prefix}.timeout_flushes", lambda: stats.timeout_flushes)
    registry.gauge_fn(f"{prefix}.pending_records", lambda: len(exs._pending))
    for i, ring in enumerate(exs.rings):
        suffix = "ring" if len(exs.rings) == 1 else f"ring{i}"
        wire_ring(registry, ring, prefix=f"{prefix}.{suffix}")


def wire_exs_rejects(registry: MetricsRegistry, exs: Any) -> None:
    """The EXS's count of ring records it could not ship.  The EXS wires
    it at its first reject, so a clean run's snapshots carry no constant
    zero (the way ``obs.snapshot_gauge_errors`` appears only once
    nonzero)."""
    stats = exs.stats
    registry.gauge_fn("exs.records_rejected", lambda: stats.records_rejected)


def wire_outbox(registry: MetricsRegistry, outbox: Any, prefix: str = "outbox") -> None:
    """In-flight depth and release accounting of an acked-transfer outbox."""
    registry.gauge_fn(f"{prefix}.unacked", lambda: outbox.unacked)
    registry.gauge_fn(f"{prefix}.depth", lambda: outbox.depth)
    registry.gauge_fn(f"{prefix}.acked_batches", lambda: int(outbox.acked_batches))
    registry.gauge_fn(
        f"{prefix}.retransmitted_batches",
        lambda: int(outbox.retransmitted_batches),
    )


def wire_connection(registry: MetricsRegistry, conn: Any, prefix: str = "wire") -> None:
    """Byte and frame counts of one message connection."""
    registry.gauge_fn(f"{prefix}.bytes_sent", lambda: conn.bytes_sent)
    registry.gauge_fn(f"{prefix}.bytes_received", lambda: conn.bytes_received)
    registry.gauge_fn(f"{prefix}.frames_sent", lambda: conn.frames_sent)
    registry.gauge_fn(f"{prefix}.frames_received", lambda: conn.frames_received)


def wire_sorter(registry: MetricsRegistry, sorter: Any, prefix: str = "sorter") -> None:
    """On-line sorter: parked depth, adaptive frame ``T``, disorder stats."""
    stats = sorter.stats
    registry.gauge_fn(f"{prefix}.held", lambda: sorter.held)
    registry.gauge_fn(f"{prefix}.frame_us", lambda: sorter.frame_us)
    registry.gauge_fn(f"{prefix}.pushed", lambda: stats.pushed)
    registry.gauge_fn(f"{prefix}.released", lambda: stats.released)
    registry.gauge_fn(f"{prefix}.out_of_order", lambda: stats.out_of_order)
    registry.gauge_fn(f"{prefix}.forced", lambda: stats.forced)
    # Release path: a rising frame share means a source went quiet, and
    # gating_source names it.
    registry.gauge_fn(f"{prefix}.released_on_frontier", lambda: stats.on_frontier)
    registry.gauge_fn(
        f"{prefix}.released_on_frame",
        lambda: stats.released - stats.on_frontier - stats.forced - stats.flushed,
    )
    registry.gauge_fn(
        f"{prefix}.frontier_regressions", lambda: stats.frontier_regressions
    )
    registry.gauge_fn(f"{prefix}.gating_source", sorter.gating_source)
    registry.gauge_fn(
        f"{prefix}.mean_hold_us", lambda: stats.hold_time_us.mean
    )


def wire_cre(registry: MetricsRegistry, cre: Any, prefix: str = "cre") -> None:
    """Causal matcher: table sizes (O(1)), parked depth, tachyons."""
    stats = cre.stats
    registry.gauge_fn(f"{prefix}.reason_table", lambda: cre.reason_table_size)
    registry.gauge_fn(f"{prefix}.waiting_table", lambda: cre.waiting_table_size)
    registry.gauge_fn(f"{prefix}.parked_now", lambda: cre.parked_now)
    registry.gauge_fn(f"{prefix}.tachyons_fixed", lambda: stats.tachyons_fixed)
    registry.gauge_fn(
        f"{prefix}.timed_out_consequences", lambda: stats.timed_out_consequences
    )
    registry.gauge_fn(
        f"{prefix}.timed_out_reasons", lambda: stats.timed_out_reasons
    )
    registry.gauge_fn(f"{prefix}.sync_requests", lambda: stats.sync_requests)


def wire_consumers(registry: MetricsRegistry, consumers: Any, prefix: str = "consumer") -> None:
    """Per-sink delivered counts; queue depth for queued consumers.

    *consumers* must be the live list (the manager's own), so sinks
    attached or detached later are reflected — the closures index it at
    snapshot time.
    """
    def depth() -> int:
        return sum(
            c.pending_batches()
            for c in consumers
            if hasattr(c, "pending_batches")
        )

    def delivered() -> int:
        return sum(getattr(c, "delivered", 0) for c in consumers)

    registry.gauge_fn(f"{prefix}.count", lambda: len(consumers))
    registry.gauge_fn(f"{prefix}.queued_batches", depth)
    registry.gauge_fn(f"{prefix}.delivered", delivered)


def wire_manager(registry: MetricsRegistry, manager: Any, prefix: str = "ism") -> None:
    """Everything the manager owns: intake counters, sorter, CRE, sinks."""
    stats = manager.stats
    registry.gauge_fn(f"{prefix}.batches_received", lambda: stats.batches_received)
    registry.gauge_fn(f"{prefix}.records_received", lambda: stats.records_received)
    registry.gauge_fn(f"{prefix}.records_delivered", lambda: stats.records_delivered)
    registry.gauge_fn(f"{prefix}.seq_gaps", lambda: stats.seq_gaps)
    registry.gauge_fn(f"{prefix}.duplicate_batches", lambda: stats.duplicate_batches)
    registry.gauge_fn(f"{prefix}.records_deduped", lambda: stats.records_deduped)
    registry.gauge_fn(
        f"{prefix}.unknown_source_records", lambda: stats.unknown_source_records
    )
    registry.gauge_fn(f"{prefix}.consumer_errors", lambda: stats.consumer_errors)
    registry.gauge_fn(
        f"{prefix}.consumers_detached", lambda: stats.consumers_detached
    )
    registry.gauge_fn(f"{prefix}.sources", lambda: len(manager.sources))
    wire_sorter(registry, manager.sorter)
    wire_cre(registry, manager.cre)
    wire_consumers(registry, manager.consumers)


def wire_reconnector(registry: MetricsRegistry, runner: Any, prefix: str = "wire") -> None:
    """Reconnecting-EXS session accounting plus its shared outbox."""
    registry.gauge_fn(f"{prefix}.connections", lambda: int(runner.connections))
    registry.gauge_fn(
        f"{prefix}.failed_attempts", lambda: int(runner.failed_attempts)
    )
    wire_outbox(registry, runner.outbox)


def wire_relay(registry: MetricsRegistry, relay: Any, prefix: str = "relay") -> None:
    """Relay tier: coalesce/compress/fold counters plus live tree state.

    The counters are the relay's own (``relay.*`` names baked in at
    construction); *prefix* only namespaces the pull gauges layered on
    top, so two relays in one process need two registries.
    """
    registry.adopt_counter(relay.batches_in)
    registry.adopt_counter(relay.records_in)
    registry.adopt_counter(relay.frames_out)
    registry.adopt_counter(relay.records_out)
    registry.adopt_counter(relay.batches_coalesced)
    registry.adopt_counter(relay.duplicate_batches)
    registry.adopt_counter(relay.overlap_batches)
    registry.adopt_counter(relay.compressed_frames)
    registry.adopt_counter(relay.compressed_bytes_saved)
    registry.adopt_counter(relay.metrics_records_folded)
    registry.adopt_counter(relay.heartbeats_absorbed)
    registry.adopt_counter(relay.dropped_control)
    registry.adopt_counter(relay.filters_forwarded)
    registry.adopt_counter(relay.filters_held)
    registry.adopt_counter(relay.upstream_reconnects)
    registry.adopt_counter(relay.acks_down_sent)
    registry.adopt_counter(relay.ack_frames_down)
    registry.gauge_fn(f"{prefix}.sources", lambda: len(relay.sources))
    registry.gauge_fn(f"{prefix}.held_envelopes", lambda: relay.held_envelopes)
    registry.gauge_fn(f"{prefix}.unacked_frames", lambda: relay.unacked_frames)
    registry.gauge_fn(
        f"{prefix}.upstream_connected",
        lambda: 1 if relay.uplink.conn is not None else 0,
    )


def wire_commit_log(registry: MetricsRegistry, log: Any, prefix: str = "log") -> None:
    """Commit-log durability accounting: appends, fsyncs, segments, lag.

    The counters and the fsync-latency histogram are the log's own
    (``log.*`` names baked in at construction); *prefix* only namespaces
    the pull gauges layered on top.
    """
    registry.adopt_counter(log.records_appended)
    registry.adopt_counter(log.bytes_appended)
    registry.adopt_counter(log.fsyncs)
    registry.adopt_counter(log.append_errors)
    registry.adopt_counter(log.segments_rolled)
    registry.adopt_counter(log.segments_retired)
    registry.adopt_counter(log.torn_bytes_truncated)
    registry.adopt_counter(log.checkpoint_truncated_records)
    registry.adopt_histogram(log.fsync_hist)
    registry.gauge_fn(f"{prefix}.segments", lambda: log.segment_count)
    registry.gauge_fn(f"{prefix}.start_offset", lambda: log.start_offset)
    registry.gauge_fn(f"{prefix}.end_offset", lambda: log.end_offset)
    registry.gauge_fn(f"{prefix}.durable_offset", lambda: log.durable_offset)
    registry.gauge_fn(f"{prefix}.broken", lambda: 1 if log.broken else 0)
    registry.gauge_fn(f"{prefix}.group_lag_max", log._max_group_lag)


def wire_monitor(
    registry: MetricsRegistry, engine: Any, prefix: str = "monitor"
) -> None:
    """Runtime monitor engine: actuation and alert accounting."""
    registry.gauge_fn(f"{prefix}.actions_fired", lambda: engine.actions_fired)
    registry.gauge_fn(
        f"{prefix}.alerts_emitted", lambda: engine.alerts_emitted
    )
    registry.gauge_fn(
        f"{prefix}.pushes_deferred", lambda: engine.pushes_deferred
    )
    registry.gauge_fn(
        f"{prefix}.active_rules",
        lambda: sum(len(nodes) for nodes in engine.active_rules().values()),
    )
