"""``BENCHMARK.json`` as data, plus the layer → end-to-end interaction map.

``BENCHMARK.json`` (repository root) is the one place metric names, units,
directions and regression bounds are declared; everything here reads it.
:data:`MOVES` adds what the file's fixed shape has no room for: which
end-to-end metric each per-layer metric is expected to move, and where —
written down before the first measurement was taken.
"""

from __future__ import annotations

import json
import os
from typing import Any

from bench import ROOT

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def load() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        return json.load(stream)


def metric_table(kind: str) -> dict[str, dict[str, Any]]:
    """``end_to_end`` or ``per_layer`` entries keyed by metric name."""
    return {entry["name"]: entry for entry in load()[kind]}


_SATURATED = ("stream_fixed", "stream_mixed", "durable_stream", "relay_tree")
_PACED = ("paced_two_source",)

#: end-to-end metric → the workloads it is *claimed* on.  Every
#: invocation prints every metric (the benchmark contract wants one metric
#: set), but a verdict is given only where the number means something of
#: its own: latency on a saturated backlog is its length over
#: ``delivered_ev_s``, and ``delivered_ev_s`` on the open loop is the
#: offered rate.  Metrics not listed here are claimed everywhere.
SCOPE: dict[str, tuple[str, ...]] = {
    "delivered_ev_s": _SATURATED,
    "latency_p50_ms": _PACED,
    "latency_p99_ms": _PACED,
}


def claimed(metric: str, workload: str) -> bool:
    """Whether *metric* carries a verdict on *workload*."""
    return workload in SCOPE.get(metric, (workload,))


_EXS_SIDE = (
    "delivered_ev_s",
    "stream_fixed/stream_mixed (EXS and ISM both near busy_share 1 at seed); "
    "elsewhere only cpu_s_per_mrec",
)
_ISM_SIDE = ("delivered_ev_s", "stream_fixed, stream_mixed (ISM-bound at seed)")
_LOG = ("delivered_ev_s", "durable_stream only")
_TREE = ("delivered_ev_s", "relay_tree")
_NOTICE = ("notice_ns", "all workloads; nothing else on preloaded ones")
_BATCHING = ("latency_p50_ms", "paced_two_source")
_SORT_HOLD = ("latency_p99_ms", "paced_two_source")
_CPU = ("cpu_s_per_mrec", "all; raises delivered_ev_s only for the process near busy_share 1")

#: per-layer metric → (end-to-end metric it should move, on which workload)
MOVES: dict[str, tuple[str, str]] = {
    "runtime.exs_proc.cpu_s_per_mrec": _CPU,
    "runtime.relay_proc.cpu_s_per_mrec": _CPU,
    "runtime.ism_proc.cpu_s_per_mrec": _CPU,
    "runtime.exs_proc.busy_share": _CPU,
    "runtime.relay_proc.busy_share": _CPU,
    "runtime.ism_proc.busy_share": _CPU,
    "runtime.exs_proc.ack_latency_p50_ms": (
        "delivered_ev_s",
        "durable_stream (acks wait for the fsync; a full outbox stalls the drain); "
        "latency_p99_ms on paced_two_source",
    ),
    "runtime.exs_proc.outbox_peak_unacked": ("delivered_ev_s", "all: 64 = outbox full"),
    "runtime.exs_proc.reconnects": ("delivered_ev_s", "none at seed: must stay 0"),
    "runtime.exs_proc.acks_received": ("delivered_ev_s", "durable_stream"),
    "core.ringbuffer.peak_used_bytes": ("peak_rss_mb", "paced_two_source"),
    "core.ringbuffer.dropped": ("delivered_ev_s", "all: a drop is a failed record"),
    "wire.tcp.frames": ("wire_bytes_per_record", "all"),
    "wire.tcp.bytes": ("wire_bytes_per_record", "all"),
    "core.exs.batches": _BATCHING,
    "core.exs.records_per_batch": _BATCHING,
    "core.exs.timeout_flushes": _BATCHING,
    "core.ism.duplicate_batches": ("delivered_ev_s", "none at seed: must stay 0"),
    "core.ism.records_deduped": ("delivered_ev_s", "none at seed: must stay 0"),
    "core.sorting.peak_held": _SORT_HOLD,
    "core.sorting.frame_us_final": _SORT_HOLD,
    "core.sorting.out_of_order_released": _SORT_HOLD,
    "core.cre.matches": ("delivered_ev_s", "stream_mixed"),
    "core.cre.tachyons": ("delivered_ev_s", "stream_mixed"),
    "core.cre.peak_parked": ("peak_rss_mb", "stream_mixed"),
    "log.commitlog.syncs": _LOG,
    "log.commitlog.segments": _LOG,
    "log.commitlog.bytes_per_record": _LOG,
    "runtime.relay_proc.frames_in_per_frame_out": _TREE,
    "runtime.relay_proc.compress_ratio": ("wire_bytes_per_record", "relay_tree"),
    "core.sensor.notice_ns_per_record": _NOTICE,
    "core.native.pack_ns_per_record": _NOTICE,
    "core.ringbuffer.push_ns_per_record": _NOTICE,
    "core.ringbuffer.drain_ns_per_record": _EXS_SIDE,
    "core.native.unpack_ns_per_record": _EXS_SIDE,
    "core.exs.poll_ns_per_record": _EXS_SIDE,
    "core.exs.poll_self_ns_per_record": _EXS_SIDE,
    "core.exs.idle_poll_ns": ("cpu_s_per_mrec", "paced_two_source"),
    "wire.protocol.encode_ns_per_record": _EXS_SIDE,
    "wire.protocol.decode_ns_per_record": _ISM_SIDE,
    "wire.protocol.fastpath_share": ("delivered_ev_s", "stream_mixed"),
    "wire.tcp.send_ns_per_record": _EXS_SIDE,
    "wire.tcp.recv_ns_per_record": _ISM_SIDE,
    "core.ism.on_message_ns_per_record": _ISM_SIDE,
    "core.ism.tick_ns_per_record": _ISM_SIDE,
    "core.sorting.push_ns_per_record": _ISM_SIDE,
    "core.sorting.extract_ns_per_record": _ISM_SIDE,
    "core.cre.process_ns_per_record": ("delivered_ev_s", "stream_mixed"),
    "core.consumers.deliver_ns_per_record": _ISM_SIDE,
    "log.commitlog.append_ns_per_record": _LOG,
    "log.commitlog.sync_ns_per_call": _LOG,
    "core.merge.push_pop_ns_per_record": _TREE,
    "runtime.exs_proc.loop_self_ns_per_record": _EXS_SIDE,
    "runtime.relay_proc.loop_self_ns_per_record": _TREE,
    "runtime.ism_proc.loop_self_ns_per_record": _ISM_SIDE,
    "trace.unattributed_share": ("cpu_s_per_mrec", "all: how much CPU no span explains"),
    "trace.overhead_share": ("cpu_s_per_mrec", "none: validity of the traced run"),
}
