"""``brisk-ism``: run an instrumentation system manager from the shell.

Example::

    brisk-ism --port 7315 --picl /tmp/run.picl --sync-period 5 \
              --duration 600

External sensors connect with :func:`repro.wire.tcp.connect` /
:func:`repro.runtime.exs_proc.exs_process_main`.
"""

from __future__ import annotations

import argparse
import sys

from repro.clocksync.brisk_sync import BriskSyncConfig
from repro.core.consumers import PiclFileConsumer
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.sorting import SorterConfig
from repro.picl.format import TimestampMode
from repro.runtime.ism_proc import IsmServer
from repro.util.timebase import now_micros
from repro.wire.tcp import MessageListener


def build_parser() -> argparse.ArgumentParser:
    """Build the tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="brisk-ism",
        description="Run a BRISK instrumentation system manager.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    parser.add_argument("--picl", help="write the merged trace to this PICL file")
    parser.add_argument(
        "--relative-timestamps",
        action="store_true",
        help="PICL timestamps as seconds since ISM start instead of UTC us",
    )
    parser.add_argument(
        "--sync-period", type=float, default=5.0,
        help="clock-sync polling period in seconds (0 disables sync)",
    )
    parser.add_argument(
        "--time-frame-ms", type=float, default=10.0,
        help="initial on-line sorting time frame, milliseconds",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until interrupted)",
    )
    parser.add_argument(
        "--until-records", type=int, default=None,
        help="stop once this many records have been received",
    )
    parser.add_argument(
        "--shm-out", metavar="NAME",
        help="also write records to a shared-memory output segment "
             "(read it live with brisk-tail NAME)",
    )
    parser.add_argument(
        "--shm-out-mb", type=int, default=4,
        help="shared output segment capacity in MiB",
    )
    parser.add_argument(
        "--stats-interval", type=float, default=None,
        help="print a self-observability metrics table every N seconds",
    )
    parser.add_argument(
        "--monitor-spec", metavar="PATH",
        help="attach a runtime monitor: JSON rule spec evaluated against "
             "the delivered stream (see docs/monitor-spec.md)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="sharded ISM worker count (1 = classic single process)",
    )
    parser.add_argument(
        "--partition-by", choices=("node", "exs"), default="node",
        help="sharded mode: route each EXS by its node id or its EXS id",
    )
    parser.add_argument(
        "--no-ordered-merge", action="store_true",
        help="sharded mode: skip the k-way ordered merge stage",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH",
        help="write final per-shard stats as JSON (brisk-stats shards PATH)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    consumers = []
    shm_out = None
    if args.shm_out:
        from repro.runtime.shm_consumer import SharedMemoryConsumer

        shm_out = SharedMemoryConsumer(
            capacity_bytes=args.shm_out_mb << 20, name=args.shm_out
        )
        consumers.append(shm_out)
        print(f"brisk-ism shared output segment: {shm_out.name}", flush=True)
    if args.picl:
        mode = (
            TimestampMode.RELATIVE_SECONDS
            if args.relative_timestamps
            else TimestampMode.UTC_MICROS
        )
        stream = open(args.picl, "w")
        consumers.append(
            PiclFileConsumer(
                stream, mode, epoch_us=now_micros(), close_stream=True
            )
        )

    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    ism_config = IsmConfig(
        sorter=SorterConfig(initial_frame_us=round(args.time_frame_ms * 1000))
    )
    listener = MessageListener(args.host, args.port)
    host, port = listener.address
    print(f"brisk-ism listening on {host}:{port}", flush=True)

    if args.shards > 1:
        return _serve_sharded(args, ism_config, consumers, listener)

    manager = InstrumentationManager(ism_config, consumers)
    sync_config = (
        BriskSyncConfig() if args.sync_period > 0 else None
    )
    server = IsmServer(
        manager, listener, sync_config, sync_period_s=args.sync_period or 5.0,
        stats_interval_s=args.stats_interval,
    )
    if args.monitor_spec:
        _attach_monitor(server, args.monitor_spec)
    try:
        server.serve(duration_s=args.duration, until_records=args.until_records)
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
        manager.close()
    if args.stats_json:
        _write_stats_json(
            args.stats_json,
            {"dispatcher": dict(server.metrics_snapshot().scalars()), "shards": {}},
        )
    stats = manager.stats
    print(
        f"received {stats.records_received} records in "
        f"{stats.batches_received} batches from {len(manager.sources)} EXS; "
        f"delivered {stats.records_delivered}; "
        f"sync rounds {int(server.sync_rounds_completed)}",
        flush=True,
    )
    return 0


def _serve_sharded(args, ism_config, consumers, listener) -> int:
    """Run the dispatcher + shard-worker fleet behind the same flags."""
    from repro.runtime.ism_proc import ShardedIsmServer

    if args.sync_period > 0:
        print(
            "note: clock sync is unavailable in sharded mode; "
            "sources ship uncorrected timestamps",
            flush=True,
        )
    server = ShardedIsmServer(
        consumers,
        listener,
        shards=args.shards,
        partition_by=args.partition_by,
        ism_config=ism_config,
        ordered_merge=not args.no_ordered_merge,
        stats_interval_s=args.stats_interval,
    )
    if args.monitor_spec:
        _attach_monitor(server, args.monitor_spec)
    try:
        server.serve(duration_s=args.duration, until_records=args.until_records)
    except KeyboardInterrupt:
        pass
    if args.stats_json:
        _write_stats_json(args.stats_json, server.stats_dump())
    snapshot = server.metrics_snapshot()
    server.close()
    listener.close()
    for consumer in consumers:
        consumer.close()
    print(
        f"received {int(snapshot.get('ism.records_received', 0) or 0)} records "
        f"across {args.shards} shards; "
        f"delivered {int(snapshot.get('dispatch.records_delivered', 0) or 0)}; "
        f"shard restarts {int(snapshot.get('dispatch.shard_restarts', 0) or 0)}",
        flush=True,
    )
    return 0


def _attach_monitor(server, path: str) -> None:
    """Load a JSON monitor spec and attach its engine to *server*."""
    from repro.monitor import MonitorSpec

    spec = MonitorSpec.load(path)
    server.attach_monitor(spec)
    print(
        f"brisk-ism monitor attached: {len(spec.rules)} rule(s) from {path}",
        flush=True,
    )


def _write_stats_json(path: str, dump: dict) -> None:
    import json

    with open(path, "w", encoding="ascii") as stream:
        json.dump(dump, stream, indent=2, sort_keys=True)
    print(f"brisk-ism stats written to {path}", flush=True)


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
