"""``brisk-monitor``: run a Python script under transparent monitoring.

The §2 promise made executable: the user names a script and what to
monitor; nothing in the script changes::

    brisk-monitor --include mysolver --picl run.picl  myscript.py arg1
    brisk-monitor --include mysolver --ism 127.0.0.1:7315  myscript.py

While the script runs, a :class:`~repro.instrument.tracer.FunctionTracer`
emits call/return events for every function whose module matches an
``--include`` prefix, into an in-process ring buffer.  Afterwards the
records are shipped — to a PICL trace file, or through a real external
sensor's acked session to a live ISM.
"""

from __future__ import annotations

import argparse
import runpy
import sys

from repro.clocksync.clocks import CorrectedClock
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ringbuffer import HEADER_SIZE, OverflowPolicy, RingBuffer
from repro.core.sensor import Sensor
from repro.instrument.tracer import FunctionTracer
from repro.picl.format import PiclWriter
from repro.runtime.exs_proc import ExsProcess
from repro.util.timebase import now_micros
from repro.wire.tcp import connect


def build_parser() -> argparse.ArgumentParser:
    """Build the tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="brisk-monitor",
        description="Run a Python script under transparent BRISK monitoring.",
    )
    parser.add_argument("script", help="Python script to run")
    parser.add_argument(
        "script_args", nargs=argparse.REMAINDER, help="arguments for the script"
    )
    parser.add_argument(
        "--include", action="append", default=[],
        help="module prefix to trace (repeatable); default: the script itself",
    )
    parser.add_argument(
        "--max-depth", type=int, default=16, help="call-depth trace limit"
    )
    parser.add_argument("--node-id", type=int, default=1)
    parser.add_argument("--picl", help="write the trace to this PICL file")
    parser.add_argument(
        "--ism", metavar="HOST:PORT", help="ship the trace to a running ISM"
    )
    parser.add_argument(
        "--ring-mb", type=int, default=64, help="in-process ring capacity"
    )
    parser.add_argument(
        "--system-metrics", type=float, metavar="SECONDS", default=None,
        help="also sample system metrics (loadavg/memory/CPU/RSS) on this "
             "period while the script runs",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if not args.picl and not args.ism:
        args.picl = args.script + ".picl"

    ring = RingBuffer(
        bytearray(HEADER_SIZE + args.ring_mb * (1 << 20)),
        OverflowPolicy.DROP_NEW,
    )
    sensor = Sensor(ring, node_id=args.node_id)
    include = tuple(args.include) or ("__main__",)
    tracer = FunctionTracer(
        sensor, include=include, max_depth=args.max_depth
    )

    metrics_stop = None
    if args.system_metrics:
        import threading

        from repro.core.system_sensor import SystemMetricsSensor

        metrics = SystemMetricsSensor(sensor)
        metrics_stop = threading.Event()

        def metrics_loop() -> None:
            while not metrics_stop.wait(args.system_metrics):
                metrics.sample()

        metrics.sample()  # one sample at start, then the periodic loop
        threading.Thread(target=metrics_loop, daemon=True).start()

    saved_argv = sys.argv
    sys.argv = [args.script] + list(args.script_args)
    exit_code = 0
    try:
        with tracer:
            runpy.run_path(args.script, run_name="__main__")
    except SystemExit as exc:  # the script's own exit is not our failure
        exit_code = int(exc.code or 0)
    finally:
        sys.argv = saved_argv
        if metrics_stop is not None:
            metrics_stop.set()

    print(
        f"brisk-monitor: traced {tracer.calls_traced} calls "
        f"({tracer.calls_skipped} beyond depth {args.max_depth}, "
        f"{sensor.dropped} dropped by the ring)",
        file=sys.stderr,
    )

    if args.picl:
        with open(args.picl, "w") as stream:
            writer = PiclWriter(stream)
            writer.write_all(ring.drain())
        print(f"brisk-monitor: wrote {args.picl}", file=sys.stderr)
    elif args.ism:
        host, _, port_text = args.ism.rpartition(":")
        exs = ExternalSensor(
            exs_id=args.node_id,
            node_id=args.node_id,
            ring=ring,
            clock=CorrectedClock(now_micros),
            config=ExsConfig(batch_max_records=512),
        )
        # One acked session, stopped before it starts: it ships what the
        # ring holds and returns once the ISM acked it (or gave up).
        proc = ExsProcess(exs, connect(host or "127.0.0.1", int(port_text)))
        proc.stop()
        proc.run()
        print(
            f"brisk-monitor: shipped {exs.stats.records_shipped} records "
            f"in {exs.stats.batches_shipped} batches to {args.ism}",
            file=sys.stderr,
        )
        if proc.outbox.unacked:
            print(
                f"brisk-monitor: {proc.outbox.unacked} batches not "
                "acknowledged by the ISM",
                file=sys.stderr,
            )
    return exit_code


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
