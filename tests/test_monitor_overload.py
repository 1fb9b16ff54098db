"""Overload shedding through ``attach_monitor`` on a live server.

The scenario ``AutoThrottle`` used to own: a producer floods one EXS far
past the target rate; the server must push a sampling filter down to
that EXS over the real control channel, say so in-band, and restore full
detail once the flood stops.  The spec is the preset documented in
``docs/monitor-spec.md``, loaded from that file so the documentation
cannot drift from what runs.
"""

import threading
import time

import pytest
from tests.conftest import doc_json_block, wait_until

from repro.clocksync.clocks import CorrectedClock
from repro.core.consumers import CollectingConsumer
from repro.core.exs import ExsConfig, ExternalSensor
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.core.ringbuffer import ring_for_records
from repro.core.sensor import Sensor
from repro.core.sorting import SorterConfig
from repro.monitor.engine import ALERT_EVENT_ID
from repro.monitor.spec import MonitorSpec
from repro.runtime import ExsProcess, IsmServer
from repro.runtime.ism_proc import ShardedIsmServer
from repro.util.timebase import now_micros
from repro.wire.tcp import MessageListener, connect

def preset_spec() -> MonitorSpec:
    return MonitorSpec.from_json(doc_json_block("preset: overload-shedding"))


def make_server(kind: str, listener: MessageListener, collected):
    ism_config = IsmConfig(sorter=SorterConfig(initial_frame_us=0))
    if kind == "sharded":
        return ShardedIsmServer([collected], listener, shards=2, ism_config=ism_config)
    return IsmServer(InstrumentationManager(ism_config, [collected]), listener)


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_overload_sheds_at_the_source_and_restores(kind):
    collected = CollectingConsumer()
    listener = MessageListener()
    host, port = listener.address
    server = make_server(kind, listener, collected)
    engine = server.attach_monitor(preset_spec())
    server_thread = threading.Thread(target=server.serve, daemon=True)

    ring = ring_for_records(200_000)
    sensor = Sensor(ring, node_id=1)
    exs = ExternalSensor(
        1, 1, ring, CorrectedClock(now_micros),
        ExsConfig(batch_max_records=128, flush_timeout_us=2_000),
    )
    proc = ExsProcess(exs, connect(host, port), select_timeout_s=0.002)
    exs_thread = threading.Thread(target=proc.run, daemon=True)
    flooding = threading.Event()
    flooding.set()

    def producer():
        k = 0
        while flooding.is_set():
            sensor.notice_ints(1, k % 2**31)
            k += 1
            if k % 500 == 0:
                time.sleep(0.001)  # ~hundreds of kHz offered, >> target

    producer_thread = threading.Thread(target=producer, daemon=True)
    try:
        server_thread.start()
        exs_thread.start()
        producer_thread.start()
        # The EXS really did install the pushed filter and is dropping.
        wait_until(
            lambda: (f := exs.filter) is not None and f.spec.sample_every == 16,
            timeout=20.0,
            message="overload never shed at the source",
        )
        assert "overload-shed" in engine.active_rules()
        before = exs.stats.records_filtered
        wait_until(lambda: exs.stats.records_filtered > before, timeout=5.0)
        # ... and the thinned stream says so in-band.
        wait_until(
            lambda: any(r.event_id == ALERT_EVENT_ID for r in list(collected.records)),
            timeout=5.0,
            message="no in-band overload alert",
        )
        # Flood over: the rule clears and full detail comes back.
        flooding.clear()
        producer_thread.join(timeout=5)
        wait_until(
            lambda: exs.filter is None,
            timeout=10.0,
            message="sampling never restored after the flood",
        )
        assert "overload-shed" not in engine.active_rules()
    finally:
        flooding.clear()
        proc.stop()
        exs_thread.join(timeout=5)
        server.stop()
        server_thread.join(timeout=30)
        if kind == "sharded":
            server.close()
        listener.close()
