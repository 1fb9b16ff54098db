"""E10 — relay aggregation tier: fan-in capacity versus flat topology.

E5b broke the ISM's *compute* ceiling by sharding sort/deliver across
workers.  This experiment targets the other axis the paper's hierarchy
exists for: the dispatcher's **fan-in** ceiling.  With a flat topology
every EXS holds its own connection and every batch arrives as its own
frame; the serial dispatcher pays a per-frame cost, so offered frame rate
— not record rate — is what saturates it.  A relay tier multiplexes many
EXS onto few upstream connections and coalesces their batches into fat
frames, so the same record load reaches the ISM in far fewer frames.

Two paths:

* **sim** (deterministic, host-independent): 1,000 EXS behind a 2-level
  relay tree (fan-in 32 → 32 relays → 1 root) versus 1,000 flat
  connections, with a modelled per-frame dispatcher cost.  The flat
  topology saturates the dispatcher; the relayed one must deliver at
  least as many records while presenting exactly one ISM-side
  connection.  Asserted unconditionally — this is the acceptance proof.
* **socket** (the real runtime): spawned saturating senders through one
  real ``RelayServer`` into an ``IsmServer``.  Exact end-to-end record
  counts, a single upstream connection fronting every source, and an
  actual coalescing ratio > 1 are asserted on any host; wall-clock
  throughput is reported, not gated.
"""

import multiprocessing as mp
import sys
import threading
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _e5_helpers import saturating_sender

from repro.core.consumers import CallbackConsumer
from repro.core.ism import InstrumentationManager, IsmConfig
from repro.runtime.ism_proc import IsmServer
from repro.runtime.relay_proc import RelayConfig, RelayServer
from repro.wire.tcp import MessageListener

# --- sim model ---------------------------------------------------------
SIM_NODES = 1_000
RELAY_FANIN = 32
RELAY_LEVELS = 2
SIM_RATE_HZ = 50
SIM_SECONDS = 2.0
#: Serial dispatcher cost per inbound frame.  1,000 flat EXS polling at
#: 10 ms offer ~14k frames/s; at 100 us/frame the dispatcher can admit
#: only 10k/s — saturated.  The relay tree collapses the same load to a
#: few hundred frames/s.
FRAME_OVERHEAD_US = 100.0

# --- socket path -------------------------------------------------------
SOCKET_SENDERS = 16
RECORDS_PER_SENDER = 5_000
BATCH = 250


def run_sim_point(relayed: bool) -> dict:
    """One deterministic deployment run; returns the numbers that matter."""
    from repro.sim.deployment import DeploymentConfig, SimDeployment
    from repro.sim.engine import Simulator
    from repro.sim.workload import PoissonWorkload

    sim = Simulator(seed=11)
    dep = SimDeployment(
        sim,
        DeploymentConfig(
            exs_poll_interval_us=10_000,
            ism_frame_overhead_us=FRAME_OVERHEAD_US,
            relay_fanin=RELAY_FANIN if relayed else 0,
            relay_levels=RELAY_LEVELS,
            relay_flush_interval_us=5_000,
        ),
        [CallbackConsumer(lambda r: None)],
        # Clock sync off: its blocking startup round would advance virtual
        # time, stretching the measurement window out from under the
        # offered load and hiding dispatcher saturation.
        sync_algorithm="none",
    )
    for node in dep.add_nodes(SIM_NODES):
        dep.attach_workload(node, PoissonWorkload(rate_hz=SIM_RATE_HZ))
    dep.run(SIM_SECONDS)
    m = dep.metrics
    return {
        "delivered": dep.ism.stats.records_received,
        "ism_conns": dep.ism_side_connections,
        "frames_in": m.ism_frames_in,
        "relay_frames_out": m.relay_frames_out,
        "relay_batches_in": m.relay_batches_in,
        "busy_us": m.dispatcher_busy_us,
    }


def test_e10_sim_relay_fanin(benchmark, report):
    def study():
        return {"flat": run_sim_point(False), "relayed": run_sim_point(True)}

    points = benchmark.pedantic(study, rounds=1, iterations=1)
    flat, relayed = points["flat"], points["relayed"]
    report.table(
        "topology  ISM conns  delivered  frames in  dispatcher busy",
        [
            (
                f"{name:>7}",
                f"{p['ism_conns']:>9,}",
                f"{p['delivered']:>9,} rec",
                f"{p['frames_in']:>9,}",
                f"{p['busy_us'] / 1e6:6.2f} s",
            )
            for name, p in points.items()
        ],
    )
    report.row(
        f"model: {SIM_NODES:,} EXS x {SIM_RATE_HZ} ev/s, "
        f"{FRAME_OVERHEAD_US:.0f} us/frame dispatcher cost, "
        f"relay fan-in {RELAY_FANIN} x {RELAY_LEVELS} levels"
    )
    report.row(
        f"coalescing: {relayed['relay_batches_in']:,} batches -> "
        f"{relayed['relay_frames_out']:,} relay frames"
    )
    report.row(
        "floors: relayed ISM conns == 1, relayed delivered >= flat, "
        "relayed frame load < 1/10 flat (all deterministic)"
    )
    # The whole point of the tier: connection count collapses from one
    # per EXS to one per root relay.
    assert flat["ism_conns"] == SIM_NODES
    assert relayed["ism_conns"] == 1
    # The flat dispatcher is saturated (more service time assigned than
    # virtual time available); the relayed one must not be, and must
    # deliver at least as much.
    assert flat["busy_us"] >= SIM_SECONDS * 1e6, (
        f"flat dispatcher not saturated ({flat['busy_us']} us busy): "
        "the experiment no longer exercises the fan-in ceiling"
    )
    assert relayed["delivered"] >= flat["delivered"], (
        f"relayed {relayed['delivered']} < flat {flat['delivered']}"
    )
    assert relayed["frames_in"] * 10 <= flat["frames_in"], (
        f"coalescing too weak: {relayed['frames_in']} relayed frames vs "
        f"{flat['frames_in']} flat"
    )


def run_socket_relayed() -> tuple[float, RelayServer, int]:
    """Saturating senders through one real relay into one real ISM."""
    ctx = mp.get_context("spawn")
    total = SOCKET_SENDERS * RECORDS_PER_SENDER
    delivered = [0]

    def count(_record):
        delivered[0] += 1

    manager = InstrumentationManager(IsmConfig(), [CallbackConsumer(count)])
    listener = MessageListener()
    server = IsmServer(manager, listener)
    host, port = listener.address
    server_thread = threading.Thread(
        target=server.serve,
        kwargs={"duration_s": 120.0, "until_records": total},
        daemon=True,
    )
    relay = RelayServer(RelayConfig(upstream_host=host, upstream_port=port))
    relay_thread = threading.Thread(
        target=relay.serve, kwargs={"duration_s": 119.0}, daemon=True
    )
    rhost, rport = relay.address
    senders = [
        ctx.Process(
            target=saturating_sender,
            args=(rhost, rport, idx + 1, RECORDS_PER_SENDER, BATCH),
        )
        for idx in range(SOCKET_SENDERS)
    ]
    server_thread.start()
    relay_thread.start()
    for p in senders:
        p.start()
    t0 = time.perf_counter()
    try:
        server_thread.join(timeout=120.0)
        elapsed = time.perf_counter() - t0
    finally:
        for p in senders:
            p.join(timeout=10)
            if p.is_alive():  # pragma: no cover - hygiene
                p.terminate()
        relay.stop()
        relay_thread.join(timeout=10)
        server.stop()
        server_thread.join(timeout=10)
    upstream_conns = len(server.plane._conn_sources)
    # Exactly-once through the extra hop is host-independent.
    assert delivered[0] == total, f"{delivered[0]} != {total} via relay"
    assert manager.stats.duplicate_batches == 0
    return total / elapsed, relay, upstream_conns


def test_e10_socket_relay_smoke(benchmark, report):
    rate, relay, upstream_conns = benchmark.pedantic(
        run_socket_relayed, rounds=1, iterations=1
    )
    batches = int(relay.batches_in)
    frames = int(relay.frames_out)
    report.row(
        f"{SOCKET_SENDERS} senders x {RECORDS_PER_SENDER:,} records "
        f"through one relay: {rate:,.0f} ev/s aggregate"
    )
    report.row(
        f"ISM-side connections: {upstream_conns} "
        f"(fronting {SOCKET_SENDERS} sources)"
    )
    report.row(
        f"coalescing: {batches:,} batches -> {frames:,} upstream frames "
        f"({batches / max(1, frames):.1f} batches/frame)"
    )
    report.row(
        "floors: exact delivery, zero duplicates, 1 upstream conn, "
        "coalesce ratio > 1 (wall-clock rate reported, not gated)"
    )
    # One socket fronts every downstream source.
    assert upstream_conns == 1, f"{upstream_conns} ISM-side connections"
    assert int(relay.records_out) == SOCKET_SENDERS * RECORDS_PER_SENDER
    # With 16 concurrent senders and a 5 ms coalesce window the relay
    # must actually merge batches, not degenerate to pass-through.
    assert frames < batches, f"no coalescing: {frames} frames, {batches} batches"
