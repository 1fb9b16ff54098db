"""Real multi-process BRISK runtime.

The paper's deployment: application processes and the external sensor share
a memory segment on each node; external sensors talk to the ISM over TCP.
This subpackage provides the same deployment on one or more real hosts:

* :mod:`repro.runtime.shm` — ring buffers over
  ``multiprocessing.shared_memory`` so an application process and an EXS
  process share one ring exactly as SysV shared memory is used in the
  paper;
* :mod:`repro.runtime.exs_proc` — the external-sensor process loop
  (drain/batch/ship plus the clock-sync slave endpoint);
* :mod:`repro.runtime.plane` — the connection handling every server
  tier shares (accept, select, Hello, acks, steering, sweep, drop);
* :mod:`repro.runtime.ism_proc` — the ISM server: multiplexes batches
  into the manager, runs the clock-sync master.

The simulation substrate (:mod:`repro.sim`) exists because clock-sync and
scaling experiments need controlled clocks and links; this runtime exists
because the throughput and latency numbers (E3, E4) are only credible
against real sockets and a real kernel scheduler.
"""

from repro.runtime.shm import SharedRing, create_shared_ring, attach_shared_ring
from repro.runtime.exs_proc import (
    ExsOutbox,
    ExsProcess,
    ReconnectingExs,
    exs_process_main,
    resilient_exs_main,
)
from repro.runtime.ism_proc import IsmServer, TcpSyncSlave
from repro.runtime.shm_consumer import SharedMemoryConsumer, SharedMemoryReader

__all__ = [
    "SharedMemoryConsumer",
    "SharedMemoryReader",
    "SharedRing",
    "create_shared_ring",
    "attach_shared_ring",
    "ExsOutbox",
    "ExsProcess",
    "ReconnectingExs",
    "exs_process_main",
    "resilient_exs_main",
    "IsmServer",
    "TcpSyncSlave",
]
