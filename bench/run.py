"""Running workloads: repetitions → medians, quartiles, and the result JSON.

One invocation of one workload is a discarded warm-up repetition followed
by :data:`REPETITIONS` timed ones, each with its own set-up and tear-down
(so ``setup_s`` is itself a median of several set-ups).  The value
reported for a metric is the median over the timed repetitions, except for
the slice metrics, which are read off all repetitions' slices together.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from typing import Any

from bench import ROOT, ledger
from bench.harness import (
    Backlog,
    HarnessError,
    Repetition,
    log_parent,
    run_repetition,
    steady,
)
from bench.trace import CYCLE_RECORDS, layer_metrics
from bench.workloads import WORKLOADS, SourceInput, generate, inputs_digest

#: Timed repetitions per invocation, ``--seconds``/3 each: four seconds at
#: the declared ``run_seconds`` of 12.
REPETITIONS = 3
#: Lock-step cycles in the traced replay (x CYCLE_RECORDS records per source).
TRACE_CYCLES = 16
#: ``--quick`` sizes: one short repetition, a two-cycle replay.
QUICK_SECONDS = 0.3
QUICK_TRACE_CYCLES = 2
OUT_DIR = os.path.join(ROOT, "bench", "out")


def summarise(samples: list[float], unit: str, value: float | None = None) -> dict[str, Any]:
    """One metric's value (the median of its per-repetition *samples*
    unless given), with the samples' quartiles and count."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples) if value is None else value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def _prefix(inputs: list[SourceInput], n: int) -> list[SourceInput]:
    return [SourceInput(src.node_id, src.exs_id, src.events[:n]) for src in inputs]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> dict[str, Any]:
    """Run one workload; never raises for a failure of the program under
    test — a crashed or hung child becomes ``failed`` records and a named
    ``error`` in the result instead."""
    workload = WORKLOADS[name]
    repetitions = 1 if quick or trace else REPETITIONS
    rep_seconds = seconds / REPETITIONS
    n = workload.records_per_source(rep_seconds)
    inputs = generate(workload, seed, n)
    offered = n * workload.sources

    reps: list[Repetition] = []
    error = None
    attempted = failed = 0
    try:
        if not quick:
            # Warm-up: page cache, .pyc files, allocator arenas.  Discarded.
            warm = _prefix(inputs, max(1000, n // 32))
            run_repetition(workload, warm, Backlog.build(workload, warm), rep_seconds / 32)
        backlog = Backlog.build(workload, inputs)
        for _ in range(repetitions):
            attempted += offered
            rep = run_repetition(workload, inputs, backlog, rep_seconds)
            failed += rep.verdict.failed + rep.payload_mismatches
            reps.append(rep)
    except HarnessError as exc:
        # The repetition that died delivered nothing we can vouch for.
        error = str(exc)
        attempted = max(attempted, offered)
        failed += offered
    failed_share = min(1.0, failed / attempted)

    table = ledger.metric_table("per_layer" if trace else "end_to_end")
    metrics: dict[str, Any] = {}
    notes: dict[str, Any] = {}
    pooled: dict[str, float] = {}
    if reps:
        if trace:
            values = dict(reps[-1].layers)
            cycles = QUICK_TRACE_CYCLES if quick else TRACE_CYCLES
            values.update(
                layer_metrics(
                    workload,
                    generate(workload, seed, cycles * CYCLE_RECORDS),
                    cycles,
                    {
                        proc: values[f"runtime.{proc}.cpu_s_per_mrec"] * 1e3
                        for proc in ("exs_proc", "relay_proc", "ism_proc")
                    },
                    os.path.join(OUT_DIR, f"trace_{name}.json"),
                    seed,
                )
            )
            samples = {key: [value] for key, value in values.items()}
        else:
            samples = {
                key: [rep.end_to_end[key] for rep in reps] for key in reps[0].end_to_end
            }
            # Slice metrics: one reading off all repetitions' slices
            # together (48 at the declared sizes) rather than a median
            # of three readings off 16 each.
            for key in reps[0].series:
                if key != "notice_ns":
                    pooled[key] = steady(key, [x for rep in reps for x in rep.series[key]])
            if backlog.chunk_ns:
                # notice_ns stays a median over windows, each weighing the
                # same; the backlog image's preload is one more window
                samples["notice_ns"].append(steady("notice_ns", backlog.chunk_ns))
            # Not a median: one failed repetition must show.
            samples["delivered_share"] = [1.0 - failed_share]
        for key, entry in table.items():
            metrics[key] = summarise(
                [float(v) for v in samples[key]], entry["unit"], pooled.get(key)
            )
        for key in reps[0].notes:
            notes[key] = statistics.median(rep.notes[key] for rep in reps)
        verdicts = [rep.verdict for rep in reps]
        for field in ("lost", "duplicated", "reordered", "unexpected"):
            notes[field] = sum(getattr(v, field) for v in verdicts)
        notes["payload_mismatches"] = sum(rep.payload_mismatches for rep in reps)
    return {
        "workload": name,
        "loop": workload.loop,
        "seed": seed,
        "repetitions": len(reps),
        "rep_seconds": rep_seconds,
        "records_per_source": n,
        "inputs_sha256": inputs_digest(inputs),
        "correct": failed == 0 and error is None,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed_share,
        "error": error,
        "metrics": metrics,
        "notes": notes,
        # per repetition, the per-slice values behind the medians
        "series": [rep.series for rep in reps],
    }


def driver_line(result: dict[str, Any]) -> str:
    """The one-line JSON object the benchmark contract asks for last."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                key: {"value": m["value"], "unit": m["unit"]}
                for key, m in result["metrics"].items()
            },
        }
    )


def format_result(result: dict[str, Any]) -> str:
    """Every metric by name: unit, median, quartiles, sample count."""
    lines = [
        f"== {result['workload']}  seed={result['seed']}  "
        f"{result['repetitions']} x {result['rep_seconds']:.2f}s  "
        f"{result['records_per_source']} records/source",
        f"   loop: {result['loop']}",
        f"   correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} failed_share={result['failed_share']:.6f}"
        + (f"  ERROR: {result['error']}" if result["error"] else ""),
        f"   {'metric':<46}{'unit':>10}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}",
    ]
    for key, m in result["metrics"].items():
        lines.append(
            f"   {key:<46}{m['unit']:>10}{m['value']:>14.4f}"
            f"{m['q1']:>14.4f}{m['q3']:>14.4f}{m['n']:>4}"
            + ("" if ledger.claimed(key, result["workload"]) else "  (not claimed here)")
        )
    for key, value in result["notes"].items():
        lines.append(f"   note {key} = {value:.6g}")
    return "\n".join(lines)


def fingerprint(seed: int, seconds: float) -> dict[str, Any]:
    """Where and how this file was produced."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    log_fs = _fs_type(log_parent())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "log_dir": log_parent(),
        "log_dir_fs": log_fs,
        "log_dir_tmpfs": log_fs == "tmpfs",
        "seed": seed,
        "repetitions": REPETITIONS,
        "rep_seconds": seconds / REPETITIONS,
        "unix_time": int(time.time()),
    }


def _fs_type(path: str) -> str:
    """Filesystem type holding *path* (longest mount-point prefix)."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8", errors="replace") as stream:
            for line in stream:
                _dev, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fs = mount, kind
    except OSError:
        pass
    return fs


def run_all(
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
    names: list[str] | None = None,
) -> dict[str, Any]:
    """Run the suite (or *names*, in that order); print each table as it
    completes; return the ledger document (``"claim": null`` last)."""
    if quick:
        seconds = QUICK_SECONDS * REPETITIONS
    results = {}
    for name in names or list(WORKLOADS):
        result = run_workload(name, seed, seconds, traced, quick)
        print(format_result(result), flush=True)
        results[name] = result
    return {
        "fingerprint": fingerprint(seed, seconds),
        "traced": traced,
        "workloads": results,
        "claim": None,
    }


def write_json(document: dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1)
        stream.write("\n")

