"""Tests of the benchmark itself (``python -m pytest bench -q``).

Not part of the repository's tier-1 suite (``testpaths`` is ``tests``):
these check the oracle, the generator's determinism, and that what a run
prints carries exactly the names ``BENCHMARK.json`` declares.  The runs
use ``--quick`` sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import bench  # noqa: F401  (puts src/ on sys.path)
from bench import ledger
from bench.oracle import check_delivery
from bench.workloads import WORKLOADS, generate, inputs_digest, journal_of

JOURNAL = [(source, seq) for source in (1, 2) for seq in range(50)]


def _interleaved() -> list[tuple[int, int]]:
    """A correct delivery: sources interleaved, each in its own order."""
    return [(source, seq) for seq in range(50) for source in (1, 2)]


def test_oracle_accepts_a_correct_interleaving():
    verdict = check_delivery(JOURNAL, _interleaved())
    assert verdict.failed == 0
    assert verdict.ok == verdict.offered == 100


def test_oracle_flags_an_injected_drop():
    delivered = [pair for pair in _interleaved() if pair != (2, 17)]
    verdict = check_delivery(JOURNAL, delivered)
    assert (verdict.lost, verdict.duplicated, verdict.reordered) == (1, 0, 0)
    assert verdict.failed == 1


def test_oracle_flags_an_injected_duplicate():
    delivered = _interleaved()
    delivered.insert(40, (1, 3))
    verdict = check_delivery(JOURNAL, delivered)
    assert (verdict.lost, verdict.duplicated, verdict.reordered) == (0, 1, 0)
    assert verdict.failed == 1


def test_oracle_flags_a_swapped_pair():
    delivered = _interleaved()
    a, b = delivered.index((1, 10)), delivered.index((1, 11))
    delivered[a], delivered[b] = delivered[b], delivered[a]
    verdict = check_delivery(JOURNAL, delivered)
    assert (verdict.lost, verdict.duplicated, verdict.reordered) == (0, 0, 1)
    assert verdict.failed == 1


def test_oracle_counts_records_nobody_offered():
    verdict = check_delivery(JOURNAL, _interleaved() + [(3, 0)])
    assert verdict.unexpected == 1 and verdict.failed == 1


def test_oracle_does_not_import_the_runtime():
    code = "import sys, bench.oracle; print(any(m.startswith('repro') for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=bench.ROOT, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    first = generate(workload, 7, 2000)
    again = generate(workload, 7, 2000)
    assert inputs_digest(first) == inputs_digest(again)
    assert inputs_digest(first) != inputs_digest(generate(workload, 8, 2000))
    # the journal is every source's sequence numbers, in order
    assert journal_of(first) == [
        (source + 1, seq) for source in range(workload.sources) for seq in range(2000)
    ]


def test_declared_workloads_match_the_code():
    declared = [w["name"] for w in ledger.load()["workloads"]]
    assert declared == list(WORKLOADS)
    assert set(ledger.MOVES) == set(ledger.metric_table("per_layer"))
    end_to_end = ledger.metric_table("end_to_end")
    for target, _where in ledger.MOVES.values():
        assert target in end_to_end
    for metric, names in ledger.SCOPE.items():
        assert metric in end_to_end and set(names) <= set(WORKLOADS)
    assert [w["why"] for w in ledger.load()["workloads"]] == [w.why for w in WORKLOADS.values()]
    # counts are held (almost) exactly; nothing exceeds the contract's ceiling
    assert end_to_end["delivered_share"]["bound"] < 1e-6
    assert end_to_end["wire_bytes_per_record"]["bound"] <= 0.05
    assert all(entry["bound"] <= 0.25 for entry in end_to_end.values())


@pytest.mark.parametrize("traced", [False, True])
def test_quick_run_prints_exactly_the_declared_names(tmp_path, traced):
    out = tmp_path / "ledger.json"
    args = [sys.executable, "-m", "bench", "run", "--quick", "--seed", "5", "--out", str(out)]
    done = subprocess.run(
        args + (["--traced"] if traced else []),
        cwd=bench.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == '{"claim": null}'
    document = json.loads(out.read_text())
    assert list(document)[-1] == "claim" and document["claim"] is None
    assert {"nproc", "cpu_model", "python", "git_sha", "seed"} <= set(document["fingerprint"])
    assert list(document["workloads"]) == list(WORKLOADS)
    declared = set(ledger.metric_table("per_layer" if traced else "end_to_end"))
    for name, result in document["workloads"].items():
        assert result["correct"], (name, result["error"], result["notes"])
        assert result["failed"] == 0
        assert set(result["metrics"]) == declared, name
    if traced:
        share = {
            name: document["workloads"][name]["metrics"]["wire.protocol.fastpath_share"]["value"]
            for name in ("stream_fixed", "stream_mixed")
        }
        assert share["stream_fixed"] == 1.0 and 0.3 < share["stream_mixed"] < 0.7
    from bench.harness import log_parent

    assert not [d for d in os.listdir(log_parent()) if d.startswith("brisk-bench-")]


def _crashing_lis(spec, pipe):
    os._exit(9)


def test_crashed_child_is_a_named_failure_not_a_hang(monkeypatch):
    from bench import procs, run

    monkeypatch.setattr(procs, "lis_main", _crashing_lis)
    result = run.run_workload("stream_fixed", 1, 3 * run.QUICK_SECONDS, trace=False, quick=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "lis" in result["error"] and "code 9" in result["error"]


def _lis_dies_after_ready(spec, pipe):
    pipe.recv()
    pipe.send(("ready", None))
    os._exit(7)


def test_child_dying_after_ready_is_a_named_failure(monkeypatch):
    from bench import procs, run

    monkeypatch.setattr(procs, "lis_main", _lis_dies_after_ready)
    result = run.run_workload("stream_fixed", 1, 3 * run.QUICK_SECONDS, trace=False, quick=True)
    assert result["correct"] is False and result["failed_share"] == 1.0
    assert result["error"].startswith("lis:") and "7" in result["error"]


def test_send_to_a_dead_child_is_a_harness_error():
    import multiprocessing as mp

    from bench.harness import HarnessError, _send

    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=os._exit, args=(3,))
    proc.start()
    child.close()
    proc.join(timeout=30)
    with pytest.raises(HarnessError, match=r"relay: gone before 'stop' \(exit code 3\)"):
        for _ in range(64):  # the first write after the peer closed may still land
            _send(parent, proc, "relay", "stop")
    parent.close()


def test_contract_line_is_the_last_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--workload", "stream_fixed",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=bench.ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(ledger.metric_table("end_to_end"))
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0
