#!/usr/bin/env python3
"""Paired parent/change runs of the ledger benchmark (ROADMAP 1(c)).

    python3 scripts/paired_bench.py --out BENCH_18.json            # 5 pairs x 5 workloads
    python3 scripts/paired_bench.py --out /tmp/smoke.json --quick --pairs 1   # CI smoke

Makes a bytecode-free copy of the parent revision (``git archive``) and of
the change (the working tree's tracked and unignored files, or ``--change
REV``), then alternates ``python3 -m bench run --workload W`` over the two
copies — parent first on even pairs, change first on odd ones, both sides
of a pair on the same seed, a new seed per pair — and writes one document
with, per workload and end-to-end metric, each side's values, median and
quartiles and how many pairs the change won.  Each copy runs its *own*
``bench/`` and ``BENCHMARK.json``; a PR that claims a gain leaves those
identical on both sides.

The copies live under ``.bench_build/`` (git-ignored) and are removed on
exit.  Stale bytecode is kept out on purpose: a checkout with a warm
``__pycache__`` imports ~25 ms faster and biases ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, **kwargs)


def _rev(rev: str) -> str:
    return _git("rev-parse", rev, capture_output=True, text=True).stdout.strip()


def _export_rev(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def _export_worktree(dest: Path) -> None:
    listing = _git(
        "ls-files", "-z", "--cached", "--others", "--exclude-standard",
        capture_output=True,
    ).stdout
    for name in filter(None, listing.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # tracked but deleted in the working tree: skip
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run_once(copy: Path, workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """One contract-form invocation; the last stdout line is the result."""
    cmd = [
        sys.executable, "-m", "bench", "run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # each copy must import its own src/
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _summarise(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per-metric parent/change spreads and pair wins for one workload."""
    out: dict = {"metrics": {}}
    for side in ("parent", "change"):
        out[f"{side}_failed_share"] = [
            (r["failed"] / r["attempted"]) if r["attempted"] else 1.0
            for r in runs[side]
        ]
        out[f"{side}_correct"] = [bool(r["correct"]) for r in runs[side]]
    names = [n for n in better if all(n in r["metrics"] for s in runs.values() for r in s)]
    for name in names:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if better[name] == "higher" else -1.0
        base = statistics.median(parent)
        out["metrics"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": better[name],
            "parent": _spread(parent),
            "change": _spread(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "median_change_pct": (
                100.0 * (statistics.median(change) - base) / base if base else 0.0
            ),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    parser.add_argument("--parent", default="HEAD~1", help="parent revision")
    parser.add_argument("--change", help="change revision (default: working tree)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or float(declared["run_seconds"])
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    build = ROOT / ".bench_build"
    shutil.rmtree(build, ignore_errors=True)
    copies = {"parent": build / "parent", "change": build / "change"}
    try:
        for copy in copies.values():
            copy.mkdir(parents=True)
        _export_rev(args.parent, copies["parent"])
        if args.change:
            _export_rev(args.change, copies["change"])
        else:
            _export_worktree(copies["change"])
        results: dict[str, dict[str, list[dict]]] = {
            w: {"parent": [], "change": []} for w in workloads
        }
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = _run_once(
                        copies[side], workload, args.seed + pair, seconds, args.quick
                    )
                    results[workload][side].append(result)
                    print(
                        f"pair {pair + 1}/{args.pairs} {workload:<18} {side:<6} "
                        + " ".join(
                            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                        ),
                        flush=True,
                    )
    finally:
        shutil.rmtree(build, ignore_errors=True)

    document = {
        "parent": _rev(args.parent),
        "change": _rev(args.change) if args.change else "working tree",
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "seconds": seconds,
        "quick": args.quick,
        "order": "parent first on odd-numbered pairs, change first on even-numbered",
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {w: _summarise(results[w], better) for w in workloads},
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {args.out}")
    clean = all(
        all(summary[f"{side}_correct"]) and not any(summary[f"{side}_failed_share"])
        for summary in document["workloads"].values()
        for side in ("parent", "change")
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
