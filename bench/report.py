"""``diff`` and ``aa``: comparing two ledger files, and the suite with itself.

A verdict follows the choosing-metrics rule: a metric whose run-to-run
spread (inter-quartile distance over the median, on either side) exceeds
its bound is ``unresolved`` — never ``unchanged`` — and ratios always
come with their base.
"""

from __future__ import annotations

import json
from typing import Any

from bench import ledger
from bench.run import run_all
from bench.workloads import WORKLOADS

#: Counts that must repeat exactly run to run (``aa`` fails otherwise),
#: on workloads whose batching does not depend on timing: one declared
#: metric and one count the untraced run keeps among its notes.
EXACT_METRIC = "wire_bytes_per_record"
EXACT_NOTE = "core.exs.batches"
EXACT_WORKLOADS = ("stream_fixed", "stream_mixed", "durable_stream")


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def _spread(metric: dict[str, Any]) -> float:
    """Inter-quartile distance as a share of the median."""
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*
    (negative = better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """``improved`` / ``unchanged`` / ``regressed``, or ``unresolved`` when
    either side's own spread is wider than the bound."""
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    worse = _worse_by(a["value"], b["value"], better)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def diff(a: dict[str, Any], b: dict[str, Any]) -> tuple[str, bool]:
    """Table of B against base A; second value is True when some
    end-to-end metric regressed or failures rose."""
    end_to_end = ledger.metric_table("end_to_end")
    per_layer = ledger.metric_table("per_layer")
    lines: list[str] = []
    bad = False
    head = (
        f"   {'metric':<46}{'unit':>8}{'A median':>13}{'A q1..q3':>28}"
        f"{'B median':>13}{'B q1..q3':>28}{'B/A':>8}{'bound':>7}  verdict"
    )
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb:
            continue
        lines.append(
            f"== {name}   failed A={wa['failed']}/{wa['attempted']} "
            f"B={wb['failed']}/{wb['attempted']}"
        )
        if wb["failed"] > wa["failed"]:
            bad = True
            lines.append("   MORE FAILURES in B: no gain counts")
        lines.append(head)
        layer_rows: dict[str, list[str]] = {}
        for key in {**wa["metrics"], **wb["metrics"]}:
            ma, mb = wa["metrics"].get(key), wb["metrics"].get(key)
            if ma is None or mb is None:
                continue
            entry = end_to_end.get(key) or per_layer[key]
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            row = (
                f"{key:<46}{entry['unit']:>8}{ma['value']:>13.4f}"
                f"{_range(ma):>28}{mb['value']:>13.4f}{_range(mb):>28}{ratio:>8.3f}"
            )
            if key in end_to_end:
                if ledger.claimed(key, name):
                    v = verdict(ma, mb, entry["better"], entry["bound"])
                    bad = bad or v == "regressed"
                else:
                    v = "not claimed on this workload"
                lines.append(f"   {row}{entry['bound']:>7.2f}  {v}")
            else:
                target, where = ledger.MOVES[key]
                layer_rows.setdefault(target, []).append(f"     {row}  ({where})")
        for target, rows in layer_rows.items():
            lines.append(f"   layers declared to move {target}:")
            lines.extend(rows)
    return "\n".join(lines), bad


def _range(metric: dict[str, Any]) -> str:
    return f"{metric['q1']:.4f}..{metric['q3']:.4f}"


def aa(sets: int, seed: int, seconds: float, quick: bool) -> tuple[dict[str, Any], bool]:
    """Run the suite *sets* times on this tree, alternating workload
    order; fail when two sets disagree beyond the declared bounds."""
    end_to_end = ledger.metric_table("end_to_end")
    names = list(WORKLOADS)
    runs = []
    for index in range(sets):
        order = names if index % 2 == 0 else names[::-1]
        print(f"-- A/A set {index + 1}/{sets}: {' '.join(order)}", flush=True)
        runs.append(run_all(seed, seconds, traced=False, quick=quick, names=order))
    problems: list[str] = []
    rows = []
    base = runs[0]["workloads"]
    for other in runs[1:]:
        for name in names:
            wa, wb = base[name], other["workloads"][name]
            if wa["failed"] or wb["failed"]:
                problems.append(f"{name}: failed records ({wa['failed']}, {wb['failed']})")
            for key, entry in end_to_end.items():
                va, vb = wa["metrics"][key]["value"], wb["metrics"][key]["value"]
                apart = abs(vb - va) / abs(va) if va else 0.0
                exact = key == EXACT_METRIC and name in EXACT_WORKLOADS
                claimed = ledger.claimed(key, name)
                ok = not claimed or (va == vb if exact else apart <= entry["bound"])
                rows.append(
                    {
                        "workload": name,
                        "metric": key,
                        "a": va,
                        "b": vb,
                        "apart": apart,
                        "bound": 0.0 if exact else entry["bound"],
                        "claimed": claimed,
                        "ok": ok,
                    }
                )
                if not ok:
                    problems.append(
                        f"{name}.{key}: {va:.6g} vs {vb:.6g} "
                        f"({apart:.1%} apart, bound {'exact' if exact else entry['bound']})"
                    )
            ca, cb = wa["notes"].get(EXACT_NOTE), wb["notes"].get(EXACT_NOTE)
            if name in EXACT_WORKLOADS and ca != cb:
                problems.append(f"{name}.{EXACT_NOTE}: {ca} vs {cb} must repeat exactly")
    document = {
        "fingerprint": runs[0]["fingerprint"],
        "sets": runs,
        "comparison": rows,
        "problems": problems,
        "claim": None,
    }
    for row in rows:
        print(
            f"   {row['workload']:<18}{row['metric']:<26}{row['a']:>14.4f}{row['b']:>14.4f}"
            f"{row['apart']:>8.1%} (bound {row['bound']:.1%})  "
            + ("ok" if row["ok"] else "DIFFERS")
            + ("" if row["claimed"] else " (not claimed)")
        )
    for problem in problems:
        print(f"A/A PROBLEM: {problem}")
    return document, bool(problems)
