"""Command line: ``python -m bench run | diff | aa``.

``run --workload W --seed N --seconds S --trace 0|1`` is the form the
benchmark contract calls: one workload, and the last line of standard
output is one JSON object (``correct``/``attempted``/``failed``/
``metrics``).  Without ``--workload`` the whole suite runs and the ledger
document goes to ``--out``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from bench import ledger
from bench.workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run one workload, or the whole suite")
    run.add_argument("--workload", choices=list(WORKLOADS), help="one workload only")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, help="timed seconds per workload")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    run.add_argument("--quick", action="store_true", help="smoke-test sizes")
    run.add_argument("--out", help="write the ledger document here")

    diff = sub.add_parser("diff", help="compare two ledger files (B against base A)")
    diff.add_argument("a")
    diff.add_argument("b")

    aa = sub.add_parser("aa", help="run the suite against itself")
    aa.add_argument("--sets", type=int, default=2)
    aa.add_argument("--seed", type=int, default=1)
    aa.add_argument("--seconds", type=float)
    aa.add_argument("--quick", action="store_true")
    aa.add_argument("--out", default=os.path.join("bench", "out", "aa.json"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so children, shm segments and scratch
    # directories are released by the same finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # Imported late: they pull in the program under test, and a checkout
    # without it must fail here, before anything is printed.
    from bench import report, run

    if args.verb == "diff":
        text, regressed = report.diff(report.load(args.a), report.load(args.b))
        print(text)
        return 1 if regressed else 0

    seconds = args.seconds if args.seconds else float(ledger.load()["run_seconds"])
    if args.verb == "aa":
        document, differs = report.aa(args.sets, args.seed, seconds, args.quick)
        run.write_json(document, args.out)
        print(f"wrote {args.out}")
        return 1 if differs else 0

    traced = bool(args.trace)
    if args.workload:
        if args.quick:
            seconds = run.QUICK_SECONDS * run.REPETITIONS
        result = run.run_workload(args.workload, args.seed, seconds, traced, args.quick)
        print(run.format_result(result))
        if args.out:
            run.write_json(result, args.out)
        print(run.driver_line(result), flush=True)
        return 0 if result["metrics"] else 1
    document = run.run_all(args.seed, seconds, traced, args.quick)
    if args.out:
        run.write_json(document, args.out)
        print(f"wrote {args.out}")
    print('{"claim": null}')
    return 0


def _stop_resource_tracker() -> None:
    """Wait for multiprocessing's helper process too: by default it only
    notices this process is gone, and outlives it for a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
