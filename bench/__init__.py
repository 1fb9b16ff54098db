"""BRISK benchmark ledger: end-to-end and per-layer metrics over the real
multi-process runtime (localhost TCP + shared-memory rings).

The package lives outside ``src/`` on purpose: every layer is measured
from outside, through its public functions.  ``BENCHMARK.json`` at the
repository root declares the workloads, metrics and regression bounds;
``bench/README.md`` explains them.
"""

from __future__ import annotations

import os
import sys

#: Repository root (the benchmark command runs from here).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The benchmark command may not name ``src`` (it is outside the
# benchmark's own paths), so the package makes the program importable
# itself.  Spawned children inherit ``sys.path`` from the parent.
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
