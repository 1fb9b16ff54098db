"""brisk-lint: AST-based invariant checking for this repository.

The last several PRs each hand-established an invariant the codebase now
silently depends on — byte-identical codec fast paths, select-loop pump
discipline, no-swallowed-errors delivery, and a wall-clock-free
deterministic simulation that a golden PICL trace is byte-stable against.
``brisk-lint`` machine-checks those contracts on every commit: it parses
the source tree once into ASTs and runs pluggable project-specific
checkers over it.

v2 adds an **interprocedural** layer: a project call graph
(:mod:`repro.lint.callgraph`) and an effect-dataflow fixpoint
(:mod:`repro.lint.effects`) built once per tree and shared by every
checker, so rules can reason about what a function *reaches*, not just
what it writes.  ``brisk-lint --graph <symbol>`` shows the resolution
for one function; ``brisk-lint --explain <rule>`` prints a rule's
rationale.

Rule families (see ``docs/static-analysis.md`` for the full catalogue):

=========  =============================================================
``BRK0xx``  pragma hygiene (malformed / reason-less / unused pragmas)
``BRK2xx``  determinism (no wall clock / ambient randomness in the
            simulation-reachable zone; BRK204 follows the call graph
            out of the zone)
``BRK3xx``  select-loop pump discipline (no blocking calls written in
            pump functions)
``BRK4xx``  exception hygiene (no silently swallowed broad excepts)
``BRK5xx``  instrument registration (every obs instrument registered,
            metric names consistent)
``BRK6xx``  deep loop discipline (pump loops must not *transitively*
            reach blocking calls through any call chain)
``BRK7xx``  durability ordering (ack release dominated by fsync +
            checkpoint; ring consumers behind the commit watermark)
=========  =============================================================

``BRK1xx`` (wire conformance) and ``BRK8xx`` (capability gating) are
retired: their invariants hold by declaration in
:mod:`repro.wire.protocol`, pinned by tests (``docs/static-analysis.md``).

Findings are suppressed either by an inline pragma with a reason::

    something_flagged()  # brisk-lint: disable=BRK401 (why it is fine)

or by an entry in the checked-in ``lint-baseline.toml``; ``--fail-on-new``
(the CI mode) fails only on findings in neither.
"""

from repro.lint.engine import (
    Checker,
    Finding,
    SourceFile,
    SourceTree,
    load_tree,
)
from repro.lint.callgraph import CallGraph, build_callgraph
from repro.lint.effects import Effect, ProjectAnalysis, project_analysis
from repro.lint.checkers import all_checkers
from repro.lint.runner import LintResult, run_lint

__all__ = [
    "CallGraph",
    "Checker",
    "Effect",
    "Finding",
    "LintResult",
    "ProjectAnalysis",
    "SourceFile",
    "SourceTree",
    "all_checkers",
    "build_callgraph",
    "load_tree",
    "project_analysis",
    "run_lint",
]
