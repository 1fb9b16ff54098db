"""BRK7xx — durability ordering: fsync+checkpoint dominate ack release.

PR 8's whole guarantee is one ordering: deliver → fsync → checkpoint →
*then* ack.  An EXS drops records from its outbox the moment an ack
arrives, so an ack released before the covering ``sync`` turns a crash
into silent data loss.  The ordering lives in three functions today and
every refactor since PR 8 has had to re-derive it by hand; this family
checks it from the source.

Scope: functions in the server-tier modules (``runtime/ism_proc.py``,
``runtime/plane.py``, ``runtime/shard.py``, ``runtime/relay_proc.py``)
that reference ``durable_sink`` — the durable path by definition (the
shard workers, which stage acks into the dispatcher-committed redo ring
instead, are deliberately out of scope: their ordering is the commit
protocol's job).  The ack *frames* are built in the connection plane;
a server's ``self.plane.flush_acks()`` is an ack-named helper that
transitively releases, so the call site on the durable path is what the
rule sees.

* **BRK701** — an ack-release call site not preceded (in statement
  order) by a call carrying ``FSYNCS``.  Release sites are: ack-frame
  constructions (``protocol.Ack``/``AckBundle``/``ack_record``), calls
  to the :class:`~repro.core.ackgate.AckGate` release primitives
  (``commit``/``take_dirty``), and calls to ack-dedicated helpers
  (transitively releasing functions whose name mentions ``ack``).  A
  callee that *internally* carries both ``FSYNCS`` and ``CHECKPOINTS``
  (``_flush_durable_acks``) orders itself and is exempt, as is a site
  inside an explicit ``durable_sink is None`` branch (the non-durable
  path).  Known limit, by design: a transitive release buried in a
  helper whose name never mentions acks is invisible here — the
  non-durable pump path releases acks through the same machinery, and
  only runtime mode checks separate the two.
* **BRK702** — a resume reply (``HelloReply``/``hello_reply_record``)
  built in a function that also reads ``.acked(...)``: resume must
  quote the *committed* watermark; quoting the acked one re-promises
  records a crash may still lose.
* **BRK703** — bytes drained from a shard *output* ring flowing
  straight into delivery (``_deliver``/``push``/``deliver_many``)
  without passing through commit staging: the output ring is a redo
  log, and reading past the commit watermark un-does exactly-once.
* **BRK704** — a ``try`` whose body syncs but whose handler falls
  through (no ``return``/``raise``/``continue``/``break``) while a
  release site follows: the failure path must divert before acks flow.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.astutil import ImportMap, dotted_name
from repro.lint.callgraph import FunctionInfo
from repro.lint.effects import (
    PROPAGATING_KINDS,
    Effect,
    ProjectAnalysis,
    project_analysis,
)
from repro.lint.engine import Checker, Finding, SourceFile, SourceTree

__all__ = ["DurabilityChecker"]

#: Files whose functions are under durability ordering.
SCOPE_SUFFIXES = (
    "src/repro/runtime/ism_proc.py",
    "src/repro/runtime/plane.py",
    "src/repro/runtime/shard.py",
    "src/repro/runtime/relay_proc.py",
)

_DELIVERY_SINKS = {"_deliver", "push", "push_many", "deliver_many"}
_FSYNC_BOTH = Effect.FSYNCS | Effect.CHECKPOINTS


def _own_nodes(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _references_durable_sink(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == "durable_sink":
            return True
        if isinstance(node, ast.Name) and node.id == "durable_sink":
            return True
    return False


def _non_durable_ranges(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[int, int]]:
    """Line ranges provably on the non-durable path.

    ``if <...durable_sink...> is None:`` exempts the body;
    ``... is not None:`` exempts the orelse.
    """
    ranges: list[tuple[int, int]] = []

    def sink_none_test(test: ast.expr) -> str | None:
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            left = dotted_name(node.left) or ""
            comparator = node.comparators[0]
            is_none = (
                isinstance(comparator, ast.Constant)
                and comparator.value is None
            )
            if not is_none or not left.endswith("durable_sink"):
                continue
            if isinstance(node.ops[0], ast.Is):
                return "body"
            if isinstance(node.ops[0], ast.IsNot):
                return "orelse"
        return None

    for node in _own_nodes(func):
        if not isinstance(node, ast.If):
            continue
        which = sink_none_test(node.test)
        if which is None:
            continue
        stmts = node.body if which == "body" else node.orelse
        if stmts:
            ranges.append(
                (stmts[0].lineno, stmts[-1].end_lineno or stmts[-1].lineno)
            )
    return ranges


def _in_ranges(lineno: int, ranges: list[tuple[int, int]]) -> bool:
    return any(start <= lineno <= end for start, end in ranges)


class DurabilityChecker(Checker):
    name = "durability"
    rules = {
        "BRK701": "ack release on the durable path not dominated by fsync+checkpoint",
        "BRK702": "resume reply quotes the acked watermark instead of the committed one",
        "BRK703": "output-ring drain flows to delivery without commit staging",
        "BRK704": "sync-failure handler falls through to a later ack release",
    }
    explain = {
        "BRK701": (
            "deliver -> fsync -> checkpoint -> ack is the durable "
            "pipeline's entire crash-safety argument: an EXS drops "
            "outbox entries on ack, so an ack whose records are not "
            "yet on stable storage converts a crash into silent loss. "
            "The checker requires every ack-release call site in a "
            "durable_sink-referencing function to be preceded by a "
            "call whose inferred effects include FSYNCS — sites under "
            "an explicit 'durable_sink is None' branch (the "
            "non-durable path) and callees that carry the full "
            "fsync+checkpoint+release sequence internally are exempt."
        ),
        "BRK702": (
            "On resume, the server tells the EXS where to restart via "
            "HelloReply.last_seq. AckGate keeps two watermarks: acked "
            "(released by the sorter) and committed (covered by the "
            "last sync/commit). Quoting acked re-promises records "
            "that a crash between ack-advance and commit would lose; "
            "resume must always quote committed. The shard worker's "
            "_on_hello comment documents the same rule."
        ),
        "BRK703": (
            "The shard output ring is a redo log: the dispatcher "
            "replays it after a worker crash, and everything between "
            "the last commit record and the head is provisional. "
            "Draining it straight into _deliver()/merger.push() "
            "makes provisional records visible downstream, breaking "
            "exactly-once under shard restart — drains must land in "
            "commit staging (_ingest_items) and only the committed "
            "prefix may be released."
        ),
        "BRK704": (
            "When durable_sink.sync() raises, nothing it was meant to "
            "cover may be acked afterwards: the handler must return, "
            "raise, or continue to the next cycle (where the dirty "
            "set retries). A handler that just counts the error and "
            "falls through lets the function reach its ack-release "
            "sites with the sync not actually performed."
        ),
    }

    def check(self, tree: SourceTree) -> Iterable[Finding]:
        analysis = project_analysis(tree)
        for source_file in tree.matching(*SCOPE_SUFFIXES):
            if source_file.tree is None:
                continue
            imports = ImportMap(source_file.tree)
            for info in analysis.graph.functions.values():
                if info.rel_path != source_file.rel_path:
                    continue
                yield from self._check_ordering(analysis, source_file, info)
                yield from self._check_resume(source_file, imports, info)
                yield from self._check_ring_drain(source_file, info)

    # -- BRK701 / BRK704 ----------------------------------------------

    def _check_ordering(
        self,
        analysis: ProjectAnalysis,
        source_file: SourceFile,
        info: FunctionInfo,
    ) -> Iterator[Finding]:
        if not _references_durable_sink(info.node):
            return
        exempt_ranges = _non_durable_ranges(info.node)
        fx = analysis.effects_of(info.qname)

        sync_lines: list[int] = [
            site.lineno for site in fx.sites if site.effect & Effect.FSYNCS
        ]
        release_sites: list[tuple[int, str]] = [
            (site.lineno, site.detail)
            for site in fx.sites
            if site.effect & Effect.RELEASES_ACKS
        ]
        for edge in analysis.graph.callees(info.qname):
            if edge.kind not in PROPAGATING_KINDS:
                continue
            reach = analysis.outward(edge.callee)
            callee_name = edge.callee.rsplit(".", 1)[-1]
            if reach & Effect.FSYNCS:
                sync_lines.append(edge.lineno)
            if not reach & Effect.RELEASES_ACKS:
                continue
            if reach & _FSYNC_BOTH == _FSYNC_BOTH:
                continue  # internally ordered (e.g. _flush_durable_acks)
            callee_fx = analysis.effects_of(edge.callee)
            is_primitive = bool(callee_fx.local & Effect.RELEASES_ACKS)
            is_ack_helper = "ack" in callee_name.lower()
            if is_primitive or is_ack_helper:
                release_sites.append((edge.lineno, f"{callee_name}()"))

        name = info.qname.rsplit(".", 1)[-1]
        for lineno, detail in sorted(set(release_sites)):
            if _in_ranges(lineno, exempt_ranges):
                continue
            if any(sync < lineno for sync in sync_lines):
                continue
            yield Finding(
                rule="BRK701",
                path=source_file.rel_path,
                line=lineno,
                message=(
                    f"ack release ({detail}) in durable-path '{name}' is "
                    "not preceded by an fsync+checkpoint call"
                ),
                hint=(
                    "sync the covering watermarks first "
                    "(durable_sink.sync(...) / _flush_durable_acks "
                    "pattern); acks must never outrun the log"
                ),
            )

        # BRK704: sync in a try body, handler falls through, release after.
        later_release = [
            lineno
            for lineno, _ in release_sites
            if not _in_ranges(lineno, exempt_ranges)
        ]
        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Try):
                continue
            body_end = node.body[-1].end_lineno or node.body[-1].lineno
            body_range = (node.body[0].lineno, body_end)
            if not any(
                body_range[0] <= sync <= body_range[1] for sync in sync_lines
            ):
                continue
            for handler in node.handlers:
                if not handler.body:
                    continue
                last = handler.body[-1]
                if isinstance(
                    last, (ast.Return, ast.Raise, ast.Continue, ast.Break)
                ):
                    continue
                trailing = [ln for ln in later_release if ln > body_end]
                if not trailing:
                    continue
                yield Finding(
                    rule="BRK704",
                    path=source_file.rel_path,
                    line=handler.lineno,
                    message=(
                        f"sync-failure handler in '{name}' falls through; an "
                        f"ack release follows at line {trailing[0]}"
                    ),
                    hint=(
                        "return/continue out of the cycle on sync failure — "
                        "the gate's dirty set makes the retry free"
                    ),
                )

    # -- BRK702 --------------------------------------------------------

    def _check_resume(
        self,
        source_file: SourceFile,
        imports: ImportMap,
        info: FunctionInfo,
    ) -> Iterator[Finding]:
        builds_reply = False
        acked_reads: list[int] = []
        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            qual = imports.resolve(node.func) or ""
            leaf = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
            if (
                qual.endswith("protocol.HelloReply")
                or leaf == "hello_reply_record"
            ):
                builds_reply = True
            elif leaf == "acked":
                acked_reads.append(node.lineno)
        if builds_reply and acked_reads:
            name = info.qname.rsplit(".", 1)[-1]
            yield Finding(
                rule="BRK702",
                path=source_file.rel_path,
                line=acked_reads[0],
                message=(
                    f"resume reply in '{name}' reads .acked(...): resume "
                    "must quote the committed watermark"
                ),
                hint=(
                    "use .committed(...) — acked-but-uncommitted batches "
                    "must stay in the EXS outbox across a crash"
                ),
            )

    # -- BRK703 --------------------------------------------------------

    def _check_ring_drain(
        self, source_file: SourceFile, info: FunctionInfo
    ) -> Iterator[Finding]:
        drained_names: set[str] = set()
        findings: list[Finding] = []
        name = info.qname.rsplit(".", 1)[-1]

        def is_output_drain(call: ast.Call) -> bool:
            chain = dotted_name(call.func) or ""
            if not chain.endswith(".drain_bytes"):
                return False
            tokens = set(chain.replace("_", ".").split("."))
            return bool(tokens & {"out", "output"})

        def flag(lineno: int, sink: str) -> None:
            findings.append(
                Finding(
                    rule="BRK703",
                    path=source_file.rel_path,
                    line=lineno,
                    message=(
                        f"'{name}' feeds output-ring drain_bytes() into "
                        f"{sink}() without commit staging"
                    ),
                    hint=(
                        "stage drained items (_ingest_items) and deliver "
                        "only the commit-released prefix — the output ring "
                        "is a redo log, not a stream"
                    ),
                )
            )

        # statement order matters: walk in source order
        nodes = sorted(
            (n for n in _own_nodes(info.node) if hasattr(n, "lineno")),
            key=lambda n: (n.lineno, getattr(n, "col_offset", 0)),
        )
        for node in nodes:
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if is_output_drain(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            drained_names.add(target.id)
            elif isinstance(node, ast.Call):
                leaf = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
                if leaf not in _DELIVERY_SINKS:
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in drained_names:
                        flag(node.lineno, leaf)
                    elif isinstance(arg, ast.Call) and is_output_drain(arg):
                        flag(node.lineno, leaf)
        yield from findings
