"""Effect inference over the call graph: what can a function *reach*?

Each function gets a small lattice of effects (an :class:`Effect` bit
set).  Effects originate at **seeds** — a registry of known stdlib and
project primitives (``time.sleep`` blocks, ``os.fsync`` syncs,
``AckGate.commit`` releases acks, ...) — detected syntactically in each
function body, then propagated caller-ward over the
:class:`~repro.lint.callgraph.CallGraph` to a transitive-closure
fixpoint.  The BRK6xx/7xx checkers and transitive BRK204 all consume
the same shared :class:`ProjectAnalysis`, built once per tree.

Two refinements keep the lattice honest:

* **barriers** — functions under ``repro.util.timebase`` are the
  project's sanctioned clock interface: they *have* ``READS_CLOCK``
  locally (``--graph`` shows it) but do not propagate it to callers,
  exactly like the determinism checker's sanctioned-reference rule.
* **method fallback seeds** — a call through a duck-typed receiver
  (``self.durable_sink.sync(...)`` — ``durable_sink`` is deliberately
  unannotated) resolves to no tree function, so a short list of
  unambiguous method names carries effects by name.  ``sync`` is safe:
  every ``.sync()`` in this tree is a durability flush.

Local detection mirrors the BRK3xx syntactic rules so the transitive
checkers agree with the direct ones: a ``.recv()`` with ``timeout=`` or
with a ``select`` call in the same function is *not* blocking; a
``.get()`` with ``timeout=``/``block=False`` is bounded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import IntFlag
from typing import Iterator, Mapping

from repro.lint.astutil import ImportMap, dotted_name
from repro.lint.callgraph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    build_callgraph,
    module_qname,
)
from repro.lint.engine import SourceTree

__all__ = [
    "Effect",
    "EffectSite",
    "FunctionEffects",
    "ProjectAnalysis",
    "project_analysis",
    "BLOCKING_EFFECTS",
    "PROPAGATING_KINDS",
]


class Effect(IntFlag):
    """One bit per observable effect a function may perform or reach."""

    NONE = 0
    BLOCKS_SLEEP = 1 << 0     #: unconditional time.sleep
    BLOCKS_RECV = 1 << 1      #: socket/pipe read with no select guard or timeout
    BLOCKS_QUEUE = 1 << 2     #: unbounded Queue.get()
    READS_CLOCK = 1 << 3      #: ambient wall-clock read
    READS_ENTROPY = 1 << 4    #: ambient randomness
    FSYNCS = 1 << 5           #: forces data to stable storage
    CHECKPOINTS = 1 << 6      #: writes the ack-frontier checkpoint
    RELEASES_ACKS = 1 << 7    #: emits/commits an ack a peer may act on
    RUNS_SELECT = 1 << 8      #: calls select (marks pump-driver functions)

    def describe(self) -> str:
        if self is Effect.NONE:
            return "(none)"
        return "|".join(
            flag.name or "" for flag in Effect if flag and flag in self
        )


#: The effects BRK6xx treats as "blocking", with the rule that owns each.
BLOCKING_EFFECTS: Mapping[Effect, str] = {
    Effect.BLOCKS_SLEEP: "BRK601",
    Effect.BLOCKS_RECV: "BRK602",
    Effect.BLOCKS_QUEUE: "BRK603",
}

# ----------------------------------------------------------------------
# seed registry
# ----------------------------------------------------------------------

#: Fully qualified external callables → effect.
EXTERNAL_SEEDS: Mapping[str, Effect] = {
    "time.sleep": Effect.BLOCKS_SLEEP,
    "os.fsync": Effect.FSYNCS,
    "os.fdatasync": Effect.FSYNCS,
    # ambient clock (mirrors determinism.BANNED)
    "time.time": Effect.READS_CLOCK,
    "time.time_ns": Effect.READS_CLOCK,
    "time.monotonic": Effect.READS_CLOCK,
    "time.monotonic_ns": Effect.READS_CLOCK,
    "time.localtime": Effect.READS_CLOCK,
    "time.gmtime": Effect.READS_CLOCK,
    "datetime.datetime.now": Effect.READS_CLOCK,
    "datetime.datetime.utcnow": Effect.READS_CLOCK,
    "datetime.datetime.today": Effect.READS_CLOCK,
    "datetime.date.today": Effect.READS_CLOCK,
    # ambient entropy
    "os.urandom": Effect.READS_ENTROPY,
    "uuid.uuid1": Effect.READS_ENTROPY,
    "uuid.uuid4": Effect.READS_ENTROPY,
    "secrets.token_bytes": Effect.READS_ENTROPY,
    "secrets.token_hex": Effect.READS_ENTROPY,
    "secrets.randbits": Effect.READS_ENTROPY,
}

_RANDOM_MODULE_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "normalvariate",
    "getrandbits", "randbytes", "seed",
}

_SELECT_CALLS = {"select.select", "select.poll", "selectors.select"}

#: Project functions/constructors seeded by qname **suffix** (so fixture
#: trees that mirror the repo layout inherit the same seeds).
PROJECT_SEEDS: Mapping[str, Effect] = {
    "repro.core.ackgate.AckGate.commit": Effect.RELEASES_ACKS,
    "repro.core.ackgate.AckGate.take_dirty": Effect.RELEASES_ACKS,
    "repro.log.commitlog.CommitLog._write_checkpoint": Effect.CHECKPOINTS,
    "repro.runtime.shard.ack_record": Effect.RELEASES_ACKS,
}

#: Constructing one of these wire messages *is* releasing an ack — the
#: object exists only to be sent.  Matched on the import-resolved qname.
ACK_CONSTRUCTORS = {
    "repro.wire.protocol.Ack",
    "repro.wire.protocol.AckBundle",
}

_SOCKET_BLOCKING = {"recv", "recv_into", "recvfrom", "accept", "recvmsg"}

#: Method-name fallback seeds for duck-typed receivers (see module doc).
METHOD_FALLBACK_SEEDS: Mapping[str, Effect] = {
    "sync": Effect.FSYNCS | Effect.CHECKPOINTS,
}

#: qname prefixes whose effects are masked toward callers: calling the
#: sanctioned interface scrubs the effect instead of propagating it.
BARRIERS: Mapping[str, Effect] = {
    "repro.util.timebase.": Effect.READS_CLOCK,
}

#: Edge kinds that mean "the callee runs *now*, on this thread".
#: ``callback`` and ``partial`` edges defer execution (a Thread target's
#: blocking loop does not block the function that spawned the thread),
#: so they appear in ``--graph`` output but do not propagate effects.
PROPAGATING_KINDS = frozenset({"call", "method", "instantiate", "unique"})


@dataclass(frozen=True)
class EffectSite:
    """Where a local (seed-level) effect enters a function."""

    effect: Effect
    lineno: int
    detail: str     #: e.g. ``time.sleep`` or ``.recv() without guard``


@dataclass
class FunctionEffects:
    """Local and transitive effects for one function."""

    local: Effect = Effect.NONE
    transitive: Effect = Effect.NONE   #: local | masked union of callees
    sites: list[EffectSite] = field(default_factory=list)

    def site_for(self, effect: Effect) -> EffectSite | None:
        for site in self.sites:
            if site.effect & effect:
                return site
        return None


class ProjectAnalysis:
    """Call graph + per-function effects, shared by every checker."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.effects: dict[str, FunctionEffects] = {}

    # -- queries -------------------------------------------------------

    def effects_of(self, qname: str) -> FunctionEffects:
        return self.effects.get(qname) or FunctionEffects()

    def outward(self, qname: str) -> Effect:
        """Effects *qname* propagates to its callers (barriers applied)."""
        out = self.effects_of(qname).transitive
        for prefix, mask in BARRIERS.items():
            if qname.startswith(prefix):
                out &= ~mask
        return out

    def call_site_effects(self, caller: str, edge: CallEdge) -> Effect:
        """What calling through *edge* can reach."""
        return self.outward(edge.callee)

    def chain_to(
        self, qname: str, effect: Effect
    ) -> list[tuple[CallEdge, str]] | None:
        """Shortest call chain from *qname* to a local carrier of *effect*.

        Returns ``[(edge, callee), ...]``; empty list when *qname* itself
        carries the effect locally; ``None`` when unreachable.  BFS with
        deterministic tie-breaking (edge order = source order).
        """
        if self.effects_of(qname).local & effect:
            return []
        seen = {qname}
        queue: list[tuple[str, list[tuple[CallEdge, str]]]] = [(qname, [])]
        while queue:
            current, path = queue.pop(0)
            for edge in self.graph.callees(current):
                callee = edge.callee
                if edge.kind not in PROPAGATING_KINDS or callee in seen:
                    continue
                if not self.outward(callee) & effect:
                    continue
                seen.add(callee)
                new_path = [*path, (edge, callee)]
                if self.effects_of(callee).local & effect:
                    return new_path
                queue.append((callee, new_path))
        return None

    def describe_chain(
        self, qname: str, effect: Effect
    ) -> tuple[str, EffectSite | None]:
        """Human-readable chain plus the terminal seed site, for messages."""
        chain = self.chain_to(qname, effect)
        if chain is None:
            return "", None
        if not chain:
            site = self.effects_of(qname).site_for(effect)
            return "(local)", site
        names = [edge.callee.rsplit(".", 1)[-1] for edge, _ in chain]
        terminal = chain[-1][1]
        site = self.effects_of(terminal).site_for(effect)
        return " -> ".join(names), site


# ----------------------------------------------------------------------
# local effect scan
# ----------------------------------------------------------------------

def _own_nodes(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body, excluding nested def bodies (lambdas stay)."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _local_effects(
    info: FunctionInfo, imports: ImportMap
) -> FunctionEffects:
    out = FunctionEffects()

    def add(effect: Effect, lineno: int, detail: str) -> None:
        out.local |= effect
        out.sites.append(EffectSite(effect, lineno, detail))

    # Pre-scan: does this function select anywhere?  (BRK302 parity —
    # a recv next to its own select is guarded, not blocking.)
    has_select = False
    for node in _own_nodes(info.node):
        if isinstance(node, ast.Call):
            qual = imports.resolve(node.func) or ""
            if qual in _SELECT_CALLS:
                has_select = True
                break

    for node in _own_nodes(info.node):
        if not isinstance(node, ast.Call):
            continue
        qual = imports.resolve(node.func) or ""
        attr = dotted_name(node.func) or ""
        leaf = attr.rsplit(".", 1)[-1]
        kwargs = {kw.arg for kw in node.keywords if kw.arg}

        if qual in _SELECT_CALLS:
            add(Effect.RUNS_SELECT, node.lineno, qual)
        elif qual in EXTERNAL_SEEDS:
            add(EXTERNAL_SEEDS[qual], node.lineno, qual)
        elif qual in ACK_CONSTRUCTORS:
            add(Effect.RELEASES_ACKS, node.lineno, f"{qual}(...)")
        elif (
            qual.startswith("random.")
            and qual.count(".") == 1
            and qual.rsplit(".", 1)[-1] in _RANDOM_MODULE_FUNCS
        ):
            add(Effect.READS_ENTROPY, node.lineno, qual)
        elif qual == "random.Random" and not node.args and not node.keywords:
            add(Effect.READS_ENTROPY, node.lineno, "random.Random() unseeded")

        if "." not in attr:
            continue
        # method-shaped calls below: receiver unknown, judge by name
        if (
            leaf in _SOCKET_BLOCKING
            and not has_select
            and "timeout" not in kwargs
        ):
            add(
                Effect.BLOCKS_RECV,
                node.lineno,
                f".{leaf}() without select guard or timeout=",
            )
        elif leaf == "get" and not node.args:
            bounded = "timeout" in kwargs or any(
                kw.arg == "block"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            )
            if not bounded:
                add(Effect.BLOCKS_QUEUE, node.lineno, ".get() unbounded")
        elif leaf in METHOD_FALLBACK_SEEDS:
            add(
                METHOD_FALLBACK_SEEDS[leaf],
                node.lineno,
                f".{leaf}() [method-name seed]",
            )
    return out


# ----------------------------------------------------------------------
# fixpoint
# ----------------------------------------------------------------------

def _compute_effects(analysis: ProjectAnalysis, tree: SourceTree) -> None:
    graph = analysis.graph
    imports_by_module: dict[str, ImportMap] = {}
    for source_file in tree:
        if source_file.tree is None:
            continue
        imports_by_module[module_qname(source_file.rel_path)] = ImportMap(
            source_file.tree
        )

    for qname, info in graph.functions.items():
        imports = imports_by_module.get(info.module)
        if imports is None:
            analysis.effects[qname] = FunctionEffects()
            continue
        fx = _local_effects(info, imports)
        seeded = PROJECT_SEEDS.get(qname)
        if seeded is not None:
            fx.local |= seeded
            fx.sites.append(EffectSite(seeded, info.lineno, "project seed"))
        fx.transitive = fx.local
        analysis.effects[qname] = fx

    # Worklist fixpoint: propagate callee effects (through barriers)
    # caller-ward until nothing changes.  Monotone over a finite lattice,
    # so it terminates; cycles (recursion) are handled for free.
    worklist = set(graph.functions)
    while worklist:
        qname = worklist.pop()
        fx = analysis.effects[qname]
        combined = fx.local
        for edge in graph.callees(qname):
            if edge.kind in PROPAGATING_KINDS:
                combined |= analysis.outward(edge.callee)
        if combined != fx.transitive:
            fx.transitive = combined
            for edge in graph.callers(qname):
                worklist.add(edge.caller)


def project_analysis(tree: SourceTree) -> ProjectAnalysis:
    """The shared per-tree analysis: one call-graph build, one fixpoint."""
    cached = tree.caches.get("project_analysis")
    if isinstance(cached, ProjectAnalysis):
        return cached
    analysis = ProjectAnalysis(build_callgraph(tree))
    _compute_effects(analysis, tree)
    tree.caches["project_analysis"] = analysis
    return analysis
