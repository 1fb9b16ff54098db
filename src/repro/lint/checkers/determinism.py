"""BRK2xx — determinism: no ambient time or randomness in the sim zone.

The golden PICL trace (``tests/test_golden_pipeline.py``) is byte-stable
only because the simulation-reachable pipeline never reads a wall clock
or an unseeded RNG: virtual time is always *passed in* and every random
draw flows from one seeded ``random.Random``.  This checker makes that
reachability argument a machine-checked zone invariant:

* **zone** — modules under ``repro/sim/``, ``repro/core/`` and
  ``repro/obs/`` (the sim engine, the virtual-time-driven pipeline
  stages, and the self-observability layer the sim dogfoods);
* **banned** — wall-clock reads (``time.time``, ``time.monotonic`` and
  their ``_ns`` forms, ``datetime.now``/``utcnow``/``today``), ambient
  entropy (``os.urandom``, ``uuid.uuid1``/``uuid4``, ``secrets.*``),
  module-level ``random.*`` functions, and unseeded ``random.Random()``;
* **sanctioned** — ``time.perf_counter``/``perf_counter_ns`` (duration
  measurement for self-timing histograms; never a timestamp source),
  seeded ``random.Random(seed)`` construction, references to the
  :mod:`repro.util.timebase` clock interface, and annotation-only uses
  (``rng: random.Random`` types a parameter, it does not read entropy).

Real-runtime modules (``runtime/``, ``wire/``, ``tools/``) are outside
the zone: they are *supposed* to read real clocks.  Individual runtime
files that commit to the sanctioned :mod:`repro.util.timebase` interface
anyway can opt in via :data:`ZONE_FILES`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.astutil import ImportMap
from repro.lint.engine import Checker, Finding, SourceFile, SourceTree

__all__ = ["DeterminismChecker"]

#: Path prefixes (repo-relative) forming the deterministic zone.
ZONE_PREFIXES = (
    "src/repro/sim/",
    "src/repro/core/",
    "src/repro/obs/",
    "src/repro/log/",
    "src/repro/monitor/",
)
#: Runtime files opted into the zone individually: they time themselves
#: exclusively through the sanctioned ``repro.util.timebase`` interface,
#: and this checker keeps a raw ``time.*``/entropy read from creeping in.
ZONE_FILES = (
    "src/repro/runtime/plane.py",
    "src/repro/runtime/relay_proc.py",
    "src/repro/runtime/uplink.py",
)
#: Zone files exempted wholesale, with the reason on record here.
ZONE_EXEMPT = {
    # Reads /proc and host CPU clocks by design; never simulated (the
    # sim's workload models replace it) and documented as real-runtime.
    "src/repro/core/system_sensor.py",
}

#: Qualified names whose *call or reference* breaks determinism.
BANNED = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.monotonic_ns": "wall clock",
    "time.localtime": "wall clock",
    "time.gmtime": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "ambient entropy",
    "uuid.uuid1": "ambient entropy",
    "uuid.uuid4": "ambient entropy",
    "secrets.token_bytes": "ambient entropy",
    "secrets.token_hex": "ambient entropy",
    "secrets.randbits": "ambient entropy",
}
#: Module-level random functions (random.random, random.randint, ...)
#: are banned as a family; random.Random with a seed argument is fine.
_RANDOM_MODULE_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "expovariate",
    "normalvariate",
    "getrandbits",
    "randbytes",
    "seed",
}


def _annotation_ranges(tree: ast.AST) -> set[int]:
    """ids of AST nodes that live inside type annotations."""
    out: set[int] = set()

    def mark(node: ast.AST | None) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            out.add(id(sub))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mark(node.returns)
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                args.vararg,
                args.kwarg,
            ):
                if arg is not None:
                    mark(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            mark(node.annotation)
    return out


class DeterminismChecker(Checker):
    name = "determinism"
    rules = {
        "BRK201": "wall-clock or entropy read in the deterministic zone",
        "BRK202": "module-level random.* call in the deterministic zone",
        "BRK203": "unseeded random.Random() in the deterministic zone",
        "BRK204": (
            "zone function transitively reaches an ambient clock/entropy "
            "read through a helper outside the zone"
        ),
    }
    explain = {
        "BRK204": (
            "BRK201 only sees reads written inside zone files; a zone "
            "function that calls a runtime/util helper which reads "
            "time.time() leaks exactly the same nondeterminism one hop "
            "removed, and nothing flagged it before the call graph "
            "existed. This rule walks the interprocedural effect "
            "lattice (repro.lint.effects) from every zone function and "
            "reports the shortest chain to an out-of-zone ambient "
            "read. repro.util.timebase is a barrier — routing time "
            "through the sanctioned clock interface is the approved "
            "escape hatch and never flags."
        ),
    }

    def check(self, tree: SourceTree) -> Iterable[Finding]:
        for source_file in tree.under(*ZONE_PREFIXES, *ZONE_FILES):
            if source_file.tree is None:
                continue
            if source_file.rel_path in ZONE_EXEMPT:
                continue
            yield from self._check_file(source_file)
        yield from self._check_transitive(tree)

    def _check_transitive(self, tree: SourceTree) -> Iterator[Finding]:
        """BRK204: zone code reaching ambient reads *through* helpers.

        Only chains that terminate outside the zone are reported —
        in-zone reads are already flagged at their own line by
        BRK201/202/203, and ``ZONE_FILES`` opt-ins police their own
        file only (relay legitimately calls real-clock tcp helpers).
        Edges into :data:`ZONE_EXEMPT` files inherit the exemption.
        """
        from repro.lint.effects import Effect, project_analysis

        analysis = project_analysis(tree)
        ambient = Effect.READS_CLOCK | Effect.READS_ENTROPY
        for info in analysis.graph.functions.values():
            if not info.rel_path.startswith(ZONE_PREFIXES):
                continue
            if info.rel_path in ZONE_EXEMPT:
                continue
            if analysis.effects_of(info.qname).local & ambient:
                continue  # BRK201/202/203 territory
            for effect in (Effect.READS_CLOCK, Effect.READS_ENTROPY):
                chain = analysis.chain_to(info.qname, effect)
                if not chain:  # None (unreachable) or [] (local, handled)
                    continue
                terminal = chain[-1][1]
                terminal_info = analysis.graph.functions.get(terminal)
                if terminal_info is None:
                    continue
                if terminal_info.rel_path.startswith(ZONE_PREFIXES):
                    continue  # the read itself is flagged in-zone
                if terminal_info.rel_path in ZONE_EXEMPT:
                    continue
                site = analysis.effects_of(terminal).site_for(effect)
                via = " -> ".join(e.callee.rsplit(".", 1)[-1] for e, _ in chain)
                detail = site.detail if site else effect.describe()
                where = (
                    f"{terminal_info.rel_path}:{site.lineno}"
                    if site
                    else terminal_info.rel_path
                )
                yield Finding(
                    rule="BRK204",
                    path=info.rel_path,
                    line=chain[0][0].lineno,
                    message=(
                        f"zone function '{info.name}' reaches an ambient "
                        f"{'clock' if effect is Effect.READS_CLOCK else 'entropy'} "
                        f"read via {via} ({detail} at {where})"
                    ),
                    hint=(
                        "inject the value (parameter or timebase clock) "
                        "instead of calling through to the ambient read"
                    ),
                )

    def _check_file(self, source_file: SourceFile) -> Iterator[Finding]:
        assert source_file.tree is not None  # guarded by check()
        imports = ImportMap(source_file.tree)
        in_annotation = _annotation_ranges(source_file.tree)
        for node in ast.walk(source_file.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if id(node) in in_annotation:
                continue
            # Only the outermost attribute chain matters; `time.monotonic`
            # resolves at the Attribute node, and its inner Name child
            # resolves to just `time`, which is not banned.
            qual = imports.resolve(node)
            if qual is None:
                continue
            if qual in BANNED:
                yield Finding(
                    rule="BRK201",
                    path=source_file.rel_path,
                    line=node.lineno,
                    message=(
                        f"{qual} is a {BANNED[qual]} read inside the "
                        "deterministic zone"
                    ),
                    hint=(
                        "take 'now' as a parameter, inject a clock callable "
                        "(repro.util.timebase / Simulator.time_fn), or move "
                        "the read out of sim-reachable code"
                    ),
                )
            elif (
                qual.startswith("random.")
                and qual.rsplit(".", 1)[-1] in _RANDOM_MODULE_FUNCS
                and qual.count(".") == 1
            ):
                yield Finding(
                    rule="BRK202",
                    path=source_file.rel_path,
                    line=node.lineno,
                    message=(
                        f"{qual} draws from the shared ambient RNG; the sim "
                        "must be a pure function of its seed"
                    ),
                    hint="accept a seeded random.Random and draw from it",
                )
        # Unseeded random.Random(): seeds itself from OS entropy.
        for node in ast.walk(source_file.tree):
            if (
                isinstance(node, ast.Call)
                and imports.resolve(node.func) == "random.Random"
                and not node.args
                and not node.keywords
            ):
                yield Finding(
                    rule="BRK203",
                    path=source_file.rel_path,
                    line=node.lineno,
                    message="random.Random() with no seed reads OS entropy",
                    hint="pass an explicit seed (or a caller-provided rng)",
                )
