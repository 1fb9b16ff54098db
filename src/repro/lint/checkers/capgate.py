"""BRK8xx — capability gating: negotiated-cap checks dominate extensions.

The wire protocol grows by negotiated capability bits
(``wire/protocol.py``: ``CAP_COMPRESS``, ``CAP_ACK_BUNDLE``,
``CAP_SEQ_RANGE``, ``CAP_STEERING``): a peer that did not advertise the
bit receives the legacy encoding, byte-identical to the seed format.
Every send site of an extension must therefore be *control-dependent* on
the matching cap check — PRs 7 and 9 each shipped one of these guards,
and PR 10's first full lint run found one missing (the relay coalescing
``first_seq`` toward non-``CAP_SEQ_RANGE`` upstreams).

A call is considered guarded for cap ``C`` when the enclosing function
tests ``C`` in a way that can steer the call:

* an ancestor ``if``/``while``/ternary whose test mentions ``C``
  (directly or through a **cap-tainted** variable — one assigned from an
  expression mentioning ``C``, e.g. ``coalesce_ok = bool(caps &
  protocol.CAP_SEQ_RANGE)``), or
* an *earlier* ``if`` whose test mentions ``C`` and whose body ends in
  ``return``/``raise``/``continue`` (the early-bail guard shape of
  ``_maybe_compress``), or
* for BRK804, a ``first_seq=`` value that is itself a ternary whose test
  mentions the cap.

Branch polarity is deliberately not modelled: once a function tests the
cap at all, inverting the test is a logic bug this AST-level checker
cannot judge; what it catches is the real failure mode — the send site
written with *no* awareness that the capability is optional.

Scope: ``src/repro/runtime/`` (the tiers that talk to negotiated peers);
``wire/protocol.py`` itself and the sim models are exempt — codecs and
models construct these frames without owning a negotiation.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.astutil import ImportMap, dotted_name, walk_functions
from repro.lint.engine import Checker, Finding, SourceFile, SourceTree

__all__ = ["CapGateChecker"]

SCOPE_PREFIXES = ("src/repro/runtime/",)

_CAP_PREFIX = "repro.wire.protocol.CAP_"

#: rule → (cap constant leaf, what the rule polices)
_RULES = {
    "BRK801": ("CAP_COMPRESS", "compress_frame"),
    "BRK802": ("CAP_ACK_BUNDLE", "AckBundle"),
    "BRK803": ("CAP_STEERING", "SetFilter send"),
    "BRK804": ("CAP_SEQ_RANGE", "first_seq batch encoding"),
}

_BAIL = (ast.Return, ast.Raise, ast.Continue, ast.Break)

#: The batch writers whose ``first_seq=`` sets ``FLAG_SEQ_RANGE``: the
#: record encoder and the relay's byte splice.
_SEQ_RANGE_WRITERS = ("protocol.encode_batch_records", "protocol.splice_batch")


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


class _FunctionGuards:
    """Which CAP_* constants each test expression in a function mentions."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: ImportMap,
    ) -> None:
        self._imports = imports
        self._tainted: dict[str, set[str]] = {}  # var name → caps
        # Two passes: taint assignments first (a guard may test a var
        # assigned above it), then collect test expressions.
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                caps = self._caps_in(node.value)
                if caps:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._tainted.setdefault(target.id, set()).update(
                                caps
                            )
        #: (test-mentioned caps, node) for ancestor lookup
        self.guard_tests: list[tuple[set[str], ast.AST, bool]] = []
        for node in _own_nodes(func):
            test: ast.expr | None = None
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                test = node.test
            if test is None:
                continue
            caps = self._caps_in(test)
            if not caps:
                continue
            bails = isinstance(node, ast.If) and bool(node.body) and isinstance(
                node.body[-1], _BAIL
            )
            self.guard_tests.append((caps, node, bails))

    def _caps_in(self, expr: ast.expr) -> set[str]:
        caps: set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute)):
                qual = self._imports.resolve(node) or ""
                if qual.startswith(_CAP_PREFIX):
                    caps.add(qual[len("repro.wire.protocol."):])
                elif isinstance(node, ast.Name) and node.id in self._tainted:
                    caps.update(self._tainted[node.id])
        return caps

    def guards(
        self, call: ast.Call, cap: str, allow_bail: bool = True
    ) -> bool:
        """Is *call* control-dependent on a test mentioning *cap*?

        ``allow_bail=False`` restricts to enclosing tests: BRK804 uses
        it because an earlier cap-mentioning fast-path ``return`` can
        fall through in *both* polarities (the original relay bug did
        exactly that — computed ``coalesce_ok``, bailed on an unrelated
        fast path, then encoded ``first_seq`` unconditionally).
        """
        for caps, node, bails in self.guard_tests:
            if cap not in caps:
                continue
            start = node.lineno
            end = getattr(node, "end_lineno", None) or start
            if start <= call.lineno <= end:
                return True  # ancestor if/while/ternary
            if allow_bail and bails and end < call.lineno:
                return True  # earlier early-bail guard
        return False

    def value_tests(self, value: ast.expr, cap: str) -> bool:
        """Is *value* a ternary whose test mentions *cap*?"""
        return isinstance(value, ast.IfExp) and cap in self._caps_in(
            value.test
        )


class CapGateChecker(Checker):
    name = "cap-gate"
    rules = {
        "BRK801": "compress_frame() not gated by a CAP_COMPRESS check",
        "BRK802": "AckBundle construction not gated by a CAP_ACK_BUNDLE check",
        "BRK803": "SetFilter send in a function that never tests CAP_STEERING",
        "BRK804": "first_seq (FLAG_SEQ_RANGE) encode not gated by CAP_SEQ_RANGE",
    }
    explain = {
        "BRK801": (
            "compress_frame wraps a payload in the 0xB0C3 compressed "
            "envelope; a peer without CAP_COMPRESS decodes it as "
            "garbage (or drops the frame). Every call must sit under "
            "a CAP_COMPRESS test for the destination peer, like "
            "_maybe_compress's early-return guard."
        ),
        "BRK802": (
            "AckBundle is a post-seed control frame; legacy peers "
            "only understand per-source Ack frames. Constructing one "
            "outside an all-peers-advertise-CAP_ACK_BUNDLE check "
            "drops acks on mixed fleets — the PR 7 relay guard shape "
            "(all(caps & CAP_ACK_BUNDLE ...)) is the reference."
        ),
        "BRK803": (
            "Full SetFilter specs (field tests, sampling, epochs) "
            "ride CAP_STEERING; a legacy EXS understands only the "
            "event-type mask. Senders must consult CAP_STEERING and "
            "downgrade (SetFilter.downgraded()) when absent, or the "
            "peer silently ignores the steering it was sent."
        ),
        "BRK804": (
            "first_seq sets FLAG_SEQ_RANGE, the coalesced-batch wire "
            "extension, which protocol.py documents as CAP_SEQ_RANGE-"
            "only: a legacy ISM treats the extension word as record "
            "bytes and mis-frames the batch. The first full run of "
            "this rule caught the relay's _emit_run coalescing "
            "unconditionally — the fix ships in the same PR as the "
            "rule."
        ),
    }

    def check(self, tree: SourceTree) -> Iterable[Finding]:
        for source_file in tree.under(*SCOPE_PREFIXES):
            if source_file.tree is None:
                continue
            imports = ImportMap(source_file.tree)
            for func in walk_functions(source_file.tree):
                yield from self._check_function(source_file, imports, func)

    def _check_function(
        self,
        source_file: SourceFile,
        imports: ImportMap,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        guards = _FunctionGuards(func, imports)
        setfilter_names = _setfilter_locals(func, imports)
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            qual = imports.resolve(node.func) or ""
            leaf = (dotted_name(node.func) or "").rsplit(".", 1)[-1]

            if qual.endswith("protocol.compress_frame"):
                if not guards.guards(node, "CAP_COMPRESS"):
                    yield self._finding(
                        "BRK801", source_file, node, func.name,
                        "compress_frame() call",
                        "test the peer's CAP_COMPRESS first (see "
                        "_maybe_compress for the guard shape)",
                    )
            elif qual.endswith("protocol.AckBundle"):
                if not guards.guards(node, "CAP_ACK_BUNDLE"):
                    yield self._finding(
                        "BRK802", source_file, node, func.name,
                        "AckBundle construction",
                        "bundle only when every destination source "
                        "advertised CAP_ACK_BUNDLE; send per-source Acks "
                        "otherwise",
                    )
            elif leaf in ("send", "send_many") and node.args:
                if _sends_setfilter(node, imports, setfilter_names):
                    if not guards.guard_tests or not any(
                        "CAP_STEERING" in caps
                        for caps, _, _ in guards.guard_tests
                    ):
                        yield self._finding(
                            "BRK803", source_file, node, func.name,
                            "SetFilter send",
                            "consult the peer's CAP_STEERING and send "
                            "msg.downgraded() to legacy peers",
                        )
            elif qual.endswith(_SEQ_RANGE_WRITERS):
                first_seq = next(
                    (
                        kw.value
                        for kw in node.keywords
                        if kw.arg == "first_seq"
                    ),
                    None,
                )
                if first_seq is None or (
                    isinstance(first_seq, ast.Constant)
                    and first_seq.value is None
                ):
                    continue
                if guards.guards(node, "CAP_SEQ_RANGE", allow_bail=False):
                    continue
                if guards.value_tests(first_seq, "CAP_SEQ_RANGE"):
                    continue
                yield self._finding(
                    "BRK804", source_file, node, func.name,
                    "first_seq= batch encode",
                    "emit first_seq only when the upstream advertised "
                    "CAP_SEQ_RANGE (ternary on the negotiated caps)",
                )

    @staticmethod
    def _finding(
        rule: str,
        source_file: SourceFile,
        node: ast.Call,
        func_name: str,
        what: str,
        hint: str,
    ) -> Finding:
        cap, _ = _RULES[rule]
        return Finding(
            rule=rule,
            path=source_file.rel_path,
            line=node.lineno,
            message=(
                f"{what} in '{func_name}' is not control-dependent on a "
                f"{cap} check"
            ),
            hint=hint,
        )


def _setfilter_locals(
    func: ast.FunctionDef | ast.AsyncFunctionDef, imports: ImportMap
) -> set[str]:
    """Names in *func* that (statically) hold a SetFilter.

    Sources: parameters annotated ``protocol.SetFilter``, assignments
    from ``protocol.SetFilter...`` constructors/classmethods, and
    assignments from ``<setfilter>.downgraded()`` / ``.desired_filter``.
    """
    names: set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = arg.annotation
        if ann is None:
            continue
        text = dotted_name(ann) or ""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            text = ann.value
        if "SetFilter" in text:
            names.add(arg.arg)
    for node in _own_nodes(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_filter = False
        if isinstance(value, ast.Call):
            qual = imports.resolve(value.func) or ""
            chain = dotted_name(value.func) or ""
            if "SetFilter" in qual or chain.endswith(".downgraded"):
                is_filter = True
            head = chain.split(".", 1)[0]
            if head in names:
                is_filter = is_filter or chain.endswith(".downgraded")
        elif isinstance(value, ast.Attribute):
            if value.attr == "desired_filter":
                is_filter = True
        if is_filter:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _sends_setfilter(
    call: ast.Call, imports: ImportMap, setfilter_names: set[str]
) -> bool:
    arg = call.args[0]
    if isinstance(arg, ast.Name):
        return arg.id in setfilter_names
    if isinstance(arg, ast.Call):
        qual = imports.resolve(arg.func) or ""
        chain = dotted_name(arg.func) or ""
        return "SetFilter" in qual or chain.endswith(".downgraded")
    if isinstance(arg, ast.Attribute):
        return arg.attr == "desired_filter"
    return False
