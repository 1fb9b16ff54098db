"""BRK3xx — select-loop pump discipline: pumps never block uncontrolled.

The runtime's pump loops (``runtime/*_proc.py``, ``wire/tcp.py``) are
``select``-driven: the *only* place a pump is allowed to wait is the
bounded ``select`` timeout itself (the paper's 40 ms worst case).  Any
other blocking call inside a pump function stalls every connection the
loop multiplexes.  Concretely, within the scoped files:

* **BRK301** — ``time.sleep`` in a function that also calls
  ``select.select``: sleeping competes with the select timeout and adds
  unconditional latency to every peer.
* **BRK302** — a blocking socket primitive (``.recv``/``.recv_into``/
  ``.accept``) in a function with **no** ``select.select`` call: the
  discipline is that every kernel read is select-guarded *in the same
  function*, so readiness and the read can never drift apart.
* **BRK303** — an unbounded ``Queue.get()`` (no ``timeout=``, not
  ``block=False``): a producer hiccup freezes the pump forever.  The
  zero-argument ``.get()`` spelling is unambiguous — ``dict.get`` always
  takes at least a key.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.astutil import ImportMap, dotted_name, walk_functions
from repro.lint.engine import Checker, Finding, SourceFile, SourceTree

__all__ = ["LoopDisciplineChecker"]

#: Repo-relative suffixes of the files under pump discipline.
SCOPE_SUFFIXES = (
    "src/repro/runtime/exs_proc.py",
    "src/repro/runtime/ism_proc.py",
    "src/repro/runtime/plane.py",
    "src/repro/runtime/relay_proc.py",
    "src/repro/runtime/shard.py",
    "src/repro/runtime/uplink.py",
    "src/repro/wire/tcp.py",
)

_SOCKET_BLOCKING = {"recv", "recv_into", "recvfrom", "accept", "recvmsg"}


def _select_lines(func: ast.AST, imports: ImportMap) -> list[int]:
    """Lines inside *func* that call ``select.select`` (or ``poll``)."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            qual = imports.resolve(node.func) or ""
            if qual in ("select.select", "select.poll", "selectors.select"):
                out.append(node.lineno)
    return out


def _own_statements(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk *func* without descending into nested function definitions."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


class LoopDisciplineChecker(Checker):
    name = "loop-discipline"
    rules = {
        "BRK301": "time.sleep inside a select-driven pump function",
        "BRK302": "blocking socket read/accept with no select guard in scope",
        "BRK303": "unbounded Queue.get() inside a pump-scoped file",
    }

    def check(self, tree: SourceTree) -> Iterable[Finding]:
        for source_file in tree:
            if source_file.tree is None:
                continue
            if not any(source_file.rel_path.endswith(s) for s in SCOPE_SUFFIXES):
                continue
            yield from self._check_file(source_file)

    def _check_file(self, source_file: SourceFile) -> Iterator[Finding]:
        assert source_file.tree is not None  # guarded by check()
        imports = ImportMap(source_file.tree)
        for func in walk_functions(source_file.tree):
            has_select = bool(_select_lines(func, imports))
            for node in _own_statements(func):
                if not isinstance(node, ast.Call):
                    continue
                qual = imports.resolve(node.func) or ""
                attr = dotted_name(node.func) or ""
                leaf = attr.rsplit(".", 1)[-1]
                if qual == "time.sleep" and has_select:
                    yield Finding(
                        rule="BRK301",
                        path=source_file.rel_path,
                        line=node.lineno,
                        message=(
                            f"time.sleep inside select-driven '{func.name}' "
                            "adds unconditional latency to every multiplexed peer"
                        ),
                        hint="fold the wait into the select timeout argument",
                    )
                elif (
                    leaf in _SOCKET_BLOCKING
                    and "." in attr
                    and not has_select
                    and not any(k.arg == "timeout" for k in node.keywords)
                ):
                    # An explicit timeout= means the wait is bounded by
                    # construction (the MessageConnection/Listener wrappers
                    # run their own select under that bound).
                    yield Finding(
                        rule="BRK302",
                        path=source_file.rel_path,
                        line=node.lineno,
                        message=(
                            f".{leaf}() in '{func.name}' has no select guard "
                            "in the same function; a spurious wakeup or slow "
                            "peer blocks the pump"
                        ),
                        hint=(
                            "select on the fd with a bounded timeout in this "
                            "function before reading, or accept an "
                            "assume_ready flag from a caller that did"
                        ),
                    )
                elif leaf == "get" and "." in attr and not node.args:
                    kw = {k.arg for k in node.keywords}
                    blocking = "timeout" not in kw and not any(
                        k.arg == "block"
                        and isinstance(k.value, ast.Constant)
                        and k.value.value is False
                        for k in node.keywords
                    )
                    if blocking:
                        yield Finding(
                            rule="BRK303",
                            path=source_file.rel_path,
                            line=node.lineno,
                            message=(
                                f"unbounded .get() in '{func.name}' waits "
                                "forever if the producer stalls"
                            ),
                            hint="pass timeout= (or block=False) and handle Empty",
                        )
