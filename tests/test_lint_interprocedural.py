"""brisk-lint v2: call graph, effect fixpoint, BRK6xx/7xx/8xx checkers,
transitive BRK204, symbol fingerprints, and the --graph/--explain CLI.

Unit trees are built in tmp_path with the real ``src/repro/...`` layout
so module qnames (and therefore project seeds) resolve exactly as in the
repo; fixture mini-roots under ``tests/lint_fixtures/`` cover one
true-positive and one true-negative tree per new rule family.
"""

import shutil
import time as _time
from pathlib import Path

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.callgraph import build_callgraph
from repro.lint.cli import main as lint_main
from repro.lint.effects import Effect, project_analysis
from repro.lint.engine import load_tree
from repro.lint.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def make_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return load_tree([tmp_path / "src"], root=tmp_path)


def edges_of(graph, caller_suffix):
    info = graph.lookup(caller_suffix)
    assert info is not None, f"no function matches {caller_suffix}"
    return {(e.callee, e.kind) for e in graph.callees(info.qname)}


def lint_fixture(name, select=()):
    sub = FIXTURES / name
    return run_lint([sub / "src"], root=sub, select=list(select))


# ----------------------------------------------------------------------
# call graph resolution
# ----------------------------------------------------------------------


class TestCallGraph:
    def test_import_alias_resolution(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/util.py": "def helper():\n    return 1\n",
            "src/repro/core/user.py": (
                "from repro.core.util import helper as h\n"
                "def caller():\n    return h()\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.util.helper", "call") in edges_of(graph, "caller")

    def test_method_resolution_via_attr_type(self, tmp_path):
        # Two classes define commit() so uniqueness cannot resolve it;
        # only the __init__ assignment type can.
        tree = make_tree(tmp_path, {
            "src/repro/core/gate.py": (
                "class Gate:\n    def commit(self):\n        return 1\n"
                "class Log:\n    def commit(self):\n        return 2\n"
            ),
            "src/repro/core/owner.py": (
                "from repro.core.gate import Gate\n"
                "class Owner:\n"
                "    def __init__(self):\n"
                "        self.gate = Gate()\n"
                "    def release(self):\n"
                "        return self.gate.commit()\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.gate.Gate.commit", "method") in edges_of(
            graph, "Owner.release"
        )

    def test_local_alias_of_self_attr(self, tmp_path):
        # gate = self._gate; gate.commit() — the PR's new inference.
        tree = make_tree(tmp_path, {
            "src/repro/core/gate.py": (
                "class Gate:\n    def commit(self):\n        return 1\n"
                "class Log:\n    def commit(self):\n        return 2\n"
            ),
            "src/repro/core/owner.py": (
                "from repro.core.gate import Gate\n"
                "class Owner:\n"
                "    def __init__(self):\n"
                "        self._gate = Gate()\n"
                "    def release(self):\n"
                "        gate = self._gate\n"
                "        return gate.commit()\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.gate.Gate.commit", "method") in edges_of(
            graph, "Owner.release"
        )

    def test_functools_partial_edge(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "import functools\n"
                "def work(x):\n    return x\n"
                "def wire():\n    return functools.partial(work, 1)\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.mod.work", "partial") in edges_of(graph, "wire")

    def test_callback_argument_edge(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "import threading\n"
                "class Owner:\n"
                "    def _loop(self):\n        return None\n"
                "    def start(self):\n"
                "        return threading.Thread(target=self._loop)\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.mod.Owner._loop", "callback") in edges_of(
            graph, "Owner.start"
        )

    def test_unique_bare_name_fallback(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/ring.py": (
                "class Ring:\n    def drain_all(self):\n        return []\n"
            ),
            "src/repro/core/user.py": (
                "def pump(ring):\n    return ring.drain_all()\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.ring.Ring.drain_all", "unique") in edges_of(
            graph, "pump"
        )

    def test_ambiguous_bare_name_stays_unresolved(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/two.py": (
                "class A:\n    def act(self):\n        return 1\n"
                "class B:\n    def act(self):\n        return 2\n"
            ),
            "src/repro/core/user.py": (
                "def call(obj):\n    return obj.act()\n"
            ),
        })
        graph = build_callgraph(tree)
        info = graph.lookup("call")
        assert graph.callees(info.qname) == []
        assert [d for d, _ in graph.unresolved[info.qname]] == ["obj.act"]

    def test_instantiation_edges_to_init(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "class Thing:\n"
                "    def __init__(self):\n        self.x = 1\n"
                "def build():\n    return Thing()\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.mod.Thing.__init__", "instantiate") in edges_of(
            graph, "build"
        )

    def test_base_class_method_walk(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "class Base:\n    def tick(self):\n        return 1\n"
                "class Derived(Base):\n    pass\n"
                "class Owner:\n"
                "    def __init__(self):\n        self.d = Derived()\n"
                "    def go(self):\n        return self.d.tick()\n"
            ),
        })
        graph = build_callgraph(tree)
        assert ("repro.core.mod.Base.tick", "method") in edges_of(
            graph, "Owner.go"
        )


# ----------------------------------------------------------------------
# effect fixpoint
# ----------------------------------------------------------------------


class TestEffects:
    def test_transitive_chain_and_shortest_path(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "import time\n"
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    time.sleep(1)\n"
            ),
        })
        analysis = project_analysis(tree)
        fx = analysis.effects_of("repro.core.mod.a")
        assert fx.local == Effect.NONE
        assert fx.transitive & Effect.BLOCKS_SLEEP
        chain = analysis.chain_to("repro.core.mod.a", Effect.BLOCKS_SLEEP)
        assert [callee for _, callee in chain] == [
            "repro.core.mod.b", "repro.core.mod.c"
        ]

    def test_recursion_cycle_terminates(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "import time\n"
                "def a(n):\n    return b(n)\n"
                "def b(n):\n"
                "    if n:\n        return a(n - 1)\n"
                "    time.sleep(1)\n"
            ),
        })
        analysis = project_analysis(tree)
        for name in ("a", "b"):
            fx = analysis.effects_of(f"repro.core.mod.{name}")
            assert fx.transitive & Effect.BLOCKS_SLEEP

    def test_timebase_barrier_masks_clock(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/util/timebase.py": (
                "import time\n"
                "def now():\n    return time.time()\n"
            ),
            "src/repro/sim/mod.py": (
                "from repro.util.timebase import now\n"
                "def step():\n    return now()\n"
            ),
        })
        analysis = project_analysis(tree)
        inner = analysis.effects_of("repro.util.timebase.now")
        assert inner.local & Effect.READS_CLOCK
        assert not analysis.outward("repro.util.timebase.now") & Effect.READS_CLOCK
        caller = analysis.effects_of("repro.sim.mod.step")
        assert not caller.transitive & Effect.READS_CLOCK

    def test_callback_edges_do_not_propagate(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "import threading\n"
                "class Owner:\n"
                "    def _loop(self):\n"
                "        while True:\n            self.q.get()\n"
                "    def start(self):\n"
                "        return threading.Thread(target=self._loop)\n"
            ),
        })
        analysis = project_analysis(tree)
        loop = analysis.effects_of("repro.core.mod.Owner._loop")
        assert loop.local & Effect.BLOCKS_QUEUE
        start = analysis.effects_of("repro.core.mod.Owner.start")
        assert not start.transitive & Effect.BLOCKS_QUEUE

    def test_guarded_reads_are_not_blocking(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": (
                "import select\n"
                "def guarded(conn):\n"
                "    select.select([conn], [], [], 0.1)\n"
                "    return conn.recv(4096)\n"
                "def bounded(q):\n"
                "    return q.get(timeout=0.1)\n"
                "def bare(conn):\n"
                "    return conn.recv(4096)\n"
            ),
        })
        analysis = project_analysis(tree)
        assert not analysis.effects_of("repro.core.mod.guarded").local & Effect.BLOCKS_RECV
        assert not analysis.effects_of("repro.core.mod.bounded").local & Effect.BLOCKS_QUEUE
        assert analysis.effects_of("repro.core.mod.bare").local & Effect.BLOCKS_RECV

    def test_analysis_is_cached_per_tree(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/core/mod.py": "def f():\n    return 1\n",
        })
        assert project_analysis(tree) is project_analysis(tree)


# ----------------------------------------------------------------------
# BRK6xx deep loop discipline
# ----------------------------------------------------------------------


class TestDeepLoop:
    def test_bad_fixture_fires_each_rule_once(self):
        result = lint_fixture("loop_deep_bad", select=["BRK6"])
        assert [(f.rule, f.line) for f in sorted(
            result.new, key=lambda f: f.rule
        )] == [("BRK601", 16), ("BRK602", 17), ("BRK603", 18)]
        (brk601,) = [f for f in result.new if f.rule == "BRK601"]
        assert "_flush -> _push_retry" in brk601.message
        assert "time.sleep" in brk601.message

    def test_good_fixture_is_quiet(self):
        result = lint_fixture("loop_deep_good", select=["BRK6"])
        assert result.new == [], "\n".join(f.render() for f in result.new)

    def test_dedupe_one_finding_per_terminal(self, tmp_path):
        # Two pumps reaching the same sleep: one finding, shortest chain.
        shutil.copytree(FIXTURES / "loop_deep_bad", tmp_path / "tree")
        target = tmp_path / "tree/src/repro/runtime/ism_proc.py"
        target.write_text(target.read_text() + (
            "\n"
            "    def run2(self):\n"
            "        while not self.stop:\n"
            "            select.select([self.conn], [], [], 0.01)\n"
            "            self._indirect()\n"
            "\n"
            "    def _indirect(self):\n"
            "        self._flush()\n"
        ))
        result = run_lint(
            [tmp_path / "tree/src"], root=tmp_path / "tree", select=["BRK601"]
        )
        assert len(result.new) == 1
        assert result.new[0].line == 16  # the shorter chain wins


# ----------------------------------------------------------------------
# BRK7xx durability ordering
# ----------------------------------------------------------------------


class TestDurability:
    def test_bad_fixture_fires_each_rule(self):
        result = lint_fixture("durability_bad", select=["BRK7"])
        assert sorted((f.rule, f.line) for f in result.new) == [
            ("BRK701", 17),   # take_dirty with no preceding sync
            ("BRK701", 52),   # self.plane.flush_acks(): release built in plane.py
            ("BRK702", 31),   # acked() feeding a HelloReply
            ("BRK703", 37),   # output-ring drain into merger.push
            ("BRK704", 25),   # fall-through sync handler
        ]

    def test_good_fixture_is_quiet(self):
        result = lint_fixture("durability_good", select=["BRK7"])
        assert result.new == [], "\n".join(f.render() for f in result.new)


# ----------------------------------------------------------------------
# BRK8xx capability gating
# ----------------------------------------------------------------------


class TestCapGate:
    def test_bad_fixture_fires_each_rule(self):
        result = lint_fixture("capgate_bad", select=["BRK8"])
        assert sorted((f.rule, f.line) for f in result.new) == [
            ("BRK801", 12),
            ("BRK802", 16),
            ("BRK803", 20),
            ("BRK804", 29),
        ]

    def test_good_fixture_is_quiet(self):
        result = lint_fixture("capgate_good", select=["BRK8"])
        assert result.new == [], "\n".join(f.render() for f in result.new)

    def test_early_bail_does_not_satisfy_brk804(self):
        # The emit() in capgate_bad computes the cap AND has a
        # cap-mentioning early return, yet must still flag: that is the
        # exact shape of the relay bug this rule exists for.
        result = lint_fixture("capgate_bad", select=["BRK804"])
        assert [f.rule for f in result.new] == ["BRK804"]


# ----------------------------------------------------------------------
# BRK204 transitive determinism
# ----------------------------------------------------------------------


class TestTransitiveDeterminism:
    def test_zone_chain_to_out_of_zone_clock_flags(self):
        result = lint_fixture("determinism_deep_bad", select=["BRK204"])
        assert [(f.rule, f.path) for f in result.new] == [
            ("BRK204", "src/repro/sim/stepper.py")
        ]
        assert "host_now" in result.new[0].message
        assert "time.time" in result.new[0].message

    def test_timebase_barrier_is_quiet(self):
        result = lint_fixture("determinism_deep_good", select=["BRK204"])
        assert result.new == [], "\n".join(f.render() for f in result.new)


# ----------------------------------------------------------------------
# symbol-based fingerprints: line-number independence round trip
# ----------------------------------------------------------------------


class TestSymbolFingerprints:
    def _baselined_tree(self, tmp_path):
        shutil.copytree(FIXTURES / "exceptions_bad", tmp_path / "tree")
        root = tmp_path / "tree"
        first = run_lint([root / "src"], root=root)
        assert first.new, "fixture must produce findings"
        baseline = root / "lint-baseline.toml"
        write_baseline(
            baseline,
            [(f, first.fingerprint_of(f)) for f in first.new],
            symbols={
                first.fingerprint_of(f): first.symbol_of(f)
                for f in first.new
            },
        )
        return root, baseline

    def test_insert_above_keeps_baseline(self, tmp_path):
        root, baseline = self._baselined_tree(tmp_path)
        target = root / "src/repro/core/handlers.py"
        target.write_text(
            "# pushed everything down\nNEW_CONSTANT = 1\n\n\n"
            + target.read_text()
        )
        result = run_lint([root / "src"], root=root, baseline_path=baseline)
        assert result.new == [], "\n".join(f.render() for f in result.new)
        assert result.stale_baseline == []

    def test_moving_function_keeps_baseline(self, tmp_path):
        root, baseline = self._baselined_tree(tmp_path)
        target = root / "src/repro/core/handlers.py"
        # Moving the whole file to the bottom of a grown module is the
        # strongest "function moved" case: every def changes lineno.
        target.write_text(
            "def _pushed_down_filler():\n    return 0\n\n\n"
            + target.read_text()
        )
        result = run_lint([root / "src"], root=root, baseline_path=baseline)
        assert result.new == []

    def test_editing_flagged_line_invalidates(self, tmp_path):
        root, baseline = self._baselined_tree(tmp_path)
        target = root / "src/repro/core/handlers.py"
        text = target.read_text()
        assert "except Exception:" in text
        target.write_text(
            text.replace("except Exception:", "except BaseException:", 1)
        )
        result = run_lint([root / "src"], root=root, baseline_path=baseline)
        assert result.new, "edited line must re-surface as new"
        assert result.stale_baseline, "old fingerprint must go stale"

    def test_baseline_records_symbols(self, tmp_path, capsys):
        shutil.copytree(FIXTURES / "exceptions_bad", tmp_path / "tree")
        root = tmp_path / "tree"
        assert lint_main(
            [str(root / "src"), "--root", str(root), "--write-baseline"]
        ) == 0
        capsys.readouterr()
        entries = load_baseline(root / "lint-baseline.toml")
        assert entries
        for entry in entries.values():
            assert entry.symbol.startswith("repro."), entry


# ----------------------------------------------------------------------
# CLI: --graph and --explain
# ----------------------------------------------------------------------


class TestDebugCli:
    def test_graph_renders_resolution(self, capsys):
        code = lint_main([
            "--graph", "ShardWorker.run",
            str(REPO_ROOT / "src"), "--root", str(REPO_ROOT),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro.runtime.shard.ShardWorker.run" in out
        assert "RUNS_SELECT" in out
        assert "callees" in out and "(method)" in out

    def test_graph_unknown_symbol_is_usage_error(self, capsys):
        code = lint_main([
            "--graph", "no.such.symbol",
            str(REPO_ROOT / "src"), "--root", str(REPO_ROOT),
        ])
        assert code == 2
        assert "no function matches" in capsys.readouterr().err

    def test_graph_ambiguous_symbol_lists_candidates(self, capsys):
        code = lint_main([
            "--graph", "run",
            str(REPO_ROOT / "src"), "--root", str(REPO_ROOT),
        ])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "BRK701"]) == 0
        out = capsys.readouterr().out
        assert "BRK701" in out and "crash" in out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "BRK999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_is_case_insensitive(self, capsys):
        assert lint_main(["--explain", "brk601"]) == 0
        assert "BRK601" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the real tree, through the new families only + the perf budget
# ----------------------------------------------------------------------


class TestRealTreeInterprocedural:
    def test_new_families_clean_on_real_tree(self):
        result = run_lint(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            select=["BRK204", "BRK6", "BRK7", "BRK8"],
        )
        assert result.new == [], "\n".join(f.render() for f in result.new)
        # The deliberate bounded waits are pragma'd, not silently absent.
        assert {f.rule for f in result.pragma_suppressed} == {"BRK601"}

    def test_full_run_stays_within_ci_budget(self):
        start = _time.perf_counter()
        run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        elapsed = _time.perf_counter() - start
        # One parse + one fixpoint: ~2-3 s warm on CI hardware.  The 20 s
        # ceiling is the alarm for an accidentally quadratic checker.
        assert elapsed < 20.0, f"lint run took {elapsed:.1f}s"

    def test_one_analysis_shared_by_all_checkers(self):
        tree = load_tree([REPO_ROOT / "src"], root=REPO_ROOT)
        run_lint([], root=REPO_ROOT, tree=tree)
        assert "project_analysis" in tree.caches
