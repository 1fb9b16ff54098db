"""brisk-lint: fixture corpus, engine, baseline, CLI, and the meta-test
that the real tree is clean.

Each fixture directory under ``tests/lint_fixtures/`` is loaded as its
own repo root (see the corpus README), so scoped checkers see the same
repo-relative paths they see in the real tree.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.engine import Finding
from repro.lint.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def lint_fixture(name):
    """Run the full checker stack over one fixture mini-root."""
    sub = FIXTURES / name
    return run_lint([sub / "src"], root=sub)


def rule_lines(findings):
    return sorted((f.rule, f.line) for f in findings)


# ----------------------------------------------------------------------
# one true-positive and one true-negative fixture per rule family
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_bad_fixture(self):
        result = lint_fixture("determinism_bad")
        assert rule_lines(result.new) == [
            ("BRK201", 9),    # time.time
            ("BRK201", 13),   # aliased time.monotonic
            ("BRK201", 25),   # os.urandom
            ("BRK202", 17),   # random.uniform
            ("BRK203", 21),   # unseeded random.Random()
        ]

    def test_good_fixture_sanctioned_idioms_and_zone_boundary(self):
        # Seeded Random, perf_counter, timebase clock, annotations — and a
        # runtime/ file reading real clocks outside the zone.
        result = lint_fixture("determinism_good")
        assert result.new == []


class TestLoopDiscipline:
    def test_bad_fixture(self):
        result = lint_fixture("loop_bad")
        assert rule_lines(result.new) == [
            ("BRK301", 9),
            ("BRK302", 14),
            ("BRK303", 17),
        ]

    def test_good_fixture(self):
        result = lint_fixture("loop_good")
        assert result.new == []


class TestExceptionHygiene:
    def test_bad_fixture(self):
        result = lint_fixture("exceptions_bad")
        assert rule_lines(result.new) == [
            ("BRK401", 7),
            ("BRK401", 14),   # broad via tuple member
            ("BRK402", 21),
        ]

    def test_good_fixture(self):
        result = lint_fixture("exceptions_good")
        assert result.new == []


class TestInstrumentRegistration:
    def test_bad_fixture(self):
        result = lint_fixture("instruments_bad")
        assert rule_lines(result.new) == [
            ("BRK501", 8),    # attribute with no registration evidence
            ("BRK501", 10),   # local instrument, unwirable
            ("BRK502", 13),   # nameless construction
            ("BRK502", 16),   # counter/gauge name collision
        ]

    def test_good_fixture(self):
        result = lint_fixture("instruments_good")
        assert result.new == []


class TestPragmas:
    def test_suppressions_and_pragma_findings(self):
        result = lint_fixture("pragmas")
        # Three BRK401s are suppressed (same-line, disable-next, reasonless).
        assert rule_lines(result.pragma_suppressed) == [
            ("BRK401", 7),
            ("BRK401", 15),
            ("BRK401", 22),
        ]
        # The pragmas themselves produce hygiene findings.
        assert rule_lines(result.new) == [
            ("BRK001", 30),   # malformed (missing '=')
            ("BRK002", 22),   # suppresses, but has no (reason)
            ("BRK003", 26),   # suppresses nothing
        ]

    def test_pragma_in_string_literal_is_inert(self, tmp_path):
        src = tmp_path / "src" / "repro" / "core" / "mod.py"
        src.parent.mkdir(parents=True)
        src.write_text(
            "MSG = '# brisk-lint: disable=BRK401 (not a pragma)'\n"
            "def f(job):\n"
            "    try:\n"
            "        job()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        result = run_lint([tmp_path / "src"], root=tmp_path)
        assert [f.rule for f in result.new] == ["BRK401"]
        assert result.pragma_suppressed == []


class TestSyntaxError:
    def test_unparseable_file_is_a_finding_not_a_crash(self):
        result = lint_fixture("syntax_error")
        assert [f.rule for f in result.new] == ["BRK000"]


# ----------------------------------------------------------------------
# baseline + fingerprints
# ----------------------------------------------------------------------


class TestBaseline:
    def test_round_trip(self, tmp_path):
        finding = Finding(
            rule="BRK401", path="src/x.py", line=3, message="m", hint="h"
        )
        fp = finding.fingerprint("    except Exception:", 0)
        target = tmp_path / "baseline.toml"
        n = write_baseline(target, [(finding, fp)], reasons={fp: "legacy"})
        assert n == 1
        loaded = load_baseline(target)
        assert loaded[fp].rule == "BRK401"
        assert loaded[fp].path == "src/x.py"
        assert loaded[fp].reason == "legacy"

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.toml") == {}

    def test_fingerprint_survives_line_drift(self):
        f1 = Finding(rule="BRK401", path="a.py", line=10, message="m")
        f2 = Finding(rule="BRK401", path="a.py", line=99, message="m")
        text = "except Exception:"
        assert f1.fingerprint(text, 0) == f2.fingerprint(text, 0)
        assert f1.fingerprint(text, 0) != f1.fingerprint(text + " # edited", 0)
        assert f1.fingerprint(text, 0) != f1.fingerprint(text, 1)

    def test_baselined_findings_do_not_fail_the_run(self, tmp_path):
        shutil.copytree(FIXTURES / "exceptions_bad", tmp_path / "tree")
        root = tmp_path / "tree"
        first = run_lint([root / "src"], root=root)
        assert first.exit_code == 1
        pairs = [(f, first.fingerprint_of(f)) for f in first.new]
        baseline = root / "lint-baseline.toml"
        write_baseline(baseline, pairs)
        second = run_lint([root / "src"], root=root, baseline_path=baseline)
        assert second.exit_code == 0
        assert len(second.baselined) == len(first.new)
        assert second.new == []
        assert second.stale_baseline == []

    def test_fixed_finding_goes_stale(self, tmp_path):
        shutil.copytree(FIXTURES / "exceptions_bad", tmp_path / "tree")
        root = tmp_path / "tree"
        first = run_lint([root / "src"], root=root)
        baseline = root / "lint-baseline.toml"
        write_baseline(baseline, [(f, first.fingerprint_of(f)) for f in first.new])
        target = root / "src" / "repro" / "core" / "handlers.py"
        target.write_text(
            text := target.read_text().replace(
                "    except (ValueError, Exception):  # BRK401: broad via tuple member\n"
                "        return None",
                "    except ValueError:\n        return None",
            )
        )
        assert "except (ValueError" not in text  # the fix really applied
        second = run_lint([root / "src"], root=root, baseline_path=baseline)
        assert second.new == []
        assert len(second.stale_baseline) == 1


# ----------------------------------------------------------------------
# runner selection + CLI
# ----------------------------------------------------------------------


class TestSelection:
    def test_select_by_rule_prefix(self):
        sub = FIXTURES / "exceptions_bad"
        result = run_lint([sub / "src"], root=sub, select=["BRK402"])
        assert {f.rule for f in result.new} == {"BRK402"}

    def test_ignore_rule(self):
        sub = FIXTURES / "exceptions_bad"
        result = run_lint([sub / "src"], root=sub, ignore=["BRK401"])
        assert {f.rule for f in result.new} == {"BRK402"}

    def test_select_by_checker_name(self):
        sub = FIXTURES / "loop_bad"
        result = run_lint([sub / "src"], root=sub, select=["loop-discipline"])
        assert {f.rule for f in result.new} == {"BRK301", "BRK302", "BRK303"}


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        sub = FIXTURES / "loop_good"
        code = lint_main([str(sub / "src"), "--root", str(sub)])
        assert code == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_render_hints(self, capsys):
        sub = FIXTURES / "loop_bad"
        code = lint_main(
            [str(sub / "src"), "--root", str(sub), "--fail-on-new"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "BRK301" in out and "hint:" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        shutil.copytree(FIXTURES / "instruments_bad", tmp_path / "tree")
        root = tmp_path / "tree"
        argv = [str(root / "src"), "--root", str(root)]
        assert lint_main(argv + ["--write-baseline"]) == 0
        assert (root / "lint-baseline.toml").exists()
        capsys.readouterr()
        assert lint_main(argv + ["--fail-on-new"]) == 0
        assert "4 baselined" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["/nonexistent/nowhere"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_format(self, capsys):
        import json

        sub = FIXTURES / "syntax_error"
        code = lint_main(
            [str(sub / "src"), "--root", str(sub), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"][0]["rule"] == "BRK000"
        assert payload["new"][0]["fingerprint"]

    def test_list_rules_covers_all_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "BRK001", "BRK201", "BRK301", "BRK401", "BRK501", "BRK601",
            "BRK701",
        ):
            assert rule in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "BRK701" in proc.stdout

    def test_cwd_independent_auto_root(self, tmp_path, monkeypatch):
        # Linting an absolute path from an unrelated cwd must anchor at
        # the target's repo root (marker detection), not crash on
        # relative_to(cwd).
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(FIXTURES / "determinism_bad")]) == 0

    def test_path_outside_explicit_root_is_usage_error(self, tmp_path, capsys):
        assert lint_main(["--root", str(REPO_ROOT), str(tmp_path)]) == 2
        assert "outside the root" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the meta-test: the real tree is clean
# ----------------------------------------------------------------------


class TestRealTree:
    def test_src_is_clean(self):
        baseline = REPO_ROOT / "lint-baseline.toml"
        result = run_lint(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            baseline_path=baseline if baseline.exists() else None,
        )
        assert result.new == [], "\n".join(f.render() for f in result.new)

    def test_baseline_entries_all_have_reasons(self):
        baseline = REPO_ROOT / "lint-baseline.toml"
        if not baseline.exists():
            pytest.skip("no baseline checked in (tree is clean)")
        for entry in load_baseline(baseline).values():
            assert entry.reason, f"baseline entry {entry.fingerprint} lacks a reason"


# ----------------------------------------------------------------------
# external tools (configs are committed; binaries may be absent locally)
# ----------------------------------------------------------------------


class TestExternalLinters:
    def test_pyproject_lint_configs_parse(self):
        import tomllib

        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        ruff = data["tool"]["ruff"]
        assert set(ruff["lint"]["select"]) == {"E", "W", "F", "I"}
        mypy = data["tool"]["mypy"]
        assert set(mypy["packages"]) == {
            "repro.wire", "repro.obs", "repro.log", "repro.monitor",
            "repro.lint",
        }
        assert data["project"]["scripts"]["brisk-lint"] == "repro.lint.cli:main"

    @pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
    def test_ruff_clean(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
    def test_mypy_scoped_clean(self):
        proc = subprocess.run(
            ["mypy"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
