"""Tests for the repro.analysis static-analysis suite.

Each rule is exercised against fixture snippets under
``tests/analysis_fixtures/``: a ``*_bad`` module whose marked lines must be
flagged, and a ``*_ok`` module that must come back clean.  A final test
runs the real CLI over ``src/`` and requires a clean exit — the same gate
CI enforces.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ModuleContext,
    analyze_module,
    get_rule,
    module_name_for_path,
    report_to_dict,
    rule_names,
    run_analysis,
)

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def load(fixture: str, module: str = "repro.core.fixture") -> ModuleContext:
    path = FIXTURES / fixture
    return ModuleContext.from_source(path.read_text(encoding="utf-8"),
                                     path, module=module)


def violations(fixture: str, rule: str,
               module: str = "repro.core.fixture"):
    return analyze_module(load(fixture, module), [get_rule(rule)])


def marked_lines(fixture: str):
    """Line numbers of fixture lines carrying a ``# ... violation`` comment."""
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    return sorted(i for i, line in enumerate(text.splitlines(), 1)
                  if "#" in line and "violation" in line.split("#", 1)[1])


class TestRegistry:
    def test_all_ten_rules_registered(self):
        assert rule_names() == ["determinism", "encapsulation",
                                "exception-boundaries", "exports",
                                "hot-path", "layer-safety",
                                "ordering-flow", "recompute",
                                "resource-lifecycle", "shared-mutation"]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("no-such-rule")


class TestLayerSafety:
    def test_bad_fixture_flags_every_marked_line(self):
        found = violations("layer_safety_bad.py", "layer-safety")
        assert sorted(v.line for v in found) == \
            marked_lines("layer_safety_bad.py")
        assert all(v.rule == "layer-safety" for v in found)

    def test_ok_fixture_is_clean(self):
        assert violations("layer_safety_ok.py", "layer-safety") == []

    def test_bigraph_package_is_exempt(self):
        found = violations("layer_safety_bad.py", "layer-safety",
                           module="repro.bigraph.fixture")
        assert found == []

    def test_messages_point_at_the_layer_api(self):
        found = violations("layer_safety_bad.py", "layer-safety")
        assert any("is_upper" in v.message for v in found)
        assert any("lower_index" in v.message for v in found)


class TestEncapsulation:
    def test_bad_fixture_flags_every_marked_line(self):
        found = violations("encapsulation_bad.py", "encapsulation")
        assert sorted(v.line for v in found) == \
            marked_lines("encapsulation_bad.py")

    def test_ok_fixture_is_clean(self):
        assert violations("encapsulation_ok.py", "encapsulation") == []

    def test_bigraph_package_is_exempt(self):
        assert violations("encapsulation_bad.py", "encapsulation",
                          module="repro.bigraph.mutation") == []


class TestDeterminism:
    def test_bad_fixture_flags_every_marked_line(self):
        found = violations("determinism_bad.py", "determinism")
        assert sorted(v.line for v in found) == \
            marked_lines("determinism_bad.py")

    def test_ok_fixture_is_clean(self):
        assert violations("determinism_ok.py", "determinism") == []

    def test_set_iteration_only_polices_algorithm_packages(self):
        # The RNG checks are repo-wide; the set-iteration heuristic is not.
        found = violations("determinism_bad.py", "determinism",
                           module="repro.experiments.fixture")
        assert all("random" in v.message.lower() for v in found)

    def test_from_import_of_global_random_is_flagged(self):
        ctx = ModuleContext.from_source(
            "from random import shuffle\n", Path("snippet.py"),
            module="repro.generators.snippet")
        found = analyze_module(ctx, [get_rule("determinism")])
        assert len(found) == 1 and "shuffle" in found[0].message


class TestExceptionBoundaries:
    def test_bad_fixture_flags_every_broad_handler(self):
        found = violations("boundaries_bad.py", "exception-boundaries")
        assert len(found) == 4
        assert {v.line for v in found} == {7, 14, 21, 28}

    def test_ok_fixture_is_clean(self):
        assert violations("boundaries_ok.py", "exception-boundaries") == []

    def test_resilience_package_is_exempt(self):
        assert violations("boundaries_bad.py", "exception-boundaries",
                          module="repro.resilience.fixture") == []

    def test_pragma_sanctions_same_line_and_line_above(self):
        ctx = load("boundaries_ok.py")
        assert ctx.has_boundary_pragma(14)
        assert ctx.has_boundary_pragma(21)
        assert not ctx.has_boundary_pragma(7)

    def test_message_names_the_pragma(self):
        found = violations("boundaries_bad.py", "exception-boundaries")
        assert all("repro: boundary" in v.message for v in found)


class TestHotPath:
    def test_bad_fixture_flags_every_marked_line(self):
        found = violations("hot_path_bad.py", "hot-path")
        assert sorted(v.line for v in found) == \
            marked_lines("hot_path_bad.py")

    def test_ok_fixture_is_clean(self):
        assert violations("hot_path_ok.py", "hot-path") == []

    def test_neighbors_call_message_suggests_the_csr_accessor(self):
        found = violations("hot_path_bad.py", "hot-path")
        messages = [v.message for v in found if ".neighbors()" in v.message]
        assert len(messages) == 1
        assert "adjacency_arrays" in messages[0]

    def test_pragma_on_line_above_also_marks_the_loop(self):
        src = (
            "def f(queue, adjacency, items):\n"
            "    # hot-loop\n"
            "    for v in items:\n"
            "        for w in adjacency[v]:\n"
            "            queue.append(w)\n")
        ctx = ModuleContext.from_source(src, Path("snippet.py"),
                                        module="repro.core.snippet")
        found = analyze_module(ctx, [get_rule("hot-path")])
        assert len(found) == 1 and "queue.append" in found[0].message


class TestRecompute:
    def test_bad_fixture_flags_every_marked_line(self):
        found = violations("recompute_bad.py", "recompute")
        assert sorted(v.line for v in found) == \
            marked_lines("recompute_bad.py")
        assert all(v.rule == "recompute" for v in found)

    def test_ok_fixture_is_clean(self):
        assert violations("recompute_ok.py", "recompute") == []

    def test_message_names_the_function_and_the_batched_call(self):
        found = violations("recompute_bad.py", "recompute")
        assert any(v.message.startswith("reachable_from()") for v in found)
        assert any(v.message.startswith("r_scores()") for v in found)
        assert all("one reachable_counts call" in v.message for v in found)

    def test_unmarked_module_is_never_inspected(self):
        src = ("def f(graph, order, xs):\n"
               "    return [reachable_from(graph, order, x) for x in xs]\n")
        ctx = ModuleContext.from_source(src, Path("snippet.py"),
                                        module="repro.core.snippet")
        assert analyze_module(ctx, [get_rule("recompute")]) == []


class TestExports:
    def test_bad_fixture_has_all_three_shapes(self):
        found = violations("exports_bad.py", "exports")
        messages = " | ".join(v.message for v in found)
        assert len(found) == 3
        assert "ghost_entry" in messages      # declared but undefined
        assert "no docstring" in messages     # exported but undocumented
        assert "stray" in messages            # public but undeclared

    def test_missing_all_is_flagged(self):
        found = violations("exports_missing_all.py", "exports")
        assert len(found) == 1 and "__all__" in found[0].message

    def test_ok_fixture_is_clean(self):
        assert violations("exports_ok.py", "exports") == []

    def test_main_modules_are_exempt(self):
        found = violations("exports_missing_all.py", "exports",
                           module="repro.core.__main__")
        assert found == []


class TestSuppressions:
    def test_named_and_blanket_pragmas_silence_violations(self):
        assert violations("suppressed.py", "encapsulation") == []
        found = violations("suppressed.py", "layer-safety")
        # Only the line suppressing a *different* rule stays flagged.
        assert len(found) == 1
        ctx = load("suppressed.py")
        assert ctx.is_suppressed("determinism", found[0].line)
        assert not ctx.is_suppressed("layer-safety", found[0].line)


class TestFramework:
    def test_module_name_for_path(self):
        assert module_name_for_path(
            Path("src/repro/core/filver.py")) == "repro.core.filver"
        assert module_name_for_path(
            Path("src/repro/bigraph/__init__.py")) == "repro.bigraph"
        assert module_name_for_path(Path("elsewhere/tool.py")) == "tool"

    def test_run_analysis_over_repo_src_is_clean(self):
        report = run_analysis([SRC / "repro"])
        assert report.violations == []
        assert report.errors == []
        assert report.ok
        assert report.checked_files > 60

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        report = run_analysis([tmp_path])
        assert not report.ok
        assert report.errors and "SyntaxError" in report.errors[0][1]

    def test_report_to_dict_shape(self):
        report = run_analysis([FIXTURES / "encapsulation_bad.py"])
        payload = report_to_dict(report)
        assert payload["ok"] is False
        assert payload["checked_files"] == 1
        assert {v["rule"] for v in payload["violations"]} == {"encapsulation"}


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})

    def test_repo_src_exits_zero(self):
        proc = self.run_cli("src/")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_violations_exit_one_and_json_reports_them(self):
        proc = self.run_cli("--json",
                            "tests/analysis_fixtures/encapsulation_bad.py")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert payload["violations"]

    def test_rules_filter_and_list_rules(self):
        proc = self.run_cli("--rules", "exports",
                            "tests/analysis_fixtures/encapsulation_bad.py")
        assert proc.returncode == 0  # encapsulation not in the filter
        listing = self.run_cli("--list-rules")
        assert listing.returncode == 0
        for name in rule_names():
            assert name in listing.stdout

    def test_usage_errors_exit_two(self):
        assert self.run_cli().returncode == 2
        assert self.run_cli("--rules", "bogus", "src/").returncode == 2
