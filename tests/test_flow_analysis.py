"""Tests for the whole-program flow analysis (repro.analysis.flow).

Three layers: the symbol table / call graph substrate (built from inline
two-module programs), the three program-scoped rules against fixture
pairs under ``tests/analysis_fixtures/``, and the runner integration —
suppression filtering, stale-pragma warnings, ``--strict-pragmas``, and
the SARIF reporter.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    ModuleContext,
    analyze_module,
    analyze_program,
    get_rule,
    report_to_sarif,
    rule_names,
    run_analysis,
    stale_pragma_warnings,
)
from repro.analysis.flow import ProgramContext

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def ctx_from(source: str, module: str, name: str = "snippet.py"):
    return ModuleContext.from_source(source, Path(name), module=module)


def load(fixture: str, module: str = "repro.core.fixture") -> ModuleContext:
    path = FIXTURES / fixture
    return ModuleContext.from_source(path.read_text(encoding="utf-8"),
                                     path, module=module)


def flow_violations(fixture: str, rule: str,
                    module: str = "repro.core.fixture"):
    return analyze_program([load(fixture, module)], [get_rule(rule)])


def marked_lines(fixture: str):
    """Line numbers of fixture lines carrying a ``# ... violation`` comment."""
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    return sorted(i for i, line in enumerate(text.splitlines(), 1)
                  if "#" in line and "violation" in line.split("#", 1)[1])


def line_of(source: str, needle: str) -> int:
    for i, line in enumerate(source.splitlines(), 1):
        if needle in line:
            return i
    raise AssertionError("needle %r not in source" % needle)


# ----------------------------------------------------------------------
# Symbol table + call graph
# ----------------------------------------------------------------------

ENGINE_SRC = '''\
"""Engine fixture module."""

from repro.core.helpers import compute
import repro.core.helpers as helpers


class Engine:
    """Fixture class with methods calling across modules."""

    def __init__(self, graph):
        self.graph = graph

    def run(self):
        """Calls a sibling method, an import, and an unknown object."""
        self.step()
        compute(self.graph)
        mystery.call()

    def step(self):
        """No-op."""


def make():
    """Constructor call resolves to Engine.__init__."""
    return Engine(None)
'''

HELPERS_SRC = '''\
"""Helpers fixture module."""


def compute(graph):
    """Identity."""
    return graph
'''


def two_module_program() -> ProgramContext:
    return ProgramContext.build([
        ctx_from(ENGINE_SRC, "repro.core.engine", "engine.py"),
        ctx_from(HELPERS_SRC, "repro.core.helpers", "helpers.py"),
    ])


class TestSymbolTable:
    def test_functions_and_methods_indexed_by_qualname(self):
        table = two_module_program().symbols
        for qualname in ("repro.core.engine.make",
                         "repro.core.engine.Engine.run",
                         "repro.core.engine.Engine.__init__",
                         "repro.core.helpers.compute"):
            assert table.function(qualname) is not None
        run = table.function("repro.core.engine.Engine.run")
        assert run.name == "run"
        assert run.owner_class == "repro.core.engine.Engine"
        assert table.function("repro.core.helpers.compute").arg_names() \
            == ["graph"]

    def test_import_aliases_resolve_across_modules(self):
        table = two_module_program().symbols
        aliases = table.aliases["repro.core.engine"]
        assert aliases["compute"] == "repro.core.helpers.compute"
        assert aliases["helpers"] == "repro.core.helpers"
        assert table.resolve("repro.core.engine", "helpers.compute") \
            == "repro.core.helpers.compute"
        assert table.resolve("repro.core.engine", "mystery.call") is None

    def test_class_info_tracks_methods(self):
        table = two_module_program().symbols
        info = table.class_of("repro.core.engine.Engine")
        assert info is not None
        assert info.has_method("run", "step")
        assert not info.has_method("close")


class TestCallGraph:
    def test_self_method_and_imported_call_edges(self):
        graph = two_module_program().callgraph
        assert graph.callees("repro.core.engine.Engine.run") == {
            "repro.core.engine.Engine.step",
            "repro.core.helpers.compute",
        }
        assert graph.callers("repro.core.helpers.compute") == {
            "repro.core.engine.Engine.run",
        }

    def test_constructor_call_resolves_to_init(self):
        graph = two_module_program().callgraph
        assert graph.callees("repro.core.engine.make") == {
            "repro.core.engine.Engine.__init__",
        }

    def test_unresolved_attribute_call_is_recorded_not_dropped(self):
        graph = two_module_program().callgraph
        sites = graph.call_sites("repro.core.engine.Engine.run")
        unresolved = [s for s in sites if s.callee is None]
        assert [s.text for s in unresolved] == ["mystery.call"]


# ----------------------------------------------------------------------
# ordering-flow
# ----------------------------------------------------------------------

class TestOrderingFlow:
    def test_bad_fixture_flags_every_marked_line(self):
        found = flow_violations("ordering_flow_bad.py", "ordering-flow")
        assert sorted(v.line for v in found) == \
            marked_lines("ordering_flow_bad.py")
        assert all(v.rule == "ordering-flow" for v in found)

    def test_ok_fixture_is_clean(self):
        assert flow_violations("ordering_flow_ok.py", "ordering-flow") == []

    def test_messages_name_the_origin_and_the_action(self):
        found = flow_violations("ordering_flow_bad.py", "ordering-flow")
        joined = " | ".join(v.message for v in found)
        assert "order-sensitive loop" in joined
        assert "byte-identity sink" in joined
        assert "filesystem order" in joined

    def test_taint_crosses_module_boundaries(self):
        prod_src = ('"""Producer."""\n\n\n'
                    "def fresh_ids(graph):\n"
                    '    """Unordered return."""\n'
                    "    return {v for v in graph}\n")
        cons_src = ('"""Consumer."""\n\n'
                    "from repro.core.prod import fresh_ids\n\n\n"
                    "def ordered(graph):\n"
                    '    """Order-sensitive consumption."""\n'
                    "    out = []\n"
                    "    for v in fresh_ids(graph):\n"
                    "        out.append(v)\n"
                    "    return out\n")
        prod = ctx_from(prod_src, "repro.core.prod", "prod.py")
        cons = ctx_from(cons_src, "repro.core.cons", "cons.py")
        found = analyze_program([prod, cons], [get_rule("ordering-flow")])
        assert len(found) == 1
        assert found[0].path == "cons.py"
        assert found[0].line == line_of(cons_src, "for v in fresh_ids")
        assert "fresh_ids" in found[0].message

    def test_sorted_wrapper_sanitizes_cross_module_taint(self):
        prod_src = ('"""Producer."""\n\n\n'
                    "def fresh_ids(graph):\n"
                    '    """Unordered return."""\n'
                    "    return {v for v in graph}\n")
        cons_src = ('"""Consumer."""\n\n'
                    "from repro.core.prod import fresh_ids\n\n\n"
                    "def ordered(graph):\n"
                    '    """sorted() canonicalizes at the boundary."""\n'
                    "    out = []\n"
                    "    for v in sorted(fresh_ids(graph)):\n"
                    "        out.append(v)\n"
                    "    return out\n")
        prod = ctx_from(prod_src, "repro.core.prod", "prod.py")
        cons = ctx_from(cons_src, "repro.core.cons", "cons.py")
        assert analyze_program([prod, cons],
                               [get_rule("ordering-flow")]) == []

    def test_closure_returns_stay_out_of_the_enclosing_function(self):
        prod_src = ('"""Producers with closures."""\n\n\n'
                    "def ranked(graph):\n"
                    '    """Ordered return; its closure returns a set."""\n'
                    "    def reach(v):\n"
                    "        return {w for w in graph[v]}\n"
                    "    return sorted(graph, key=lambda v: len(reach(v)))\n"
                    "\n\n"
                    "def unordered(graph):\n"
                    '    """Unordered return; its closure returns a list."""\n'
                    "    found = {v for v in graph}\n"
                    "    def listed(v):\n"
                    "        return [v]\n"
                    "    return found\n")
        cons_src = ('"""Consumer."""\n\n'
                    "from repro.core.prod import ranked, unordered\n\n\n"
                    "def ordered(graph):\n"
                    '    """Order-sensitive consumption of both."""\n'
                    "    out = []\n"
                    "    for v in ranked(graph):\n"
                    "        out.append(v)\n"
                    "    for v in unordered(graph):\n"
                    "        out.append(v)\n"
                    "    return out\n")
        prod = ctx_from(prod_src, "repro.core.prod", "prod.py")
        cons = ctx_from(cons_src, "repro.core.cons", "cons.py")
        found = analyze_program([prod, cons], [get_rule("ordering-flow")])
        assert [(v.path, v.line) for v in found] == [
            ("cons.py", line_of(cons_src, "for v in unordered"))]

    def test_outside_order_critical_packages_loops_are_not_flagged(self):
        # Sinks are policed everywhere, but plain iteration only matters
        # where it feeds deletion orders / exports.
        found = flow_violations("ordering_flow_bad.py", "ordering-flow",
                                module="tools.fixture")
        assert all("sink" in v.message for v in found)

    def test_analyze_module_skips_program_scoped_rules(self):
        ctx = load("ordering_flow_bad.py")
        assert analyze_module(ctx, [get_rule("ordering-flow")]) == []

    def test_shared_context_tables_flag_every_marked_line(self):
        found = flow_violations("batch_flow_bad.py", "ordering-flow")
        assert sorted(v.line for v in found) == \
            marked_lines("batch_flow_bad.py")
        joined = " | ".join(v.message for v in found)
        assert "shared-context table" in joined

    def test_sanitized_shared_context_tables_are_clean(self):
        assert flow_violations("batch_flow_ok.py", "ordering-flow") == []


# ----------------------------------------------------------------------
# resource-lifecycle
# ----------------------------------------------------------------------

class TestResourceLifecycle:
    def test_bad_fixture_flags_every_marked_line(self):
        found = flow_violations("resource_lifecycle_bad.py",
                                "resource-lifecycle")
        assert sorted(v.line for v in found) == \
            marked_lines("resource_lifecycle_bad.py")
        assert all(v.rule == "resource-lifecycle" for v in found)

    def test_ok_fixture_is_clean(self):
        assert flow_violations("resource_lifecycle_ok.py",
                               "resource-lifecycle") == []

    def test_happy_path_release_gets_the_distinct_message(self):
        found = flow_violations("resource_lifecycle_bad.py",
                                "resource-lifecycle")
        messages = [v.message for v in found]
        assert any("non-exception path" in m for m in messages)
        assert any("never bound" in m for m in messages)
        assert any("never released" in m for m in messages)

    def test_numpy_memmap_acquisitions_are_tracked(self):
        found = flow_violations("resource_lifecycle_bad.py",
                                "resource-lifecycle")
        memmap_messages = [v.message for v in found
                           if "numpy.memmap" in v.message]
        assert any("never bound" in m for m in memmap_messages)
        assert any("never released" in m for m in memmap_messages)
        # The clean idioms (owning class, container escape, ownership
        # transfer) must not fire for memmap either.
        assert flow_violations("resource_lifecycle_ok.py",
                               "resource-lifecycle") == []

    def test_stdlib_mmap_acquisitions_are_tracked(self):
        found = flow_violations("resource_lifecycle_bad.py",
                                "resource-lifecycle")
        mmap_messages = [v.message for v in found
                         if "mmap.mmap" in v.message]
        assert any("never bound" in m for m in mmap_messages)
        assert any("never released" in m for m in mmap_messages)
        # The owning class and the escape into a view stay clean.
        assert flow_violations("resource_lifecycle_ok.py",
                               "resource-lifecycle") == []

    def test_owning_class_without_releaser_is_flagged(self):
        src = ('"""Holder without a close method leaks its segment."""\n\n'
               "from multiprocessing.shared_memory import SharedMemory\n\n\n"
               "class Holder:\n"
               '    """No releaser."""\n\n'
               "    def __init__(self, name):\n"
               "        self._shm = SharedMemory(name=name)\n")
        found = analyze_program(
            [ctx_from(src, "repro.parallel.holder", "holder.py")],
            [get_rule("resource-lifecycle")])
        assert len(found) == 1
        assert found[0].line == line_of(src, "SharedMemory(name=name)")


# ----------------------------------------------------------------------
# shared-mutation
# ----------------------------------------------------------------------

class TestSharedMutation:
    def test_bad_fixture_flags_every_marked_line(self):
        found = flow_violations("shared_mutation_bad.py", "shared-mutation")
        assert sorted(v.line for v in found) == \
            marked_lines("shared_mutation_bad.py")
        assert all(v.rule == "shared-mutation" for v in found)

    def test_ok_fixture_is_clean(self):
        assert flow_violations("shared_mutation_ok.py",
                               "shared-mutation") == []

    def test_bigraph_package_is_exempt(self):
        found = flow_violations("shared_mutation_bad.py", "shared-mutation",
                                module="repro.bigraph.fixture")
        assert found == []

    def test_messages_explain_the_borrow_contract(self):
        found = flow_violations("shared_mutation_bad.py", "shared-mutation")
        joined = " | ".join(v.message for v in found)
        assert "read-only" in joined
        assert "setflags(write=True)" in joined
        assert ".sort() mutates" in joined


# ----------------------------------------------------------------------
# Suppressions, stale pragmas, strict mode
# ----------------------------------------------------------------------

class TestFlowSuppressions:
    SUPPRESSED = ('"""Suppressed consumer."""\n\n\n'
                  "def ordered(vertices):\n"
                  '    """Suppressed on the loop line."""\n'
                  "    out = []\n"
                  "    for v in {x for x in vertices}:"
                  "  # repro: ignore[ordering-flow]\n"
                  "        out.append(v)\n"
                  "    return out\n")

    def test_program_rule_violations_respect_line_pragmas(self):
        ctx = ctx_from(self.SUPPRESSED, "repro.core.snip")
        assert analyze_program([ctx], [get_rule("ordering-flow")]) == []

    def test_used_suppression_is_not_reported_stale(self):
        ctx = ctx_from(self.SUPPRESSED, "repro.core.snip")
        analyze_program([ctx], [get_rule("ordering-flow")])
        assert stale_pragma_warnings(ctx, {"ordering-flow"}) == []


class TestStalePragmas:
    def test_unused_ignore_warns_only_when_its_rule_ran(self):
        ctx = ctx_from("X = 1  # repro: ignore[determinism]\n",
                       "repro.core.snip")
        assert len(stale_pragma_warnings(ctx, {"determinism"})) == 1
        assert stale_pragma_warnings(ctx, {"exports"}) == []

    def test_unknown_rule_name_always_warns(self):
        ctx = ctx_from("X = 1  # repro: ignore[bogus-rule]\n",
                       "repro.core.snip")
        warnings = stale_pragma_warnings(ctx, set())
        assert len(warnings) == 1
        assert "unknown rule" in warnings[0].message

    def test_consumed_suppression_is_not_stale(self):
        ctx = ctx_from(
            "from random import shuffle  # repro: ignore[determinism]\n",
            "repro.core.snip")
        assert analyze_module(ctx, [get_rule("determinism")]) == []
        assert stale_pragma_warnings(ctx, {"determinism"}) == []

    def test_blanket_ignore_judged_only_on_full_runs(self):
        ctx = ctx_from("Y = 2  # repro: ignore\n", "repro.core.snip")
        assert stale_pragma_warnings(ctx, {"determinism"}) == []
        full = stale_pragma_warnings(ctx, set(rule_names()))
        assert len(full) == 1 and "blanket" in full[0].message

    def test_attached_structural_pragmas_do_not_warn(self):
        src = ("def f(items, queue, adjacency):\n"
               '    """Attached pragmas."""\n'
               "    # hot-loop\n"
               "    for v in items:\n"
               "        queue.append(adjacency[v])\n"
               "    try:\n"
               "        return queue\n"
               "    except Exception:  # repro: boundary\n"
               "        return None\n")
        ctx = ctx_from(src, "repro.core.snip")
        assert stale_pragma_warnings(ctx, set()) == []

    def test_fixture_reports_all_three_stale_shapes(self):
        report = run_analysis([FIXTURES / "stale_pragmas.py"],
                              rules=[get_rule("determinism")])
        assert report.ok
        messages = " | ".join(w.message for w in report.warnings)
        assert len(report.warnings) == 3
        assert "no longer suppresses" in messages
        assert "not attached to an except handler" in messages
        assert "not attached to a" in messages and "loop header" in messages

    def test_strict_pragmas_promotes_warnings_to_violations(self):
        report = run_analysis([FIXTURES / "stale_pragmas.py"],
                              rules=[get_rule("determinism")],
                              strict_pragmas=True)
        assert not report.ok
        assert report.warnings == []
        assert {v.rule for v in report.violations} == {"stale-pragma"}


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------

class TestSarif:
    def test_log_shape_and_rule_descriptors(self):
        report = run_analysis([FIXTURES / "encapsulation_bad.py"])
        sarif = report_to_sarif(report)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(rule_names()) | {"stale-pragma"} <= ids
        assert run["columnKind"] == "utf16CodeUnits"

    def test_violations_become_error_results_with_one_based_columns(self):
        report = run_analysis([FIXTURES / "encapsulation_bad.py"])
        sarif = report_to_sarif(report)
        results = sarif["runs"][0]["results"]
        assert results
        first = results[0]
        assert first["level"] == "error"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == report.violations[0].line
        assert region["startColumn"] == report.violations[0].col + 1

    def test_warnings_become_warning_results(self):
        report = run_analysis([FIXTURES / "stale_pragmas.py"],
                              rules=[get_rule("determinism")])
        results = report_to_sarif(report)["runs"][0]["results"]
        assert results
        assert {r["level"] for r in results} == {"warning"}
        assert {r["ruleId"] for r in results} == {"stale-pragma"}

    def test_errors_become_failed_invocation_notifications(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        sarif = report_to_sarif(run_analysis([tmp_path]))
        invocation = sarif["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False
        assert invocation["toolExecutionNotifications"]


class TestCliFlow:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})

    def test_sarif_output_parses_and_reports_violations(self):
        proc = self.run_cli(
            "--sarif", "tests/analysis_fixtures/encapsulation_bad.py")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]

    def test_json_and_sarif_are_mutually_exclusive(self):
        proc = self.run_cli("--json", "--sarif", "src/")
        assert proc.returncode == 2

    def test_strict_pragmas_gates_stale_suppressions(self):
        lenient = self.run_cli("--rules", "determinism",
                               "tests/analysis_fixtures/stale_pragmas.py")
        assert lenient.returncode == 0, lenient.stdout + lenient.stderr
        assert "(warning)" in lenient.stdout
        strict = self.run_cli("--strict-pragmas", "--rules", "determinism",
                              "tests/analysis_fixtures/stale_pragmas.py")
        assert strict.returncode == 1
        assert "stale-pragma" in strict.stdout
