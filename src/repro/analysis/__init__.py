"""Repo-specific static analysis for the anchored (α,β)-core codebase.

Generic linters cannot check the conventions this library's correctness
rests on: the global vertex-id layout owned by :mod:`repro.bigraph`, the
immutability of the shared adjacency, deterministic peeling order, and the
hand-tuned hygiene of the FILVER hot loops.  This package is an AST-based
framework (rule registry, per-line ``# repro: ignore[rule]`` suppressions,
``# hot-loop`` pragmas, human/JSON/SARIF reporters) with seven
module-scoped rules:

``layer-safety``
    no raw ``n_upper``/``n_vertices`` boundary arithmetic outside
    ``repro.bigraph``;
``encapsulation``
    no access to ``BipartiteGraph`` privates outside ``repro.bigraph``;
``determinism``
    seeded randomness everywhere; no bare-set iteration in the algorithm
    packages;
``hot-path``
    no comprehensions/closures/repeated attribute lookups in loops marked
    ``# hot-loop``;
``exports``
    ``__all__`` complete, every entry bound and docstringed;
``exception-boundaries``
    broad ``except`` only at pragma-sanctioned isolation points;
``recompute``
    no whole-order recomputation per candidate in ``# hot-loop`` loops;

and three *program-scoped* rules built on the whole-program symbol
table/call graph in :mod:`repro.analysis.flow`:

``ordering-flow``
    unordered values (sets, ``listdir``/``glob``, unordered-returning
    calls) must be sorted before order-sensitive iteration or
    byte-identity sinks;
``resource-lifecycle``
    ``SharedMemory``/memmap/pool/file acquisitions released on all paths;
``shared-mutation``
    arrays borrowed from ``adjacency_arrays()``/``attach_shared_graph()``
    are read-only outside ``repro.bigraph``.

Run it with ``python -m repro.analysis src/`` (CI gates on it, with
``--strict-pragmas`` so stale suppressions fail the build); the runtime
companion is ``python -m repro.analysis.sanitize`` (``make sanitize``).
See ``docs/ANALYSIS.md`` for rule details and how to add a rule.
"""

from __future__ import annotations

from repro.analysis.context import ModuleContext, module_name_for_path
from repro.analysis.registry import (
    AnalysisRule,
    all_rules,
    get_rule,
    register,
    rule_names,
)
from repro.analysis.reporters import (
    format_human,
    format_json,
    format_sarif,
    report_to_dict,
    report_to_sarif,
)
from repro.analysis.runner import (
    AnalysisReport,
    analyze_module,
    analyze_program,
    collect_files,
    run_analysis,
    stale_pragma_warnings,
)
from repro.analysis.violations import Violation

__all__ = [
    "AnalysisReport",
    "AnalysisRule",
    "ModuleContext",
    "Violation",
    "all_rules",
    "analyze_module",
    "analyze_program",
    "collect_files",
    "format_human",
    "format_json",
    "format_sarif",
    "get_rule",
    "module_name_for_path",
    "register",
    "report_to_dict",
    "report_to_sarif",
    "rule_names",
    "run_analysis",
    "stale_pragma_warnings",
]
