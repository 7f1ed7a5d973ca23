"""Project-invariant static analysis (the ``repro-das lint`` linter).

A small, stdlib-only AST linter enforcing invariants this repo has been
bitten by before: canonical telemetry names (+ docs-table sync),
telemetry-sink ownership, seeded randomness, and — via the
:mod:`repro.analysis.flow` CFG/dataflow engine — the concurrency
contracts of the serving stack (no blocking calls on the event loop,
no awaits under sync locks, loop-affine telemetry, SharedMemory
lifecycle, arena-loan escape).  See
``docs/ANALYSIS.md`` for the rule catalogue, pragma syntax and how to
add a rule.

Typical entry points::

    repro-das lint src tests benchmarks      # CLI (exit 1 on findings)
    lint_paths([Path("src")], jobs=4)        # library

Importing this package pulls in :mod:`repro.analysis.rules`, which
registers the built-in rules as a side effect.
"""

from __future__ import annotations

from repro.analysis import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.base import (
    Finding,
    ModuleContext,
    PragmaIndex,
    ProjectContext,
    Rule,
    all_rule_classes,
    get_rules,
    import_map,
    qualify,
    register,
)
from repro.analysis.flow import (
    CFG,
    EXCEPTION,
    NORMAL,
    CFGNode,
    ForwardAnalysis,
    build_cfg,
    run_forward,
)
from repro.analysis.report import (
    JSON_REPORT_VERSION,
    render_json_report,
    render_text_report,
)
from repro.analysis.runner import (
    RULE_COVERAGE,
    iter_python_files,
    lint_paths,
)
from repro.analysis.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    render_sarif_report,
)

__all__ = [
    "CFG",
    "CFGNode",
    "EXCEPTION",
    "Finding",
    "ForwardAnalysis",
    "JSON_REPORT_VERSION",
    "ModuleContext",
    "NORMAL",
    "PragmaIndex",
    "ProjectContext",
    "RULE_COVERAGE",
    "Rule",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "all_rule_classes",
    "build_cfg",
    "get_rules",
    "import_map",
    "iter_python_files",
    "lint_paths",
    "qualify",
    "register",
    "render_json_report",
    "render_sarif_report",
    "render_text_report",
    "run_forward",
]
