"""``telemetry-names``: record-site literals must exist in the registry.

Every name handed to a telemetry record method (``inc`` / ``set_gauge``
/ ``observe`` / ``span`` / ``timer``) as a string or f-string literal
must resolve to an entry of :data:`repro.telemetry.names.NAMES`, with
the matching kind.  F-string interpolations are normalized to the
``<>`` placeholder, so ``f"detect.scale[{s:.2f}].windows_scanned"``
matches the registered template ``detect.scale[<s>].windows_scanned``.
Partial literals such as ``f"{label}.windows_scanned"`` cannot resolve
— write the full name at the record site so it is greppable and
checkable.

As a project-level pass the rule also verifies that the generated name
table in ``docs/TELEMETRY.md`` matches the registry row for row, making
docs drift a lint failure.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.base import (
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    register,
)
from repro.telemetry import names as telemetry_names

#: Record method name -> the registry kind its first argument must have.
RECORD_METHODS: dict[str, str] = {
    "inc": "counter",
    "set_gauge": "gauge",
    "observe": "histogram",
    "span": "span",
    "timer": "span",
    "record_span": "span",
}


def _literal_templates(expr: ast.expr) -> Iterator[tuple[ast.expr, str]]:
    """Yield ``(node, template)`` for each string literal inside ``expr``.

    F-strings contribute one template with every interpolated field
    replaced by ``<>``; dynamic expressions (names, calls) contribute
    nothing — the rule only vouches for literals it can read.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        yield expr, expr.value
    elif isinstance(expr, ast.JoinedStr):
        parts = []
        for value in expr.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("<>")
        yield expr, "".join(parts)
    elif isinstance(expr, ast.BoolOp):
        for value in expr.values:
            yield from _literal_templates(value)
    elif isinstance(expr, ast.IfExp):
        yield from _literal_templates(expr.body)
        yield from _literal_templates(expr.orelse)


@register
class TelemetryNamesRule(Rule):
    name = "telemetry-names"
    description = (
        "telemetry record-site literals must resolve to the canonical "
        "registry in repro/telemetry/names.py, with the right kind; the "
        "docs/TELEMETRY.md table must match the registry exactly"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        # tests/ is exempted by RULE_COVERAGE in the runner, not here.
        if module.path.name == "names.py":
            # The registry itself mentions names in docstrings/tables.
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            kind = RECORD_METHODS.get(func.attr)
            if kind is None or not node.args:
                continue
            for literal, template in _literal_templates(node.args[0]):
                entry = telemetry_names.lookup(template)
                if entry is None:
                    yield self.finding(
                        module,
                        literal,
                        f"telemetry name {template!r} is not in the "
                        f"canonical registry "
                        f"(src/repro/telemetry/names.py); register it "
                        f"or write the full literal name at the record "
                        f"site",
                    )
                elif entry.kind != kind:
                    yield self.finding(
                        module,
                        literal,
                        f"telemetry name {template!r} is registered as "
                        f"a {entry.kind} but recorded here via "
                        f".{func.attr}() which records a {kind}",
                    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        docs = project.root / "docs" / "TELEMETRY.md"
        if not docs.is_file():
            return
        try:
            text = docs.read_text(encoding="utf-8")
        except OSError as exc:  # pragma: no cover - unreadable docs file
            yield Finding(
                path=str(docs),
                line=1,
                col=1,
                rule=self.name,
                message=f"could not read telemetry docs: {exc}",
            )
            return
        for problem in telemetry_names.docs_table_problems(text):
            yield Finding(
                path="docs/TELEMETRY.md",
                line=1,
                col=1,
                rule=self.name,
                message=problem,
            )
