"""Collect files, parse them, run the rules, gather findings."""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.analysis.base import (
    Finding,
    ModuleContext,
    PragmaIndex,
    ProjectContext,
    Rule,
    get_rules,
)

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".venv", "venv", "build", "dist",
    ".mypy_cache", ".ruff_cache", ".pytest_cache",
})

#: Per-directory rule subsets: the first path component of a module's
#: root-relative display path maps to the rules *excluded* there.
#: Directories not listed run every rule (the ``src/`` posture).
#:
#: ``tests/`` opt-outs: tests legitimately draw unseeded randomness
#: (hypothesis owns their determinism) and record throwaway telemetry
#: names against scratch registries.  The flow/concurrency rules *do*
#: run there — a test that blocks the loop or steals a segment is as
#: broken as production code.  ``benchmarks/`` additionally keeps
#: ``unseeded-randomness`` off per the same src-only policy even
#: though current benchmarks are fully seeded.
RULE_COVERAGE: dict[str, frozenset[str]] = {
    "src": frozenset(),
    "tests": frozenset({
        "unseeded-randomness",
        "telemetry-names",
        "telemetry-ownership",
    }),
    "benchmarks": frozenset({
        "unseeded-randomness",
        "telemetry-names",
        "telemetry-ownership",
    }),
}


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: set[Path] = set()
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                p for p in path.rglob("*.py")
                if not _SKIP_DIRS & set(p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _display_path(path: Path, root: Path) -> str:
    try:
        return str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(path)


def load_module(path: Path, root: Path) -> "ModuleContext | Finding":
    """Parse one file; a synthetic finding when it cannot be parsed."""
    display = _display_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(
            path=display, line=1, col=1, rule="parse-error",
            message=f"could not read file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=display, line=exc.lineno or 1,
            col=(exc.offset or 1), rule="parse-error",
            message=f"syntax error: {exc.msg}",
        )
    return ModuleContext(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        pragmas=PragmaIndex.from_source(source),
    )


def _excluded_rules(display_path: str) -> frozenset[str]:
    head = Path(display_path).parts[:1]
    if not head:
        return frozenset()
    return RULE_COVERAGE.get(head[0], frozenset())


def _check_one(
    rules: Sequence[Rule], loaded: ModuleContext
) -> list[Finding]:
    """Per-module rule pass, honoring pragmas and the coverage table."""
    excluded = _excluded_rules(loaded.display_path)
    findings: list[Finding] = []
    for rule in rules:
        if rule.name in excluded:
            continue
        for finding in rule.check_module(loaded):
            if loaded.pragmas.suppresses(finding.rule, finding.line):
                continue
            findings.append(finding)
    return findings


#: Set by the pool initializer in each --jobs worker process.
_WORKER_STATE: "dict[str, object]" = {}


def _worker_init(rule_names: "list[str] | None", root: str) -> None:
    # Under spawn start methods the registry is empty until the rules
    # package import runs its registration side effect.
    import repro.analysis  # noqa: F401

    _WORKER_STATE["rules"] = get_rules(rule_names)
    _WORKER_STATE["root"] = Path(root)


def _worker_lint(path_str: str) -> list[Finding]:
    rules = _WORKER_STATE["rules"]
    root = _WORKER_STATE["root"]
    assert isinstance(rules, tuple) and isinstance(root, Path)
    loaded = load_module(Path(path_str), root)
    if isinstance(loaded, Finding):
        return [loaded]
    return _check_one(rules, loaded)


def lint_paths(
    paths: Sequence[Path],
    *,
    rules: "Sequence[Rule] | None" = None,
    rule_names: "Sequence[str] | None" = None,
    root: "Path | None" = None,
    jobs: int = 1,
) -> list[Finding]:
    """Run the selected rules over ``paths`` and return sorted findings.

    ``root`` anchors display paths and project-level checks (the
    telemetry docs table is looked up at ``root/docs/TELEMETRY.md``);
    it defaults to the current working directory, which is the repo
    root for every documented invocation.

    Per-module findings honor ``# repro-lint: disable=...`` pragmas and
    the :data:`RULE_COVERAGE` table (which applies even to explicitly
    selected rules — ``--rules unseeded-randomness tests/`` reports
    nothing, by design); project-level findings (cross-file invariants)
    and parse errors honor neither, since they have no meaningful
    source line to carry a pragma.

    ``jobs > 1`` fans the per-file pass out over that many worker
    processes (rules re-instantiate per worker from ``rule_names`` or
    the full registry).  Project-level checks then run in the parent
    with an *empty* ``modules`` tuple — fine for every built-in rule
    (the only project check reads ``docs/TELEMETRY.md`` from ``root``),
    and documented in docs/ANALYSIS.md for future cross-file rules.
    """
    if rules is not None and rule_names is not None:
        raise ValueError("pass rules or rule_names, not both")
    if rule_names is not None:
        rule_objs = get_rules(rule_names)
    else:
        rule_objs = tuple(rules) if rules is not None else get_rules()
    lint_root = (root or Path.cwd()).resolve()
    files = iter_python_files(paths)
    findings: list[Finding] = []
    modules: list[ModuleContext] = []

    if jobs > 1 and len(files) > 1:
        import multiprocessing

        names = (
            list(rule_names) if rule_names is not None
            else [rule.name for rule in rule_objs]
        )
        context = multiprocessing.get_context()
        with context.Pool(
            processes=min(jobs, len(files)),
            initializer=_worker_init,
            initargs=(names, str(lint_root)),
        ) as pool:
            for batch in pool.map(
                _worker_lint, [str(path) for path in files]
            ):
                findings.extend(batch)
    else:
        for path in files:
            loaded = load_module(path, lint_root)
            if isinstance(loaded, Finding):
                findings.append(loaded)
                continue
            modules.append(loaded)
            findings.extend(_check_one(rule_objs, loaded))

    project = ProjectContext(root=lint_root, modules=tuple(modules))
    for rule in rule_objs:
        findings.extend(rule.check_project(project))
    return sorted(findings)
