"""``arena-loan-escape``: borrowed slab views must die in their frame.

docs/MEMORY.md's single-owner rule: a view handed out by
``BufferArena.get``/``zeros`` (or received as an ``out=`` parameter)
aliases arena storage that the *caller* will recycle — ``release_all``
at frame end, or simply the next frame's loans.  A view that outlives
the frame (stored on ``self``, captured by a closure, or a *derived*
slice of a borrowed ``out=`` returned to someone who thinks they own
it) dangles: it silently reads the next frame's data.

The rule runs a forward taint analysis over the scope CFG:

* ``<arena-ish>.get/zeros/take(...)`` results are **fresh** loans
  (arena-ish: the receiver's terminal name contains ``arena``, or it
  is a local constructed from ``BufferArena(...)``);
* parameters named ``out`` / ``out_*`` (unannotated or annotated with
  an array type) are whole-slab **aliases**; plain assignment
  propagates the alias, while view operations (``reshape``, ``ravel``,
  ``view``, ``transpose``, ``squeeze``, ``swapaxes``, ``.T``, slicing)
  degrade it to a **borrowed** derived view.  Anything else —
  ``.copy()``, arithmetic, ``np.asarray`` — launders the taint.

Findings:

* storing any loan (fresh, borrowed or alias) to an attribute or into
  an attribute-rooted container — the view outlives the frame;
* returning/yielding a *derived* view of a borrowed ``out=`` slab —
  returning the ``out`` parameter itself or a whole-object alias of
  it (the numpy ``out=`` idiom) and returning a fresh same-frame loan
  (the ``_blocks_dest`` allocator idiom, where caller and loan share
  the frame) are allowed;
* a nested function or lambda capturing a loan-bound name.

Fix pattern: ``.copy()`` what must outlive the frame, or restructure
so the consumer takes its own loan.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import Any

from repro.analysis.base import (
    Finding,
    ModuleContext,
    Rule,
    register,
    terminal_name,
)
from repro.analysis.flow import (
    NORMAL,
    CFGNode,
    ForwardAnalysis,
    build_cfg,
    iter_expr_calls,
    iter_stmt_expressions,
    run_forward,
    scope_statements,
)

FRESH = "fresh"
BORROWED = "borrowed"
#: Whole-object alias of an ``out=`` parameter.  Returning it *is* the
#: numpy ``out=`` convention (the caller gets back the storage it
#: handed in); deriving a view from it degrades to :data:`BORROWED`.
ALIAS = "out-alias"

_LOAN_METHODS = frozenset({"get", "zeros", "take"})
_VIEW_METHODS = frozenset({
    "reshape", "ravel", "view", "transpose", "squeeze", "swapaxes",
})


def _is_arena_receiver(expr: ast.expr, arena_vars: frozenset[str]) -> bool:
    if isinstance(expr, ast.Name) and expr.id in arena_vars:
        return True
    terminal = terminal_name(expr)
    return terminal is not None and "arena" in terminal.lower()


def _is_loan_call(call: ast.Call, arena_vars: frozenset[str]) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _LOAN_METHODS
        and _is_arena_receiver(func.value, arena_vars)
    )


def _arena_vars(scope: ast.AST) -> frozenset[str]:
    names: set[str] = set()
    for node in scope_statements(scope):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and terminal_name(node.value.func) == "BufferArena"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def _taint(
    expr: ast.expr,
    state: dict[str, str],
    arena_vars: frozenset[str],
) -> str | None:
    """The loan taint of ``expr``'s value under ``state``."""
    if isinstance(expr, ast.Name):
        return state.get(expr.id)
    if isinstance(expr, ast.Call):
        if _is_loan_call(expr, arena_vars):
            return FRESH
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
            return _derived(_taint(func.value, state, arena_vars))
        return None
    if isinstance(expr, ast.Attribute):
        if expr.attr == "T":
            return _derived(_taint(expr.value, state, arena_vars))
        return None
    if isinstance(expr, ast.Subscript):
        return _derived(_taint(expr.value, state, arena_vars))
    if isinstance(expr, ast.Starred):
        return _taint(expr.value, state, arena_vars)
    if isinstance(expr, ast.IfExp):
        return _join_taint(
            _taint(expr.body, state, arena_vars),
            _taint(expr.orelse, state, arena_vars),
        )
    if isinstance(expr, (ast.Tuple, ast.List)):
        taint: str | None = None
        for element in expr.elts:
            taint = _join_taint(
                taint, _taint(element, state, arena_vars)
            )
        return taint
    if isinstance(expr, ast.NamedExpr):
        return _taint(expr.value, state, arena_vars)
    return None


def _derived(taint: str | None) -> str | None:
    """A view operation turns a whole-slab alias into a borrowed view."""
    return BORROWED if taint == ALIAS else taint


def _join_taint(left: str | None, right: str | None) -> str | None:
    for taint in (BORROWED, ALIAS, FRESH):
        if taint in (left, right):
            return taint
    return None


class _LoanTaint(ForwardAnalysis):
    """name -> FRESH|BORROWED|ALIAS, propagated along normal edges."""

    edge_kinds = (NORMAL,)

    def __init__(
        self, out_params: frozenset[str], arena_vars: frozenset[str]
    ) -> None:
        self._out_params = out_params
        self._arena_vars = arena_vars

    def initial(self) -> dict[str, str]:
        return {name: ALIAS for name in self._out_params}

    def join(
        self, left: dict[str, str], right: dict[str, str]
    ) -> dict[str, str]:
        merged = dict(left)
        for name, taint in right.items():
            merged[name] = _join_taint(merged.get(name), taint) or taint
        return merged

    def transfer(
        self, node: CFGNode, state: dict[str, str]
    ) -> dict[str, str]:
        stmt = node.stmt
        if stmt is None:
            return state
        updates: list[tuple[ast.expr, str | None]] = []
        if isinstance(stmt, ast.Assign):
            taint = _taint(stmt.value, state, self._arena_vars)
            updates = [(target, taint) for target in stmt.targets]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            updates = [(
                stmt.target,
                _taint(stmt.value, state, self._arena_vars),
            )]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            updates = [
                (item.optional_vars,
                 _taint(item.context_expr, state, self._arena_vars))
                for item in stmt.items
                if item.optional_vars is not None
            ]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            updates = [(stmt.target, None)]  # containers not tracked
        if not updates:
            return state
        new_state = dict(state)
        for target, taint in updates:
            for name in _target_names(target):
                if taint is None:
                    new_state.pop(name, None)
                else:
                    new_state[name] = taint
        return new_state


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _slab_annotation(annotation: ast.expr | None) -> bool:
    """Could this parameter annotation denote an ndarray slab?

    Unannotated parameters are assumed slabs (conservative); annotated
    ones count only when the annotation mentions an array type, so
    ``out_paths: frozenset[str]`` is not mistaken for a loan.
    """
    if annotation is None:
        return True
    text = ast.unparse(annotation)
    return any(
        marker in text
        for marker in ("ndarray", "NDArray", "ArrayLike", "Any")
    )


def _out_params(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> frozenset[str]:
    args = func.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    return frozenset(
        arg.arg for arg in every
        if (arg.arg == "out" or arg.arg.startswith("out_"))
        and _slab_annotation(arg.annotation)
    )


@register
class ArenaLoanEscapeRule(Rule):
    name = "arena-loan-escape"
    description = (
        "a borrowed arena/out= slab view must not escape its frame: no "
        "store to self, no return of a derived view, no closure "
        "capture (docs/MEMORY.md single-owner rule)"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            yield from self._check_function(module, func)

    def _check_function(
        self,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterable[Finding]:
        out_params = _out_params(func)
        arena_vars = _arena_vars(func)
        has_loans = any(
            _is_loan_call(call, arena_vars)
            for node in scope_statements(func)
            if isinstance(node, ast.stmt)
            for expr in iter_stmt_expressions(node)
            for call in iter_expr_calls(expr)
        )
        if not out_params and not has_loans:
            return
        cfg = build_cfg(func)
        analysis = _LoanTaint(out_params, arena_vars)
        states: dict[int, Any] = run_forward(cfg, analysis)

        ever_tainted: dict[str, str] = {}
        for state in states.values():
            for name, taint in state.items():
                ever_tainted[name] = (
                    _join_taint(ever_tainted.get(name), taint) or taint
                )

        for stmt in scope_statements(func):
            if not isinstance(stmt, ast.stmt):
                continue
            index = cfg.node_for(stmt)
            if index is None or index not in states:
                continue
            state: dict[str, str] = states[index]
            yield from self._check_statement(
                module, stmt, state, arena_vars
            )

        yield from self._check_closures(module, func, ever_tainted)

    def _check_statement(
        self,
        module: ModuleContext,
        stmt: ast.stmt,
        state: dict[str, str],
        arena_vars: frozenset[str],
    ) -> Iterable[Finding]:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.Assign):
                targets: list[ast.expr] = list(stmt.targets)
                value = stmt.value
            else:
                targets = [stmt.target]
                value = stmt.value
            if value is None:
                return
            taint = _taint(value, state, arena_vars)
            if taint is None:
                return
            for target in targets:
                store: ast.expr | None = None
                if isinstance(target, ast.Attribute):
                    store = target
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Attribute
                ):
                    store = target
                if store is not None:
                    label = "borrowed" if taint == ALIAS else taint
                    yield self.finding(
                        module,
                        store,
                        f"{label} slab view escapes via attribute "
                        f"store: the view aliases arena storage the "
                        f"frame will recycle — .copy() it or keep it "
                        f"frame-local (docs/MEMORY.md)",
                    )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            yield from self._check_outflow(
                module, stmt.value, state, arena_vars, "returned"
            )
        elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            inner = stmt.value.value
            if inner is not None:
                yield from self._check_outflow(
                    module, inner, state, arena_vars, "yielded"
                )

    def _check_outflow(
        self,
        module: ModuleContext,
        value: ast.expr,
        state: dict[str, str],
        arena_vars: frozenset[str],
        verb: str,
    ) -> Iterable[Finding]:
        # Only *derived* borrowed views are escapes: handing back the
        # out parameter itself (ALIAS) is the numpy convention, and a
        # fresh same-frame loan is the allocator idiom.
        if _taint(value, state, arena_vars) != BORROWED:
            return
        yield self.finding(
            module,
            value,
            f"derived view of a borrowed out= slab is {verb}: the "
            f"caller owns that storage — return the out parameter "
            f"itself, or .copy() the view (docs/MEMORY.md)",
        )

    def _check_closures(
        self,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        ever_tainted: dict[str, str],
    ) -> Iterable[Finding]:
        if not ever_tainted:
            return
        for node in ast.walk(func):
            if node is func or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            bound = self._bound_names(node)
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.id in ever_tainted
                    and inner.id not in bound
                ):
                    taint = ever_tainted[inner.id]
                    label = "borrowed" if taint == ALIAS else taint
                    yield self.finding(
                        module,
                        node,
                        f"{label} slab view "
                        f"{inner.id!r} is captured by a nested "
                        f"function: the closure may outlive the loan "
                        f"— pass a .copy() or restructure "
                        f"(docs/MEMORY.md)",
                    )
                    break

    @staticmethod
    def _bound_names(
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    ) -> frozenset[str]:
        args = node.args
        bound = {
            arg.arg
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
            )
        }
        if args.vararg is not None:
            bound.add(args.vararg.arg)
        if args.kwarg is not None:
            bound.add(args.kwarg.arg)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign):
                for target in inner.targets:
                    bound.update(_target_names(target))
            elif isinstance(
                inner, (ast.AnnAssign, ast.AugAssign, ast.For,
                        ast.AsyncFor)
            ):
                bound.update(_target_names(inner.target))
        return frozenset(bound)
