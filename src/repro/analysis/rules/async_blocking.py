"""``async-blocking-call``: the serve event loop must never block.

The serving layer's latency budget (docs/SERVE.md, paper §5 cycle
model) assumes the asyncio loop is always free to run callbacks: one
``time.sleep`` or thread join inside a coroutine stalls *every*
session.  This rule finds blocking calls that are CFG-reachable inside
``async def`` bodies:

* known blocking library calls (``time.sleep``, ``subprocess.run`` and
  friends, ``os.system``, ``select.select``);
* blocking methods on objects the rule can trace to a blocking
  constructor — ``queue.Queue().get()``, ``socket`` I/O,
  ``threading.Thread().join()``, ``ProcessWorkerPool`` transport calls,
  the ``close()`` that joins a ``ThreadExecutor`` or ``ProcessExecutor``;
* methods of module-local classes whose bodies the rule has summarized
  as may-block (one level of bottom-up summaries: a class whose
  ``close()`` joins its worker threads makes every async
  ``pool.close()`` a finding).

``queue.Queue`` tracing is capacity-aware: ``put`` on an *unbounded*
queue never blocks and is not flagged; ``get`` always can.  Objects
the rule cannot trace (parameters, attributes assigned dynamically)
are never flagged — the rule under-approximates rather than guess.

Fix pattern: ``await asyncio.to_thread(blocking_fn)`` (or the async
equivalent: ``asyncio.sleep``, ``asyncio.Queue``, stream APIs).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.base import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    import_map,
    qualify,
    register,
)
from repro.analysis.flow import (
    build_cfg,
    iter_expr_calls,
    iter_stmt_expressions,
    scope_statements,
)

#: Fully-qualified calls that block regardless of receiver.
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "subprocess.run": "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.call": "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.check_call":
        "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.check_output":
        "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.Popen": "use `await asyncio.create_subprocess_exec(...)`",
    "os.system": "use `await asyncio.create_subprocess_shell(...)`",
    "os.waitpid": "use asyncio child-watcher APIs",
    "select.select": "use the event loop's own selector",
    "socket.create_connection": "use `asyncio.open_connection(...)`",
}

#: Constructor (qualified) -> traced kind tag.
_CTOR_KINDS: dict[str, str] = {
    "queue.Queue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "queue.SimpleQueue": "simplequeue",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "threading.Thread": "thread",
}

#: Kind tag -> method names that block on such an object.
_KIND_METHODS: dict[str, frozenset[str]] = {
    "queue": frozenset({"get", "join"}),
    "bounded-queue": frozenset({"get", "put", "join"}),
    "simplequeue": frozenset({"get"}),
    "socket": frozenset({
        "recv", "recv_into", "recvfrom", "send", "sendall", "accept",
        "connect",
    }),
    "thread": frozenset({"join"}),
    "pool": frozenset({"submit_batch", "next_message", "close", "join"}),
    "executor": frozenset({"close"}),
}


def _ctor_tags(call: ast.Call, imports: dict[str, str]) -> frozenset[str]:
    """Kind tags for the object a constructor call produces."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return frozenset()
    qualified = qualify(dotted, imports)
    if qualified.endswith("ProcessWorkerPool"):
        return frozenset({"pool"})
    if qualified.endswith(("ThreadExecutor", "ProcessExecutor")):
        return frozenset({"executor"})
    kind = _CTOR_KINDS.get(qualified)
    if kind is None:
        return frozenset()
    if kind == "queue":
        bounded = bool(call.args) or any(
            keyword.arg == "maxsize"
            and not (
                isinstance(keyword.value, ast.Constant)
                and not keyword.value.value
            )
            for keyword in call.keywords
        )
        if call.args:
            first = call.args[0]
            if isinstance(first, ast.Constant) and not first.value:
                bounded = False
        return frozenset({"bounded-queue"}) if bounded else frozenset(
            {"queue"}
        )
    return frozenset({kind})


def _value_tags(
    expr: ast.expr,
    imports: dict[str, str],
    local_classes: frozenset[str],
) -> frozenset[str]:
    """Tags for the value of ``expr`` (constructor calls only)."""
    if not isinstance(expr, ast.Call):
        return frozenset()
    tags = _ctor_tags(expr, imports)
    name = dotted_name(expr.func)
    if name is not None:
        terminal = name.rsplit(".", 1)[-1]
        if terminal in local_classes:
            tags |= frozenset({f"class:{terminal}"})
    return tags


class _ClassEnv:
    """What a class's ``self.*`` attributes are known to hold."""

    def __init__(self) -> None:
        #: attribute -> tags of values assigned to it
        self.attrs: dict[str, set[str]] = {}
        #: attribute -> tags of *elements* stored in it (lists/dicts)
        self.containers: dict[str, set[str]] = {}


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _class_env(
    cls: ast.ClassDef,
    imports: dict[str, str],
    local_classes: frozenset[str],
) -> _ClassEnv:
    env = _ClassEnv()
    methods = [
        item for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Two passes: the second resolves locals through the attributes the
    # first discovered (`thread = Thread(...); self._threads.append(
    # thread)` and `pool = _Backend(...); self._pools[key] = pool`).
    for _ in range(2):
        for method in methods:
            local = _local_tags(method, imports, local_classes, env)

            def resolve(expr: ast.expr) -> frozenset[str]:
                tags = _value_tags(expr, imports, local_classes)
                if tags:
                    return tags
                if isinstance(expr, ast.Name):
                    return frozenset(local.get(expr.id, set()))
                return frozenset()

            for node in scope_statements(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    if isinstance(node, ast.Assign):
                        targets: list[ast.expr] = list(node.targets)
                        value = node.value
                    else:
                        targets = [node.target]
                        value = node.value  # may be None
                    if value is None:
                        continue
                    tags = resolve(value)
                    if not tags:
                        continue
                    for target in targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            env.attrs.setdefault(attr, set()).update(tags)
                        elif isinstance(target, ast.Subscript):
                            base = _self_attr(target.value)
                            if base is not None:
                                env.containers.setdefault(
                                    base, set()
                                ).update(tags)
                elif isinstance(node, ast.Call):
                    # self.X.append(obj) marks X's elements.
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "append"
                        and node.args
                    ):
                        base = _self_attr(func.value)
                        if base is not None:
                            tags = resolve(node.args[0])
                            if tags:
                                env.containers.setdefault(
                                    base, set()
                                ).update(tags)
    return env


def _local_tags(
    scope: ast.FunctionDef | ast.AsyncFunctionDef,
    imports: dict[str, str],
    local_classes: frozenset[str],
    env: _ClassEnv | None,
) -> dict[str, set[str]]:
    """Flow-insensitive tags for names local to ``scope``."""
    tags: dict[str, set[str]] = {}

    def expr_tags(expr: ast.expr) -> frozenset[str]:
        direct = _value_tags(expr, imports, local_classes)
        if direct:
            return direct
        if env is None:
            return frozenset()
        attr = _self_attr(expr)
        if attr is not None:
            return frozenset(env.attrs.get(attr, set()))
        # self.X[k] / self.X.get(k) / self.X.values() element reads
        if isinstance(expr, ast.Subscript):
            base = _self_attr(expr.value)
            if base is not None:
                return frozenset(env.containers.get(base, set()))
        if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Attribute
        ):
            if expr.func.attr in ("get", "values", "pop"):
                base = _self_attr(expr.func.value)
                if base is not None:
                    return frozenset(env.containers.get(base, set()))
        return frozenset()

    for node in scope_statements(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None:
                continue
            found = expr_tags(value)
            if not found:
                continue
            targets = (
                list(node.targets) if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    tags.setdefault(target.id, set()).update(found)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # Iterating a traced container binds element tags.
            iter_expr = node.iter
            found = frozenset()
            if env is not None:
                base = _self_attr(iter_expr)
                if base is None and isinstance(iter_expr, ast.Call):
                    func = iter_expr.func
                    if isinstance(func, ast.Attribute) and func.attr in (
                        "values", "copy",
                    ):
                        base = _self_attr(func.value)
                if base is not None:
                    found = frozenset(env.containers.get(base, set()))
            if found and isinstance(node.target, ast.Name):
                tags.setdefault(node.target.id, set()).update(found)
    return tags


def _receiver_tags(
    receiver: ast.expr,
    local: dict[str, set[str]],
    env: _ClassEnv | None,
) -> frozenset[str]:
    if isinstance(receiver, ast.Name):
        return frozenset(local.get(receiver.id, set()))
    attr = _self_attr(receiver)
    if attr is not None and env is not None:
        return frozenset(env.attrs.get(attr, set()))
    if isinstance(receiver, ast.Subscript) and env is not None:
        base = _self_attr(receiver.value)
        if base is not None:
            return frozenset(env.containers.get(base, set()))
    return frozenset()


def _blocking_reason(
    call: ast.Call,
    imports: dict[str, str],
    local: dict[str, set[str]],
    env: _ClassEnv | None,
    summaries: dict[str, dict[str, bool]],
    own_class: str | None,
) -> str | None:
    """Why this call may block, or None."""
    dotted = dotted_name(call.func)
    if dotted is not None:
        qualified = qualify(dotted, imports)
        remedy = _BLOCKING_CALLS.get(qualified)
        if remedy is not None:
            return f"{qualified}() blocks; {remedy}"
    if not isinstance(call.func, ast.Attribute):
        return None
    method = call.func.attr
    receiver = call.func.value
    if (
        isinstance(receiver, ast.Name)
        and receiver.id == "self"
        and own_class is not None
    ):
        if summaries.get(own_class, {}).get(method):
            return (
                f"self.{method}() may block "
                f"(see {own_class}.{method})"
            )
        return None
    for tag in _receiver_tags(receiver, local, env):
        if tag.startswith("class:"):
            cls = tag[len("class:"):]
            if summaries.get(cls, {}).get(method):
                return f"{cls}.{method}() may block"
        elif method in _KIND_METHODS.get(tag, frozenset()):
            noun = tag.replace("bounded-", "bounded ")
            article = "an" if noun[0] in "aeiou" else "a"
            return f".{method}() on {article} {noun} blocks"
    return None


@register
class AsyncBlockingCallRule(Rule):
    name = "async-blocking-call"
    description = (
        "no blocking call (time.sleep, subprocess, blocking queue/"
        "socket ops, thread joins, ProcessWorkerPool transport, "
        "executor close) may be reachable inside an async def body; "
        "move it off-loop via "
        "await asyncio.to_thread(...)"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        tree = module.tree
        imports = import_map(tree)
        classes = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        local_classes = frozenset(cls.name for cls in classes)
        envs = {
            cls.name: _class_env(cls, imports, local_classes)
            for cls in classes
        }
        summaries = self._summarize(
            classes, envs, imports, local_classes
        )
        owner: dict[int, str] = {}
        for cls in classes:
            for item in cls.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    owner[id(item)] = cls.name
        for func in ast.walk(tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            own_class = owner.get(id(func))
            env = envs.get(own_class) if own_class else None
            local = _local_tags(func, imports, local_classes, env)
            cfg = build_cfg(func)
            reachable = cfg.reachable()
            for call, stmt in _scope_calls(func):
                index = cfg.node_for(stmt)
                if index is None or index not in reachable:
                    continue
                reason = _blocking_reason(
                    call, imports, local, env, summaries, own_class
                )
                if reason is not None:
                    yield self.finding(
                        module,
                        call,
                        f"blocking call on the event loop: {reason}; "
                        f"wrap in `await asyncio.to_thread(...)` or "
                        f"use the async equivalent",
                    )

    def _summarize(
        self,
        classes: list[ast.ClassDef],
        envs: dict[str, _ClassEnv],
        imports: dict[str, str],
        local_classes: frozenset[str],
    ) -> dict[str, dict[str, bool]]:
        """May-block fact per sync method of each module-local class."""
        summaries: dict[str, dict[str, bool]] = {
            cls.name: {
                item.name: False
                for item in cls.body
                if isinstance(item, ast.FunctionDef)
            }
            for cls in classes
        }
        for _ in range(len(classes) + 2):
            changed = False
            for cls in classes:
                env = envs[cls.name]
                for item in cls.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if summaries[cls.name][item.name]:
                        continue
                    local = _local_tags(
                        item, imports, local_classes, env
                    )
                    for call, _stmt in _scope_calls(item):
                        if _blocking_reason(
                            call, imports, local, env, summaries,
                            cls.name,
                        ):
                            summaries[cls.name][item.name] = True
                            changed = True
                            break
            if not changed:
                break
        return summaries


def _scope_calls(
    scope: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.Call, ast.stmt]]:
    """``(call, enclosing_statement)`` for this scope's own calls."""
    for node in scope_statements(scope):
        if not isinstance(node, ast.stmt):
            continue
        for expr in iter_stmt_expressions(node):
            for call in iter_expr_calls(expr):
                yield call, node
