"""R4 — worker-payload safety: only module-level callables cross processes.

``multiprocessing`` entry points and process-pool executors receive
their payload by pickling (spawn) or rely on it existing identically in
every child (fork).  Lambdas don't pickle, closures capture parent-only
state, and bound methods drag their whole instance across the boundary
— all three have bitten fork-pools before and silently break under the
spawn start method.  This rule flags them at the submission site:
``Process(target=...)`` and pool ``submit``/``apply_async``/``map``-family
calls.  It cannot tell a thread executor from a process one, so thread
submissions follow the same rule.
"""

from __future__ import annotations

import ast

from tools.lint.base import FileContext, ImportMap, Rule, dotted_name
from tools.lint.rules import register_rule

#: Pool/executor methods whose first positional (or func=) argument is a
#: callable shipped to another process.
SUBMIT_ATTRS = frozenset(
    {
        "submit",
        "apply",
        "apply_async",
        "map_async",
        "starmap",
        "starmap_async",
        "imap",
        "imap_unordered",
    }
)


def _nested_function_names(tree: ast.AST) -> dict[ast.AST, set[str]]:
    """For every function node, names of functions (or lambdas) defined inside."""
    out: dict[ast.AST, set[str]] = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = set()
            for sub in ast.walk(fn):
                if sub is not fn and isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(sub.name)
                elif isinstance(sub, ast.Assign) and isinstance(
                    sub.value, ast.Lambda
                ):
                    nested.update(
                        t.id for t in sub.targets if isinstance(t, ast.Name)
                    )
            out[fn] = nested
    return out


@register_rule
class WorkerPayloadRule(Rule):
    id = "R4"
    name = "worker-payload"
    description = (
        "no lambdas, closures, or bound methods as multiprocessing / "
        "worker-pool payloads — only module-level callables pickle and "
        "exist identically in children"
    )

    def check_file(self, ctx: FileContext):
        imports = ImportMap(ctx.tree)
        nested_by_fn = _nested_function_names(ctx.tree)
        # Map each call to its innermost enclosing function, for closure checks.
        enclosing: dict[ast.AST, ast.AST] = {}

        def fill(scope, current):
            for child in ast.iter_child_nodes(scope):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fill(child, child)
                else:
                    if isinstance(child, ast.Call):
                        enclosing[child] = current
                    fill(child, current)

        fill(ctx.tree, None)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            payloads = self._payloads(node)
            for payload in payloads:
                problem = self._classify(payload, imports, enclosing.get(node), nested_by_fn)
                if problem is not None:
                    yield self.finding(ctx, payload, (
                        f"{problem} passed as a worker payload — only "
                        "module-level callables survive pickling/spawn; "
                        "hoist it to module scope"
                    ))

    def _payloads(self, call: ast.Call) -> list[ast.expr]:
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        name = dotted_name(func) or ""
        payloads: list[ast.expr] = []
        if attr == "Process" or name.endswith(".Process") or name == "Process":
            payloads.extend(
                kw.value for kw in call.keywords if kw.arg == "target"
            )
        elif attr in SUBMIT_ATTRS:
            if call.args:
                payloads.append(call.args[0])
            payloads.extend(kw.value for kw in call.keywords if kw.arg == "func")
        return payloads

    def _classify(self, payload, imports: ImportMap, fn, nested_by_fn) -> str | None:
        if isinstance(payload, ast.Lambda):
            return "lambda"
        if isinstance(payload, ast.Call):
            # functools.partial(lambda ...) / partial over a nested def.
            inner = [payload.func] + list(payload.args)
            for sub in inner:
                verdict = self._classify(sub, imports, fn, nested_by_fn)
                if verdict is not None:
                    return verdict
            return None
        if isinstance(payload, ast.Attribute):
            root = payload.value
            if isinstance(root, ast.Name) and root.id == "self":
                return f"bound method self.{payload.attr}"
            # module.func canonicalizes through the imports; anything else
            # is an attribute of a runtime object — a bound method.
            if imports.canonical(payload) is None:
                return f"bound method {dotted_name(payload) or payload.attr!r}"
            return None
        if isinstance(payload, ast.Name) and fn is not None:
            if payload.id in nested_by_fn.get(fn, ()):
                return f"closure {payload.id!r} (defined in the enclosing function)"
        return None
