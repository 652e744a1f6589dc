"""R7 — public-API surface honesty.

Two layers, each historically easy to break:

1. **Static (always runs):** ``src/repro/__init__.py`` is parsed with
   ``ast`` — every name in ``__all__`` must be bound somewhere in the
   module (an import, def, class or assignment), and the unified-solver
   contract names (``solve``, ``EngineSpec``, ``AllocationSession``,
   the registry functions) must appear in ``__all__``.
2. **Dynamic (runs when importable):** every committed ``specs/*.json``
   must survive the ``EngineSpec`` JSON round-trip unchanged — grid
   specs are compiled through their config block first, exactly the
   path the grid runner takes.  This layer is skipped when ``repro``
   cannot be imported from ``<root>/src`` (e.g. linting a scratch tree
   while a different checkout's ``repro`` is loaded), so the linter
   itself never needs numpy.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

from tools.lint.base import RepoContext, Rule
from tools.lint.rules import register_rule

#: Unified-solver names that must stay in repro.__all__ (ARCHITECTURE §9).
API_CONTRACT = (
    "solve",
    "EngineSpec",
    "AllocationSession",
    "AlgorithmDef",
    "register_algorithm",
    "unregister_algorithm",
    "algorithm_names",
    "get_algorithm",
)


def _bound_names(tree: ast.Module) -> set[str]:
    """Every name the module binds, at any nesting (try/except branches too)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _all_entries(tree: ast.Module):
    """``(lineno, [names])`` for every ``__all__`` assignment/extension."""
    for node in ast.walk(tree):
        values = None
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            values = node.value
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
        ):
            values = node.value
        if values is not None and isinstance(values, (ast.List, ast.Tuple)):
            names = [
                elt.value
                for elt in values.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            yield node.lineno, names


def check_static(root: Path) -> list[tuple[str, int, str]]:
    """AST-level ``__all__`` checks; ``(rel_path, line, message)`` failures."""
    init = root / "src" / "repro" / "__init__.py"
    if not init.is_file():
        return []
    rel = init.relative_to(root).as_posix()
    try:
        tree = ast.parse(init.read_text())
    except SyntaxError as exc:
        return [(rel, exc.lineno or 1, f"cannot parse: {exc.msg}")]
    failures: list[tuple[str, int, str]] = []
    entries = list(_all_entries(tree))
    if not entries:
        return [(rel, 1, "no __all__ export list found")]
    bound = _bound_names(tree)
    advertised: list[str] = []
    for lineno, names in entries:
        advertised.extend(names)
        for name in names:
            if name not in bound:
                failures.append(
                    (rel, lineno, f"__all__ advertises unbound name {name!r}")
                )
    for name in API_CONTRACT:
        if name not in advertised:
            failures.append(
                (
                    rel,
                    entries[0][0],
                    f"unified-API name {name!r} missing from __all__",
                )
            )
    return failures


def check_spec_round_trips(root: Path) -> tuple[list[tuple[str, int, str]], int]:
    """Dynamic spec round-trip checks; skipped when repro is not importable.

    Returns ``(failures, specs_checked)``; ``specs_checked`` is -1 when
    the dynamic layer was skipped.
    """
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return [], -1
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro
    except Exception:
        return [], -1
    # A different checkout's repro being loaded must not validate this
    # root's specs against the wrong code.
    if Path(repro.__file__).resolve().parents[1] != (root / "src").resolve():
        return [], -1
    try:
        from repro.api.spec import EngineSpec
        from repro.experiments.grid import GridSpec
    except Exception as exc:
        return [
            (
                "src/repro",
                1,
                f"unified-API modules not importable from this tree — {exc}",
            )
        ], 0

    failures: list[tuple[str, int, str]] = []
    spec_files = sorted((root / "specs").glob("*.json"))
    if not spec_files:
        return [
            ("specs", 1, "specs/ holds no JSON files (committed specs deleted?)")
        ], 0
    for path in spec_files:
        rel = path.relative_to(root).as_posix()
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append((rel, 1, f"unreadable JSON — {exc}"))
            continue
        try:
            if isinstance(data, dict) and "datasets" in data:
                grid = GridSpec.from_dict(data)
                # opt_lower needs a dataset at run time; any valid bound
                # exercises the same round-trip machinery.
                engine = grid.experiment_config().engine_spec(opt_lower=1.0)
            else:
                engine = EngineSpec.from_dict(data)
        except Exception as exc:
            failures.append((rel, 1, f"does not compile to an EngineSpec — {exc}"))
            continue
        encoded = json.loads(json.dumps(engine.to_dict()))
        if EngineSpec.from_dict(encoded) != engine:
            failures.append((rel, 1, "EngineSpec JSON round-trip is not the identity"))
    return failures, len(spec_files)


@register_rule
class PublicApiRule(Rule):
    id = "R7"
    name = "public-api"
    description = (
        "repro.__all__ must be honest, the unified-solver names exported, "
        "and committed specs must round-trip through EngineSpec"
    )
    scope = "repo"

    def check_repo(self, ctx: RepoContext):
        for rel, lineno, message in check_static(ctx.root):
            yield self.repo_finding(rel, lineno, message)
        failures, _ = check_spec_round_trips(ctx.root)
        for rel, lineno, message in failures:
            yield self.repo_finding(rel, lineno, message)
