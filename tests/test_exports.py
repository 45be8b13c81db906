"""Every name a module of the package exports is used by the package itself,
every defaulted parameter of an exported function is passed by some call in
the package (a default that only tests override is a test-only switch), and
every function the benchmark tracer wraps by name still exists."""

import ast
import importlib
import math
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "onebit_bounds"

# Exports that nothing in src/ calls, each kept public for a reason.
ALLOWED = {
    "overlap_fixed_points": "lists every root of one overlap equation, to inspect root "
                            "multiplicity; perfbench's tracer wraps it by name",
    "exp_ratio": "the pointwise ratio exp(-x^2)/Q(x) behind mean_exp_ratio; perfbench's "
                 "tracer wraps it by name",
    "q_log_q": "the pointwise Q(x) ln Q(x) behind mean_q_log_q; perfbench's tracer wraps "
               "it by name",
    "d1": "the paper's named d-pipeline, d1 to d4",
    "d4": "the paper's named d-pipeline, d1 to d4",
}


def _exports(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def _loads(node, aliases):
    """Names read under ``node``, as plain names or attributes; an import
    alias counts as the name it imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield aliases.get(sub.id, sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _parsed():
    """The package's module trees by module name, and its import aliases,
    alias -> name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    aliases = {a.asname: a.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    return trees, aliases


def _unused_exports():
    """Exported names that no code in the package reads, leaving out reads in a
    name's own definition and in the definitions of other unused exports."""
    trees, aliases = _parsed()
    exported = {name for tree in trees.values() for name in _exports(tree)}
    top_level, by_def = set(), []
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                by_def.append((stmt.name, set(_loads(stmt, aliases)) - {stmt.name}))
            else:
                top_level.update(_loads(stmt, aliases))
    unused = set()
    while True:
        used = top_level.union(*(loads for name, loads in by_def if name not in unused))
        now = exported - used
        if now == unused:
            return unused
        unused = now


def test_every_export_is_used_in_src():
    assert sorted(_unused_exports() - ALLOWED.keys()) == []


def test_allowlist_names_only_unused_exports():
    assert sorted(ALLOWED.keys() - _unused_exports()) == []


def _unpassed_defaults():
    """``module.function.parameter`` for each defaulted parameter of an
    exported function that no call in the package passes, by keyword or by
    position; a ``*`` argument counts as passing every positional parameter,
    a ``**`` argument as passing every parameter."""
    trees, aliases = _parsed()
    calls = {}  # callee name -> [(positional count, keyword names)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = aliases.get(func.id, func.id) if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if star else len(node.args),
                     {k.arg for k in node.keywords}))
    unpassed = []
    for module, tree in trees.items():
        exported = set(_exports(tree))
        for stmt in tree.body:
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name in exported):
                continue
            args = stmt.args
            positional = args.posonlyargs + args.args
            defaulted = [(a.arg, i) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for param, position in defaulted:
                if not any(position < n or param in kw or None in kw
                           for n, kw in calls.get(stmt.name, [])):
                    unpassed.append(f"{module}.{stmt.name}.{param}")
    return unpassed


def test_every_default_is_overridden_in_src():
    assert _unpassed_defaults() == []



def _tracer_tables():
    """perfbench's SPANS and LEAVES by name, each a tuple of ``(module,
    attribute, span name)``, read from its source without importing it."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return {t.id: ast.literal_eval(stmt.value) for stmt in tree.body
            if isinstance(stmt, ast.Assign) for t in stmt.targets
            if isinstance(t, ast.Name) and t.id in ("SPANS", "LEAVES")}


def test_tracer_names_resolve_to_callables():
    # the tracer looks each name up with getattr only in a traced run, so a
    # deleted or renamed function would otherwise fail only there
    tables = _tracer_tables()
    assert sorted(tables) == ["LEAVES", "SPANS"]
    for module, attr, _ in tables["SPANS"] + tables["LEAVES"]:
        owner = importlib.import_module(f"onebit_bounds.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{attr}"
