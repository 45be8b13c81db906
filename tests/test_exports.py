"""Every name a module of the package exports is used by the package itself,
and every function the benchmark tracer wraps by name still exists."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "onebit_bounds"

# Exports that nothing in src/ calls, each kept public for a reason.
ALLOWED = {
    "overlap_fixed_points": "lists every root of one overlap equation, to inspect root "
                            "multiplicity; perfbench's tracer wraps it by name",
    "reff_onebit": "the one-point one-bit rate, onebit_rates([alpha], [snr_eff])[0]; tests "
                   "use it to check that a batch gives the bits of one-point solves, and "
                   "perfbench's tracer wraps it by name",
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


def _unused_exports():
    """Exported names that no code in the package reads, leaving out reads in a
    name's own definition and in the definitions of other unused exports."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    aliases = {a.asname: a.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    exported = {name for tree in trees for name in _exports(tree)}
    top_level, by_def = set(), []
    for tree in trees:
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
