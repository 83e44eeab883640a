"""Every top-level name of the package is used somewhere besides its definition.

A name counts as used where a `.py` file under src/, tests/ or
perfbench/ loads it (`ast.Name`), reads it as an attribute, or holds it
as a string constant (perfbench/tracing.py patches functions by name).
Definitions and imports are not uses.

A name that a package module other than `__init__.py` imports but never
loads must be one that perfbench/tracing.py patches on that module (a
re-export the tracer reaches through the module), so no linter is needed
to catch an unused import.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sphere_re"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def defined_names(tree: ast.Module) -> set[str]:
    """Top-level def, class and ALL_CAPS assignment names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id))
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_top_level_name_is_used():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in defined_names(ast.parse(path.read_text(), str(path))):
            defined.setdefault(name, []).append(path.name)
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= used_names(ast.parse(path.read_text(), str(path)))
    assert len(defined) > 100  # the scan found the package
    dead = sorted(f"{module}: {name}" for name, modules in defined.items() if name not in used for module in modules)
    assert not dead, dead


def unloaded_imports(tree: ast.Module) -> set[str]:
    """Names a module binds by import but never loads; `from __future__` imports bind nothing."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - loaded


def traced_names() -> set[tuple[str, str]]:
    """(owner, attribute) of every `self.patch(owner, attribute, ...)` in perfbench/tracing.py.

    The owner is a local name or `lib.<module>`; an attribute held in the
    variable of an enclosing `for` over a tuple stands for each of its strings.
    """
    patched = set()

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple):
            loops = {**loops, node.target.id: [elt.value for elt in node.iter.elts]}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "patch":
            owner, attr = node.args[:2]
            owner = owner.id if isinstance(owner, ast.Name) else owner.attr
            attrs = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            patched.update((owner, name) for name in attrs)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()), {})
    return patched


def test_an_unused_import_is_one_that_perfbench_patches():
    # a re-export kept only for perfbench/tracing.py cannot outlive the patch
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused.update((path.stem, name) for name in unloaded_imports(ast.parse(path.read_text(), str(path))))
    patched = traced_names()
    assert ("euler", "g_cyclic") in patched and ("verify", "first_integral_drift") in patched  # the scan found them
    assert unused <= patched, sorted(unused - patched)
    assert unused == {("lagrange", "bisect"), ("verify", "eom_accelerations"), ("verify", "meridian_accelerations")}
