"""Every top-level name of the package is used somewhere besides its definition.

A name counts as used where a `.py` file under src/, tests/ or
perfbench/ loads it (`ast.Name`), reads it as an attribute, or holds it
as a string constant (perfbench/tracing.py patches functions by name).
Definitions and imports are not uses.
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
