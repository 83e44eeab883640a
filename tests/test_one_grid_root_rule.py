"""The grid-root rule has one owner, `roots.grid_roots`, and polynomial roots another, `roots.poly_roots`.

A scan turns a signed grid into roots one way: a bracket is a strict
sign change between neighbouring columns, and every bracket is bisected
by `bisect_many` from its proven left sign.  No module under src/ other
than roots.py may call `bisect_many` or multiply the neighbouring
columns X[..., :-1] and X[..., 1:] of one array, so a further scan
cannot grow its own rule.  Likewise no other module may call `eigvals`
or `np.roots`: the roots of a row polynomial come from one companion
solve, whose rule for a real root is stated once.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sphere_re"


def _last_slice(node: ast.AST):
    """(the array and its leading indices, (lower, upper)) of X[..., lower:upper] with constant bounds, else None."""
    if not isinstance(node, ast.Subscript):
        return None
    *lead, sl = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    if not isinstance(sl, ast.Slice) or sl.step is not None:
        return None
    try:
        bounds = tuple(None if b is None else ast.literal_eval(b) for b in (sl.lower, sl.upper))
    except ValueError:  # a bound that is not a constant
        return None
    return ast.dump(node.value) + "".join(map(ast.dump, lead)), bounds


def neighbour_column_products(tree: ast.AST) -> list[int]:
    """Lines that multiply X[..., :-1] by X[..., 1:] of one array X."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            pair = [_last_slice(node.left), _last_slice(node.right)]
            if None not in pair and pair[0][0] == pair[1][0] and {pair[0][1], pair[1][1]} == {(None, -1), (1, None)}:
                lines.append(node.lineno)
    return lines


def bisect_many_calls(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "bisect_many":
                lines.append(node.lineno)
    return lines


def polynomial_root_calls(tree: ast.AST) -> list[int]:
    """Lines that call `eigvals` (by any path) or `roots` on numpy (np.roots, numpy.roots)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            value = func.value if isinstance(func, ast.Attribute) else None
            if name == "eigvals" or (name == "roots" and isinstance(value, ast.Name) and value.id in ("np", "numpy")):
                lines.append(node.lineno)
    return lines


def test_the_polynomial_root_finder_sees_every_form():
    for src in ("np.linalg.eigvals(c)", "numpy.linalg.eigvals(c)", "eigvals(c)", "la.eigvals(c)", "np.roots(p)"):
        assert polynomial_root_calls(ast.parse(src)), src
    # the symmetric eigensolvers and the package's own `roots` module are not polynomial roots
    assert not polynomial_root_calls(ast.parse("np.linalg.eigh(a) + np.linalg.eigvalsh(a) + roots.bisect(f, 0, 1)"))


def test_only_roots_takes_polynomial_roots():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = polynomial_root_calls(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = sorted(lines)
    assert list(found) == ["roots.py"], found


def test_the_rule_finder_sees_both_forms_of_the_rule():
    for src in ("sign[:, :-1] * sign[:, 1:] < 0.0", "s[1:] * s[:-1] < 0", "roots.bisect_many(f, lo, hi, p)"):
        tree = ast.parse(src)
        assert neighbour_column_products(tree) or bisect_many_calls(tree), src
    # other slices and two different arrays are not the rule
    other = "a[:, :-1] * b[:, 1:] + a[:, :-2] * a[:, 2:] + a[0, :-1] * a[1, 1:]"
    assert not neighbour_column_products(ast.parse(other))


def test_only_roots_brackets_and_bisects_a_signed_grid():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = neighbour_column_products(tree) + bisect_many_calls(tree)
        if lines:
            found[path.name] = sorted(lines)
    assert "roots.py" in found  # the finder sees the owner
    assert list(found) == ["roots.py"], found
