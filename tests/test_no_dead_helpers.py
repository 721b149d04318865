"""Every module-level function in src/ainfty is either used elsewhere in the
package or exported from ainfty/__init__.py, so a helper whose last caller
goes away fails the suite instead of lingering."""
from __future__ import annotations

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ainfty"


def _references(node: ast.AST) -> Counter:
    """Names read under node, as bare names or as attributes."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_every_module_function_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    package_refs: Counter = Counter()
    for tree in trees.values():
        package_refs += _references(tree)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a function's references to itself (recursion) do not count
            outside = package_refs[node.name] - _references(node)[node.name]
            if outside == 0 and node.name not in exported:
                dead.append(f"{module}:{node.name}")
    assert dead == []
