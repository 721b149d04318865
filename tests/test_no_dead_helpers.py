"""Every module-level function in src/ainfty is either used elsewhere in the
package or exported from ainfty/__init__.py, and every dataclass field is
read somewhere, so a helper whose last caller goes away, or a field whose
last reader does, fails the suite instead of lingering."""
from __future__ import annotations

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ainfty"
TESTS = pathlib.Path(__file__).resolve().parent


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    reads = set()
    for path in paths:
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.add(sub.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in reads):
                    unread.append(f"{path.name}:{node.name}.{stmt.target.id}")
    assert unread == []
