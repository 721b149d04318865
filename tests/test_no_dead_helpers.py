"""Every module-level function in src/ainfty is used elsewhere in the
package outside ainfty/__init__.py, or is exported from ainfty/__init__.py
and named by the benchmark under perfbench/ or by the README; a use in the
tests alone does not keep it.  Every method or property of a class is read
as an attribute of that class in the package or the benchmark, named by
the benchmark or the README, or overrides a base class's method.  Every
dataclass field is read
somewhere, every parameter is read by its function and every parameter with
a default is passed by some call, so a helper whose last caller goes away, a
field whose last reader does, an argument nothing reads or an option no
caller sets fails the suite instead of lingering.  No nested function calls
itself, so no call leaves a reference cycle behind.  Only the constructors
of the component families normalize components.  No test module and no
package module but __init__.py imports a name it never reads."""
from __future__ import annotations

import ast
import importlib
import pathlib
import re
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ainfty"
TESTS = pathlib.Path(__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def _references(node: ast.AST) -> Counter:
    """Names read under node, as bare names or as attributes."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _called_name(call: ast.Call):
    """The name a call goes through, bare or as an attribute; None for
    anything else (a call of a call's result, a subscript)."""
    func = call.func
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def _dead_functions(trees: dict, named: set) -> list:
    """module:function for every module-level function in trees (file name
    to module tree) that no module other than __init__.py uses, unless
    __init__.py exports it and it is in named."""
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    package_refs: Counter = Counter()
    for module, tree in trees.items():
        if module != "__init__.py":
            package_refs += _references(tree)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a function's references to itself (recursion) do not count
            outside = package_refs[node.name] - _references(node)[node.name]
            if outside == 0 and not (node.name in exported and node.name in named):
                dead.append(f"{module}:{node.name}")
    return dead


def _named_by_benchmark_or_readme() -> set:
    """Every word of the benchmark's modules and the README, and every
    qualified pair of words (`Class.method`) in them."""
    named = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]:
        text = path.read_text()
        named.update(re.findall(r"\w+", text))
        named.update(re.findall(r"(?=\b(\w+\.\w+))", text))
    return named


def test_every_module_function_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    # an export counts as used when the benchmark or the README names it
    assert _dead_functions(trees, _named_by_benchmark_or_readme()) == []


def test_dead_function_check_needs_an_export_to_be_named():
    # a function that nothing calls stays dead when the benchmark names it
    # but the package does not export it (_write, caller), and so does an
    # export that nothing names (lonely_api)
    trees = {"__init__.py": ast.parse("from .m import named_api, lonely_api"),
             "m.py": ast.parse("def _write(): pass\n"
                               "def named_api(): pass\n"
                               "def lonely_api(): pass\n"
                               "def used(): pass\n"
                               "def caller(): used()\n")}
    named = set(re.findall(r"\w+", "def _write(path, text): named_api(caller)"))
    assert _dead_functions(trees, named) == ["m.py:_write", "m.py:lonely_api",
                                             "m.py:caller"]


def _annotated_class(ann, classes: dict):
    """The package class an annotation names, plain, quoted, qualified by a
    module (`fields.Field`) or under Optional; None for anything else."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", None) == "Optional":
        ann = ann.slice
    name = (ann.id if isinstance(ann, ast.Name) else
            ann.attr if isinstance(ann, ast.Attribute) else None)
    return name if name in classes else None


class _Types:
    """The package class of an expression where annotations state it: a
    class name, self or cls in a method, an annotated parameter or local, a
    local assigned once from a typed expression, a typed receiver's
    annotated field, property or method, and a call of a module-level
    package function with an annotated return."""

    def __init__(self, trees: dict):
        self.classes = {c.name: c for tree in trees.values() for c in tree.body
                        if isinstance(c, ast.ClassDef)}
        self.bases = {name: [b.id for b in c.bases
                             if isinstance(b, ast.Name) and b.id in self.classes]
                      for name, c in self.classes.items()}
        self.members = {}
        for name, c in self.classes.items():
            for node in c.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    self.members[(name, node.target.id)] = self.of_annotation(
                        node.annotation)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.members[(name, node.name)] = self.of_annotation(node.returns)
        self.functions = {node.name: self.of_annotation(node.returns)
                          for tree in trees.values() for node in tree.body
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def of_annotation(self, ann):
        return _annotated_class(ann, self.classes)

    def mro(self, name: str) -> list:
        out = [name]
        for base in self.bases[name]:
            out += self.mro(base)
        return out

    def member(self, cls: str, attr: str):
        for name in self.mro(cls):
            if (name, attr) in self.members:
                return self.members[(name, attr)]
        return None

    def of(self, expr, env: dict):
        if isinstance(expr, ast.Name):
            return expr.id if expr.id in self.classes else env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            cls = self.of(expr.value, env)
            if cls:
                return self.member(cls, expr.attr)
            # a class through its module, as in core.AInftyCategory
            return expr.attr if expr.attr in self.classes else None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes else self.functions.get(func.id)
            if isinstance(func, ast.Attribute):
                cls = self.of(func.value, env)
                return (self.member(cls, func.attr) if cls
                        else self.functions.get(func.attr))
        return None

    def env(self, fn, cls) -> dict:
        """Local name -> package class in function fn (a method of cls)."""
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        env = {a.arg: self.of_annotation(a.annotation) for a in params}
        if cls in self.classes and params and params[0].arg in ("self", "cls"):
            env[params[0].arg] = cls
        stores: Counter = Counter()
        values = {}
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                stores[sub.id] += 1
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                env[sub.target.id] = self.of_annotation(sub.annotation)
            elif (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)):
                values[sub.targets[0].id] = sub.value
        env = {k: v for k, v in env.items() if v is not None}
        for _ in range(3):   # a local typed from another local
            for name, value in values.items():
                if name not in env and stores[name] == 1:
                    typed = self.of(value, env)
                    if typed:
                        env[name] = typed
        return env

    def reads(self, tree):
        """(attribute, receiver class or None, enclosing method or
        module-level function or None) for every attribute in tree."""
        for node in tree.body:
            cls = node.name if isinstance(node, ast.ClassDef) else None
            for member in node.body if cls else [node]:
                fn = (member if isinstance(member, (ast.FunctionDef,
                                                    ast.AsyncFunctionDef))
                      else None)
                env = self.env(fn, cls) if fn else {}
                for sub in ast.walk(member):
                    if isinstance(sub, ast.Attribute):
                        yield sub.attr, self.of(sub.value, env), fn


def _dead_methods(trees: dict, named: set, overrides: set, readers=None,
                  untyped_owners=None) -> list:
    """module:Class.method for every method or property of a module-level
    class in trees (file name to module tree) that nothing reads as an
    attribute outside its own body, unless named holds it or it overrides
    a base class's method ((module, class, method) in overrides).  Dunder
    methods are called by the interpreter and pass.

    A read counts for a class's method by owner: where _Types knows the
    receiver's class, only when the method is in that class's MRO.  A read
    whose receiver is untyped counts for every class defining the name,
    unless more than one package class does: such an ambiguous name is
    read untyped only through the classes untyped_owners lists for it.  A
    name read untyped and not listed, or listed and not read untyped, is
    reported as `?name`.  `readers` (file name to tree, the benchmark's
    modules) read like the package.  Named means a `Class.method` word in
    named, or, for a name only one package class defines, the bare word."""
    types = _Types(trees)
    untyped_owners = untyped_owners or {}
    owners: dict = {}
    for cls in types.classes.values():
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("__")):
                owners.setdefault(node.name, set()).add(cls.name)
    ambiguous = {name for name, classes in owners.items() if len(classes) > 1}
    reads = [read for tree in [*trees.values(), *(readers or {}).values()]
             for read in types.reads(tree)]
    untyped = {attr for attr, cls, _ in reads if cls is None and attr in ambiguous}
    unlisted = sorted({f"?{name}" for name in untyped ^ set(untyped_owners)})
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("__")
                        or f"{cls.name}.{node.name}" in named
                        or (node.name in named and node.name not in ambiguous)
                        or (module, cls.name, node.name) in overrides):
                    continue
                if not any(
                        attr == node.name and fn is not node
                        and (cls.name in types.mro(receiver) if receiver else
                             node.name not in ambiguous
                             or cls.name in untyped_owners.get(node.name, ()))
                        for attr, receiver, fn in reads):
                    dead.append(f"{module}:{cls.name}.{node.name}")
    return unlisted + dead


def _overrides(trees: dict) -> set:
    """(module, class, method) for every method that a base class of its
    class, imported from the package, also defines."""
    out = set()
    for module, tree in trees.items():
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            mod = importlib.import_module(f"ainfty.{module[:-3]}")
            bases = getattr(mod, cls.name).__mro__[1:]
            out.update((module, cls.name, node.name) for node in cls.body
                       if isinstance(node, ast.FunctionDef)
                       and any(hasattr(base, node.name) for base in bases))
    return out


# ambiguous method name -> the classes whose method an untyped read of it
# (a receiver no annotation types) may reach in the package or the benchmark
UNTYPED_OWNERS = {
    # a component family given as either kind
    "component": {"FormalMorphism", "Prenatural"},
    "out_pair": {"FormalMorphism", "Prenatural"},
    "shift": {"FormalMorphism", "Prenatural"},
    "validate": {"FormalMorphism", "Prenatural"},
    # SplitData.retract through a loop variable
    "compose": {"GradedMap"},
    # hom spaces, and an H0Category passed unannotated
    "dim": {"GradedSpace", "H0Category"},
    # a field passed unannotated (fld.is_zero)
    "is_zero": {"Field"},
    # the benchmark's own class gen.DG.build
    "build": set(),
}


def test_every_method_is_used_named_or_an_override():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    readers = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert _dead_methods(trees, _named_by_benchmark_or_readme(),
                         _overrides(trees), readers, UNTYPED_OWNERS) == []


def test_dead_method_check():
    # lonely reads only itself and nothing reads lonely_property; used is
    # read by caller, named is named by the benchmark, error overrides a
    # base method and __init__ is a dunder
    trees = {"m.py": ast.parse(
        "class A(Base):\n"
        "    def __init__(self): self.x = 1\n"
        "    def lonely(self): return self.lonely()\n"
        "    @property\n"
        "    def lonely_property(self): return 1\n"
        "    def used(self): pass\n"
        "    def named(self): pass\n"
        "    def error(self): pass\n"
        "def caller(a): a.used()\n")}
    assert _dead_methods(trees, {"named"}, {("m.py", "A", "error")}) == [
        "m.py:A.lonely", "m.py:A.lonely_property"]


def test_dead_method_check_matches_by_owner():
    # Z.is_zero and Y.is_zero share a name: a read through a typed receiver
    # (an annotated parameter, a local built by a constructor, a typed
    # field, a function's annotated return) counts for its class only, so
    # Z.is_zero, read nowhere by type, is dead although Y.is_zero is read;
    # an untyped read of the ambiguous name counts only for the classes
    # listed for it, and is reported when the name is not listed; a bare
    # word names only a name no other class defines (W.scale), a
    # qualified word any (Y.size)
    source = (
        "class Y:\n"
        "    def is_zero(self): pass\n"
        "    def size(self): pass\n"
        "    def scale(self): pass\n"
        "class Z:\n"
        "    y: Y\n"
        "    def is_zero(self): pass\n"
        "    def size(self): pass\n"
        "    def make(self) -> 'Y': return Y()\n"
        "class W:\n"
        "    def scale(self): pass\n"
        "    def only(self): pass\n"
        "def typed(z: Z) -> Y: return z.y.is_zero() or z.make().is_zero()\n"
        "def built():\n"
        "    y = typed(Z())\n"
        "    return y.is_zero() and Z().make()\n"
        "def untyped(v): return v.is_zero() or v.only()\n")
    trees = {"m.py": ast.parse(source)}
    named = {"Y.size", "scale"}
    assert _dead_methods(trees, named, set(), None, {"is_zero": {"Y"}}) == [
        "m.py:Y.scale", "m.py:Z.is_zero", "m.py:Z.size", "m.py:W.scale"]
    assert _dead_methods(trees, named, set())[0] == "?is_zero"
    assert "m.py:Z.is_zero" not in _dead_methods(
        trees, named, set(), None, {"is_zero": {"Y", "Z"}})


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


def _defaulted_parameters(tree: ast.AST):
    """(callee name, parameter, positional index or None) for every
    parameter with a default; a method's index skips self/cls, and __init__
    is called by its class's name."""
    out = []
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    methods = {id(f): c for c in classes for f in c.body
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(node))
        name = cls.name if cls and node.name == "__init__" else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if cls and not static else 0
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            out.append((name, arg.arg, i - skip))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None))
    return out


def test_every_defaulted_parameter_is_passed():
    # an option no caller passes is dead code behind a default; calls are
    # matched by name alone, so functions sharing a name share their calls
    callers = (sorted(PACKAGE.parent.glob("**/*.py")) + sorted(TESTS.glob("*.py"))
               + sorted((PACKAGE.parent.parent / "perfbench").glob("*.py")))
    keywords: dict = {}
    widest: Counter = Counter()
    for path in callers:
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(sub, ast.Call):
                continue
            name = _called_name(sub)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in sub.args)
            widest[name] = max(widest[name],
                               float("inf") if starred else len(sub.args))
            keywords.setdefault(name, set()).update(
                kw.arg or "**" for kw in sub.keywords)
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, param, index in _defaulted_parameters(tree):
            passed = keywords.get(name, set())
            if param in passed or "**" in passed:
                continue
            if index is not None and widest[name] > index:
                continue
            unpassed.append(f"{path.name}:{name}({param})")
    assert unpassed == []


def _functions(tree: ast.AST):
    """(qualified name, node, nested) for every function under tree, methods
    qualified by their class; nested says it is defined inside a function."""
    todo = [(tree, "", False)]
    while todo:
        node, prefix, nested = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child, nested
                todo.append((child, f"{prefix}{child.name}.", True))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}{child.name}.", nested))
            else:
                todo.append((child, prefix, nested))


def _package_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, nested in _functions(ast.parse(path.read_text(), str(path))):
            yield f"{path.name}:{name}", node, nested


def _names_read(nodes) -> set:
    return {sub.id for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def test_no_self_referencing_closures():
    # a nested function that calls itself holds its own closure cell: every
    # call of the enclosing function leaves a reference cycle that only the
    # cyclic garbage collector frees, so peak memory follows its schedule
    recursive = [name for name, node, nested in _package_functions()
                 if nested and node.name in _names_read(node.body)]
    assert recursive == []


def test_components_normalize_only_at_construction():
    # the constructors of FormalMorphism and Prenatural own the sparse
    # invariant, so no other code re-establishes it
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = {}
        for name, node, _ in _functions(tree):
            # an enclosing function comes first, so the innermost one wins
            for sub in ast.walk(node):
                where[id(sub)] = name
        for sub in ast.walk(tree):
            if (isinstance(sub, ast.Call)
                    and _called_name(sub) == "normalize_components"):
                sites.append(f"{path.name}:{where.get(id(sub), '<module>')}")
    assert sorted(sites) == ["quiver.py:FormalMorphism.__post_init__",
                             "quiver.py:Prenatural.__post_init__"]


def test_every_parameter_is_read():
    unread = []
    for name, node, _ in _package_functions():
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        reads = _names_read(node.body)
        unread += [f"{name}({p})" for p in params
                   if p not in ("self", "cls") and p not in reads]
    assert unread == []


def _unread_imports(tree: ast.Module) -> list:
    """Names a module's top-level imports bind and nothing in it reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    reads = _names_read([tree])
    return [name for name in bound if name not in reads]


def test_no_test_module_imports_a_name_it_never_reads():
    # the package's __init__.py imports only to re-export
    paths = sorted(TESTS.glob("*.py")) + [
        path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unread = [f"{path.name}:{name}" for path in paths
              for name in _unread_imports(ast.parse(path.read_text(), str(path)))]
    assert unread == []
