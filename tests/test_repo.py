"""Repository hygiene: git tracks no file that .gitignore marks as
generated, no module imports a name it never reads, no module under
``src/`` binds a private module-level name it never reads, every function under
``src/`` is used somewhere, every defaulted parameter of one is passed
somewhere and left out somewhere, every dataclass field under ``src/``
is read somewhere, and every method under ``src/`` is referred to as an
attribute somewhere."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout == ""


def _unused_imports(tree) -> list:
    """(line, name) of each imported name the module never reads.

    A name counts as read when it is loaded, listed in ``__all__``, or
    named in a string annotation.
    """
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if annotation is None:
            continue
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                parsed = ast.parse(c.value, mode="eval")
                read.update(n.id for n in ast.walk(parsed)
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")) + \
            sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for line, name in _unused_imports(tree)]
    assert unused == []


def test_unused_import_check_sees_reads_in_all_and_string_annotations():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e, f, g\n"
        "__all__ = ['e']\n"
        "def h(x: 'f[int]') -> 'list':\n"
        "    return os.sep, d\n"
        "y: 'g' = 1\n")
    assert _unused_imports(tree) == [(3, "b")]


def _unread_private_globals(tree) -> list:
    """(line, name) of each private module-level name the module assigns
    and never loads. Private means one leading underscore and no dunder;
    the names of a tuple target count one by one."""
    bound = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    bound.setdefault(name.id, name.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_module_under_src_binds_a_private_global_it_never_reads():
    unread = [f"{label}:{line}: {name}"
              for label, tree in _parsed("src").items()
              for line, name in _unread_private_globals(tree)]
    assert unread == []


def test_unread_private_global_check_sees_tuple_targets_and_loads():
    tree = ast.parse(
        "_A, _B = 1, 2\n"
        "_C: int = 3\n"
        "_D = 4\n"
        "__all__ = ['x']\n"
        "PUBLIC = 5\n"
        "def f():\n"
        "    _E = 6\n"
        "    return _A, _D\n")
    assert _unread_private_globals(tree) == [(1, "_B"), (2, "_C")]


def _defs_and_refs(tree):
    """(line, name) of each function defined in the module, and the names
    it refers to outside the definitions of those names.

    A name is referred to by a load, an attribute or an equal string
    constant (``getattr`` and ``monkeypatch.setattr`` name methods so).
    """
    defs, refs = [], set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.lineno, node.name))
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return defs, refs


def _unreferenced_functions(sources, users) -> list:
    """(source, line, name) of each function or method defined in
    ``sources`` that no module of ``sources`` or ``users`` refers to
    outside its own definition. ``sources`` and ``users`` map a label to
    a parsed module. Dunder methods are called implicitly and skipped."""
    defs, refs = [], set()
    for label, tree in {**users, **sources}.items():
        found, used = _defs_and_refs(tree)
        refs |= used
        if label in sources:
            defs += [(label, line, name) for line, name in found]
    return sorted((label, line, name) for label, line, name in defs
                  if name not in refs
                  and not (name.startswith("__") and name.endswith("__")))


def _parsed(top: str) -> dict:
    return {str(path.relative_to(ROOT)):
            ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted((ROOT / top).rglob("*.py"))}


def test_every_function_under_src_is_used():
    users = {**_parsed("tests"), **_parsed("perfbench")}
    assert _unreferenced_functions(_parsed("src"), users) == []


def test_unused_function_check_ignores_self_reference_only():
    source = ast.parse(
        "class A:\n"
        "    def __init__(self): self.walk(0)\n"
        "    def walk(self, n): return self.walk(n - 1) if n else 0\n"
        "    def spin(self): return self.spin()\n"
        "    def named(self): pass\n"
        "def helper(): pass\n"
        "def unused():\n"
        "    def inner(): pass\n"
        "    return inner\n")
    user = ast.parse("from m import helper\n"
                     "helper()\n"
                     "setattr(A, 'named', None)\n")
    assert _unreferenced_functions({"m": source}, {"u": user}) == [
        ("m", 4, "spin"), ("m", 7, "unused")]


def _defaulted_params(tree):
    """(line, key, parameter, position) of each parameter of a function in
    the module that has a default. ``key`` is the name a call uses: the
    function's, or its class's for ``__init__``. ``position`` is where a
    call passes the parameter by position, not counting ``self`` or
    ``cls``, or None for a keyword-only parameter."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                key = cls.name if bound and child.name == "__init__" \
                    else child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((child.lineno, key, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((child.lineno, key, arg.arg, None))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _calls(tree):
    """name -> (positional count, keyword names) of each call by that
    name, or None when some call passes ``*`` or ``**`` arguments."""
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name is None or calls.get(name, ()) is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            calls[name] = None
            continue
        calls.setdefault(name, []).append(
            (len(node.args), frozenset(k.arg for k in node.keywords)))
    return calls


def _defaults_by_use(sources, users):
    """(source, line, function, parameter, calls) of each defaulted
    parameter of a function in ``sources``. ``calls`` says, for each call
    in ``sources`` or ``users`` by the function's name, whether it passes
    the parameter, by keyword or by position; it is None when some call
    goes through ``*`` or ``**``, which may pass anything. A call of a
    class is a call of its ``__init__``."""
    calls = {}
    for tree in {**users, **sources}.values():
        for name, found in _calls(tree).items():
            old = calls.get(name, [])
            calls[name] = None if found is None or old is None \
                else old + found
    out = []
    for label, tree in sources.items():
        for line, key, param, position in _defaulted_params(tree):
            made = calls.get(key, [])
            out.append((label, line, key, param, None if made is None else [
                param in names or position is not None and position < count
                for count, names in made]))
    return out


def _unpassed_defaults(sources, users) -> list:
    """(source, line, function, parameter) of each defaulted parameter of
    a function in ``sources`` that no call passes."""
    return sorted((label, line, key, param) for label, line, key, param, passes
                  in _defaults_by_use(sources, users)
                  if passes is not None and not any(passes))


def _unrelied_defaults(sources, users) -> list:
    """(source, line, function, parameter) of each defaulted parameter of
    a function in ``sources`` that every call passes, so that its default
    never applies. A function no call names is left to the check above."""
    return sorted((label, line, key, param) for label, line, key, param, passes
                  in _defaults_by_use(sources, users)
                  if passes and all(passes))


def test_every_defaulted_parameter_under_src_is_passed():
    users = {**_parsed("tests"), **_parsed("perfbench")}
    assert _unpassed_defaults(_parsed("src"), users) == []


def test_unpassed_default_check_counts_positions_stars_and_classes():
    source = ast.parse(
        "class A:\n"
        "    def __init__(self, x, y=1, *, z=2): pass\n"
        "    def m(self, a=0, b=1): pass\n"
        "    @staticmethod\n"
        "    def s(a=0): pass\n"
        "def f(p, q=1, r=2): pass\n"
        "def g(k=0): pass\n"
        "def h(*, w=0): pass\n")
    user = ast.parse("A(0, 5).m(b=2)\n"
                     "A.s(1)\n"
                     "f(1, 2)\n"
                     "g(*args)\n"
                     "h(**opts)\n")
    assert _unpassed_defaults({"m": source}, {"u": user}) == [
        ("m", 2, "A", "z"), ("m", 3, "m", "a"), ("m", 6, "f", "r")]


def test_every_default_under_src_is_relied_on():
    users = {**_parsed("tests"), **_parsed("perfbench")}
    assert _unrelied_defaults(_parsed("src"), users) == []


def test_unrelied_default_check_counts_positions_stars_and_classes():
    source = ast.parse(
        "class A:\n"
        "    def __init__(self, x, y=1): pass\n"
        "    def m(self, a=0, *, b=1): pass\n"
        "def f(p, q=1): pass\n"
        "def g(k=0): pass\n"
        "def h(w=0): pass\n"
        "def unseen(v=0): pass\n")
    user = ast.parse("A(0, 5).m(1, b=2)\n"
                     "A(1, y=2).m(b=3)\n"
                     "f(1)\n"
                     "f(1, 2)\n"
                     "g(1)\n"
                     "g(*args)\n"
                     "h(w=1)\n")
    assert _unrelied_defaults({"m": source}, {"u": user}) == [
        ("m", 2, "A", "y"), ("m", 3, "m", "b"), ("m", 6, "h", "w")]


def _dataclass_fields(tree):
    """(line, class, field) of each field of a ``@dataclass`` class in the
    module. A NamedTuple is not a dataclass: it is read by unpacking."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any((d.id if isinstance(d, ast.Name) else
                    d.attr if isinstance(d, ast.Attribute) else None)
                   == "dataclass" for d in decorators):
            continue
        found += [(item.lineno, node.name, item.target.id)
                  for item in node.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)]
    return found


def _unread_fields(sources, users) -> list:
    """(source, line, class, field) of each dataclass field in ``sources``
    whose name no module of ``sources`` or ``users`` loads as an
    attribute."""
    read = {node.attr for tree in {**users, **sources}.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted((label, line, cls, name)
                  for label, tree in sources.items()
                  for line, cls, name in _dataclass_fields(tree)
                  if name not in read)


def test_every_dataclass_field_under_src_is_read():
    users = {**_parsed("tests"), **_parsed("perfbench")}
    assert _unread_fields(_parsed("src"), users) == []


def test_unread_field_check_counts_loads_of_dataclass_fields_only():
    source = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    stored: int\n"
        "    named: str = 'x'\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    unread: int\n"
        "class C(NamedTuple):\n"
        "    unpacked: int\n")
    user = ast.parse("a = A(1, 2)\n"
                     "a.stored = a.read\n"
                     "print(getattr(a, 'named'))\n"
                     "x, = C(3)\n")
    assert _unread_fields({"m": source}, {"u": user}) == [
        ("m", 6, "A", "stored"), ("m", 7, "A", "named"), ("m", 10, "B", "unread")]


def _unreferenced_methods(sources, users) -> list:
    """(source, line, class, method) of each method defined in a class in
    ``sources`` whose name no module of ``sources`` or ``users`` loads as
    an attribute or names in a string constant (``getattr`` and
    ``monkeypatch.setattr`` name methods so). A method is called through
    an attribute, so a bare name of a function of the same name does not
    count. Dunder methods are called implicitly and skipped."""
    named = set()
    for tree in {**users, **sources}.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return sorted((label, item.lineno, node.name, item.name)
                  for label, tree in sources.items()
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and item.name not in named
                  and not (item.name.startswith("__")
                           and item.name.endswith("__")))


def test_every_method_under_src_is_referenced():
    users = {**_parsed("tests"), **_parsed("perfbench")}
    assert _unreferenced_methods(_parsed("src"), users) == []


def test_unreferenced_method_check_counts_attribute_loads_and_strings():
    source = ast.parse(
        "class A:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def named(self): pass\n"
        "    def bare(self): pass\n"
        "    def unused(self): pass\n"
        "def bare(): pass\n"
        "bare()\n")
    user = ast.parse("setattr(A, 'named', None)\n"
                     "A().unused = None\n")
    assert _unreferenced_methods({"m": source}, {"u": user}) == [
        ("m", 5, "A", "bare"), ("m", 6, "A", "unused")]
