"""Repository hygiene: git tracks no file that .gitignore marks as
generated, and no module imports a name it never reads."""

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
