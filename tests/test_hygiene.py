"""Code hygiene: every top-level function and class of the package is named
somewhere besides its own definition, in the Python files of the package
or the benchmark (a name `__init__.py` re-exports is named there), every
method and property of a package class is read as an attribute there,
and every name a module of the package imports is used in that module. A
helper whose last caller is gone, or that only tests call, or an import
whose last use is gone, fails here."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "saitostrata"
SEARCHED = ("src", "benchmark")


def _top_level_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def test_no_unreferenced_top_level_definitions():
    words = Counter(w for d in SEARCHED
                    for p in sorted((ROOT / d).rglob("*.py"))
                    for w in re.findall(r"[A-Za-z_]\w*", p.read_text()))
    # the definition itself is one occurrence
    unused = [f"{path.name}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _top_level_names(path) if words[name] < 2]
    assert not unused, "defined but never named: " + ", ".join(unused)


# members kept without a reader in the package or the benchmark
EXEMPT_MEMBERS = {
    # the README documents it, a CI step calls it, and the Weyl-orbit
    # transport of `verify` that the ROADMAP plans would call it
    "RootSystem.apply_word",
}


def test_no_unreferenced_methods():
    # attribute reads, not words: a docstring naming a method is no caller.
    # Dunders are called by the language itself, and tests do not count.
    attributes = Counter(node.attr for d in SEARCHED
                         for p in sorted((ROOT / d).rglob("*.py"))
                         for node in ast.walk(ast.parse(p.read_text()))
                         if isinstance(node, ast.Attribute))
    unused = [f"{path.name}: {cls.name}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls in ast.parse(path.read_text()).body
              if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))
              and not attributes[node.name]
              and f"{cls.name}.{node.name}" not in EXEMPT_MEMBERS]
    assert not unused, "defined but never read: " + ", ".join(unused)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(path)]
    assert not unused, "imported but never used: " + ", ".join(unused)
