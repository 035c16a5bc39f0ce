"""Code hygiene: every top-level function and class of the package is named
somewhere besides its own definition, in the Python files of the package
or the benchmark (a name `__init__.py` re-exports is named there), every
method and property of a package class is read as an attribute there,
every attribute the package stores and every name a module of the package
binds at its top level is read there, and every name a module of the
package imports is used in that module. A helper whose last caller is
gone, or that only tests call, data that nothing reads, or an import
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
    # the benchmark's workloads pass it to StratumConfigBD, which stores it
    "StratumConfigBD.kind",
    # the flat basis in the invariants p: the recipe of the pinned
    # flat-basis digests (tests/test_cli.py) and the CI flat-basis pins
    # read it
    "InvariantBasis.polys_in_invariants",
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


def _searched_trees():
    return [ast.parse(p.read_text(), filename=str(p)) for d in SEARCHED
            for p in sorted((ROOT / d).rglob("*.py"))]


def test_no_unread_attributes():
    # an attribute the package stores must be read as an attribute
    # somewhere; the check is by name, whatever object holds it
    read, stored = set(), []
    for tree in _searched_trees():
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    for path in sorted(PACKAGE.glob("*.py")):
        stored.extend((path.name, node.lineno, node.attr)
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store))
    exempt = {member.rsplit(".", 1)[1] for member in EXEMPT_MEMBERS}
    unread = sorted({f"{name}:{line}: {attr}" for name, line, attr in stored
                     if attr not in read and attr not in exempt})
    assert not unread, "stored but never read: " + ", ".join(unread)


def _module_names(tree):
    """The names a module binds by assignment at its top level."""
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)]
    for node in assigns:
        for target in node.targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_no_unread_module_names():
    # a read is a name loaded, an attribute loaded, or a name imported;
    # dunders such as __version__ are read by the language and by tools
    read = set()
    for tree in _searched_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [f"{path.name}:{line}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line, name in _module_names(ast.parse(path.read_text()))
              if name not in read
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unread, "bound but never read: " + ", ".join(unread)


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
