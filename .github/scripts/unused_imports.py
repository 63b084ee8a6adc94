"""Fail on any imported name that its module never uses, and on any
module-level name of the package that nothing reads.

    python .github/scripts/unused_imports.py src/topicmodels/*.py tests/*.py

An imported name counts as used when the module reads it anywhere
(``ast.Name``), or lists it in ``__all__``, as ``__init__.py`` does for the
names it re-exports.  ``from __future__`` imports are left alone.

Every module-level function, class and constant of a file under ``src/``
must be read somewhere in the files given: as a ``Name`` or ``Attribute``
load, an imported name, an ``__all__`` entry or a string constant (a
``getattr`` by name).  Dunder names are exempt.
"""

import ast
import sys
from pathlib import Path


def _all_entries(node) -> list:
    """The string entries of an ``__all__ = [...]`` assignment, else none."""
    if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
        return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each import in ``tree`` whose name is never used."""
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used.update(_all_entries(node))
    return [(line, name) for line, name in imported if name not in used]


def module_names(tree: ast.Module) -> list:
    """(line, name) of each function, class and constant that ``tree``
    defines at module level, dunders left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def reads(tree: ast.Module) -> set:
    """Every name that ``tree`` reads, imports, exports or spells as a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rpartition(".")[2] for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        found.update(_all_entries(node))
    return found


def main(paths: list) -> int:
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as source:
            trees[path] = ast.parse(source.read(), path)
    read = set().union(*map(reads, trees.values()))
    found = [f"{path}:{line}: {name} imported but unused"
             for path, tree in trees.items() for line, name in unused_imports(tree)]
    found += [f"{path}:{line}: {name} defined but never read"
              for path, tree in trees.items() if "src" in Path(path).parts
              for line, name in module_names(tree) if name not in read]
    print(*found, sep="\n", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
