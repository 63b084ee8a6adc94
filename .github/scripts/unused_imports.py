"""Fail on any imported name that its module never uses.

    python .github/scripts/unused_imports.py src/topicmodels/*.py tests/*.py

A name counts as used when the module reads it anywhere (``ast.Name``), or
lists it in ``__all__``, as ``__init__.py`` does for the names it
re-exports.  ``from __future__`` imports are left alone.
"""

import ast
import sys


def unused_imports(path: str) -> list:
    """(line, name) of each import in ``path`` whose name is never used."""
    with open(path, encoding="utf-8") as source:
        tree = ast.parse(source.read(), path)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


def main(paths: list) -> int:
    found = [f"{path}:{line}: {name} imported but unused"
             for path in paths for line, name in unused_imports(path)]
    print(*found, sep="\n", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
