"""The package's public names: the names `__init__` imports, `__all__` and
what `from platecell import *` binds are one list."""

import ast
from pathlib import Path

import platecell


def test_all_is_sorted_and_equals_the_imports():
    tree = ast.parse(Path(platecell.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert platecell.__all__ == sorted(set(platecell.__all__))
    assert sorted(imported) == platecell.__all__
    namespace = {}
    exec("from platecell import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == platecell.__all__
