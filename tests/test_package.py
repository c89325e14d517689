"""The package's public names: the names `__init__` imports, `__all__` and
what `from platecell import *` binds are one list.  The runtime imports
nothing but the standard library and numpy."""

import ast
import sys
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


# (module, name) pairs imported on purpose without being read: recovery
# binds solve_corrector so that the benchmark can hook its calls there
UNREAD_IMPORTS = {("recovery", "solve_corrector")}


def test_modules_read_every_name_they_import():
    # __init__ imports to re-export its __all__, which the test above checks
    unread = set()
    for path in sorted(Path(platecell.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread |= {(path.stem, name) for name in imported - read}
    assert unread == UNREAD_IMPORTS


def test_runtime_imports_only_the_stdlib_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = set()
    for path in sorted(Path(platecell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign |= {(path.stem, name) for name in names
                        if name.partition(".")[0] not in allowed}
    assert foreign == set()
