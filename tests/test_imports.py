"""Every module-level import in the package is used by its module, and
names only the standard library, numpy or the package itself.

No linter runs in this project, so this stands in for the unused-import
check: removing the last use of a helper must remove its import too.
`__init__.py` is exempt from it because its imports are the package's
exports.  The second check keeps numpy the only runtime dependency and
keeps test-only modules such as scipy out of the import time of the CLI;
imports inside functions run only when called and are not checked.
"""
import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rieszlab"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def foreign_imports(path):
    """Top-level modules imported outside function bodies, other than the
    standard library, numpy and relative imports."""
    allowed = sys.stdlib_module_names | {"numpy"}
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend(f"{path.name}:{node.lineno} {name}" for name in names
                     if name.split(".")[0] not in allowed)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_imports_are_stdlib_or_numpy(path):
    assert foreign_imports(path) == []


def test_the_import_check_sees_a_foreign_module(tmp_path):
    path = tmp_path / "extra.py"
    path.write_text("import os\nimport numpy.linalg\nfrom . import x\n"
                    "import scipy.stats\n"
                    "try:\n    from jsonschema import validate\n"
                    "except ImportError:\n    pass\n\n\n"
                    "def f():\n    import hypothesis\n")
    assert foreign_imports(path) == ["extra.py:4 scipy.stats",
                                     "extra.py:6 jsonschema"]
