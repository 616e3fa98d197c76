"""Static checks on the package sources: an import that its module never
uses fails here, since the test environment has no linter that would say so."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "skipdiff"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nfrom os import path, sep\n"
                          "np.zeros(path.sep)\n") == ["line 1: math", "line 3: sep"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
