"""Static checks on the package sources: an import that its module never
uses, a public name that nothing but the tests reads, or an exception class
or private helper that no package module reads, fails here, since the test
environment has no linter that would say so."""

import ast
import inspect
from pathlib import Path

import pytest

import skipdiff

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "skipdiff"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

# Exported on purpose although no package module and no benchmark module reads them.
UNREAD_EXPORTS = {
    "x0_posterior_mean",  # the reference that test_duality_with_eps checks eps_oracle against
    "standard_normal_mixture",  # the tests' N(0, I) fixture
}


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


def names_read(source: str) -> set[str]:
    """Names that `source` reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def module_definitions(source: str) -> set[str]:
    """Names of the functions and classes that `source` defines at module level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nfrom os import path, sep\n"
                          "np.zeros(path.sep)\n") == ["line 1: math", "line 3: sep"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_every_export_is_read():
    # a function or class that only the tests reach is surface to delete
    readers = [SRC / module for module in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(names_read(path.read_text()) for path in readers))
    exported = {name for name in skipdiff.__all__
                if inspect.isfunction(getattr(skipdiff, name))
                or inspect.isclass(getattr(skipdiff, name))}
    assert exported - read == UNREAD_EXPORTS


def test_finds_module_definitions():
    source = "class A(B):\n    def _m(self): pass\ndef _f(): pass\nx = 1\n"
    assert module_definitions(source) == {"A", "_f"}


def test_every_error_and_private_definition_is_read():
    # an exception that nothing raises or catches, or a helper that nothing calls, is dead code
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    read = set().union(*(names_read(source) for source in sources))
    defined = module_definitions((SRC / "errors.py").read_text()) | {
        name for source in sources for name in module_definitions(source) if name.startswith("_")}
    assert sorted(defined - read) == []
