"""No module of the package, ``tests/`` or ``tools/`` keeps a module-level import
that it never reads, and no package module a top-level function or class that
nothing names.

No linter is installed, so this walks each module's syntax tree: every name
that a top-level ``import`` binds must appear as a name somewhere else in the
module.  The package's ``__init__.py`` is exempt, as its imports are the
package's public names.  Every top-level function and class of the package,
and every public method and property of its classes, must be read as a name
or an attribute somewhere in the package, ``tests/`` or ``perfbench/``.
"""

import ast
import pathlib

import pytest

import fevec

PACKAGE = pathlib.Path(fevec.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parents[1]

# Imported for other code to find: perfbench checks that bench's alias of
# assemble_thermal is wrapped along with the original.
ALLOWED = {("bench.py", "assemble_thermal")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


# The package's modules by file name, then those of tests/ and tools/ by folder and name.
SOURCES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
SOURCES.update({f"{folder}/{p.name}": p for folder in ("tests", "tools")
                for p in (REPO / folder).glob("*.py")})


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_module_imports(module):
    unused = unused_imports(SOURCES[module].read_text(encoding="utf-8"))
    assert [name for name in unused if (module, name) not in ALLOWED] == []


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


def definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class of ``tree``, and of
    each public method and property of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unreferenced(modules: dict[str, str], others: list[str]) -> list[tuple[str, str]]:
    """(module, qualified name) of each definition of ``modules`` (file name -> source)
    that no name or attribute in ``modules`` or ``others`` (sources) reads."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in [*trees.values(), *map(ast.parse, others)] for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted((module, qualified) for module, tree in trees.items()
                  for qualified, name in definitions(tree) if name not in read)


def test_every_definition_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    others = [p.read_text(encoding="utf-8") for folder in ("tests", "perfbench")
              for p in sorted((REPO / folder).rglob("*.py"))]
    assert unreferenced(modules, others) == []


def test_finds_an_unreferenced_definition():
    module = ("def used():\n    pass\n\ndef orphan():\n    used()\n\n"
              "class Kept:\n    def run(self):\n        pass\n\n"
              "    def idle(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        pass\n\n"
              "    def _helper(self):\n        pass\n")
    assert unreferenced({"m.py": module}, ["import m\nm.Kept().run()\n"]) == [
        ("m.py", "Kept.idle"), ("m.py", "Kept.size"), ("m.py", "orphan")]
