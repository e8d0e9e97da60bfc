"""Each module of the package uses every name it imports and reads no
underscore-prefixed name of another package module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hypcert"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by import statements that no other code reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_reads(source: str) -> list:
    """The underscore-prefixed names, as "module.name", that a package
    module imports from or reads off another package module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "hypcert")):
            continue
        if node.module in (None, "hypcert"):
            modules |= {a.asname or a.name for a in node.names}
        else:
            found += [f"{node.module.split('.')[-1]}.{a.name}"
                      for a in node.names if _private(a.name)]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import math\nfrom . import freetree, halfplane\nhalfplane.H2\n"
    assert unused_imports(source) == ["freetree", "math"]


def test_private_read_is_caught():
    source = ("from . import __version__, pingpong, tits\n"
              "from .halfplane import H2, _unit\n"
              "from hypcert import sampled as s\n"
              "tits._finite_order(pingpong.walk_words, s._sq, __version__)\n"
              "self._cache, local._x, pingpong.__name__\n")
    assert private_reads(source) == ["halfplane._unit", "s._sq",
                                     "tits._finite_order"]
