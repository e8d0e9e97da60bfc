"""Each module of the package and of its tests uses every name it
imports, each package module reads no underscore-prefixed name of
another package module, every public function, class and method is
named by the package or the benchmark, every field of a package
dataclass is read by them, the pipeline modules test no space's type
or attributes beyond a kept few, and the commands start without
mpmath."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypcert"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public names that only tests reach, each kept for what it serves
KEPT = {
    "to_json": "SampledSpace.to_json writes the fixtures and criterion 14",
}

# dataclass fields, or whole dataclasses, that no package or benchmark
# code reads as an attribute, each kept for what it serves
KEPT_FIELDS = {
    "GapReport": "the margulis report emits its fields through vars()",
    "HyperbolicityEstimate": "the delta report emits its fields by vars()",
    "FreeCertificate": "the certify report emits its fields but violations",
    "FreeCertificate.violations": "tests read the overlapping points",
}

# the pipeline modules, which reach a model only through its interface
PIPELINE = ("isometry", "pingpong", "tits", "bounds")
# the type or attribute tests of a space that they still make, as
# "function: call", each kept for what it serves
SPACE_PROBES = {
    "word_oracle: hasattr(space, 'compose_level')":
        "the tree walks no words: it decides a pair by whether they commute",
}


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


def unreferenced(package: list, others: list = ()) -> list:
    """The public top-level functions and classes, and public methods of
    top-level classes, of the package sources that no source names
    other than by defining them.  A dotted string such as
    "FreeTreeSpace.dist" names each of its parts."""
    trees = [ast.parse(s) for s in list(package) + list(others)]
    defined = set()
    for tree in trees[:len(package)]:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined |= {n.name for n in node.body
                            if isinstance(n, ast.FunctionDef)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    named = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            named.update(node.value.split("."))
    return sorted(n for n in defined - named if not n.startswith("_"))


def _dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def unread_fields(package: list, others: list = ()) -> list:
    """"Class.field" for each annotated field of a top-level dataclass of
    the package sources that no source reads as an attribute."""
    trees = [ast.parse(s) for s in list(package) + list(others)]
    fields = [f"{node.name}.{item.target.id}"
              for tree in trees[:len(package)] for node in tree.body
              if isinstance(node, ast.ClassDef) and _dataclass(node)
              for item in node.body if isinstance(item, ast.AnnAssign)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted(f for f in fields if f.split(".")[1] not in read)


def space_probes(source: str) -> list:
    """"function: call" for each hasattr or isinstance call whose first
    argument is a name ``space``, by the function that makes it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        found += [f"{fn.name}: {ast.unparse(node)}"
                  for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in ("hasattr",
                                                         "isinstance")
                  and node.args and getattr(node.args[0], "id", None)
                  == "space"]
    return sorted(set(found))


def test_pipeline_probes_no_model_but_the_kept_ones():
    """A pipeline module asks the model through its interface: a new
    type or attribute test of a space fails, and a kept one that goes
    leaves SPACE_PROBES."""
    found = [probe for name in PIPELINE
             for probe in space_probes((SRC / f"{name}.py").read_text())]
    assert sorted(found) == sorted(SPACE_PROBES)


def test_space_probe_is_caught():
    source = ("def walk(space, gs):\n"
              "    if hasattr(space, 'compose_batch'):\n"
              "        return isinstance(space, Tree) or hasattr(gs, 'x')\n"
              "def keyed(space, p):\n"
              "    return isinstance(p, complex)\n")
    assert space_probes(source) == [
        "walk: hasattr(space, 'compose_batch')",
        "walk: isinstance(space, Tree)"]


def test_every_public_name_is_referenced():
    """A name that only tests reach is deleted or listed in KEPT; a KEPT
    name that the package comes to use leaves the list."""
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced([p.read_text() for p in MODULES], bench) == \
        sorted(KEPT)


def test_every_record_field_is_read():
    """A field that only tests reach is deleted or listed in
    KEPT_FIELDS, by itself or with its class; an entry that the package
    comes to read leaves the list."""
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = unread_fields([p.read_text() for p in MODULES], bench)
    assert {f if f in KEPT_FIELDS else f.split(".")[0] for f in unread} == \
        set(KEPT_FIELDS)


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text()) == []


def test_the_commands_import_no_mpmath():
    """mpmath serves only isometry.orbit_translation_length, which no
    command calls, so it is imported there and not at startup; nor is
    graphspace, which builds metric tables for the benchmark and tests,
    nor numpy.random, which only the sampled delta draws from and whose
    first import costs about 6 MB of resident memory."""
    probe = ("import sys, hypcert.cli; print([m for m in "
             "('mpmath', 'hypcert.graphspace', 'numpy.random') "
             "if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_unused_import_is_caught():
    source = "import math\nfrom . import freetree, halfplane\nhalfplane.H2\n"
    assert unused_imports(source) == ["freetree", "math"]


def test_unreferenced_function_is_caught():
    source = ("import math\n"
              "def used():\n    return math.pi\n"
              "def planted():\n    return used()\n"
              "class Shape:\n"
              "    def area(self):\n        return 0\n"
              "    def _hidden(self):\n        return 1\n"
              "def _private():\n    return 2\n")
    assert unreferenced([source]) == ["Shape", "area", "planted"]
    assert unreferenced([source], ["Shape.area\n", "x = 'planted'\n"]) == []


def test_unread_field_is_caught():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class Record:\n"
              "    kept: int\n"
              "    planted: int = 0\n"
              "    stored: list = field(default_factory=list)\n"
              "@dataclass\n"
              "class Other:\n"
              "    kept: int\n"
              "class Plain:\n"
              "    ignored: int\n"
              "def use(r):\n"
              "    r.stored = [r.kept]\n")
    assert unread_fields([source]) == ["Record.planted", "Record.stored"]
    assert unread_fields([source], ["x.planted\n"]) == ["Record.stored"]


def test_private_read_is_caught():
    source = ("from . import __version__, pingpong, tits\n"
              "from .halfplane import H2, _unit\n"
              "from hypcert import sampled as s\n"
              "tits._finite_order(pingpong.walk_words, s._sq, __version__)\n"
              "self._cache, local._x, pingpong.__name__\n")
    assert private_reads(source) == ["halfplane._unit", "s._sq",
                                     "tits._finite_order"]
