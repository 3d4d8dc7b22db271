"""Source hygiene: no module of the package or of the test suite imports a
name it never uses, and the package defines no private function, method or
class that it never refers to.  The package's `__init__.py` is left out of
the import check, since its imports are the public re-exports."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "ltmplan", "*.py")))
SOURCES = sorted(
    [p for p in PACKAGE if os.path.basename(p) != "__init__.py"]
    + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def unused_imports(source: str):
    """(line, name) of every imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n") \
        == [(1, "os")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def unused_private_defs(sources: dict):
    """(file, line, name) of every private (_name, not __dunder__) function,
    method or class defined in the {file: source} modules whose name no
    expression of any of them reads, as a name or as an attribute."""
    defined, used = [], set()
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((path, node.lineno, node.name))
    return [d for d in defined if d[2] not in used]


def test_scan_finds_unused_private_defs():
    sources = {"a.py": "def _a(): pass\ndef _b(): pass\nclass _C:\n"
                       "    def _m(self): pass\n    def __init__(self): _b()\n",
               "b.py": "from a import _C\n_C()._n()\nclass D:\n    def _n(self): pass\n"}
    assert unused_private_defs(sources) == [("a.py", 1, "_a"), ("a.py", 4, "_m")]


def test_no_unused_private_defs():
    sources = {}
    for path in PACKAGE:
        with open(path) as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    assert unused_private_defs(sources) == []


def imported_modules(source: str):
    """Every module an import statement of `source` names."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


def test_scipy_optimize_stays_behind_lp():
    """Only `lp` imports from scipy.optimize: the HiGHS solver object it
    drives is private to scipy, so one module holds every use of it.
    linprog is the tests' reference and appears nowhere else."""
    for path in PACKAGE:
        with open(path) as fh:
            modules = imported_modules(fh.read())
        if os.path.basename(path) != "lp.py":
            assert not {m for m in modules if m.split(".")[:2] == ["scipy", "optimize"]}, path
    others = [p for p in glob.glob(os.path.join(ROOT, "**", "*.py"), recursive=True)
              if os.path.relpath(p, ROOT).split(os.sep)[0] != "tests"]
    assert os.path.join(ROOT, "src", "ltmplan", "lp.py") in others
    for path in others:
        with open(path) as fh:
            assert "linprog" not in fh.read(), path
