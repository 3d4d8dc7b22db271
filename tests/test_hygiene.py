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


def imported_names(source: str):
    """Every module an import statement of `source` names, and every name
    a from-import takes out of one, dotted onto its module."""
    names = imported_modules(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module + "." + a.name for a in node.names)
    return names


def test_scipy_sparse_stays_behind_graph():
    """Only `graph` imports from scipy.sparse: the adjacency layout that the
    cascade multiplies with is its own, built from the tail/head arrays
    every other module passes."""
    def sparse(source):
        return any(name.split(".")[:2] == ["scipy", "sparse"]
                   for name in imported_names(source))
    for text in ("import scipy.sparse as sp", "from scipy import sparse",
                 "from scipy.sparse import csr_matrix"):
        assert sparse(text), text
    assert not sparse("from scipy import special\nimport scipy")
    for path in PACKAGE:
        with open(path) as fh:
            found = sparse(fh.read())
        assert found == (os.path.basename(path) == "graph.py"), path


def imports_scipy_special(source: str) -> bool:
    """Whether an import statement of `source` names scipy.special or
    something inside it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module + "." + a.name for a in node.names]
        else:
            continue
        if any(name.split(".")[:2] == ["scipy", "special"] for name in names):
            return True
    return False


def test_scipy_special_stays_behind_meanfield():
    """Only `meanfield` imports from scipy.special: it holds both
    binomial-tail kernels and the rule that picks one, so no other module
    evaluates a tail by itself."""
    for text in ("from scipy import special as sc", "import scipy.special",
                 "from scipy.special import betainc"):
        assert imports_scipy_special(text), text
    assert not imports_scipy_special("import scipy.sparse as sp\nfrom scipy import stats")
    for path in PACKAGE:
        with open(path) as fh:
            found = imports_scipy_special(fh.read())
        assert found == (os.path.basename(path) == "meanfield.py"), path


def test_no_threads_in_package():
    """No module of the package imports `threading` or `concurrent.futures`:
    its work is Python calls and numpy kernels under the interpreter lock,
    where threads cost memory and gain no time."""
    assert imported_modules("from concurrent import futures\nimport threading") \
        == {"concurrent", "threading"}
    for path in PACKAGE:
        with open(path) as fh:
            modules = imported_modules(fh.read())
        assert not {m for m in modules if m.split(".")[0] in ("concurrent", "threading")}, path


def refers_to(source: str, name: str) -> bool:
    """Whether `source` imports `name` or reads it, as a name or as an
    attribute."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            return True
    return False


def test_cascade_stays_in_graph():
    """No module of the package but `graph` refers to `ltm_trajectory`: the
    cascade from all-zeros is `graph.cascade_fractions`, and everything
    else reads its fractions.  `__init__.py` only re-exports the name."""
    for text in ("from .graph import ltm_trajectory", "graph.ltm_trajectory(g)",
                 "ltm_trajectory(g)"):
        assert refers_to(text, "ltm_trajectory"), text
    assert not refers_to("from .graph import cascade_fractions", "ltm_trajectory")
    for path in PACKAGE:
        with open(path) as fh:
            found = refers_to(fh.read(), "ltm_trajectory")
        if os.path.basename(path) != "__init__.py":
            assert found == (os.path.basename(path) == "graph.py"), path


def private_references(source: str, modules):
    """Sorted (line, module, name) of every private name (_name, not
    __dunder__) that `source` takes from one of the package `modules`,
    as `module._name` or by `from .module import _name`."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    bound, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level:
            if module.split(".")[0] != "ltmplan":
                continue
            module = module[len("ltmplan."):]
        if not module:
            bound.update((a.asname or a.name, a.name) for a in node.names
                         if a.name in modules)
        elif module in modules:
            found += [(node.lineno, module, a.name) for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and private(node.attr)):
            found.append((node.lineno, bound[node.value.id], node.attr))
    return sorted(found)


def test_scan_finds_private_references():
    source = ("from . import lp, meanfield as mf\n"
              "from .graph import _a, b, __version__\n"
              "from ltmplan.sampler import _Pairing\n"
              "from numpy import _core\n"
              "mf._tail(lp.solve, lp._highs, mf.__name__, x._y, mf.lift)\n")
    assert private_references(source, {"lp", "meanfield", "graph", "sampler"}) == [
        (2, "graph", "_a"), (3, "sampler", "_Pairing"), (5, "lp", "_highs"),
        (5, "meanfield", "_tail")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_private_names_across_modules(path):
    """A package module uses only the public names of the others: a
    private name, such as the tail kernels of `meanfield`, may change
    with its own module alone."""
    own = os.path.splitext(os.path.basename(path))[0]
    others = {os.path.splitext(os.path.basename(p))[0] for p in PACKAGE} - {own}
    with open(path) as fh:
        assert private_references(fh.read(), others) == []


def scopes_where(source: str, match):
    """The dotted scopes (Class.method, function, or "" for the module) that
    hold a node of `source` for which match(node) is true."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if match(child):
                users.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return users


def name_users(source: str, name: str):
    """The scopes in which `source` reads or binds `name` as a plain name."""
    return scopes_where(source, lambda node: isinstance(node, ast.Name) and node.id == name)


def test_scan_finds_name_users():
    source = ("def f():\n    g()\nclass C:\n    def m(self):\n"
              "        return [g(x) for x in h]\n    def n(self):\n        h.g()\n"
              "k = g\n")
    assert name_users(source, "g") == {"f", "C.m", ""}


def test_one_tail_table_builder():
    """`meanfield._Curves` is the only builder of a tail table: the one
    caller of `_distinct_pairs`, and with `binom_tail` the only caller of
    `_tail_params`, which checks the pairs a table is evaluated at."""
    with open(os.path.join(ROOT, "src", "ltmplan", "meanfield.py")) as fh:
        source = fh.read()
    assert name_users(source, "_distinct_pairs") == {"_Curves.__init__"}
    assert name_users(source, "_tail_params") == {"_Curves.__init__", "binom_tail"}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def looped_calls(source: str, name: str):
    """The scopes in which `source` calls `name` inside a for or while loop
    or a comprehension."""
    def calls(node):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == name for n in ast.walk(node))
    return scopes_where(source, lambda node: isinstance(node, LOOPS) and calls(node))


def test_scan_finds_looped_calls():
    source = ("def a(xs):\n    for x in xs:\n        if x:\n            f(x)\n"
              "def b(xs):\n    return [f(x) for x in xs]\n"
              "def c(x):\n    while x:\n        x = g(f)\n"
              "def d(xs):\n    return sum(f(x) for x in xs)\n"
              "def e(x):\n    y = f(x)\n    for z in y:\n        g(z)\n")
    assert looped_calls(source, "f") == {"a", "b", "d"}
    assert name_users(source, "f") == {"a", "b", "c", "d", "e"}


def test_one_rounding_rule():
    """`sampler._largest_remainder` is the one rounding of masses to whole
    nodes: only sampled networks and realized plans call it, for every
    type at once, and not from a loop."""
    with open(os.path.join(ROOT, "src", "ltmplan", "sampler.py")) as fh:
        source = fh.read()
    assert name_users(source, "_largest_remainder") == {
        "sample_configuration_model", "realize_intervention"}
    assert looped_calls(source, "_largest_remainder") == set()


def catches(source: str, name: str):
    """Lines of the except clauses of `source` that catch `name`, alone or
    in a tuple, as a plain name or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(k, ast.Name) and k.id == name
                   or isinstance(k, ast.Attribute) and k.attr == name for k in kinds):
                lines.append(node.lineno)
    return lines


def test_scan_finds_caught_exceptions():
    source = ("try:\n    f()\nexcept (ValueError, MemoryError):\n    pass\n"
              "except builtins.MemoryError:\n    pass\nexcept Exception:\n"
              "    raise MemoryError\nexcept:\n    pass\n")
    assert catches(source, "MemoryError") == [3, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_memory_error_handlers(path):
    """No module of the package catches MemoryError: an input is checked
    by what it holds, not by whether an allocation sized by it fails."""
    with open(path) as fh:
        assert catches(fh.read(), "MemoryError") == []


def subscript_users(source: str, keys):
    """The scopes in which `source` subscripts something by a constant
    among `keys`."""
    return scopes_where(source, lambda node: isinstance(node, ast.Subscript)
                        and isinstance(node.slice, ast.Constant) and node.slice.value in keys)


RECORD_KEYS = ("d", "k", "r", "cost")


def test_scan_finds_subscript_users():
    source = ("def f(rec):\n    return int(rec['d'])\nclass C:\n    def m(self, recs):\n"
              "        return [tuple(rec['cost']) for rec in recs]\n"
              "    def n(self, rec, key):\n        return rec[key], rec['mass'], rec[0]\n"
              "k = doc['k']\n")
    assert subscript_users(source, RECORD_KEYS) == {"f", "C.m", ""}


def test_one_type_record_reader():
    """`typestats._read_records` reads every type record, of statistics,
    interventions and cost files alike, and checks the JSON type of each
    field it reads.  No other scope of the package subscripts a record's
    d, k, r or cost, so a new statistics document reads its types through
    it and gets the same checks."""
    for path in PACKAGE:
        with open(path) as fh:
            source = fh.read()
        reader = os.path.basename(path) == "typestats.py"
        assert subscript_users(source, RECORD_KEYS) <= ({"_read_records"} if reader
                                                         else set()), path
        if reader:
            assert name_users(source, "_read_records") == {
                "cost_rule", "statistics_from_records", "intervention_from_records"}


def array_records_with_eq(source: str):
    """Names of the dataclasses of `source` that annotate a field with
    ndarray, alone or inside another type, and keep the generated __eq__."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        makers = [d for d in node.decorator_list if name(d) == "dataclass"]
        eq_off = any(isinstance(d, ast.Call) and any(
            k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in d.keywords) for d in makers)
        arrays = any(isinstance(stmt, ast.AnnAssign)
                     and any(name(n) == "ndarray" for n in ast.walk(stmt.annotation))
                     for stmt in node.body)
        if makers and arrays and not eq_off:
            found.append(node.name)
    return found


def test_array_records_compare_by_identity():
    """Every package dataclass with an ndarray field is declared eq=False:
    the generated __eq__ compares the arrays and raises, and a frozen
    record's generated __hash__ cannot hash them."""
    source = ("@dataclass(frozen=True)\nclass A:\n    x: np.ndarray | None\n"
              "@dataclass(frozen=True, eq=False)\nclass B:\n    x: np.ndarray\n"
              "@dataclasses.dataclass\nclass C:\n    xs: list[ndarray]\n"
              "@dataclass(eq=True)\nclass D:\n    n: int\n"
              "class E:\n    x: np.ndarray\n")
    assert array_records_with_eq(source) == ["A", "C"]
    for path in PACKAGE:
        with open(path) as fh:
            assert array_records_with_eq(fh.read()) == [], path


def mass_comparisons(source: str):
    """Lines of `source` that compare an attribute named m or mass with a
    number literal, as `p.m > 0.0` or `-1e-12 <= xi.mass` do."""
    def mass(node):
        return isinstance(node, ast.Attribute) and node.attr in ("m", "mass")

    def number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(mass(a) and number(b) or number(a) and mass(b)
                   for a, b in zip(operands, operands[1:])):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_mass_comparisons():
    source = ("keep = p.m > 0.0\nx = (self.mass > 0) & y\nok = 0 < q.m <= 1\n"
              "low = -1e-12 <= p.m\nm > 0.0\np.m > TOL\np.d > 0\np.mass.sum() > 0\n")
    assert mass_comparisons(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_mass_filters(path):
    """No module of the package tests a stored mass against a number:
    `Statistics` and `StatIntervention` keep positive masses only, so a
    reader has nothing left to filter."""
    with open(path) as fh:
        assert mass_comparisons(fh.read()) == []
