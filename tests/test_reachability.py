"""Every top-level definition in ``tbhl`` is reached from a root.

The roots are the ``tbhl`` console entry point (``cli_verify.main``), the
``tbhl`` callables the benchmark names (the spans of ``layers.PER_LAYER``,
the classes of ``spans.METHODS`` and the calls in ``child.py``), and the
independent oracles in ``ORACLES``.  A definition is reached when a reached
definition references it by name, directly or through a ``from .module
import name``; a listing in ``__all__`` does not count as a use, and neither
does a doctest.  Each oracle must be called from some other test file, where
it is compared with the fast path it mirrors.

Methods are checked by name: a public non-dunder method (or property) of a
``tbhl`` class is used when a module of ``src/tbhl`` or of the ``perfbench``
harness (its top-level modules, not its tests) reads an attribute of that
name, on any object.  A name shared by two classes therefore counts as used
for both, so a method whose name another class also uses escapes the check;
tests and doctests do not count as uses.

The scan is stdlib ``ast`` only, in the style of ``test_imports.py``.
"""

import ast
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tbhl"
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import layers
    import spans
finally:
    sys.path.remove(str(PERFBENCH))

ENTRY_POINTS = ("cli_verify.main",)

# Slow reference implementations that tests compare with the fast paths.
ORACLES = (
    "signed_permutations.bfs_word_lengths",
    "signed_permutations.right_inversions",
    "signed_permutations.is_aligned",
    "special_families.is_left_unimodal",
    "domino_tableaux.brute_force_sdt",
    "shifted_domino.verify_stand_theorem",
    "shifted_domino.h_lambda_monomials",
)

Name = tuple[str, str]  # (module, top-level name)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def definitions(sources: dict[str, str]) -> dict[Name, set[Name]]:
    """Each top-level definition of each module, mapped to the top-level
    definitions its body, decorators and annotations reference."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    graph: dict[Name, set[Name]] = {}
    for module, tree in trees.items():
        scope: dict[str, Name] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (node.module, alias.name)
            for name in _defined_names(node):
                scope[name] = (module, name)
        for node in tree.body:
            for name in _defined_names(node):
                if _is_dunder(name):
                    continue
                graph[(module, name)] = {
                    scope[sub.id]
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and sub.id in scope
                }
    return graph


def unreached(graph: dict[Name, set[Name]], roots: set[Name]) -> list[str]:
    """Definitions that no path of references from ``roots`` reaches."""
    seen: set[Name] = set()
    stack = [root for root in roots if root in graph]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(graph.get(name, ()) - seen)
    return sorted(f"{module}.{name}" for module, name in set(graph) - seen)


def _split(dotted: str) -> Name:
    module, name = dotted.split(".")[:2]
    return module, name


def benchmark_roots() -> set[str]:
    """The ``tbhl`` definitions the benchmark harness calls or traces."""
    roots = set()
    for _name, _unit, _better, source in layers.PER_LAYER:
        kind = source[0]
        if kind in ("s", "self_s", "calls", "hits", "misses"):
            roots.add(source[1])
        elif kind == "counter":
            roots.add(source[1].rpartition(".")[0])
    for module, classes in spans.METHODS.items():
        roots |= {f"{module}.{cls}" for cls in classes}
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tbhl"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in modules:
            roots.add(f"{value.id}.{node.attr}")
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "tbhl"
        ):
            roots.add(f"{value.attr}.{node.attr}")
    return roots


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_scanner_on_a_sample():
    sources = {
        "a": "from .b import g, unused\nX = 1\ndef main():\n    return g()\n"
        "def orphan():\n    return X\n",
        "b": "__all__ = ['g', 'h']\ndef g() -> 'h':\n    return _k\n"
        "_k = 2\ndef h():\n    pass\ndef unused():\n    pass\n",
    }
    graph = definitions(sources)
    assert unreached(graph, {("a", "main")}) == ["a.X", "a.orphan", "b.h", "b.unused"]
    assert unreached(graph, {("a", "main"), ("a", "orphan")}) == ["b.h", "b.unused"]


def test_benchmark_roots_are_found():
    roots = benchmark_roots()
    assert "cli_verify.main" in roots
    assert "signed_permutations.weak_order_interval" in roots
    assert "exact_algebra.SparseMatrix" in roots


def test_every_definition_is_reached():
    roots = {*ENTRY_POINTS, *ORACLES, *benchmark_roots()}
    graph = definitions(package_sources())
    missing = sorted(root for root in roots if _split(root) not in graph)
    assert missing == []
    assert unreached(graph, {_split(root) for root in roots}) == []


@cache
def calls_by_test_file() -> dict[str, frozenset[str]]:
    """The names each other test file calls, as ``f(...)`` or ``x.f(...)``;
    each file is parsed once for all the oracles."""
    return {
        path.name: frozenset(
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        )
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        if path.name != Path(__file__).name
    }


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_is_called_from_a_test(oracle):
    name = oracle.rpartition(".")[2]
    callers = [path for path, calls in calls_by_test_file().items() if name in calls]
    assert callers, f"{oracle} is not called from any test"


def unresolved_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each ``__all__`` entry its module does not bind;
    the package ``__init__`` binds its submodules too."""
    stale = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exported = [
            item.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for item in node.value.elts
        ]
        bound = {name for node in tree.body for name in _defined_names(node)}
        bound |= {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if module == "__init__":
            bound |= set(sources)
        stale += [f"{module}.{name}" for name in exported if name not in bound]
    return sorted(stale)


def unused_methods(sources: dict[str, str], users: list[str]) -> list[str]:
    """``module.Class.method`` for each public non-dunder method defined in
    ``sources`` whose name no module in ``users`` reads as an attribute."""
    read = {
        node.attr
        for source in users
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    return sorted(
        f"{module}.{node.name}.{method.name}"
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_")
        and method.name not in read
    )


def test_every_public_method_is_used():
    sources = package_sources()
    users = [*sources.values()]
    users += [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert unused_methods(sources, users) == []


def test_method_scanner_on_a_sample():
    sources = {
        "a": "class A:\n    def used(self):\n        pass\n"
        "    def unused(self):\n        pass\n    def _private(self):\n"
        "        pass\n    def __len__(self):\n        return 0\n"
        "class B:\n    @property\n    def unused(self):\n        return 1\n",
    }
    users = ["def f(x):\n    return x.used()\n"]
    assert unused_methods(sources, users) == ["a.A.unused", "a.B.unused"]
    # a name read on any object counts for every class that defines it
    assert unused_methods(sources, [*users, "y.unused"]) == []


def test_every_all_entry_resolves():
    assert unresolved_exports(package_sources()) == []


def test_all_listing_is_not_a_use():
    sources = {
        "a": "__all__ = ['main', 'listed']\ndef main():\n    pass\n"
        "def listed():\n    pass\n",
    }
    assert unreached(definitions(sources), {("a", "main")}) == ["a.listed"]


def test_aliased_import_is_followed():
    sources = {
        "a": "from .b import g as h\ndef main():\n    return h()\n",
        "b": "def g():\n    return 1\n",
    }
    assert unreached(definitions(sources), {("a", "main")}) == []


def test_an_appended_orphan_is_reported():
    sources = package_sources()
    sources["qsym_typeb"] += "\n\ndef orphan_helper():\n    return QSymElement\n"
    roots = {_split(root) for root in (*ENTRY_POINTS, *ORACLES, *benchmark_roots())}
    assert unreached(definitions(sources), roots) == ["qsym_typeb.orphan_helper"]


def test_a_stale_all_entry_is_reported():
    sources = {
        "__init__": "__all__ = ['a', 'b']\n",
        "a": "from .c import g\n__all__ = ['f', 'g', 'gone']\ndef f():\n    pass\n",
    }
    assert unresolved_exports(sources) == ["__init__.b", "a.gone"]
