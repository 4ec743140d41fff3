"""No function of the package keeps state in a module-level name.

Every cache is a ``functools.lru_cache``, so one sweep over ``cache_clear``
resets them all (``cleared_caches`` in ``tests/conftest.py``).  A hand-rolled
cache, a module-level dict that a function fills, escapes that sweep and can
serve a result built under other code.  This stdlib-``ast`` scan fails on a
function that assigns into, deletes from, or calls a mutating method on a
name bound at module level, unless the function binds that name itself; a
``global`` declaration counts as a write.
"""

import ast
from pathlib import Path

import pytest

from tbhl import cli_verify
from tbhl.cli_verify import run_audit

from tests.conftest import tbhl_caches

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tbhl").glob("*.py"))
MUTATING = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
    }
)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _root(node) -> str | None:
    """The name under ``a.b[c].d``, or ``None`` for any other expression."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _targets(node) -> list:
    """The single targets of an assignment or ``del``, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return []
    found = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending += target.elts
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            found.append(target)
    return found


def _outermost_functions(body):
    for node in body:
        if isinstance(node, FUNCTIONS):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _outermost_functions(node.body)


def module_state_writes(source: str) -> list[str]:
    """Writes into module-level names from inside functions, as
    ``name in function (line N)``; nested functions count as their
    outermost function, so a closure over a local is not a write."""
    tree = ast.parse(source)
    module_names = {
        target.id
        for node in tree.body
        for target in _targets(node)
        if isinstance(target, ast.Name)
    }
    found = []
    for function in _outermost_functions(tree.body):
        nodes = list(ast.walk(function))
        declared = {
            name for node in nodes if isinstance(node, ast.Global)
            for name in node.names
        }
        local = {
            node.arg for node in nodes if isinstance(node, ast.arg)
        } | {
            node.id for node in nodes
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
        }
        watched = (module_names - local) | declared
        for node in nodes:
            if isinstance(node, ast.Global):
                written = node.names
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                written = [_root(node.func.value)] if node.func.attr in MUTATING else []
            else:
                written = [
                    _root(target) for target in _targets(node)
                    if not isinstance(target, ast.Name)
                ]
            found += [
                f"{name} in {function.name} (line {node.lineno})"
                for name in written
                if name in watched
            ]
    return sorted(found)


def test_scanner_on_a_sample():
    sample = (
        "CACHE = {}\n"
        "SEEN: list = []\n"
        "LIMIT = 3\n"
        "COUNT = 0\n"
        "def fill(key):\n"
        "    CACHE[key] = key\n"
        "    SEEN.append(key)\n"
        "    return LIMIT\n"
        "def shadowed(CACHE):\n"
        "    CACHE[0] = 1\n"
        "def rebound():\n"
        "    SEEN = []\n"
        "    SEEN.append(1)\n"
        "def closure():\n"
        "    out = []\n"
        "    def push(x):\n"
        "        out.append(x)\n"
        "        del CACHE[x]\n"
        "    return push\n"
        "def bump():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        CACHE.attr, self.x = 1, 2\n"
    )
    assert module_state_writes(sample) == [
        "CACHE in closure (line 18)",
        "CACHE in fill (line 6)",
        "CACHE in method (line 25)",
        "COUNT in bump (line 21)",
        "SEEN in fill (line 7)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_writes_module_state(path):
    assert module_state_writes(path.read_text()) == []


def test_cli_defines_no_cache():
    # each cache lives with the layer that computes its values; the CLI
    # only reads them, so clearing the library's caches leaves none behind
    assert [
        name
        for name, value in vars(cli_verify).items()
        if hasattr(value, "cache_info")
        and getattr(value, "__module__", None) == cli_verify.__name__
    ] == []


# every cache of the package; each must pay for itself by being reread
CACHES = (
    "tbhl.domino_tableaux.enumerate_sdt",
    "tbhl.domino_tableaux.enumerate_tilings",
    "tbhl.hecke_clifford.clifford_tables",
    "tbhl.hecke_clifford.restriction_characteristic",
    "tbhl.qsym_typeb.fb_monomials",
    "tbhl.shifted_domino.enumerate_shifted",
    "tbhl.shifted_domino.enumerate_shifted_tilings",
    "tbhl.signed_permutations._rank_table",
    "tbhl.signed_permutations.all_elements",
    "tbhl.signed_permutations.bfs_word_lengths",
    "tbhl.signed_permutations.reflections",
)
# the caches no audit rereads, each with the reason it stays
UNREAD_BY_AUDITS = {
    "tbhl.signed_permutations.bfs_word_lengths":
        "an independent oracle of the length table; no audit calls it",
    "tbhl.signed_permutations.reflections":
        "read once per rank by _rank_table; the benchmark reads its statistics",
}


def test_every_cache_is_reread_by_a_cold_audit(cleared_caches):
    caches = {f"{c.__module__}.{c.__qualname__}": c for c in tbhl_caches()}
    assert sorted(caches) == list(CACHES)
    reread = set()
    # the default audit and the rank-5 audit, each from empty caches
    for max_n, max_partition in ((3, 10), (5, 6)):
        cleared_caches()
        run_audit("all", max_n, max_partition, 0)
        reread |= {name for name, c in caches.items() if c.cache_info().hits}
    assert sorted(set(caches) - reread) == sorted(UNREAD_BY_AUDITS)
