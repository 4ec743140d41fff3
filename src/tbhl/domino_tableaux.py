"""Domino tilings, standard domino tableaux, and their descent statistics.

A domino covers two adjacent cells of a Young diagram (matrix coordinates,
1-indexed).  A standard domino tableau on a partition of ``2n`` places
dominoes numbered ``1..n`` so that entries weakly increase along rows and
down columns; equal neighbors can only belong to the same domino.  So it is
a tiling plus a linear extension of the cell-adjacency order on its dominoes
(:func:`adjacent_pairs`), and :func:`standard_orders` enumerates those; the
shifted standard tableaux of :mod:`tbhl.shifted_domino` are the same orders
on the filled dominoes of a shifted tiling.

Descents: ``0`` is a descent when domino 1 is vertical; ``i >= 1`` is a
descent when every cell of domino ``i+1`` lies in a strictly greater row than
every cell of domino ``i``.  Summing one fundamental function per tableau,
indexed by its descent set, gives the quasisymmetric generating function of
the shape.

The generator-index action on tableaux: index ``i >= 1`` exchanges the
dominoes numbered ``i`` and ``i+1`` when the result is still a valid tableau;
index ``0`` is defined only when dominoes 1 and 2 tile the northwest 2x2
square, and flips that square between its horizontal and vertical tilings.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterator, TypeVar

from .hecke_engine import OperatorFamily, family_from_action
from .qsym_typeb import QSymElement

Cell = tuple[int, int]
_Tableau = TypeVar("_Tableau")


def validate_partition(parts) -> tuple[int, ...]:
    """Return ``parts`` as a tuple after checking weak decrease and positivity.

    >>> validate_partition([5, 4, 4, 1])
    (5, 4, 4, 1)
    """
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition parts must weakly decrease")
    return parts


def _shape_cache(func):
    """Cache ``func(shape, ...)`` on the validated shape tuple.

    The shape is checked and made a tuple before the cache lookup, so a list
    shape hits the same entry as its tuple and a non-partition raises
    ``ValueError``.  The wrapper keeps ``cache_info``.
    """
    cached = functools.lru_cache(maxsize=None)(func)

    @functools.wraps(func)
    def wrapper(shape, *args, **kwargs):
        return cached(validate_partition(shape), *args, **kwargs)

    wrapper.cache_info = cached.cache_info
    return wrapper


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without its
    ``__post_init__`` checks, for values an enumerator makes valid by
    construction.  The public constructors keep full validation."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


def partitions_of(total: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``total``, largest part first, in deterministic order.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if total < 0:
        raise ValueError("total must be nonnegative")

    def walk(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in walk(remaining - part, part):
                yield (part,) + rest

    return tuple(walk(total, total))


def diagram_cells(shape) -> frozenset[Cell]:
    """Cells of the Young diagram, 1-indexed (row, column)."""
    shape = validate_partition(shape)
    return frozenset(
        (r, c) for r, width in enumerate(shape, 1) for c in range(1, width + 1)
    )


@dataclass(frozen=True, order=True)
class Domino:
    """Two adjacent cells; the northwest cell is stored first.

    >>> Domino(((1, 1), (2, 1))).orientation
    'vertical'
    >>> Domino(((1, 2), (1, 1))).cells
    ((1, 1), (1, 2))
    """

    cells: tuple[Cell, Cell]

    def __post_init__(self) -> None:
        first, second = sorted(self.cells)
        object.__setattr__(self, "cells", (first, second))
        (r1, c1), (r2, c2) = first, second
        horizontal = r1 == r2 and c2 == c1 + 1
        vertical = c1 == c2 and r2 == r1 + 1
        if not (horizontal or vertical):
            raise ValueError(f"cells {self.cells} are not adjacent")

    @property
    def orientation(self) -> str:
        (r1, _), (r2, _) = self.cells
        return "horizontal" if r1 == r2 else "vertical"

    @property
    def min_row(self) -> int:
        return self.cells[0][0]

    @property
    def max_row(self) -> int:
        return self.cells[1][0]

    @property
    def nw_cell(self) -> Cell:
        return self.cells[0]


def strictly_lower(later: Domino, earlier: Domino) -> bool:
    """Whether every cell of ``later`` sits strictly below every cell of ``earlier``."""
    return later.min_row > earlier.max_row


def _entry_grid(dominoes) -> dict[Cell, int]:
    grid: dict[Cell, int] = {}
    for entry, domino in enumerate(dominoes, 1):
        for cell in domino.cells:
            if cell in grid:
                raise ValueError(f"cell {cell} covered twice")
            grid[cell] = entry
    return grid


def _descent_set(dominoes: tuple[Domino, ...]) -> frozenset[int]:
    """Descents of dominoes listed in entry order (see the module docstring)."""
    descents = set()
    if dominoes and dominoes[0].orientation == "vertical":
        descents.add(0)
    for i in range(1, len(dominoes)):
        if strictly_lower(dominoes[i], dominoes[i - 1]):
            descents.add(i)
    return frozenset(descents)


def _layout_text(labelled, unfilled: tuple[Domino, ...] = ()) -> str:
    """One ``label:(r1,c1)-(r2,c2)`` line per ``(label, domino)`` pair, then
    one ``-:`` line per unfilled domino."""
    lines = []
    for label, domino in itertools.chain(labelled, (("-", d) for d in unfilled)):
        (r1, c1), (r2, c2) = domino.cells
        lines.append(f"{label}:({r1},{c1})-({r2},{c2})")
    return "\n".join(lines)


def _weakly_increasing_grid(grid: dict[Cell, int]) -> bool:
    for (r, c), entry in grid.items():
        right = grid.get((r, c + 1))
        below = grid.get((r + 1, c))
        if right is not None and right < entry:
            return False
        if below is not None and below < entry:
            return False
    return True


def adjacent_pairs(dominoes) -> tuple[tuple[int, int], ...]:
    """Index pairs ``(i, j)`` where a cell of ``dominoes[j]`` lies just right
    of or just below a cell of ``dominoes[i]``, once per such cell."""
    owner = {cell: k for k, d in enumerate(dominoes) for cell in d.cells}
    return tuple([
        (k, other)
        for (r, c), k in owner.items()
        for other in (owner.get((r, c + 1)), owner.get((r + 1, c)))
        if other is not None and other != k
    ])


def _require_tiling(shape: tuple[int, ...], dominoes) -> None:
    """Raise unless ``dominoes`` cover each cell of ``shape`` exactly once."""
    covered = [cell for d in dominoes for cell in d.cells]
    if len(covered) != sum(shape) or set(covered) != diagram_cells(shape):
        raise ValueError("dominoes do not tile the diagram exactly")


def _require_increasing(entries, pairs) -> None:
    """Raise unless ``entries[i] < entries[j]`` for every pair ``(i, j)``."""
    if any(entries[i] >= entries[j] for i, j in pairs):
        raise ValueError("entries do not increase along rows and columns")


def standard_orders(dominoes) -> Iterator[tuple[Domino, ...]]:
    """Every standard numbering of ``dominoes``, lexicographically.

    Each domino comes after its predecessors in :func:`adjacent_pairs`.  The
    search takes the ready dominoes (all predecessors placed) in domino order
    and updates one indegree array in place, restoring it on the way back.

    >>> [[d.nw_cell for d in order]
    ...  for order in standard_orders(enumerate_tilings((4, 2))[0])]
    [[(1, 1), (1, 3), (2, 1)], [(1, 1), (2, 1), (1, 3)]]
    """
    items = sorted(dominoes)
    later: list[set[int]] = [set() for _ in items]
    for i, j in adjacent_pairs(items):
        later[i].add(j)
    indegree = [sum(k in targets for targets in later) for k in range(len(items))]
    order = list(items)

    def extend(depth: int, ready: list[int]):
        if depth == len(items):
            yield tuple(order)
            return
        for pick in ready:
            order[depth] = items[pick]
            rest = [k for k in ready if k != pick]
            for k in later[pick]:
                indegree[k] -= 1
                if not indegree[k]:
                    rest.append(k)
            yield from extend(depth + 1, sorted(rest))
            for k in later[pick]:
                indegree[k] += 1

    yield from extend(0, [k for k, degree in enumerate(indegree) if not degree])


@dataclass(frozen=True, order=True)
class StandardDominoTableau:
    """A partition shape of even size tiled by dominoes numbered in order.

    >>> t = StandardDominoTableau((2, 2), (Domino(((1, 1), (1, 2))),
    ...                                    Domino(((2, 1), (2, 2)))))
    >>> sorted(t.descent_set())
    [1]
    """

    shape: tuple[int, ...]
    dominoes: tuple[Domino, ...]

    def __post_init__(self) -> None:
        shape = validate_partition(self.shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dominoes", tuple(self.dominoes))
        _require_tiling(shape, self.dominoes)
        # dominoes[k] carries entry k + 1
        _require_increasing(range(len(self.dominoes)), adjacent_pairs(self.dominoes))

    @property
    def size(self) -> int:
        """Number of dominoes."""
        return len(self.dominoes)

    def descent_set(self) -> frozenset[int]:
        return _descent_set(self.dominoes)

    def to_text(self) -> str:
        return _layout_text(enumerate(self.dominoes, 1))


@_shape_cache
def enumerate_tilings(shape) -> tuple[tuple[Domino, ...], ...]:
    """All domino tilings of a partition shape, in deterministic order.

    >>> len(enumerate_tilings((2, 2))), len(enumerate_tilings((3, 1)))
    (2, 1)
    """
    if sum(shape) % 2:
        raise ValueError("shape size must be even")
    cells = diagram_cells(shape)
    results: list[tuple[Domino, ...]] = []

    def fill(uncovered: frozenset[Cell], placed: tuple[Domino, ...]) -> None:
        if not uncovered:
            results.append(tuple(sorted(placed)))
            return
        anchor = min(uncovered)
        r, c = anchor
        for other in ((r, c + 1), (r + 1, c)):
            if other in uncovered:
                domino = Domino((anchor, other))
                fill(uncovered - {anchor, other}, placed + (domino,))

    fill(cells, ())
    return tuple(sorted(results))


@_shape_cache
def enumerate_sdt(shape) -> tuple[StandardDominoTableau, ...]:
    """All standard domino tableaux: each tiling times its standard orders.

    >>> [len(enumerate_sdt(s)) for s in ((2,), (1, 1), (2, 2))]
    [1, 1, 2]
    """
    tableaux = [
        _trusted(StandardDominoTableau, shape=shape, dominoes=order)
        for tiling in enumerate_tilings(shape)
        for order in standard_orders(tiling)
    ]
    # the tableaux's own order, compared on plain tuples: about twice as fast
    tableaux.sort(key=lambda t: [d.cells for d in t.dominoes])
    return tuple(tableaux)


def brute_force_sdt(shape) -> tuple[StandardDominoTableau, ...]:
    """Filter oracle: all tilings times all numberings, validity-checked."""
    shape = validate_partition(shape)
    found = []
    for tiling in enumerate_tilings(shape):
        for ordering in itertools.permutations(tiling):
            grid = _entry_grid(ordering)
            if _weakly_increasing_grid(grid):
                found.append(StandardDominoTableau(shape, ordering))
    return tuple(sorted(found))


def g_lambda(shape) -> QSymElement:
    """Sum of fundamental functions over tableau descent sets.

    >>> print(g_lambda((2, 2)))
    1*FB{0} + 1*FB{1}
    """
    shape = validate_partition(shape)
    n = sum(shape) // 2
    return QSymElement.from_descent_sets(
        (t.descent_set() for t in enumerate_sdt(shape)), n
    )


def swap_entries(tableau: _Tableau, i: int) -> _Tableau | None:
    """Exchange the dominoes numbered ``i`` and ``i+1``; None when invalid.

    Works on any tableau dataclass whose ``dominoes`` field is in entry order.
    """
    if not 1 <= i < len(tableau.dominoes):
        return None
    dominoes = list(tableau.dominoes)
    dominoes[i - 1], dominoes[i] = dominoes[i], dominoes[i - 1]
    try:
        return replace(tableau, dominoes=tuple(dominoes))
    except ValueError:
        return None


_NW_SQUARE = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})


def flip_northwest_square(
    tableau: StandardDominoTableau,
) -> StandardDominoTableau | None:
    """Flip dominoes 1,2 between tilings of the northwest 2x2 square.

    Defined only when those two dominoes exactly tile that square; the
    horizontal pair becomes the vertical pair and vice versa.
    """
    if len(tableau.dominoes) < 2:
        return None
    first, second = tableau.dominoes[0], tableau.dominoes[1]
    if set(first.cells) | set(second.cells) != _NW_SQUARE:
        return None
    if first.orientation == "horizontal":
        replacement = (
            Domino(((1, 1), (2, 1))),
            Domino(((1, 2), (2, 2))),
        )
    else:
        replacement = (
            Domino(((1, 1), (1, 2))),
            Domino(((2, 1), (2, 2))),
        )
    dominoes = replacement + tableau.dominoes[2:]
    try:
        return StandardDominoTableau(tableau.shape, dominoes)
    except ValueError:
        return None


def generator_action(
    tableau: StandardDominoTableau, i: int
) -> StandardDominoTableau | None:
    """The index-``i`` move on a tableau, or None when it leads outside."""
    if i == 0:
        return flip_northwest_square(tableau)
    return swap_entries(tableau, i)


def sdt_operator_family(shape) -> OperatorFamily:
    """Casewise operators on the standard domino tableaux of a shape."""
    shape = validate_partition(shape)
    return family_from_action(
        enumerate_sdt(shape),
        StandardDominoTableau.descent_set,
        generator_action,
        sum(shape) // 2,
    )
