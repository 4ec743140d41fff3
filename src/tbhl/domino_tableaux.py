"""Domino tilings, standard domino tableaux, and their descent statistics.

A domino covers two adjacent cells of a Young diagram (matrix coordinates,
1-indexed).  A standard domino tableau on a partition of ``2n`` places
dominoes numbered ``1..n`` so that entries weakly increase along rows and
down columns; equal neighbors can only belong to the same domino.
Equivalently, the union of the first ``k`` dominoes is a partition shape for
every ``k``, which is how the enumerator generates them.

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

import itertools
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TypeVar

from .hecke_engine import LabeledBasis, OperatorFamily, build_from_labeled_basis
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
        grid = _entry_grid(self.dominoes)
        if set(grid) != diagram_cells(shape):
            raise ValueError("dominoes do not tile the diagram exactly")
        if not _weakly_increasing_grid(grid):
            raise ValueError("entries do not weakly increase along rows/columns")

    @property
    def size(self) -> int:
        """Number of dominoes."""
        return len(self.dominoes)

    def descent_set(self) -> frozenset[int]:
        return _descent_set(self.dominoes)

    def to_text(self) -> str:
        return _layout_text(enumerate(self.dominoes, 1))

    @staticmethod
    def from_text(text: str, shape) -> "StandardDominoTableau":
        pattern = re.compile(
            r"^(\d+):\((\d+),(\d+)\)-\((\d+),(\d+)\)$"
        )
        found: dict[int, Domino] = {}
        for line in text.strip().splitlines():
            match = pattern.match(line.strip())
            if not match:
                raise ValueError(f"bad tableau line: {line!r}")
            entry, r1, c1, r2, c2 = map(int, match.groups())
            if entry in found:
                raise ValueError(f"duplicate entry {entry}")
            found[entry] = Domino(((r1, c1), (r2, c2)))
        if sorted(found) != list(range(1, len(found) + 1)):
            raise ValueError("entries must be 1..n")
        dominoes = tuple(found[k] for k in sorted(found))
        return StandardDominoTableau(validate_partition(shape), dominoes)


@lru_cache(maxsize=None)
def enumerate_tilings(shape) -> tuple[tuple[Domino, ...], ...]:
    """All domino tilings of a partition shape, in deterministic order.

    >>> len(enumerate_tilings((2, 2))), len(enumerate_tilings((3, 1)))
    (2, 1)
    """
    shape = validate_partition(shape)
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


@lru_cache(maxsize=None)
def enumerate_sdt(shape) -> tuple[StandardDominoTableau, ...]:
    """All standard domino tableaux, grown one domino at a time.

    Each prefix of dominoes must occupy a partition sub-shape, which is
    equivalent to the weak row/column increase of entries.

    >>> [len(enumerate_sdt(s)) for s in ((2,), (1, 1), (2, 2))]
    [1, 1, 2]
    """
    shape = validate_partition(shape)
    if sum(shape) % 2:
        raise ValueError("shape size must be even")
    rows = len(shape)
    results: list[StandardDominoTableau] = []

    def grow(profile: tuple[int, ...], placed: tuple[Domino, ...]) -> None:
        if profile == shape:
            results.append(StandardDominoTableau(shape, placed))
            return
        for r in range(rows):
            width = profile[r]
            above = profile[r - 1] if r else None
            # horizontal domino extending row r+1 by two cells
            if width + 2 <= shape[r] and (above is None or width + 2 <= above):
                domino = Domino(((r + 1, width + 1), (r + 1, width + 2)))
                profile_next = profile[:r] + (width + 2,) + profile[r + 1 :]
                grow(profile_next, placed + (domino,))
            # vertical domino extending rows r+1 and r+2 by one cell each
            if (
                r + 1 < rows
                and profile[r + 1] == width
                and width + 1 <= shape[r + 1]
                and (above is None or width + 1 <= above)
            ):
                domino = Domino(((r + 1, width + 1), (r + 2, width + 1)))
                profile_next = (
                    profile[:r] + (width + 1, width + 1) + profile[r + 2 :]
                )
                grow(profile_next, placed + (domino,))

    grow((0,) * rows, ())
    return tuple(sorted(results))


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
    n = sum(shape) // 2
    tableaux = enumerate_sdt(shape)
    descent_label = {t: t.descent_set() for t in tableaux}
    inside = set(tableaux)
    transition = {}
    for t in tableaux:
        for i in range(n):
            if i in descent_label[t]:
                continue
            moved = generator_action(t, i)
            if moved is not None and moved in inside:
                transition[(i, t)] = moved
    basis = LabeledBasis(tableaux, descent_label, transition, rank=n)
    return build_from_labeled_basis(basis)
