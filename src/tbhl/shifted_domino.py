"""Shifted domino tilings and tableaux with their generating functions.

A tiling of a partition diagram is *shifted* when no vertical domino covers a
main-diagonal cell while all of its left neighbors (dominoes covering a cell
immediately left of one of its cells) lie strictly below the diagonal; a
diagonal vertical domino with no left neighbors at all is likewise excluded.
Dominoes with at least one cell on or above the diagonal are *filled* and
carry entries; dominoes entirely below the diagonal stay empty.

Standard tableaux number the filled dominoes ``1..m`` with entries strictly
increasing along rows and down columns.  Semistandard tableaux draw entries
from the totally ordered alphabet ``0 < 1' < 1 < 2' < 2 < ...`` subject to:

1. entries weakly increase along rows and down columns;
2. each row holds at most one domino with a given primed entry, and each
   column holds at most one domino with a given unprimed entry (``0`` counts
   as unprimed);
3. the domino covering the top-left cell may carry ``0`` only when it is
   horizontal.

Entries are encoded as small integers (``0``; ``2k-1`` for ``k'``; ``2k`` for
``k``) so the alphabet order is integer order.  The weight vector counts
dominoes per entry index, primed or not, with index 0 first.

Standardization replaces entries by ``1..m``: zeros left-to-right, then for
each index the primed dominoes top-to-bottom followed by the unprimed ones
left-to-right, keeping the primes.  Marked tableaux (a standard tableau plus
a primed subset) have their own descent rule, and summing fundamental
functions over all markings of one standard tableau yields the peak-function
characteristic of its descent set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .domino_tableaux import (
    Domino,
    _descent_set,
    _layout_text,
    _require_increasing,
    _require_tiling,
    _shape_cache,
    _trusted,
    adjacent_pairs,
    enumerate_tilings,
    standard_orders,
    swap_entries,
    validate_partition,
)
from .exact_algebra import TruncatedPolynomial
from .hecke_engine import OperatorFamily, family_from_action
from .qsym_typeb import QSymElement, fb_monomials, peak_characteristic
from .signed_permutations import subsets


# ---------------------------------------------------------------------------
# entry alphabet


def entry_index(code: int) -> int:
    """Index of an encoded entry (``3`` and ``3'`` both give 3)."""
    return (code + 1) // 2


def entry_is_primed(code: int) -> bool:
    return code % 2 == 1


def entry_text(code: int) -> str:
    """Display form: ``0``, ``3``, or ``3'``.

    >>> [entry_text(0), entry_text(5), entry_text(6)]
    ['0', "3'", '3']
    """
    index = entry_index(code)
    return f"{index}'" if entry_is_primed(code) else str(index)


# ---------------------------------------------------------------------------
# 2-quotient


@dataclass(frozen=True)
class TwoQuotient:
    """Outcome of the 2-quotient procedure on a partition."""

    lambda_star: tuple[int, ...]
    word: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return all(part >= k for k, part in enumerate(self.mu, 1)) and all(
            part >= k for k, part in enumerate(self.nu, 1)
        )


def two_quotient(shape) -> TwoQuotient:
    """Split a partition into its pair of 2-quotient partitions.

    Distinct staircase offsets are added to the parts; the odd results are
    replaced right-to-left by ``1,3,5,...`` and the even ones by ``0,2,4,...``;
    halved differences give the two quotient partitions.

    >>> q = two_quotient((7, 7, 6, 5, 1))
    >>> q.lambda_star, q.word, q.mu, q.nu, q.valid
    ((11, 10, 8, 6, 1), (3, 4, 2, 0, 1), (3, 3, 3), (4,), True)
    >>> two_quotient((2, 2)).mu, two_quotient((2, 2)).nu
    ((1,), (1,))
    """
    shape = validate_partition(shape)
    k = len(shape)
    star = tuple(part + (k - pos) for pos, part in enumerate(shape, 1))
    word = [0] * k
    odd_positions = [pos for pos in range(k) if star[pos] % 2]
    even_positions = [pos for pos in range(k) if star[pos] % 2 == 0]
    for rank, pos in enumerate(reversed(odd_positions)):
        word[pos] = 2 * rank + 1
    for rank, pos in enumerate(reversed(even_positions)):
        word[pos] = 2 * rank
    mu = tuple(
        (star[pos] - word[pos]) // 2
        for pos in even_positions
        if star[pos] - word[pos] > 0
    )
    nu = tuple(
        (star[pos] - word[pos]) // 2
        for pos in odd_positions
        if star[pos] - word[pos] > 0
    )
    return TwoQuotient(star, tuple(word), validate_partition(mu), validate_partition(nu))


# ---------------------------------------------------------------------------
# shifted tilings


def weakly_above_diagonal(domino: Domino) -> bool:
    """A domino is filled when at least one cell (r, c) has c >= r."""
    return any(c >= r for (r, c) in domino.cells)


def _is_shifted(dominoes: tuple[Domino, ...]) -> bool:
    cover = {cell: d for d in dominoes for cell in d.cells}
    for domino in dominoes:
        if domino.orientation != "vertical":
            continue
        if not any(r == c for (r, c) in domino.cells):
            continue
        neighbors = {
            cover[(r, c - 1)]
            for (r, c) in domino.cells
            if (r, c - 1) in cover
        }
        if all(not weakly_above_diagonal(nb) for nb in neighbors):
            return False
    return True


@dataclass(frozen=True, order=True)
class ShiftedTiling:
    """A shifted tiling; ``filled`` lists the entry-carrying dominoes."""

    shape: tuple[int, ...]
    dominoes: tuple[Domino, ...]

    def __post_init__(self) -> None:
        shape = validate_partition(self.shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dominoes", tuple(sorted(self.dominoes)))
        _require_tiling(shape, self.dominoes)
        if not _is_shifted(self.dominoes):
            raise ValueError("tiling violates the shifted condition")

    # The cached properties below index the tiling once; they live in the
    # instance ``__dict__``, outside the fields that equality and order use.

    @cached_property
    def filled(self) -> tuple[Domino, ...]:
        return tuple(d for d in self.dominoes if weakly_above_diagonal(d))

    @cached_property
    def adjacent_filled_pairs(self) -> tuple[tuple[int, int], ...]:
        """:func:`~tbhl.domino_tableaux.adjacent_pairs` of ``filled``."""
        return adjacent_pairs(self.filled)

    @property
    def unfilled(self) -> tuple[Domino, ...]:
        return tuple(d for d in self.dominoes if not weakly_above_diagonal(d))


@_shape_cache
def enumerate_shifted_tilings(shape) -> tuple[ShiftedTiling, ...]:
    """The domino tilings of a shape that are shifted, in deterministic order.

    >>> len(enumerate_shifted_tilings((2, 2))), len(enumerate_shifted_tilings((1, 1)))
    (1, 0)
    """
    # enumerate_tilings lists sorted tilings of sorted dominoes already
    return tuple(
        _trusted(ShiftedTiling, shape=shape, dominoes=dominoes)
        for dominoes in enumerate_tilings(shape)
        if _is_shifted(dominoes)
    )


def filled_count(shape) -> int:
    """Common number of filled dominoes across all shifted tilings.

    Falls back to half the size when the shape has no shifted tiling.
    """
    shape = validate_partition(shape)
    sizes = {len(t.filled) for t in enumerate_shifted_tilings(shape)}
    if not sizes:
        return sum(shape) // 2
    if len(sizes) > 1:
        raise ValueError(
            f"tilings of {shape} disagree on the filled-domino count: {sizes}"
        )
    return sizes.pop()


# ---------------------------------------------------------------------------
# standard tableaux


@dataclass(frozen=True, order=True)
class ShiftedStandardTableau:
    """Filled dominoes numbered ``1..m`` strictly increasing along rows/columns.

    ``dominoes[k]`` carries entry ``k + 1``.
    """

    tiling: ShiftedTiling
    dominoes: tuple[Domino, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dominoes", tuple(self.dominoes))
        if sorted(self.dominoes) != sorted(self.tiling.filled):
            raise ValueError("entries must cover the filled dominoes exactly")
        entry = {d.cells: k for k, d in enumerate(self.dominoes)}
        _require_increasing(
            [entry[d.cells] for d in self.tiling.filled],
            self.tiling.adjacent_filled_pairs,
        )

    @property
    def size(self) -> int:
        return len(self.dominoes)

    def descent_set(self) -> frozenset[int]:
        return _descent_set(self.dominoes)

    def to_text(self) -> str:
        return _layout_text(enumerate(self.dominoes, 1), self.tiling.unfilled)


def iter_standard(shape) -> Iterator[ShiftedStandardTableau]:
    """Lazily yield every standard tableau over every shifted tiling."""
    shape = validate_partition(shape)
    for tiling in enumerate_shifted_tilings(shape):
        for order in standard_orders(tiling.filled):
            yield _trusted(ShiftedStandardTableau, tiling=tiling, dominoes=order)


# ---------------------------------------------------------------------------
# semistandard tableaux


@dataclass(frozen=True, order=True)
class ShiftedSemistandardTableau:
    """Filled dominoes carrying encoded alphabet entries.

    ``entries`` pairs each filled domino with an entry code, sorted by domino
    for a canonical representation.
    """

    tiling: ShiftedTiling
    entries: tuple[tuple[Domino, int], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", entries)
        code_of = dict(entries)
        if sorted(code_of) != sorted(self.tiling.filled) or len(code_of) != len(
            entries
        ):
            raise ValueError("entries must cover the filled dominoes exactly")
        if any(code < 0 for code in code_of.values()):
            raise ValueError("entry codes must be nonnegative")
        codes = [code_of[d] for d in self.tiling.filled]
        if any(codes[i] > codes[j] for i, j in self.tiling.adjacent_filled_pairs):
            raise ValueError("entries do not weakly increase")
        rows_with: dict[tuple[int, int], int] = {}
        cols_with: dict[tuple[int, int], int] = {}
        for domino, code in entries:
            if entry_is_primed(code):
                for row in {r for (r, _) in domino.cells}:
                    key = (row, code)
                    rows_with[key] = rows_with.get(key, 0) + 1
                    if rows_with[key] > 1:
                        raise ValueError(
                            f"row {row} holds two dominoes with entry "
                            f"{entry_text(code)}"
                        )
            else:
                for col in {c for (_, c) in domino.cells}:
                    key = (col, code)
                    cols_with[key] = cols_with.get(key, 0) + 1
                    if cols_with[key] > 1:
                        raise ValueError(
                            f"column {col} holds two dominoes with entry "
                            f"{entry_text(code)}"
                        )
        northwest = next(
            (d for d in self.tiling.filled if (1, 1) in d.cells), None
        )
        if (
            northwest is not None
            and code_of[northwest] == 0
            and northwest.orientation != "horizontal"
        ):
            raise ValueError("a vertical northwest domino cannot carry 0")

    @property
    def size(self) -> int:
        return len(self.entries)

    def weight(self, nvars: int) -> tuple[int, ...]:
        """Per-index domino counts ``(wt_0, ..., wt_{nvars-1})``."""
        counts = [0] * nvars
        for _, code in self.entries:
            index = entry_index(code)
            if index >= nvars:
                raise ValueError(f"entry index {index} exceeds nvars-1")
            counts[index] += 1
        return tuple(counts)

    def monomial(self, nvars: int) -> TruncatedPolynomial:
        return TruncatedPolynomial.make(
            nvars, self.size, {self.weight(nvars): 1}
        )

    def to_text(self) -> str:
        return _layout_text(
            ((entry_text(code), domino) for domino, code in self.entries),
            self.tiling.unfilled,
        )


def _iter_fillings(
    tiling: ShiftedTiling, maxval: int, caps: tuple[int, ...] | None = None
) -> Iterator[ShiftedSemistandardTableau]:
    """Fill ``tiling`` with entry indices at most ``maxval``.

    ``caps[k]``, when given, bounds how many dominoes carry index ``k``.
    Counts only grow along a branch, so skipping a code whose index is at its
    cap cuts no branch that stays within the caps.
    """
    filled = sorted(tiling.filled, key=lambda d: d.nw_cell)
    owner = {cell: d for d in filled for cell in d.cells}
    max_code = 2 * maxval
    counts = [0] * (maxval + 1)

    def compatible(domino: Domino, code: int, assigned: dict[Domino, int]):
        for (r, c) in domino.cells:
            for neighbor_cell, direction in (
                ((r, c - 1), "before"),
                ((r - 1, c), "before"),
                ((r, c + 1), "after"),
                ((r + 1, c), "after"),
            ):
                other = owner.get(neighbor_cell)
                if other is None or other == domino or other not in assigned:
                    continue
                if direction == "before" and assigned[other] > code:
                    return False
                if direction == "after" and assigned[other] < code:
                    return False
        if entry_is_primed(code):
            rows = {r for (r, _) in domino.cells}
            for other, other_code in assigned.items():
                if other_code == code and rows & {
                    r for (r, _) in other.cells
                }:
                    return False
        else:
            cols = {c for (_, c) in domino.cells}
            for other, other_code in assigned.items():
                if other_code == code and cols & {
                    c for (_, c) in other.cells
                }:
                    return False
        if code == 0 and (1, 1) in domino.cells and (
            domino.orientation != "horizontal"
        ):
            return False
        return True

    def assign(position: int, assigned: dict[Domino, int]):
        if position == len(filled):
            yield _trusted(
                ShiftedSemistandardTableau,
                tiling=tiling,
                entries=tuple(sorted(assigned.items())),
            )
            return
        domino = filled[position]
        for code in range(max_code + 1):
            index = entry_index(code)
            if caps is not None and counts[index] >= caps[index]:
                continue
            if compatible(domino, code, assigned):
                assigned[domino] = code
                counts[index] += 1
                yield from assign(position + 1, assigned)
                counts[index] -= 1
                del assigned[domino]

    yield from assign(0, {})


def iter_semistandard(
    shape, maxval: int
) -> Iterator[ShiftedSemistandardTableau]:
    """Lazily yield semistandard tableaux with entry indices at most ``maxval``."""
    shape = validate_partition(shape)
    for tiling in enumerate_shifted_tilings(shape):
        yield from _iter_fillings(tiling, maxval)


# ---------------------------------------------------------------------------
# marked tableaux, standardization, descents


@dataclass(frozen=True)
class MarkedStandardTableau:
    """A standard tableau together with the subset of primed entries."""

    base: ShiftedStandardTableau
    primed: frozenset[int]

    def __post_init__(self) -> None:
        primed = frozenset(self.primed)
        object.__setattr__(self, "primed", primed)
        if not primed <= set(range(1, self.base.size + 1)):
            raise ValueError("primed entries out of range")

    def __lt__(self, other) -> bool:
        return (self.base, sorted(self.primed)) < (
            other.base,
            sorted(other.primed),
        )


def _markings(base: ShiftedStandardTableau) -> Iterator[MarkedStandardTableau]:
    """Every primed subset of ``base``, by size then lexicographically."""
    for subset in subsets(range(1, base.size + 1)):
        yield MarkedStandardTableau(base, frozenset(subset))


def marked_descents(marked: MarkedStandardTableau) -> frozenset[int]:
    """Descents of a marked tableau.

    ``0`` is a descent when entry 1 is primed or its domino is vertical.
    ``i >= 1`` is a descent when either ``i`` is unprimed and is a descent of
    the underlying standard tableau, or ``i+1`` is primed and ``i`` is not.
    """
    base = marked.base
    primed = marked.primed
    base_descents = base.descent_set()
    result = set()
    if 1 in primed or 0 in base_descents:
        result.add(0)
    for i in range(1, base.size):
        in_base = i in base_descents
        if i not in primed and in_base:
            result.add(i)
        if (i + 1) in primed and not in_base:
            result.add(i)
    return frozenset(result)


def standardize(tableau: ShiftedSemistandardTableau) -> MarkedStandardTableau:
    """Replace alphabet entries by ``1..m``, keeping the primes.

    Zeros are numbered left-to-right; then for each index the primed dominoes
    top-to-bottom, followed by the unprimed ones left-to-right.
    """
    by_code: dict[int, list[Domino]] = {}
    for domino, code in tableau.entries:
        by_code.setdefault(code, []).append(domino)
    order: list[Domino] = []
    primed_positions: set[int] = set()
    for code in sorted(by_code):
        group = by_code[code]
        if entry_is_primed(code):
            group.sort(key=lambda d: (d.min_row, d.nw_cell))
            for domino in group:
                order.append(domino)
                primed_positions.add(len(order))
        else:
            group.sort(key=lambda d: (d.nw_cell[1], d.nw_cell))
            order.extend(group)
    base = ShiftedStandardTableau(tableau.tiling, tuple(order))
    return MarkedStandardTableau(base, frozenset(primed_positions))


# ---------------------------------------------------------------------------
# enumeration facade


@_shape_cache
def enumerate_shifted(shape, kind: str = "standard", maxval: int | None = None):
    """Enumerate shifted tableaux of a shape.

    ``kind`` is ``"standard"``, ``"semistandard"`` (requires ``maxval``), or
    ``"marked"``.  Raises for shapes whose 2-quotient is invalid.

    >>> len(enumerate_shifted((2, 2)))
    1
    >>> enumerate_shifted((2, 2))[0].descent_set()
    frozenset({1})
    """
    if not two_quotient(shape).valid:
        raise ValueError(f"shape {shape} has an invalid 2-quotient")
    if kind == "standard":
        return tuple(sorted(iter_standard(shape)))
    if kind == "semistandard":
        if maxval is None:
            raise ValueError("semistandard enumeration needs maxval")
        return tuple(sorted(iter_semistandard(shape, maxval)))
    if kind == "marked":
        return tuple(
            marked
            for base in enumerate_shifted(shape, "standard")
            for marked in _markings(base)
        )
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# generating functions and theorem checks


def h_lambda(
    shape,
    mode: str = "peak",
    nvars: int | None = None,
    variant: str = "literal",
):
    """Generating function of a shape's shifted tableaux.

    ``mode="monomial"`` sums ``x^{wt(T)}`` over semistandard tableaux with
    entry indices below ``nvars``; the result is exact for monomials in
    ``x_0..x_{nvars-1}``.  ``mode="peak"`` sums the peak-function
    characteristic of ``Des(Q)`` over standard tableaux ``Q``.

    >>> print(h_lambda((2,), "monomial", nvars=3))
    1*x0 + 2*x1 + 2*x2
    >>> print(h_lambda((2,), "peak"))
    1*FB{} + 1*FB{0}
    """
    shape = validate_partition(shape)
    if not two_quotient(shape).valid:
        raise ValueError(f"shape {shape} has an invalid 2-quotient")
    degree = filled_count(shape)
    if mode == "monomial":
        if nvars is None:
            raise ValueError("monomial mode needs nvars")
        weights = Counter(
            tableau.weight(nvars)
            for tableau in enumerate_shifted(shape, "semistandard", nvars - 1)
        )
        return TruncatedPolynomial.make(nvars, degree, weights)
    if mode == "peak":
        counts = Counter(
            standard.descent_set()
            for standard in enumerate_shifted(shape, "standard")
        )
        return QSymElement.make(
            degree,
            (
                (subset, count * coefficient)
                for descents, count in counts.items()
                for subset, coefficient in peak_characteristic(
                    descents, degree, variant
                ).coeffs
            ),
        )
    raise ValueError(f"unknown mode {mode!r}")


def verify_stand_theorem(
    shape, marked: MarkedStandardTableau, nvars: int
) -> bool:
    """Check that tableaux standardizing to ``marked`` sum to one fundamental.

    The bounded semistandard generating sum over ``{T : std(T) = marked}``
    must equal the fundamental function of the marked descent set, truncated
    to ``nvars`` variables.
    """
    shape = validate_partition(shape)
    degree = marked.base.size
    total = TruncatedPolynomial.zero(nvars, degree)
    for tableau in enumerate_shifted(shape, "semistandard", nvars - 1):
        if standardize(tableau) == marked:
            total = total + tableau.monomial(nvars)
    expected = fb_monomials(marked_descents(marked), degree, nvars)
    return total == expected


def stand_theorem_failures(shape, nvars: int) -> int:
    """Count the marked tableaux of ``shape`` whose fiber sum is wrong.

    One pass standardizes each bounded semistandard tableau once and counts
    its weight in the fiber of its standardization; every marked tableau is
    then checked as in :func:`verify_stand_theorem`, an empty fiber summing
    to zero.
    """
    shape = validate_partition(shape)
    fibers: dict[MarkedStandardTableau, Counter] = {}
    for tableau in enumerate_shifted(shape, "semistandard", nvars - 1):
        fibers.setdefault(standardize(tableau), Counter())[tableau.weight(nvars)] += 1
    failures = 0
    for marked in enumerate_shifted(shape, "marked"):
        degree = marked.base.size
        total = TruncatedPolynomial.make(nvars, degree, fibers.get(marked, {}))
        if total != fb_monomials(marked_descents(marked), degree, nvars):
            failures += 1
    return failures


def verify_peak_theorem(
    shape, standard: ShiftedStandardTableau, variant: str = "literal"
) -> bool:
    """Check that all markings of one standard tableau sum to its peak function."""
    shape = validate_partition(shape)
    degree = standard.size
    total = QSymElement.from_descent_sets(
        (marked_descents(marked) for marked in _markings(standard)), degree
    )
    expected = peak_characteristic(standard.descent_set(), degree, variant)
    return total == expected


# ---------------------------------------------------------------------------
# conjugated operator family


def conjugate_family(shape) -> OperatorFamily:
    """Casewise operators on the standard tableaux seen through the diagonal
    reflection.

    Reflection complements the descent labels, so the index-``i`` move is
    available exactly when ``i`` is a descent of the tableau; it swaps the
    entries ``i`` and ``i+1`` when that stays standard (index 0 never moves).
    """
    shape = validate_partition(shape)
    if not two_quotient(shape).valid:
        raise ValueError(f"shape {shape} has an invalid 2-quotient")
    rank = filled_count(shape)
    return family_from_action(
        enumerate_shifted(shape, "standard"),
        lambda tableau: frozenset(range(rank)) - tableau.descent_set(),
        swap_entries,
        rank,
    )


# ---------------------------------------------------------------------------
# witness searches


def find_standard_with_descents(
    shape, target
) -> tuple[str, ShiftedStandardTableau | None]:
    """Search for a standard tableau with the given descent set.

    Returns ``("found", tableau)``, or ``("not-found", None)`` after
    exhausting the shape.
    """
    target = frozenset(target)
    for standard in iter_standard(shape):
        if standard.descent_set() == target:
            return "found", standard
    return "not-found", None


def find_semistandard_with_weight(
    shape, weight
) -> tuple[str, ShiftedSemistandardTableau | None]:
    """Search for a semistandard tableau with the given weight vector.

    The fillings are capped by ``weight`` index by index, so a
    ``("not-found", None)`` verdict still covers every tableau of the shape
    with entry indices below ``len(weight)``.
    """
    weight = tuple(weight)
    nvars = len(weight)
    for tiling in enumerate_shifted_tilings(validate_partition(shape)):
        for tableau in _iter_fillings(tiling, nvars - 1, weight):
            if tableau.weight(nvars) == weight:
                return "found", tableau
    return "not-found", None
