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
dominoes per entry index, primed or not, with index 0 first.  One walk per
tiling enumerates fillings as code vectors over ``filled`` with their weights,
and feeds both the standardization fibers and H_lambda's monomial sum;
tableau objects are built only where a caller needs one.

Standardization replaces entries by ``1..m``: zeros left-to-right, then for
each index the primed dominoes top-to-bottom followed by the unprimed ones
left-to-right, keeping the primes; it is one rule on code vectors.  Marked
tableaux (a standard tableau plus a primed subset) have their own descent
rule, and summing fundamental functions over all markings of one standard
tableau yields the peak-function characteristic of its descent set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .domino_tableaux import (
    Domino,
    _descent_set,
    _layout_text,
    _require_increasing,
    _require_tiling,
    _shape_args,
    _trusted,
    adjacent_pairs,
    enumerate_tilings,
    standard_orders,
    swap_entries,
    validate_partition,
)
from .exact_algebra import TruncatedPolynomial, _collect
from .hecke_engine import OperatorFamily, family_from_action
from .qsym_typeb import PEAK_VARIANTS, QSymElement, fb_monomials, peak_characteristic
from .signed_permutations import _cached_on, checked_index_set, subsets


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


def _valid_quotient_shape(shape) -> tuple[int, ...]:
    """``shape`` as a checked partition; raises if its 2-quotient is invalid."""
    shape = validate_partition(shape)
    if not two_quotient(shape).valid:
        raise ValueError(f"shape {shape} has an invalid 2-quotient")
    return shape


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

    @cached_property
    def _filling_plan(self) -> tuple[tuple, ...]:
        """Per position of ``filled``, the earlier positions just above or left
        of it, just below or right of it, sharing a row, and sharing a column;
        then ``1`` when it may not carry ``0``."""
        owner = {cell: p for p, d in enumerate(self.filled) for cell in d.cells}
        plan = []
        for p, domino in enumerate(self.filled):

            def earlier(near) -> tuple[int, ...]:
                return tuple({
                    q for (r, c), q in owner.items()
                    if q < p and any(near(r - s, c - t) for (s, t) in domino.cells)
                })

            plan.append((
                earlier(lambda dr, dc: (dr, dc) in ((0, -1), (-1, 0))),
                earlier(lambda dr, dc: (dr, dc) in ((0, 1), (1, 0))),
                earlier(lambda dr, dc: dr == 0),
                earlier(lambda dr, dc: dc == 0),
                int((1, 1) in domino.cells and domino.orientation == "vertical"),
            ))
        return tuple(plan)

    @cached_property
    def _tie_ranks(self) -> tuple[list[int], ...]:
        """Per position of ``filled``, its rank in the order of equal unprimed
        codes (northwest column, then cell) and of equal primed ones (top row,
        then cell)."""
        rules = (
            [(d.nw_cell[1], d.nw_cell) for d in self.filled],
            [(d.min_row, d.nw_cell) for d in self.filled],
        )
        # the keys of one rule are distinct, so a rank counts the smaller keys
        return tuple([sum(k < key for k in keys) for key in keys] for keys in rules)


@_cached_on(_shape_args)
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


@_cached_on(_shape_args)
def enumerate_shifted(shape) -> tuple[ShiftedStandardTableau, ...]:
    """The standard tableaux of a shape, in :func:`iter_standard` order.

    Raises for shapes whose 2-quotient is invalid.

    >>> len(enumerate_shifted((2, 2)))
    1
    >>> enumerate_shifted((2, 2))[0].descent_set()
    frozenset({1})
    """
    _valid_quotient_shape(shape)
    return tuple(iter_standard(shape))


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
        seen: set[tuple[str, int, int]] = set()
        for domino, code in entries:
            # a primed entry may not repeat in a row, an unprimed one in a column
            kind, axis = ("row", 0) if entry_is_primed(code) else ("column", 1)
            for line in {cell[axis] for cell in domino.cells}:
                if (kind, line, code) in seen:
                    raise ValueError(
                        f"{kind} {line} holds two dominoes with entry {entry_text(code)}"
                    )
                seen.add((kind, line, code))
        if any(
            code == 0 and (1, 1) in d.cells and d.orientation == "vertical"
            for d, code in entries
        ):
            raise ValueError("a vertical northwest domino cannot carry 0")

    @property
    def size(self) -> int:
        return len(self.entries)

    def weight(self, nvars: int) -> tuple[int, ...]:
        """Per-index domino counts ``(wt_0, ..., wt_{nvars-1})``."""
        counts = Counter(entry_index(code) for _, code in self.entries)
        top = max(counts, default=0)
        if top >= nvars:
            raise ValueError(f"entry index {top} exceeds nvars-1")
        return tuple(counts[k] for k in range(nvars))

    def monomial(self, nvars: int) -> TruncatedPolynomial:
        return TruncatedPolynomial.make(
            nvars, self.size, {self.weight(nvars): 1}
        )

    def to_text(self) -> str:
        return _layout_text(
            ((entry_text(code), domino) for domino, code in self.entries),
            self.tiling.unfilled,
        )


def _code_walk(
    tiling: ShiftedTiling, maxval: int, caps: tuple[int, ...] | None = None
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield every filling of ``tiling`` with entry indices at most ``maxval``
    as its codes in ``filled`` order and its weight, depth first, codes ascending.

    Both lists are reused, so a caller copies what it keeps.  ``caps[k]``, when
    given, bounds how many dominoes carry index ``k``.  Counts only grow along
    a branch, so skipping a code whose index is at its cap cuts no branch that
    stays within the caps.
    """
    plan = tiling._filling_plan
    codes = [0] * len(plan)
    counts = [0] * (maxval + 1)
    top = 2 * maxval
    filling = (codes, counts)

    def fill(p: int):
        if p == len(plan):
            yield filling
            return
        before, after, rows, cols, floor = plan[p]
        low = max([floor, *(codes[q] for q in before)])
        high = min([top, *(codes[q] for q in after)])
        # a primed code may not repeat in a row, an unprimed one in a column
        taken = ({codes[q] for q in cols}, {codes[q] for q in rows})
        options = [
            code
            for code in range(low, high + 1)
            if code not in taken[code % 2]
            and (caps is None or counts[(code + 1) // 2] < caps[(code + 1) // 2])
        ]
        for code in options:
            codes[p] = code
            counts[(code + 1) // 2] += 1
            yield from fill(p + 1)
            counts[(code + 1) // 2] -= 1

    yield from fill(0)


def _filling(tiling: ShiftedTiling, codes: list[int]) -> ShiftedSemistandardTableau:
    # ``filled`` is sorted, so the entries come out in domino order
    return _trusted(
        ShiftedSemistandardTableau, tiling=tiling, entries=tuple(zip(tiling.filled, codes))
    )


def iter_semistandard(
    shape, maxval: int
) -> Iterator[ShiftedSemistandardTableau]:
    """Lazily yield semistandard tableaux with entry indices at most ``maxval``."""
    shape = validate_partition(shape)
    for tiling in enumerate_shifted_tilings(shape):
        for codes, _ in _code_walk(tiling, maxval):
            yield _filling(tiling, codes)


# ---------------------------------------------------------------------------
# marked tableaux, standardization, descents


@dataclass(frozen=True)
class MarkedStandardTableau:
    """A standard tableau together with the subset of primed entries."""

    base: ShiftedStandardTableau
    primed: frozenset[int]

    def __post_init__(self) -> None:
        primed = checked_index_set(self.primed, self.base.size, start=1)
        object.__setattr__(self, "primed", primed)


def _markings(base: ShiftedStandardTableau) -> Iterator[MarkedStandardTableau]:
    """Every primed subset of ``base``, by size then lexicographically."""
    for subset in subsets(range(1, base.size + 1)):
        yield _trusted(MarkedStandardTableau, base=base, primed=frozenset(subset))


def marked_descents(marked: MarkedStandardTableau) -> frozenset[int]:
    """Descents of a marked tableau.

    ``0`` is a descent when entry 1 is primed or its domino is vertical.
    ``i >= 1`` is a descent when either ``i`` is unprimed and is a descent of
    the underlying standard tableau, or ``i+1`` is primed and ``i`` is not.
    """
    primed, base_descents = marked.primed, marked.base.descent_set()
    # no entry is 0, so 0 is unprimed and the rule for i = 0 is the general one
    return frozenset(
        i
        for i in range(marked.base.size)
        if (i in base_descents and i not in primed)
        or (i not in base_descents and i + 1 in primed)
    )


def _standardization(
    tiling: ShiftedTiling, codes: list[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """The standardization rule on the codes of ``tiling.filled``.

    Returns the positions of ``filled`` in entry order and the primed
    entries.  Positions sort by code; equal primed codes go top-to-bottom,
    equal unprimed ones (``0`` included) left-to-right.
    """
    ranks = tiling._tie_ranks
    m = len(codes)
    keys = [code * m + ranks[code & 1][p] for p, code in enumerate(codes)]
    order = tuple(sorted(range(m), key=keys.__getitem__))
    return order, frozenset(k for k, p in enumerate(order, 1) if codes[p] % 2)


def standardize(tableau: ShiftedSemistandardTableau) -> MarkedStandardTableau:
    """Replace alphabet entries by ``1..m``, keeping the primes.

    Zeros are numbered left-to-right; then for each index the primed dominoes
    top-to-bottom, followed by the unprimed ones left-to-right.
    """
    tiling = tableau.tiling
    # the entries are sorted by domino, as ``filled`` is
    order, primed = _standardization(tiling, [code for _, code in tableau.entries])
    base = ShiftedStandardTableau(tiling, tuple(tiling.filled[p] for p in order))
    return MarkedStandardTableau(base, primed)


# ---------------------------------------------------------------------------
# generating functions and theorem checks


def h_lambda(shape, variant: str = "literal") -> QSymElement:
    """H_lambda as the sum of the peak-function characteristics of ``Des(Q)``
    over the standard tableaux ``Q`` of a shape.

    >>> print(h_lambda((2,)))
    1*FB{} + 1*FB{0}
    """
    shape = _valid_quotient_shape(shape)
    if variant not in PEAK_VARIANTS:
        raise ValueError(f"variant must be one of {PEAK_VARIANTS}")
    degree = filled_count(shape)
    counts = Counter(standard.descent_set() for standard in enumerate_shifted(shape))
    return QSymElement(
        degree,
        _collect(
            (subset, count * coefficient)
            for descents, count in counts.items()
            for subset, coefficient in peak_characteristic(
                descents, degree, variant
            ).coeffs
        ),
    )


def h_lambda_monomials(shape, nvars: int) -> TruncatedPolynomial:
    """H_lambda by its definition: ``x^{wt(T)}`` summed over the semistandard
    tableaux ``T`` with entry indices below ``nvars``, exact for monomials in
    ``x_0..x_{nvars-1}``; the oracle for :func:`stand_theorem_check`'s sum.

    >>> print(h_lambda_monomials((2,), 3))
    1*x0 + 2*x1 + 2*x2
    """
    shape = _valid_quotient_shape(shape)
    if nvars < 0:
        raise ValueError(f"the monomial sum needs nvars >= 0, not {nvars}")
    weights = Counter(
        tuple(counts)
        for tiling in enumerate_shifted_tilings(shape)
        for _, counts in _code_walk(tiling, nvars - 1)
    )
    # each weight has nvars entries summing to the filled count
    return TruncatedPolynomial(nvars, filled_count(shape), _collect(weights.items()))


def verify_stand_theorem(marked: MarkedStandardTableau, nvars: int) -> bool:
    """Check that tableaux standardizing to ``marked`` sum to one fundamental.

    The bounded semistandard generating sum over ``{T : std(T) = marked}``
    must equal the fundamental function of the marked descent set, truncated
    to ``nvars`` variables.  Standardization keeps the tiling, so every such
    ``T`` fills the tiling of ``marked``.
    """
    if nvars < 1:
        raise ValueError(f"the stand check needs nvars >= 1, not {nvars}")
    tiling, degree = marked.base.tiling, marked.base.size
    total = TruncatedPolynomial.zero(nvars, degree)
    for codes, _ in _code_walk(tiling, nvars - 1):
        tableau = _filling(tiling, codes)
        if standardize(tableau) == marked:
            total = total + tableau.monomial(nvars)
    return total == fb_monomials(marked_descents(marked), degree, nvars)


def stand_theorem_check(shape, nvars: int) -> tuple[int, int, TruncatedPolynomial]:
    """Check every marked tableau of ``shape``: return the failures, the
    number of marked tableaux compared, and the fibers summed into
    ``h_lambda_monomials(shape, nvars)``.

    Per tiling, one walk standardizes each bounded filling once and counts
    its weight in the fiber of its standardization; every marked tableau is
    then checked as in :func:`verify_stand_theorem`, an empty fiber summing
    to zero.  A fiber that no marked tableau matches is a failure too, so a
    standardization that leaves the standard tableaux is reported.
    """
    if nvars < 1:
        raise ValueError(f"the stand check needs nvars >= 1, not {nvars}")
    tilings = enumerate_shifted_tilings(_valid_quotient_shape(shape))
    fibers: defaultdict[tuple, Counter] = defaultdict(Counter)
    for t, tiling in enumerate(tilings):
        for codes, counts in _code_walk(tiling, nvars - 1):
            fibers[t, _standardization(tiling, codes)][tuple(counts)] += 1
    # each weight has nvars entries summing to the filled count
    tally = (item for fiber in fibers.values() for item in fiber.items())
    monomial = TruncatedPolynomial(nvars, filled_count(shape), _collect(tally))
    failures = compared = 0
    for base in enumerate_shifted(shape):
        t = tilings.index(base.tiling)
        order = tuple(map(base.tiling.filled.index, base.dominoes))
        for marked in _markings(base):
            expected = fb_monomials(marked_descents(marked), base.size, nvars)
            # the counts are positive, as the stored coefficients are nonzero
            fiber = fibers.pop((t, (order, marked.primed)), {})
            failures += fiber != expected.as_dict()
            compared += 1
    return failures + len(fibers), compared, monomial


def verify_peak_theorem(
    standard: ShiftedStandardTableau, variant: str = "literal"
) -> bool:
    """Check that all markings of one standard tableau sum to its peak function."""
    degree = standard.size
    total = QSymElement.from_descent_sets(
        (marked_descents(marked) for marked in _markings(standard)), degree
    )
    return total == peak_characteristic(standard.descent_set(), degree, variant)


# ---------------------------------------------------------------------------
# conjugated operator family


def conjugate_family(shape) -> OperatorFamily:
    """Casewise operators on the standard tableaux seen through the diagonal
    reflection.

    Reflection complements the descent labels, so the index-``i`` move is
    available exactly when ``i`` is a descent of the tableau; it swaps the
    entries ``i`` and ``i+1`` when that stays standard (index 0 never moves).
    """
    shape = _valid_quotient_shape(shape)
    rank = filled_count(shape)
    return family_from_action(
        enumerate_shifted(shape),
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
        for codes, counts in _code_walk(tiling, nvars - 1, weight):
            if tuple(counts) == weight:
                return "found", _filling(tiling, codes)
    return "not-found", None
