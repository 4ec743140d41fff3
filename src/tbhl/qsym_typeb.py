"""Type-B quasisymmetric functions: fundamental basis, peaks, peak functions.

Degree-n type-B quasisymmetric functions are stored as integer combinations
of the fundamental elements indexed by subsets of ``{0, ..., n-1}`` (basis
string ``"FB"``).  The fundamental element for a subset I expands into
monomials indexed by chains ``0 = i_0 <= i_1 <= ... <= i_n`` where the step
at position j is strict exactly when ``j in I``; the variables are
``x_0, x_1, ...``.  Subsets of ``{0, ..., n-1}`` correspond to type-B
compositions of n, whose first part may be zero.

A subset I has peak set ``{p >= 1 : p in I, p-1 not in I}``, valley set
``{v in [n] : v not in I, v-1 in I}``, and zeta-bit ``[0 in I]``; the number
of valleys always equals the number of peaks plus the zeta-bit.  The peak
function for a bit b and peak set P sums ``2^(|P|+b) * F_J`` over subsets J
whose symmetric-difference condition ``P subseteq J (triangle) (J+1)``
holds, with a side condition on ``0 in J`` when b = 1 that admits two
published conventions; both are implemented (``variant`` in ``{"literal",
"complemented"}``) because they genuinely differ and downstream theorems are
sensitive to the choice.

>>> str(fb_monomials(frozenset(), 1, nvars=2))
'1*x0 + 1*x1'
>>> str(fb_monomials(frozenset({0}), 1, nvars=2))
'1*x1'
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

from .exact_algebra import (
    GaussianInteger,
    SparseMatrix,
    TruncatedPolynomial,
    _collect,
)
from .signed_permutations import (
    _cached_on,
    checked_index_set,
    format_index_set,
    subsets,
)

__all__ = [
    "QSymElement",
    "PeakDataB",
    "fb_monomials",
    "peak_data",
    "peak_function_type_b",
    "peak_characteristic",
    "fb_truncations_linearly_independent",
    "PEAK_VARIANTS",
]

PEAK_VARIANTS = ("literal", "complemented")


@dataclass(frozen=True)
class QSymElement:
    """An integer combination of degree-n fundamental elements.

    Fundamental elements are indexed by subsets of ``{0..n-1}``.  ``coeffs``
    is in the normal form of :func:`~tbhl.exact_algebra._collect`, keyed by
    subsets as sorted tuples.  Only :meth:`make` checks a combination: each
    subset through :func:`~tbhl.signed_permutations.checked_index_set`, and
    each coefficient through ``operator.index``, as :meth:`scale` reads its
    scalar.  ``+``, :meth:`scale` and the package's own combinations are
    built in normal form directly; there is no ``-``.
    """

    n: int
    coeffs: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def make(n: int, coeffs: Mapping[Iterable[int], int]) -> "QSymElement":
        return QSymElement(
            n,
            _collect(
                (tuple(sorted(checked_index_set(subset, n))), operator.index(c))
                for subset, c in coeffs.items()
            ),
        )

    @staticmethod
    def zero(n: int) -> "QSymElement":
        return QSymElement(n, ())

    @staticmethod
    def fundamental(subset: Iterable[int], n: int) -> "QSymElement":
        return QSymElement.make(n, {frozenset(subset): 1})

    @staticmethod
    def from_descent_sets(
        descent_sets: Iterable[Iterable[int]], n: int
    ) -> "QSymElement":
        return QSymElement.make(n, Counter(map(frozenset, descent_sets)))

    def _require_compatible(self, other: "QSymElement") -> None:
        if self.n != other.n:
            raise ValueError("degree mismatch")

    def __add__(self, other: "QSymElement") -> "QSymElement":
        self._require_compatible(other)
        return QSymElement(self.n, _collect(self.coeffs + other.coeffs))

    def scale(self, scalar: int) -> "QSymElement":
        scalar = operator.index(scalar)
        return QSymElement(self.n, _collect((k, scalar * c) for k, c in self.coeffs))

    def to_monomials(self, nvars: int) -> TruncatedPolynomial:
        """Expand into monomials in ``x_0 .. x_{nvars-1}``: the scaled terms
        of every fundamental element, collected into one normal form."""
        return TruncatedPolynomial(
            nvars,
            self.n,
            _collect(
                (exponents, coefficient * c)
                for key, coefficient in self.coeffs
                for exponents, c in fb_monomials(key, self.n, nvars).terms
            ),
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": "FB",
            "coeffs": [
                [format_index_set(key), coefficient] for key, coefficient in self.coeffs
            ],
        }

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{coefficient}*FB{format_index_set(key)}"
            for key, coefficient in self.coeffs
        )


def _fb_args(subset: Iterable[int], n: int, nvars: int) -> tuple:
    if nvars < 0:
        raise ValueError(f"nvars must be nonnegative, not {nvars}")
    return checked_index_set(subset, n), n, nvars


@_cached_on(_fb_args)
def fb_monomials(subset: Iterable[int], n: int, nvars: int) -> TruncatedPolynomial:
    """Monomial expansion of the degree-n type-B fundamental element.

    Sums ``x_{i_1} ... x_{i_n}`` over ``0 <= i_1 <= ... <= i_n <= nvars-1``
    with strict steps at positions in the subset (position 0 compares
    against the fixed ``i_0 = 0``, so ``0 in subset`` forces ``i_1 >= 1``).

    >>> fb_monomials({0}, 1, 2).as_dict()
    {(0, 1): 1}
    >>> fb_monomials(set(), 2, 2).as_dict()
    {(0, 2): 1, (1, 1): 1, (2, 0): 1}
    """
    chains: list[tuple[tuple[int, ...], int]] = []
    exponents = [0] * nvars

    # j indexes i_1 .. i_n; the step between i_j and i_{j+1} is strict
    # exactly when j lies in the subset.
    def walk(j: int, minimum: int) -> None:
        if j > n:
            chains.append((tuple(exponents), 1))
            return
        for value in range(minimum, nvars):
            exponents[value] += 1
            walk(j + 1, value + 1 if j in subset else value)
            exponents[value] -= 1

    walk(1, 1 if 0 in subset else 0)
    # every chain gives one term of degree n, so the terms are valid
    return TruncatedPolynomial(nvars, n, _collect(chains))


@dataclass(frozen=True)
class PeakDataB:
    """Peak set, valley set, and zeta-bit of a subset of ``{0..n-1}``."""

    peak: frozenset[int]
    valley: frozenset[int]
    zeta: int


def peak_data(subset: Iterable[int], n: int) -> PeakDataB:
    """Peaks ``{p >= 1 in I, p-1 not in I}``, valleys ``{v in [n] not in I,
    v-1 in I}``, and the zeta-bit ``[0 in I]``.

    >>> data = peak_data({0, 3, 4, 6}, 7)
    >>> (sorted(data.peak), sorted(data.valley), data.zeta)
    ([3, 6], [1, 5, 7], 1)
    """
    subset = checked_index_set(subset, n)
    peaks = frozenset(
        p for p in range(1, n) if p in subset and (p - 1) not in subset
    )
    valleys = frozenset(
        v for v in range(1, n + 1) if v not in subset and (v - 1) in subset
    )
    return PeakDataB(peaks, valleys, 1 if 0 in subset else 0)


def _validate_peak_set(peaks: frozenset[int], n: int, bit: int) -> None:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    # peaks lie in 1..n-1, an empty range at degree 0
    checked_index_set(peaks, n - 1 if n > 0 else n, start=1)
    ordered = sorted(peaks)
    for a, b in zip(ordered, ordered[1:]):
        if b - a == 1:
            raise ValueError(f"peak set {ordered} has adjacent elements")
    if bit == 1 and 1 in peaks:
        raise ValueError("bit 1 requires 1 outside the peak set")
    if bit == 1 and n == 0:
        raise ValueError("bit 1 puts 0 in the set, so it needs n >= 1")


def symmetric_difference_condition(peaks: frozenset[int], subset: Collection[int]) -> bool:
    """Whether every peak p satisfies ``(p in J) xor (p-1 in J)``."""
    return all((p in subset) != ((p - 1) in subset) for p in peaks)


def peak_function_type_b(
    bit: int,
    peaks: Iterable[int],
    n: int,
    variant: str = "literal",
) -> QSymElement:
    """The type-B peak function for a zeta-bit and peak set.

    Sums ``2^(|P|+bit) * F_J`` over subsets J of ``{0..n-1}`` satisfying the
    symmetric-difference condition.  For bit = 1 the side condition on J is
    convention-dependent: ``variant="literal"`` keeps subsets with ``0 in
    J``; ``variant="complemented"`` keeps ``0 not in J``.

    >>> str(peak_function_type_b(0, set(), 1))
    '1*FB{} + 1*FB{0}'
    >>> str(peak_function_type_b(1, set(), 1, variant="literal"))
    '2*FB{0}'
    >>> str(peak_function_type_b(1, set(), 1, variant="complemented"))
    '2*FB{}'
    """
    if variant not in PEAK_VARIANTS:
        raise ValueError(f"variant must be one of {PEAK_VARIANTS}")
    peaks = frozenset(peaks)
    _validate_peak_set(peaks, n, bit)
    coefficient = 2 ** (len(peaks) + bit)
    # subsets are sorted tuples, each listed once
    terms = (
        (candidate, coefficient)
        for candidate in subsets(range(n))
        if symmetric_difference_condition(peaks, candidate)
        and (bit == 0 or (0 in candidate) == (variant == "literal"))
    )
    return QSymElement(n, _collect(terms))


def peak_characteristic(
    subset: Iterable[int], n: int, variant: str = "literal"
) -> QSymElement:
    """The peak function attached to a subset: bit = zeta, peaks as computed.

    >>> str(peak_characteristic({1}, 2))
    '2*FB{0} + 2*FB{1}'
    >>> str(peak_characteristic({0}, 1, variant="literal"))
    '2*FB{0}'
    >>> str(peak_characteristic({0}, 1, variant="complemented"))
    '2*FB{}'
    """
    data = peak_data(subset, n)
    return peak_function_type_b(data.zeta, data.peak, n, variant)


def fb_truncations_linearly_independent(n: int, nvars: int | None = None) -> bool:
    """Whether the degree-n fundamental truncations to ``nvars`` variables
    (default n+1) are linearly independent over the rationals.

    >>> fb_truncations_linearly_independent(2)
    True
    """
    if nvars is None:
        nvars = n + 1
    index_sets = [frozenset(c) for c in subsets(range(n))]
    # the columns number the monomials in the order met; F_{} meets them all
    column: dict[tuple[int, ...], int] = {}
    scalar = GaussianInteger.integer
    entries = {
        (row, column.setdefault(exponents, len(column))): scalar(coefficient)
        for row, subset in enumerate(index_sets)
        for exponents, coefficient in fb_monomials(subset, n, nvars).terms
    }
    # every position is in range and every coefficient a positive count
    expansion = SparseMatrix._trusted(len(index_sets), len(column), entries)
    return expansion.rank() == len(index_sets)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
