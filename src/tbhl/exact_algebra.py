"""Exact scalar, matrix, and truncated-polynomial arithmetic.

Scalars are Gaussian rationals: complex numbers with exact rational real and
imaginary parts.  A part is a Python ``int`` when it is integral and a
:class:`fractions.Fraction` otherwise, so the ``±1``/``±i`` entries of the
operator matrices, and all their products, stay in fast integer arithmetic.
Gaussian integers are interned: results with integral parts come from one
bounded cache, so the few values the operators produce are shared instances.

Matrices are sparse dicts keyed by ``(row, col)`` that never store a zero
entry.  The public constructor checks every position and value; sums,
scalings and products are built by a trusted constructor instead.  A product
sums the parts of its terms and builds one scalar per nonzero entry.

Polynomials are multivariate polynomials with integer coefficients and a
degree cap, used for monomial expansions of quasisymmetric functions; a term
above the cap is an error, never silently dropped.

>>> i = GaussianRational.sqrt_minus_one()
>>> i * i == GaussianRational.integer(-1)
True
>>> print(i + GaussianRational.integer(1))
1+1*i
>>> GaussianRational.integer(1) / 2
GaussianRational(re=Fraction(1, 2), im=0)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

__all__ = [
    "GaussianRational",
    "SparseMatrix",
    "TruncatedPolynomial",
]


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Each part is an ``int`` when integral and a ``Fraction`` otherwise.
    Arithmetic results keep that form; a value built directly from
    ``Fraction(2)`` still equals, and hashes like, one built from ``2``.
    """

    re: "int | Fraction" = 0
    im: "int | Fraction" = 0

    @staticmethod
    def _of(re: "int | Fraction", im: "int | Fraction") -> "GaussianRational":
        """Trusted constructor for computed parts: a ``Fraction`` with
        denominator 1 becomes its ``int`` numerator, and a Gaussian integer
        is the shared instance of :meth:`_gaussian_integer`."""
        if type(re) is not int and re.denominator == 1:
            re = re.numerator
        if type(im) is not int and im.denominator == 1:
            im = im.numerator
        if type(re) is int and type(im) is int:
            return GaussianRational._gaussian_integer(re, im)
        return GaussianRational(re, im)

    @staticmethod
    def integer(value: int) -> "GaussianRational":
        """The integer ``value``.  It is read through ``operator.index`` before
        the cache lookup, so ``True`` gives the same plain-``int`` instance as
        ``1`` and a float raises ``TypeError``."""
        return GaussianRational._gaussian_integer(operator.index(value), 0)

    @staticmethod
    @lru_cache(maxsize=1024)
    def _gaussian_integer(re: int, im: int) -> "GaussianRational":
        # scalars are immutable, so instances are shared: the ±1/±i entries
        # of the operators, and every integral product of them, are a few
        # objects, and entry dicts of equal matrices compare by identity
        return GaussianRational(re, im)

    @staticmethod
    def sqrt_minus_one() -> "GaussianRational":
        """The imaginary unit.

        >>> GaussianRational.sqrt_minus_one() ** 2
        GaussianRational(re=-1, im=0)
        """
        return GaussianRational._gaussian_integer(0, 1)

    @staticmethod
    def coerce(value: "GaussianRational | Fraction | int") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return GaussianRational.integer(value)
        if isinstance(value, Fraction):
            return GaussianRational._of(value, 0)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: "GaussianRational | Fraction | int") -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational._of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._of(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational | Fraction | int") -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: "GaussianRational | Fraction | int") -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: "GaussianRational | Fraction | int") -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational._of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """Multiplicative inverse.

        >>> x = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
        >>> x * x.inverse() == GaussianRational.integer(1)
        True
        """
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational._of(
            Fraction(self.re, norm), Fraction(-self.im, norm)
        )

    def __truediv__(self, other: "GaussianRational | Fraction | int") -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GaussianRational.integer(1)
        for _ in range(exponent):
            result = result * self
        return result

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


_ZERO = GaussianRational.integer(0)
_ONE = GaussianRational.integer(1)


class SparseMatrix:
    """An exact sparse matrix over the Gaussian rationals.

    Entries are stored in a dict keyed by ``(row, col)``; zero entries are
    never stored, so equal matrices have equal entry dicts.  They are given
    as a mapping or as an iterable of ``((row, col), value)`` pairs, and the
    public constructor checks every position and coerces every value.
    Results of ``@``, ``+`` and :meth:`scale` come from the trusted
    constructor :meth:`_trusted`, which skips those checks: their entries are
    computed from already-checked matrices, and entries that cancel are
    dropped.  Instances are immutable in intent: all operations return new
    matrices.

    >>> a = SparseMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
    >>> (a @ a) == SparseMatrix.identity(2)
    True
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], GaussianRational]
        | Iterable[tuple[tuple[int, int], GaussianRational]] = (),
    ) -> None:
        self.nrows = nrows
        self.ncols = ncols
        stored: dict[tuple[int, int], GaussianRational] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), value in items:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry {(r, c)} outside {nrows}x{ncols} matrix")
            value = GaussianRational.coerce(value)
            if not value.is_zero():
                stored[(r, c)] = value
        self.entries = stored

    @staticmethod
    def _trusted(
        nrows: int, ncols: int, entries: dict[tuple[int, int], GaussianRational]
    ) -> "SparseMatrix":
        """Wrap ``entries`` without checks: the caller guarantees in-range
        positions and nonzero ``GaussianRational`` values, and hands the
        dict over."""
        matrix = object.__new__(SparseMatrix)
        matrix.nrows = nrows
        matrix.ncols = ncols
        matrix.entries = entries
        return matrix

    @staticmethod
    def from_entries(
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], "GaussianRational | Fraction | int"]
        | Iterable[tuple[tuple[int, int], "GaussianRational | Fraction | int"]],
    ) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols, entries)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols, {})

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix._trusted(n, n, {(k, k): _ONE for k in range(n)})

    def get(self, row: int, col: int) -> GaussianRational:
        return self.entries.get((row, col), _ZERO)

    def _require_same_shape(self, other: "SparseMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._require_same_shape(other)
        merged = dict(self.entries)
        for pos, value in other.entries.items():
            mine = merged.get(pos)
            if mine is None:
                merged[pos] = value
                continue
            total = mine + value
            if total.is_zero():
                del merged[pos]
            else:
                merged[pos] = total
        return SparseMatrix._trusted(self.nrows, self.ncols, merged)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(GaussianRational.integer(-1))

    def scale(self, scalar: "GaussianRational | Fraction | int") -> "SparseMatrix":
        scalar = GaussianRational.coerce(scalar)
        if scalar.is_zero():
            return SparseMatrix.zero(self.nrows, self.ncols)
        # a product of nonzero Gaussian rationals is nonzero
        return SparseMatrix._trusted(
            self.nrows,
            self.ncols,
            {pos: scalar * value for pos, value in self.entries.items()},
        )

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """Sparse product, summed on the parts of the entries: one scalar is
        built per nonzero output entry, none per term."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        by_row: dict[int, list[tuple[int, "int | Fraction", "int | Fraction"]]] = {}
        for (k, c), value in other.entries.items():
            by_row.setdefault(k, []).append((c, value.re, value.im))
        sums: dict[tuple[int, int], list] = {}
        for (r, k), left in self.entries.items():
            row = by_row.get(k)
            if row is None:
                continue
            a, b = left.re, left.im
            for c, x, y in row:
                pos = (r, c)
                acc = sums.get(pos)
                if acc is None:
                    sums[pos] = [a * x - b * y, a * y + b * x]
                else:
                    acc[0] += a * x - b * y
                    acc[1] += a * y + b * x
        of = GaussianRational._of
        return SparseMatrix._trusted(
            self.nrows,
            other.ncols,
            {pos: of(re, im) for pos, (re, im) in sums.items() if re or im},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def is_zero(self) -> bool:
        return not self.entries

    def column(self, col: int) -> dict[int, GaussianRational]:
        return {r: v for (r, c), v in self.entries.items() if c == col}

    def rank(self) -> int:
        """Exact rank by Gaussian elimination.

        Each row is reduced against the pivot rows kept so far, keyed by their
        leading column, until it vanishes or leads in a new column.  A real
        matrix is reduced on the real parts of its entries, which is several
        times faster than Gaussian-rational arithmetic; its elimination factor
        is a ``Fraction``, because ``int / int`` would give a float.

        >>> SparseMatrix.from_entries(2, 3, {(0, 0): 1, (0, 2): 1, (1, 0): 2, (1, 2): 2}).rank()
        1
        >>> i = GaussianRational.sqrt_minus_one()
        >>> SparseMatrix.from_entries(2, 2, {(0, 0): 1, (0, 1): i, (1, 0): i, (1, 1): -1}).rank()
        1
        """
        real = all(value.im == 0 for value in self.entries.values())
        zero = 0 if real else _ZERO
        rows: dict[int, dict] = {}
        for (r, c), value in self.entries.items():
            rows.setdefault(r, {})[c] = value.re if real else value
        pivots: dict[int, dict] = {}
        for row in rows.values():
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                factor = (Fraction(row[lead]) if real else row[lead]) / pivot[lead]
                for c, v in pivot.items():
                    updated = row.get(c, zero) - factor * v
                    if updated == zero:
                        row.pop(c, None)
                    else:
                        row[c] = updated
        return len(pivots)

    def is_invertible(self) -> bool:
        """Whether the matrix is square with full rank.

        >>> SparseMatrix.from_entries(2, 2, {(0, 0): 1, (1, 1): 2}).is_invertible()
        True
        >>> SparseMatrix.from_entries(2, 2, {(0, 0): 1}).is_invertible()
        False
        """
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


@dataclass(frozen=True)
class TruncatedPolynomial:
    """A multivariate polynomial with integer coefficients, capped by degree.

    ``terms`` maps exponent vectors (tuples of length ``nvars``) to nonzero
    integer coefficients, each of total degree at most ``degree_cap``; a
    term above the cap raises ``ValueError``, so the stored terms are always
    the complete polynomial.

    >>> p = TruncatedPolynomial.make(2, 2, {(0, 2): 1, (1, 1): 1})
    >>> sorted((p + p).as_dict().items())
    [((0, 2), 2), ((1, 1), 2)]
    >>> TruncatedPolynomial.make(2, 1, {(1, 1): 1})
    Traceback (most recent call last):
    ...
    ValueError: term (1, 1) exceeds the degree cap 1
    """

    nvars: int
    degree_cap: int
    terms: tuple[tuple[tuple[int, ...], int], ...] = field(default=())

    @staticmethod
    def make(
        nvars: int,
        degree_cap: int,
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = (),
    ) -> "TruncatedPolynomial":
        collected: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coefficient in items:
            exponents = tuple(exponents)
            if len(exponents) != nvars:
                raise ValueError(f"exponent vector {exponents} is not length {nvars}")
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if sum(exponents) > degree_cap:
                raise ValueError(
                    f"term {exponents} exceeds the degree cap {degree_cap}"
                )
            total = collected.get(exponents, 0) + int(coefficient)
            if total:
                collected[exponents] = total
            else:
                collected.pop(exponents, None)
        return TruncatedPolynomial(nvars, degree_cap, tuple(sorted(collected.items())))

    @staticmethod
    def zero(nvars: int, degree_cap: int) -> "TruncatedPolynomial":
        return TruncatedPolynomial.make(nvars, degree_cap, {})

    def _require_compatible(self, other: "TruncatedPolynomial") -> None:
        if self.nvars != other.nvars or self.degree_cap != other.degree_cap:
            raise ValueError("polynomials have different variable counts or caps")

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._require_compatible(other)
        merged = self.as_dict()
        for exponents, coefficient in other.terms:
            total = merged.get(exponents, 0) + coefficient
            if total:
                merged[exponents] = total
            else:
                merged.pop(exponents, None)
        return TruncatedPolynomial.make(self.nvars, self.degree_cap, merged)

    def __neg__(self) -> "TruncatedPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-other)

    def scale(self, scalar: int) -> "TruncatedPolynomial":
        return TruncatedPolynomial.make(
            self.nvars,
            self.degree_cap,
            {exponents: scalar * c for exponents, c in self.terms},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> list:
        """Serialize as ``[[exponent_vector, coefficient], ...]`` in lex order."""
        return [[list(exponents), coefficient] for exponents, coefficient in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exponents, coefficient in reversed(self.terms):
            factors = [
                f"x{k}" if e == 1 else f"x{k}^{e}"
                for k, e in enumerate(exponents)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            pieces.append(f"{coefficient}*{body}")
        return " + ".join(pieces)


def all_exponent_vectors(nvars: int, total: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, in lex order.

    >>> all_exponent_vectors(2, 2)
    [(0, 2), (1, 1), (2, 0)]
    """
    if nvars == 0:
        return [()] if total == 0 else []
    result = []
    for first in range(total + 1):
        for rest in all_exponent_vectors(nvars - 1, total - first):
            result.append((first, *rest))
    return sorted(result)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
