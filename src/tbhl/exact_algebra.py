"""Exact scalar, matrix, and truncated-polynomial arithmetic.

Scalars are Gaussian integers: complex numbers with ``int`` real and
imaginary parts.  Every operator entry is ``0``, ``±1`` or ``±i``, and sums
and products of Gaussian integers are Gaussian integers, so no computation
leaves them.  The scalars are interned: values come from one bounded cache,
so the few values the operators produce are shared instances.  An ``int``
becomes a scalar in two places only, :meth:`GaussianInteger.integer` and the
public ``SparseMatrix`` constructor; ``+``, ``*`` and ``SparseMatrix.scale``
take scalars only.

Matrices are sparse dicts keyed by ``(row, col)`` that never store a zero
entry.  The public constructor checks every position and value; sums,
scalings, products and Kronecker products are built by a trusted constructor
instead.  A product sums the parts of its terms and builds one scalar per
nonzero entry.

Polynomials are multivariate polynomials with integer coefficients and a
degree cap, used for monomial expansions of quasisymmetric functions; a term
above the cap is an error, never silently dropped.  Their normal form, shared
with ``QSymElement``, is a key-sorted tuple of ``(key, coefficient)`` pairs
with unique keys and nonzero ``int`` coefficients.  Only ``make`` checks a
combination, given as a mapping; every other one is put in normal form by
:func:`_collect`.  Combinations have ``+`` and, for ``QSymElement``,
``scale``; nothing subtracts them.

>>> i = GaussianInteger.sqrt_minus_one()
>>> i * i == GaussianInteger.integer(-1)
True
>>> print(i + GaussianInteger.integer(1))
1+1*i
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterable, Mapping

@dataclass(frozen=True)
class GaussianInteger:
    """A complex number with ``int`` real and imaginary parts.

    Each part is read through ``operator.index``, so ``True`` becomes the
    plain ``int`` 1 and a ``float``, a rational or any other non-integral
    value raises ``TypeError``.
    """

    re: int = 0
    im: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", operator.index(self.re))
        object.__setattr__(self, "im", operator.index(self.im))

    @staticmethod
    def integer(value: int) -> "GaussianInteger":
        """The integer ``value``.  It is read through ``operator.index`` before
        the cache lookup, so ``True`` gives the same plain-``int`` instance as
        ``1`` and a float raises ``TypeError``."""
        return GaussianInteger._gaussian_integer(operator.index(value), 0)

    @staticmethod
    @lru_cache(maxsize=1024)
    def _gaussian_integer(re: int, im: int) -> "GaussianInteger":
        # scalars are immutable, so instances are shared: the ±1/±i entries
        # of the operators, and every product of them, are a few objects,
        # and entry dicts of equal matrices compare by identity
        return GaussianInteger(re, im)

    @staticmethod
    def sqrt_minus_one() -> "GaussianInteger":
        """The imaginary unit.

        >>> i = GaussianInteger.sqrt_minus_one()
        >>> i * i
        GaussianInteger(re=-1, im=0)
        """
        return GaussianInteger._gaussian_integer(0, 1)

    def __add__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger._gaussian_integer(
            self.re + other.re, self.im + other.im
        )

    def __mul__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger._gaussian_integer(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


_ZERO = GaussianInteger.integer(0)
_ONE = GaussianInteger.integer(1)


class SparseMatrix:
    """An exact sparse matrix over the Gaussian integers.

    Entries are stored in a dict keyed by ``(row, col)``; zero entries are
    never stored, so equal matrices have equal entry dicts.  They are given
    as a mapping, and the public constructor checks every position and turns
    every ``int`` value into a scalar through :meth:`GaussianInteger.integer`.
    Results of ``@``, ``+``, :meth:`scale` and :meth:`kron` come from the
    trusted constructor :meth:`_trusted`, which skips those checks: their
    entries are computed from already-checked matrices, and entries that
    cancel are dropped.  Instances are immutable in intent: all operations
    return new matrices.

    >>> a = SparseMatrix(2, 2, {(0, 1): 1, (1, 0): 1})
    >>> (a @ a) == SparseMatrix.identity(2)
    True
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], "GaussianInteger | int"],
    ) -> None:
        self.nrows = nrows
        self.ncols = ncols
        stored: dict[tuple[int, int], GaussianInteger] = {}
        for (r, c), value in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry {(r, c)} outside {nrows}x{ncols} matrix")
            if not isinstance(value, GaussianInteger):
                value = GaussianInteger.integer(value)
            if not value.is_zero():
                stored[(r, c)] = value
        self.entries = stored

    @staticmethod
    def _trusted(
        nrows: int, ncols: int, entries: dict[tuple[int, int], GaussianInteger]
    ) -> "SparseMatrix":
        """Wrap ``entries`` without checks: the caller guarantees in-range
        positions and nonzero ``GaussianInteger`` values, and hands the
        dict over."""
        matrix = object.__new__(SparseMatrix)
        matrix.nrows = nrows
        matrix.ncols = ncols
        matrix.entries = entries
        return matrix

    @staticmethod
    def zero(nrows: int, ncols: int) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols, {})

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix._trusted(n, n, {(k, k): _ONE for k in range(n)})

    def get(self, row: int, col: int) -> GaussianInteger:
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

    def scale(self, scalar: GaussianInteger) -> "SparseMatrix":
        if scalar.is_zero():
            return SparseMatrix.zero(self.nrows, self.ncols)
        # a product of nonzero Gaussian integers is nonzero
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
        by_row: dict[int, list[tuple[int, int, int]]] = {}
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
        of = GaussianInteger._gaussian_integer
        return SparseMatrix._trusted(
            self.nrows,
            other.ncols,
            {pos: of(re, im) for pos, (re, im) in sums.items() if re or im},
        )

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """Kronecker product: ``self[r, c] * other[s, t]`` sits at row
        ``r * other.nrows + s`` and column ``c * other.ncols + t``."""
        rows, cols = other.nrows, other.ncols
        left = [(r * rows, c * cols, v.re, v.im) for (r, c), v in self.entries.items()]
        right = [(s, t, v.re, v.im) for (s, t), v in other.entries.items()]
        of = GaussianInteger._gaussian_integer
        # a product of nonzero Gaussian integers is nonzero
        entries = {
            (r + s, c + t): of(a * x - b * y, a * y + b * x)
            for r, c, a, b in left
            for s, t, x, y in right
        }
        return SparseMatrix._trusted(self.nrows * rows, self.ncols * cols, entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def rank(self) -> int:
        """Exact rank by fraction-free Gaussian elimination.

        Rows are kept as ``col -> (re, im)`` integer parts.  Each row is
        reduced against the pivot rows kept so far, keyed by their leading
        column, until it vanishes or leads in a new column.  One step
        replaces the row by ``p*row - r*pivot``, where ``p`` is the pivot's
        lead and ``r`` the row's: the lead cancels, the result is ``p`` times
        the row that dividing by ``p`` would give, and every part stays an
        ``int``.  The row is then divided by the gcd of all its parts, so the
        parts do not grow from step to step.  Real and complex matrices take
        this one path.

        >>> SparseMatrix(2, 3, {(0, 0): 1, (0, 2): 1, (1, 0): 2, (1, 2): 2}).rank()
        1
        >>> i = GaussianInteger.sqrt_minus_one()
        >>> SparseMatrix(2, 2, {(0, 0): 1, (0, 1): i, (1, 0): i, (1, 1): -1}).rank()
        1
        """
        rows: dict[int, dict[int, tuple[int, int]]] = {}
        for (r, c), value in self.entries.items():
            rows.setdefault(r, {})[c] = (value.re, value.im)
        pivots: dict[int, dict[int, tuple[int, int]]] = {}
        for row in rows.values():
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                p_re, p_im = pivot[lead]
                r_re, r_im = row[lead]
                # p and the row's entries are nonzero, and the Gaussian
                # integers have no zero divisors, so no scaled entry is zero
                reduced = {
                    c: (p_re * x - p_im * y, p_re * y + p_im * x)
                    for c, (x, y) in row.items()
                }
                for c, (x, y) in pivot.items():
                    a, b = reduced.get(c, (0, 0))
                    a -= r_re * x - r_im * y
                    b -= r_re * y + r_im * x
                    if a or b:
                        reduced[c] = (a, b)
                    else:
                        del reduced[c]
                content = math.gcd(*(part for pair in reduced.values() for part in pair))
                if content > 1:
                    reduced = {
                        c: (x // content, y // content) for c, (x, y) in reduced.items()
                    }
                row = reduced
        return len(pivots)

    def is_invertible(self) -> bool:
        """Whether the matrix is square with full rank.

        >>> SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 2}).is_invertible()
        True
        >>> SparseMatrix(2, 2, {(0, 0): 1}).is_invertible()
        False
        """
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


def _collect(
    items: Iterable[tuple[Hashable, int]],
) -> tuple[tuple[Hashable, int], ...]:
    """The normal form of ``(key, coefficient)`` pairs: equal keys summed,
    zero sums dropped, sorted by key.  Nothing is checked: the keys must
    already be canonical and the coefficients ``int``.

    >>> _collect([((1,), 2), ((0,), 1), ((1,), -2)])
    (((0,), 1),)
    """
    totals: dict[Hashable, int] = {}
    for key, coefficient in items:
        totals[key] = totals.get(key, 0) + coefficient
    return tuple(sorted((key, c) for key, c in totals.items() if c))


@dataclass(frozen=True)
class TruncatedPolynomial:
    """A multivariate polynomial with integer coefficients, capped by degree.

    ``terms`` maps exponent vectors (tuples of length ``nvars``) to nonzero
    integer coefficients, each of total degree at most ``degree_cap``; a
    term above the cap raises ``ValueError``, so the stored terms are always
    the complete polynomial.  :meth:`make` rejects a negative ``nvars`` or
    cap, and reads exponents and coefficients through ``operator.index``, so
    a float or a string raises ``TypeError``.

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
        terms: Mapping[tuple[int, ...], int],
    ) -> "TruncatedPolynomial":
        for name, value in (("nvars", nvars), ("degree cap", degree_cap)):
            if value < 0:
                raise ValueError(f"{name} {value} is negative")

        def checked(exponents, coefficient) -> tuple[tuple[int, ...], int]:
            exponents = tuple(map(operator.index, exponents))
            if len(exponents) != nvars:
                raise ValueError(f"exponent vector {exponents} is not length {nvars}")
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if sum(exponents) > degree_cap:
                raise ValueError(f"term {exponents} exceeds the degree cap {degree_cap}")
            return exponents, operator.index(coefficient)

        return TruncatedPolynomial(
            nvars, degree_cap, _collect(checked(*item) for item in terms.items())
        )

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
        return TruncatedPolynomial(
            self.nvars, self.degree_cap, _collect(self.terms + other.terms)
        )

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
