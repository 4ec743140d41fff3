"""Tests for exact scalar, matrix, and truncated-polynomial arithmetic."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbhl.exact_algebra import (
    GaussianInteger,
    SparseMatrix,
    TruncatedPolynomial,
)

integers = st.integers(-30, 30)
gaussians = st.builds(GaussianInteger, integers, integers)
integer = GaussianInteger.integer


def transpose(matrix):
    return SparseMatrix(
        matrix.ncols, matrix.nrows, {(c, r): v for (r, c), v in matrix.entries.items()}
    )


class TestGaussianInteger:
    def test_imaginary_unit_squares_to_minus_one(self):
        i = GaussianInteger.sqrt_minus_one()
        assert i * i == GaussianInteger.integer(-1)

    def test_sample_arithmetic(self):
        a = GaussianInteger(1, 3)
        b = GaussianInteger(-2, 5)
        assert a + b == GaussianInteger(-1, 8)
        assert a * b == GaussianInteger(-17, -1)
        assert a * integer(2) == GaussianInteger(2, 6)

    def test_ints_are_not_scalars(self):
        # an int becomes a scalar only through ``integer`` or the public
        # SparseMatrix constructor; ``+``, ``*`` and ``scale`` take scalars
        a = GaussianInteger(1, 3)
        for mixed in (lambda: a + 1, lambda: a * 2):
            with pytest.raises(AttributeError):
                mixed()
        for mixed in (lambda: 1 + a, lambda: 2 * a, lambda: a - a, lambda: -a):
            with pytest.raises(TypeError):
                mixed()
        with pytest.raises(AttributeError):
            SparseMatrix.identity(2).scale(2)

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _parts(value: GaussianInteger):
    return (value.re, value.im)


class TestScalarRepresentation:
    """Parts are plain ``int``, and computed values are interned."""

    def test_results_are_interned_int_parts(self):
        i = GaussianInteger.sqrt_minus_one()
        two = GaussianInteger.integer(2)
        results = [i + two, i * two, two * two, i * i, GaussianInteger.integer(4)]
        for value in results:
            assert all(type(part) is int for part in _parts(value)), value
            assert value is GaussianInteger._gaussian_integer(value.re, value.im)

    def test_directly_built_and_interned_values_agree(self):
        # SparseMatrix.__eq__ and __hash__ compare entry dicts, so a value
        # built by the public constructor must match the interned one
        direct = GaussianInteger(2, 0)
        interned = GaussianInteger.integer(2)
        assert direct == interned and hash(direct) == hash(interned)
        a = SparseMatrix(1, 1, {(0, 0): direct})
        b = SparseMatrix(1, 1, {(0, 0): 2})
        assert a == b and hash(a) == hash(b)

    def test_bool_never_becomes_a_part(self):
        GaussianInteger._gaussian_integer.cache_clear()
        assert type(GaussianInteger.integer(True).re) is int
        one = GaussianInteger.integer(1)
        assert type(one.re) is int and str(one) == "1"
        entry = SparseMatrix(1, 1, {(0, 0): True}).get(0, 0)
        assert str(entry) == "1" and type(entry.re) is int
        assert type(GaussianInteger.integer(False).re) is int
        direct = GaussianInteger(True, False)
        assert _parts(direct) == (1, 0)
        assert all(type(part) is int for part in _parts(direct))
        with pytest.raises(TypeError):
            GaussianInteger.integer(1.0)

    def test_rank_with_non_unit_leads(self):
        def real(rows):
            return SparseMatrix(
                len(rows),
                len(rows[0]),
                {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)},
            )

        # no lead divides the one below it, so elimination over the integers
        # alone would need a factor 1/2
        assert real([[2, 1], [1, 2]]).rank() == 2
        assert real([[2, 4], [1, 2]]).rank() == 1
        assert real([[3, 1, 1], [1, 3, 1], [1, 1, 3]]).rank() == 3
        # third row = 3 * first + 2 * second; float factors leave a residue
        # here and report 3
        assert real([[7, -2, 5], [6, 8, -2], [33, 10, 11]]).rank() == 2
        i = GaussianInteger.sqrt_minus_one()
        # rows (2i, 1) and (1, 2i) are independent; (2, 4i) and (i, -2) are
        # proportional by the non-unit factor 2i
        assert real([[2, 1], [1, 2]]).scale(i).rank() == 2
        gaussian = SparseMatrix(
            2, 2, {(0, 0): 2, (0, 1): GaussianInteger(0, 4), (1, 0): i, (1, 1): -2}
        )
        assert gaussian.rank() == 1
        two_i = GaussianInteger(0, 2)
        assert SparseMatrix(
            2, 2, {(0, 0): two_i, (0, 1): 1, (1, 0): 1, (1, 1): two_i}
        ).rank() == 2

    @given(gaussians, gaussians)
    @settings(max_examples=80)
    def test_result_parts_are_ints(self, a, b):
        for value in [a + b, a * b, a * integer(3), a + integer(1)]:
            assert all(type(part) is int for part in _parts(value)), value


NON_INTEGRAL = [
    Fraction(1, 2),
    Fraction(2),
    0.5,
    1.0,
    Decimal(1),
    complex(1, 0),
    "1",
    None,
]


class TestScalarValidation:
    """Every way an ``int`` becomes a scalar reads it through
    ``operator.index``: the ``GaussianInteger`` constructor, ``integer`` and
    the public ``SparseMatrix`` constructor.  Only integers, and scalars
    already built, are accepted."""

    @pytest.mark.parametrize("value", NON_INTEGRAL, ids=repr)
    def test_non_integral_values_are_rejected(self, value):
        with pytest.raises(TypeError):
            GaussianInteger(value, 0)
        with pytest.raises(TypeError):
            GaussianInteger(0, value)
        with pytest.raises(TypeError):
            GaussianInteger.integer(value)
        with pytest.raises(TypeError):
            SparseMatrix(1, 1, {(0, 0): value})


class TestSparseMatrix:
    def test_identity_is_multiplicative_unit(self):
        i = GaussianInteger.sqrt_minus_one()
        a = SparseMatrix(2, 3, {(0, 0): 2, (1, 2): GaussianInteger(3, -1)})
        assert SparseMatrix.identity(2) @ a == a
        assert a @ SparseMatrix.identity(3) == a

    def test_product_matches_hand_computation(self):
        a = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
        b = SparseMatrix(2, 2, {(0, 1): 1, (1, 0): 4, (1, 1): 5})
        expected = SparseMatrix(
            2, 2, {(0, 0): 8, (0, 1): 11, (1, 0): 12, (1, 1): 15}
        )
        assert a @ b == expected

    def test_zero_entries_are_not_stored(self):
        a = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 0})
        assert (0, 0) in a.entries and (1, 1) not in a.entries
        assert (a + a.scale(integer(-1))).entries == {}

    def test_positions_outside_the_shape_are_rejected(self):
        for position in ((2, 0), (0, 2), (-1, 0)):
            with pytest.raises(IndexError):
                SparseMatrix(2, 2, {position: 1})

    def test_scale_and_add(self):
        a = SparseMatrix(2, 2, {(0, 1): 3})
        assert a.scale(integer(3)) + a.scale(integer(-1)) == a.scale(integer(2))

    def test_shape_mismatch_raises(self):
        a = SparseMatrix.zero(2, 3)
        with pytest.raises(ValueError):
            a + SparseMatrix.zero(3, 2)
        with pytest.raises(ValueError):
            a @ SparseMatrix.zero(2, 2)

    def test_invertibility(self):
        swap = SparseMatrix(2, 2, {(0, 1): 1, (1, 0): 1})
        assert swap.is_invertible()
        assert not SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 1}).is_invertible()
        assert not SparseMatrix.zero(3, 3).is_invertible()
        i = GaussianInteger.sqrt_minus_one()
        m = SparseMatrix(2, 2, {(0, 0): i, (0, 1): 1, (1, 0): 1, (1, 1): i})
        # determinant i*i - 1 = -2, invertible
        assert m.is_invertible()
        minus_i = GaussianInteger(0, -1)
        singular = SparseMatrix(
            2, 2, {(0, 0): i, (0, 1): 1, (1, 0): 1, (1, 1): minus_i}
        )
        # determinant i*(-i) - 1 = 0
        assert not singular.is_invertible()

    def test_rank(self):
        assert SparseMatrix.zero(3, 4).rank() == 0
        assert SparseMatrix.identity(3).rank() == 3
        # a repeated row, and a row that is the sum of two others
        rows = [[1, 2, 0, 1], [1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]]
        m = SparseMatrix(
            4, 4, {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
        )
        assert m.rank() == transpose(m).rank() == 2
        assert not m.is_invertible()
        wide = SparseMatrix(2, 3, {(0, 0): 1, (1, 2): 2})
        assert wide.rank() == 2
        assert not wide.is_invertible()

    @given(st.lists(st.integers(-2, 2), min_size=12, max_size=12))
    @settings(max_examples=60)
    def test_rank_agrees_across_scalars_and_transpose(self, values):
        # a real matrix, its multiple by i, and its transpose have one rank
        m = SparseMatrix(
            3, 4, {(k // 4, k % 4): v for k, v in enumerate(values)}
        )
        i = GaussianInteger.sqrt_minus_one()
        assert m.rank() == m.scale(i).rank() == transpose(m).rank()
        mixed = m + SparseMatrix(3, 4, {(k, k): i for k in range(3)})
        assert mixed.rank() == transpose(mixed).rank()


def oracle_rank(matrix):
    """Rank by textbook Gaussian elimination over the Gaussian rationals,
    each entry a pair of ``Fraction`` parts, dense and pivoting row by row."""
    rows = [
        [
            (Fraction(value.re), Fraction(value.im))
            for value in (matrix.get(r, c) for c in range(matrix.ncols))
        ]
        for r in range(matrix.nrows)
    ]
    rank = 0
    for col in range(matrix.ncols):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        a, b = rows[rank][col]
        norm = a * a + b * b
        inverse = (a / norm, -b / norm)
        for r in range(rank + 1, len(rows)):
            x, y = rows[r][col]
            # factor = rows[r][col] / pivot entry
            f = (x * inverse[0] - y * inverse[1], x * inverse[1] + y * inverse[0])
            rows[r] = [
                (u - (f[0] * p - f[1] * q), v - (f[0] * q + f[1] * p))
                for (u, v), (p, q) in zip(rows[r], rows[rank])
            ]
        rank += 1
    return rank


def integer_matrices(imaginary):
    """Matrices up to 5x5 with real parts in -3..3 and imaginary parts drawn
    from ``imaginary``, about half of their entries zero, where some rows are
    replaced by Gaussian-integer combinations of the rows before them."""
    parts = st.integers(-3, 3)
    scalar = st.tuples(parts, imaginary)

    def combine(weights, rows, c):
        return (
            sum(a * row[c][0] - b * row[c][1] for (a, b), row in zip(weights, rows)),
            sum(a * row[c][1] + b * row[c][0] for (a, b), row in zip(weights, rows)),
        )

    @st.composite
    def build(draw):
        nrows = draw(st.integers(1, 5))
        ncols = draw(st.integers(1, 5))
        entry = st.one_of(st.just((0, 0)), scalar)
        rows = [
            draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)
        ]
        for r in range(1, nrows):
            if draw(st.booleans()):
                weights = draw(st.lists(scalar, min_size=r, max_size=r))
                rows[r] = [combine(weights, rows[:r], c) for c in range(ncols)]
        return SparseMatrix(
            nrows,
            ncols,
            {
                (r, c): GaussianInteger(*rows[r][c])
                for r in range(nrows)
                for c in range(ncols)
            },
        )

    return build()


class TestFractionFreeRank:
    """``rank`` eliminates over the integers; the oracle divides."""

    @given(integer_matrices(st.integers(-3, 3)))
    @settings(max_examples=150)
    def test_gaussian_rank_agrees_with_the_fraction_oracle(self, matrix):
        assert matrix.rank() == oracle_rank(matrix) == transpose(matrix).rank()

    @given(integer_matrices(st.just(0)))
    @settings(max_examples=150)
    def test_real_rank_agrees_with_the_fraction_oracle(self, matrix):
        assert all(value.im == 0 for value in matrix.entries.values())
        assert matrix.rank() == oracle_rank(matrix) == transpose(matrix).rank()

    def test_dependent_rows_lower_the_rank(self):
        i = GaussianInteger.sqrt_minus_one()
        first = {0: integer(2), 1: GaussianInteger(3, 1), 2: integer(-1)}
        second = {0: i, 1: integer(0), 2: integer(5)}
        third = {
            c: GaussianInteger(2, -1) * first[c] + integer(3) * second[c]
            for c in range(3)
        }
        matrix = SparseMatrix(
            3,
            3,
            {(r, c): row[c] for r, row in enumerate((first, second, third)) for c in range(3)},
        )
        assert matrix.rank() == oracle_rank(matrix) == 2
        assert not matrix.is_invertible()

    def test_oracle_on_a_sample(self):
        i = GaussianInteger.sqrt_minus_one()
        assert oracle_rank(SparseMatrix(2, 2, {(0, 0): 1, (0, 1): i, (1, 0): i, (1, 1): -1})) == 1
        assert oracle_rank(SparseMatrix(2, 2, {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2})) == 2
        assert oracle_rank(SparseMatrix.zero(2, 3)) == 0


def sparse_matrices(nrows, ncols):
    """Random matrices with about half their entries zero."""
    entry = st.one_of(st.just(GaussianInteger.integer(0)), gaussians)
    return st.lists(
        entry, min_size=nrows * ncols, max_size=nrows * ncols
    ).map(
        lambda values: SparseMatrix(
            nrows,
            ncols,
            {(k // ncols, k % ncols): v for k, v in enumerate(values)},
        )
    )


def dense_product(a, b):
    """Row-by-column product on every position, in scalar arithmetic."""
    entries = {}
    for r in range(a.nrows):
        for c in range(b.ncols):
            total = GaussianInteger.integer(0)
            for k in range(a.ncols):
                total = total + a.get(r, k) * b.get(k, c)
            entries[(r, c)] = total
    return SparseMatrix(a.nrows, b.ncols, entries)


class TestSparseProducts:
    """``@``, ``+`` and ``scale`` build their results without re-checking
    entries; these pin what the public constructor would have enforced."""

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(sparse_matrices(2, n), sparse_matrices(n, 2))
        )
    )
    @settings(max_examples=40)
    def test_product_agrees_with_dense_reference(self, pair):
        a, b = pair
        product = a @ b
        assert product == dense_product(a, b)
        assert hash(product) == hash(dense_product(a, b))
        for value in product.entries.values():
            assert type(value) is GaussianInteger and not value.is_zero()
            assert all(type(part) is int for part in _parts(value)), value

    def test_cancelling_results_store_no_zero(self):
        i = GaussianInteger.sqrt_minus_one()
        # row (1, i) times column (1, i)^T is 1 + i*i = 0; row (2, -2) times
        # column (2, 2)^T is 0
        a = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): i, (1, 0): 2, (1, 1): -2})
        b = SparseMatrix(2, 1, {(0, 0): 1, (1, 0): i})
        c = SparseMatrix(2, 1, {(0, 0): 2, (1, 0): 2})
        assert (a @ b).entries == {(1, 0): GaussianInteger(2, -2)}
        assert (a @ c).entries == {(0, 0): GaussianInteger(2, 2)}
        d = SparseMatrix(2, 2, {(0, 0): i, (1, 1): 3})
        minus_i = GaussianInteger(0, -1)
        e = SparseMatrix(2, 2, {(0, 0): minus_i, (1, 1): 1})
        assert (d + e).entries == {(1, 1): GaussianInteger(4)}
        assert (d + d.scale(integer(-1))).entries == {}
        assert (d.scale(i) + d.scale(minus_i)).entries == {}
        # equal matrices reached different ways hash equal
        assert d + e == SparseMatrix(2, 2, {(1, 1): 4})
        assert hash(d + e) == hash(SparseMatrix(2, 2, {(1, 1): 4}))
        assert hash(a @ c) == hash(SparseMatrix(2, 1, {(0, 0): GaussianInteger(2, 2)}))

    def test_scale_by_zero_is_the_zero_matrix(self):
        a = SparseMatrix(2, 3, {(0, 1): 3, (1, 2): -5})
        for zero in (GaussianInteger.integer(0), GaussianInteger()):
            scaled = a.scale(zero)
            assert scaled == SparseMatrix.zero(2, 3)
            assert scaled.entries == {}
            assert hash(scaled) == hash(SparseMatrix.zero(2, 3))

    def test_product_entries_are_shared_instances(self):
        i = GaussianInteger.sqrt_minus_one()
        a = SparseMatrix(2, 2, {(0, 0): 2, (0, 1): 3, (1, 1): i})
        b = SparseMatrix(2, 2, {(0, 0): 3, (1, 0): 1, (1, 1): GaussianInteger(0, -1)})
        product = a @ b
        # 2*3 + 3*1 = 9 is summed on parts, then built once, interned
        assert product.get(0, 0) is GaussianInteger.integer(9)
        assert type(product.get(0, 0).re) is int
        assert product.get(1, 1) is GaussianInteger.integer(1)
        assert product.get(1, 0) is i
        assert product.get(0, 1) is GaussianInteger.integer(-3) * i


UNIT_PARTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0))
unit_entries = st.sampled_from([GaussianInteger(re, im) for re, im in UNIT_PARTS])


@st.composite
def unit_matrices(draw):
    """Matrices of at most 3x3, empty and non-square shapes included, with
    entries in {0, ±1, ±i, 2}."""
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return SparseMatrix(
        nrows,
        ncols,
        {(r, c): draw(unit_entries) for r in range(nrows) for c in range(ncols)},
    )


def dense_kron(a, b):
    """Kronecker product on every position, in scalar arithmetic."""
    return SparseMatrix(
        a.nrows * b.nrows,
        a.ncols * b.ncols,
        {
            (r * b.nrows + s, c * b.ncols + t): a.get(r, c) * b.get(s, t)
            for r in range(a.nrows)
            for c in range(a.ncols)
            for s in range(b.nrows)
            for t in range(b.ncols)
        },
    )


class TestKroneckerProduct:
    @given(unit_matrices(), unit_matrices())
    @settings(max_examples=80)
    def test_kron_agrees_with_dense_reference(self, a, b):
        product = a.kron(b)
        assert (product.nrows, product.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
        assert product == dense_kron(a, b)
        for (r, c), value in product.entries.items():
            assert 0 <= r < product.nrows and 0 <= c < product.ncols
            assert type(value) is GaussianInteger and not value.is_zero()
            assert value is GaussianInteger._gaussian_integer(value.re, value.im)

    def test_left_factor_is_outermost(self):
        a = SparseMatrix(1, 2, {(0, 1): 2})
        assert a.kron(SparseMatrix.identity(2)).entries == {
            (0, 2): GaussianInteger.integer(2),
            (1, 3): GaussianInteger.integer(2),
        }
        assert SparseMatrix.identity(2).kron(a).entries == {
            (0, 1): GaussianInteger.integer(2),
            (1, 3): GaussianInteger.integer(2),
        }

    def test_empty_shapes(self):
        a = SparseMatrix(2, 3, {(1, 2): -1})
        for shape in ((0, 2), (2, 0), (0, 0)):
            empty = SparseMatrix.zero(*shape)
            for product in (a.kron(empty), empty.kron(a)):
                assert product.entries == {}
                assert (product.nrows, product.ncols) == (2 * shape[0], 3 * shape[1])


class TestTruncatedPolynomial:
    def test_terms_above_the_cap_are_rejected(self):
        with pytest.raises(ValueError, match="degree cap"):
            TruncatedPolynomial.make(2, 1, {(1, 0): 1, (1, 1): 1})
        with pytest.raises(ValueError):
            TruncatedPolynomial.make(1, 4, {(5,): 1})
        # equal terms merge, and a sum that cancels leaves no term
        x0x1 = TruncatedPolynomial.make(2, 2, {(1, 1): 1})
        p = x0x1 + x0x1
        assert p.as_dict() == {(1, 1): 2}
        assert TruncatedPolynomial.make(2, 2, {(1, 1): 1, (0, 2): 1}) != p

    def test_malformed_exponents_are_rejected(self):
        with pytest.raises(ValueError, match="length"):
            TruncatedPolynomial.make(2, 3, {(1,): 1})
        with pytest.raises(ValueError, match="negative"):
            TruncatedPolynomial.make(2, 3, {(2, -1): 1})
        # a term of degree exactly the cap is kept
        assert TruncatedPolynomial.make(2, 3, {(2, 1): 4}).as_dict() == {(2, 1): 4}

    def test_negative_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="^degree cap -1 is negative$"):
            TruncatedPolynomial.make(2, -1, {})
        with pytest.raises(ValueError, match="^nvars -1 is negative$"):
            TruncatedPolynomial.make(-1, 3, {})
        with pytest.raises(ValueError, match="^degree cap -2 is negative$"):
            TruncatedPolynomial.zero(1, -2)
        # no variables, or a cap of zero, is still a polynomial ring
        assert TruncatedPolynomial.make(0, 3, {(): 2}).as_dict() == {(): 2}
        assert TruncatedPolynomial.zero(2, 0).terms == ()

    def test_cancellation_removes_terms(self):
        x0 = TruncatedPolynomial.make(1, 4, {(1,): 1})
        minus_x0 = TruncatedPolynomial.make(1, 4, {(1,): -1})
        assert (x0 + minus_x0) == TruncatedPolynomial.zero(1, 4)
        assert (x0 + minus_x0).terms == ()

    @pytest.mark.parametrize(
        "terms",
        [
            {(0.5, 0.5): 1},
            {(1.0, 0): 1},
            {(1, 0): 0.5},
            {(1, 0): "3"},
            {(1, 0): Fraction(3)},
        ],
    )
    def test_non_integral_input_is_a_type_error(self, terms):
        # exponents and coefficients are read through operator.index, so a
        # half exponent is no longer accepted under the degree cap
        with pytest.raises(TypeError):
            TruncatedPolynomial.make(2, 1, terms)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=5))
    @settings(max_examples=40)
    def test_addition_commutes(self, pairs):
        cap = 4
        polys = [
            TruncatedPolynomial.make(2, cap, {(a, b): 1}) for a, b in pairs
        ]
        total = TruncatedPolynomial.zero(2, cap)
        for p in polys:
            total = total + p
        total_reversed = TruncatedPolynomial.zero(2, cap)
        for p in reversed(polys):
            total_reversed = total_reversed + p
        assert total == total_reversed

    def test_json_is_lex_sorted(self):
        p = TruncatedPolynomial.make(2, 3, {(1, 0): 2, (0, 2): 5, (0, 1): -1})
        assert p.to_json() == [[[0, 1], -1], [[0, 2], 5], [[1, 0], 2]]
