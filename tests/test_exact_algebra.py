"""Tests for exact scalar, matrix, and truncated-polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbhl.exact_algebra import (
    GaussianRational,
    SparseMatrix,
    TruncatedPolynomial,
    all_exponent_vectors,
)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def transpose(matrix):
    return SparseMatrix.from_entries(
        matrix.ncols, matrix.nrows, {(c, r): v for (r, c), v in matrix.entries.items()}
    )


class TestGaussianRational:
    def test_imaginary_unit_squares_to_minus_one(self):
        i = GaussianRational.sqrt_minus_one()
        assert i * i == GaussianRational.integer(-1)

    def test_sample_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(-2), Fraction(1, 3))
        assert a + b == GaussianRational(Fraction(-3, 2), Fraction(10, 3))
        assert a * b == GaussianRational(Fraction(-2), Fraction(-35, 6))
        assert -a == GaussianRational(Fraction(-1, 2), Fraction(-3))
        assert a.inverse() == GaussianRational(Fraction(2, 37), Fraction(-12, 37))

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(gaussians)
    @settings(max_examples=60)
    def test_inverse_round_trip(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == GaussianRational.integer(1)



def _parts(value: GaussianRational):
    return (value.re, value.im)


class TestScalarRepresentation:
    """Integral parts are plain ``int``; only a real denominator makes a
    ``Fraction``."""

    def test_integral_results_have_int_parts(self):
        i = GaussianRational.sqrt_minus_one()
        two = GaussianRational.integer(2)
        half = GaussianRational.coerce(Fraction(1, 2))
        results = [
            i + two,
            half + half,
            i * two,
            half * two,
            (two * i).inverse() * 4,
            GaussianRational(Fraction(1, 2)).inverse(),
            GaussianRational.coerce(Fraction(4, 2)),
        ]
        for value in results:
            assert all(type(part) is int for part in _parts(value)), value

    def test_fractional_parts_stay_fractions(self):
        value = GaussianRational.integer(1) / GaussianRational.integer(2)
        assert value.re == Fraction(1, 2) and type(value.re) is Fraction
        assert type(value.im) is int

    def test_fraction_and_int_built_values_agree(self):
        # SparseMatrix.__eq__ and __hash__ compare entry dicts, so a value
        # built directly from Fraction(2) must match one built from 2
        from_fraction = GaussianRational(Fraction(2), Fraction(0))
        from_int = GaussianRational.integer(2)
        assert from_fraction == from_int
        assert hash(from_fraction) == hash(from_int)
        a = SparseMatrix(1, 1, {(0, 0): from_fraction})
        b = SparseMatrix.from_entries(1, 1, {(0, 0): 2})
        assert a == b and hash(a) == hash(b)

    def test_bool_never_becomes_a_part(self):
        GaussianRational._gaussian_integer.cache_clear()
        assert type(GaussianRational.integer(True).re) is int
        one = GaussianRational.integer(1)
        assert type(one.re) is int and str(one) == "1"
        assert str(GaussianRational.coerce(True)) == "1"
        assert type(GaussianRational.coerce(False).re) is int
        with pytest.raises(TypeError):
            GaussianRational.integer(1.0)

    def test_rank_with_fractional_elimination_factors(self):
        def real(rows):
            return SparseMatrix.from_entries(
                len(rows),
                len(rows[0]),
                {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)},
            )

        # int / int would be a float factor; these need 1/2 exactly
        assert real([[2, 1], [1, 2]]).rank() == 2
        assert real([[2, 4], [1, 2]]).rank() == 1
        assert real([[3, 1, 1], [1, 3, 1], [1, 1, 3]]).rank() == 3
        # third row = 3 * first + 2 * second; float factors leave a residue
        # here and report 3
        assert real([[7, -2, 5], [6, 8, -2], [33, 10, 11]]).rank() == 2
        i = GaussianRational.sqrt_minus_one()
        # rows (2i, 1) and (1, 2i) are independent; (2, 4i) and (i, -2) are
        # proportional by the non-unit factor 2i
        assert real([[2, 1], [1, 2]]).scale(i).rank() == 2
        gaussian = SparseMatrix.from_entries(
            2, 2, {(0, 0): 2, (0, 1): 4 * i, (1, 0): i, (1, 1): -2}
        )
        assert gaussian.rank() == 1
        assert SparseMatrix.from_entries(
            2, 2, {(0, 0): 2 * i, (0, 1): 1, (1, 0): 1, (1, 1): 2 * i}
        ).rank() == 2

    @given(gaussians, gaussians)
    @settings(max_examples=80)
    def test_integral_result_parts_are_ints(self, a, b):
        results = [a + b, a - b, a * b, -a, a ** 2]
        if not b.is_zero():
            results += [b.inverse(), a / b]
        for value in results:
            for part in _parts(value):
                assert part.denominator != 1 or type(part) is int, value


class TestSparseMatrix:
    def test_identity_is_multiplicative_unit(self):
        a = SparseMatrix.from_entries(2, 3, {(0, 0): 2, (1, 2): Fraction(1, 3)})
        assert SparseMatrix.identity(2) @ a == a
        assert a @ SparseMatrix.identity(3) == a

    def test_product_matches_hand_computation(self):
        a = SparseMatrix.from_entries(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
        b = SparseMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 4, (1, 1): 5})
        expected = SparseMatrix.from_entries(
            2, 2, {(0, 0): 8, (0, 1): 11, (1, 0): 12, (1, 1): 15}
        )
        assert a @ b == expected

    def test_zero_entries_are_not_stored(self):
        a = SparseMatrix.from_entries(2, 2, {(0, 0): 1, (1, 1): 0})
        assert (0, 0) in a.entries and (1, 1) not in a.entries
        b = a - a
        assert b.is_zero() and b.entries == {}

    def test_entries_as_pairs(self):
        pairs = (((0, 0), 1), ((1, 1), 0), ((1, 0), Fraction(1, 2)))
        assert SparseMatrix.from_entries(2, 2, iter(pairs)) == SparseMatrix.from_entries(
            2, 2, dict(pairs)
        )
        with pytest.raises(IndexError):
            SparseMatrix.from_entries(2, 2, iter([((2, 0), 1)]))

    def test_scale_and_add(self):
        a = SparseMatrix.from_entries(2, 2, {(0, 1): 3})
        assert a.scale(Fraction(1, 3)) + a.scale(-1) == a.scale(Fraction(-2, 3))

    def test_shape_mismatch_raises(self):
        a = SparseMatrix.zero(2, 3)
        with pytest.raises(ValueError):
            a + SparseMatrix.zero(3, 2)
        with pytest.raises(ValueError):
            a @ SparseMatrix.zero(2, 2)

    def test_invertibility(self):
        swap = SparseMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
        assert swap.is_invertible()
        assert not SparseMatrix.from_entries(2, 2, {(0, 0): 1, (0, 1): 1}).is_invertible()
        assert not SparseMatrix.zero(3, 3).is_invertible()
        i = GaussianRational.sqrt_minus_one()
        m = SparseMatrix.from_entries(2, 2, {(0, 0): i, (0, 1): 1, (1, 0): 1, (1, 1): i})
        # determinant i*i - 1 = -2, invertible
        assert m.is_invertible()
        singular = SparseMatrix.from_entries(2, 2, {(0, 0): i, (0, 1): 1, (1, 0): 1, (1, 1): -i})
        # determinant i*(-i) - 1 = 0
        assert not singular.is_invertible()

    def test_rank(self):
        assert SparseMatrix.zero(3, 4).rank() == 0
        assert SparseMatrix.identity(3).rank() == 3
        # a repeated row, and a row that is the sum of two others
        rows = [[1, 2, 0, 1], [1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]]
        m = SparseMatrix.from_entries(
            4, 4, {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
        )
        assert m.rank() == transpose(m).rank() == 2
        assert not m.is_invertible()
        wide = SparseMatrix.from_entries(2, 3, {(0, 0): 1, (1, 2): Fraction(1, 2)})
        assert wide.rank() == 2
        assert not wide.is_invertible()

    @given(st.lists(st.integers(-2, 2), min_size=12, max_size=12))
    @settings(max_examples=60)
    def test_rank_agrees_across_scalars_and_transpose(self, values):
        # real entries are reduced as fractions, a multiple of i as Gaussian
        # rationals; both, and the transpose, must give the same rank
        m = SparseMatrix.from_entries(
            3, 4, {(k // 4, k % 4): v for k, v in enumerate(values)}
        )
        i = GaussianRational.sqrt_minus_one()
        assert m.rank() == m.scale(i).rank() == transpose(m).rank()
        mixed = m + SparseMatrix.from_entries(3, 4, {(k, k): i for k in range(3)})
        assert mixed.rank() == transpose(mixed).rank()


def sparse_matrices(nrows, ncols):
    """Random matrices with about half their entries zero."""
    entry = st.one_of(st.just(GaussianRational.integer(0)), gaussians)
    return st.lists(
        entry, min_size=nrows * ncols, max_size=nrows * ncols
    ).map(
        lambda values: SparseMatrix.from_entries(
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
            total = GaussianRational.integer(0)
            for k in range(a.ncols):
                total = total + a.get(r, k) * b.get(k, c)
            entries[(r, c)] = total
    return SparseMatrix.from_entries(a.nrows, b.ncols, entries)


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
            assert type(value) is GaussianRational and not value.is_zero()
            for part in _parts(value):
                assert part.denominator != 1 or type(part) is int, value

    def test_cancelling_results_store_no_zero(self):
        i = GaussianRational.sqrt_minus_one()
        half = Fraction(1, 2)
        # row (1, i) times column (1, i)^T is 1 + i*i = 0; with fractional
        # parts, (1/2)(2) + (-1/2)(2) = 0
        a = SparseMatrix.from_entries(2, 2, {(0, 0): 1, (0, 1): i, (1, 0): half, (1, 1): -half})
        b = SparseMatrix.from_entries(2, 1, {(0, 0): 1, (1, 0): i})
        c = SparseMatrix.from_entries(2, 1, {(0, 0): 2, (1, 0): 2})
        assert (a @ b).entries == {(1, 0): GaussianRational(Fraction(1, 2), Fraction(-1, 2))}
        assert (a @ c).entries == {(0, 0): GaussianRational(2, 2)}
        d = SparseMatrix.from_entries(2, 2, {(0, 0): i, (1, 1): half})
        e = SparseMatrix.from_entries(2, 2, {(0, 0): -i, (1, 1): 1})
        assert (d + e).entries == {(1, 1): GaussianRational(Fraction(3, 2))}
        assert (d - d).entries == {}
        assert (d.scale(i) + d.scale(-i)).entries == {}
        # equal matrices reached different ways hash equal
        assert d + e == SparseMatrix.from_entries(2, 2, {(1, 1): Fraction(3, 2)})
        assert hash(d + e) == hash(SparseMatrix.from_entries(2, 2, {(1, 1): Fraction(3, 2)}))
        assert hash(a @ c) == hash(SparseMatrix.from_entries(2, 1, {(0, 0): 2 + 2 * i}))

    def test_scale_by_zero_is_the_zero_matrix(self):
        a = SparseMatrix.from_entries(2, 3, {(0, 1): 3, (1, 2): Fraction(1, 2)})
        for zero in (0, Fraction(0), GaussianRational.integer(0)):
            scaled = a.scale(zero)
            assert scaled == SparseMatrix.zero(2, 3)
            assert scaled.entries == {} and scaled.is_zero()
            assert hash(scaled) == hash(SparseMatrix.zero(2, 3))

    def test_integral_product_entries_are_shared_instances(self):
        i = GaussianRational.sqrt_minus_one()
        half = Fraction(1, 2)
        a = SparseMatrix.from_entries(2, 2, {(0, 0): 2, (0, 1): half, (1, 1): i})
        b = SparseMatrix.from_entries(2, 2, {(0, 0): 3, (1, 0): 2, (1, 1): -i})
        product = a @ b
        # 2*3 + (1/2)*2 = 7 sums a Fraction term into an integer
        assert product.get(0, 0) is GaussianRational.integer(7)
        assert type(product.get(0, 0).re) is int
        assert product.get(1, 1) is GaussianRational.integer(1)
        assert product.get(1, 0) is GaussianRational.integer(2) * i
        assert product.get(0, 1) == GaussianRational(0, Fraction(-1, 2))


class TestTruncatedPolynomial:
    def test_terms_above_the_cap_are_rejected(self):
        with pytest.raises(ValueError, match="degree cap"):
            TruncatedPolynomial.make(2, 1, {(1, 0): 1, (1, 1): 1})
        with pytest.raises(ValueError):
            TruncatedPolynomial.make(1, 4, {(5,): 1})
        # equal terms merge, and a sum that cancels leaves no term
        p = TruncatedPolynomial.make(2, 2, [((1, 1), 1), ((1, 1), 1)])
        assert p.as_dict() == {(1, 1): 2}
        assert TruncatedPolynomial.make(2, 2, {(1, 1): 1, (0, 2): 1}) != p

    def test_malformed_exponents_are_rejected(self):
        with pytest.raises(ValueError, match="length"):
            TruncatedPolynomial.make(2, 3, {(1,): 1})
        with pytest.raises(ValueError, match="negative"):
            TruncatedPolynomial.make(2, 3, {(2, -1): 1})
        # a term of degree exactly the cap is kept
        assert TruncatedPolynomial.make(2, 3, {(2, 1): 4}).as_dict() == {(2, 1): 4}

    def test_cancellation_removes_terms(self):
        x0 = TruncatedPolynomial.make(1, 4, {(1,): 1})
        assert (x0 - x0).is_zero()

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

    def test_all_exponent_vectors(self):
        assert all_exponent_vectors(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert all_exponent_vectors(3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
