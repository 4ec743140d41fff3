"""Tests for type-B quasisymmetric functions and peak functions."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from tbhl.exact_algebra import TruncatedPolynomial
from tbhl.qsym_typeb import (
    QSymElement,
    fb_monomials,
    fb_truncations_linearly_independent,
    peak_characteristic,
    peak_data,
    peak_function_type_b,
)


def brute_force_fb(subset, n, nvars):
    """Independent oracle: enumerate all weak chains and filter by strictness."""
    terms = {}
    for chain in itertools.product(range(nvars), repeat=n):
        if any(chain[j] > chain[j + 1] for j in range(n - 1)):
            continue
        padded = (0,) + chain
        strict_at = {j for j in range(n) if padded[j] < padded[j + 1]}
        if set(subset) <= strict_at:
            exponents = [0] * nvars
            for value in chain:
                exponents[value] += 1
            key = tuple(exponents)
            terms[key] = terms.get(key, 0) + 1
    return TruncatedPolynomial.make(nvars, n, terms)


def support(element):
    """The index sets with a nonzero coefficient."""
    return {frozenset(key) for key, _ in element.coeffs}


def coefficient(element, subset):
    """The coefficient of ``FB_subset`` in ``element``."""
    return dict(element.coeffs).get(tuple(sorted(subset)), 0)


class TestFundamentalMonomials:
    def test_pinned_degree_one(self):
        assert fb_monomials(set(), 1, 2).as_dict() == {(1, 0): 1, (0, 1): 1}
        assert fb_monomials({0}, 1, 2).as_dict() == {(0, 1): 1}

    @pytest.mark.parametrize("n,nvars", [(1, 3), (2, 3), (3, 3), (2, 4), (4, 3)])
    def test_matches_brute_force_oracle(self, n, nvars):
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                assert fb_monomials(subset, n, nvars) == brute_force_fb(
                    subset, n, nvars
                )

    def test_expansions_never_truncate(self):
        # every term has the full degree, so the cap of ``make`` never bites
        terms = fb_monomials({0, 2}, 3, 5).as_dict()
        assert terms and all(sum(exponents) == 3 for exponents in terms)

    def test_nvars_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nvars"):
            fb_monomials(set(), 2, -1)
        # no variable carries no chain of positive length
        assert fb_monomials(set(), 2, 0).terms == ()
        assert fb_monomials(set(), 2, 0).nvars == 0


class TestPeakData:
    def test_pinned_example(self):
        data = peak_data({0, 3, 4, 6}, 7)
        assert data.peak == frozenset({3, 6})
        assert data.valley == frozenset({1, 5, 7})
        assert data.zeta == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_valley_count_identity(self, n):
        for size in range(n + 1):
            for subset in itertools.combinations(range(n), size):
                data = peak_data(subset, n)
                assert len(data.valley) == len(data.peak) + data.zeta

    def test_peaks_are_never_adjacent(self):
        for n in range(1, 7):
            for size in range(n + 1):
                for subset in itertools.combinations(range(n), size):
                    peaks = sorted(peak_data(subset, n).peak)
                    assert all(b - a >= 2 for a, b in zip(peaks, peaks[1:]))


class TestPeakFunctions:
    def test_pinned_rank_one(self):
        assert peak_function_type_b(0, set(), 1) == QSymElement.make(
            1, {frozenset(): 1, frozenset({0}): 1}
        )
        assert peak_function_type_b(1, set(), 1, "literal") == QSymElement.make(
            1, {frozenset({0}): 2}
        )
        assert peak_function_type_b(1, set(), 1, "complemented") == QSymElement.make(
            1, {frozenset(): 2}
        )

    def test_pinned_rank_two(self):
        expected = QSymElement.make(2, {frozenset({0}): 2, frozenset({1}): 2})
        assert peak_function_type_b(0, {1}, 2) == expected
        assert peak_characteristic({1}, 2) == expected

    def test_peak_characteristic_variants_rank_one(self):
        assert peak_characteristic({0}, 1, "literal") == QSymElement.make(
            1, {frozenset({0}): 2}
        )
        assert peak_characteristic({0}, 1, "complemented") == QSymElement.make(
            1, {frozenset(): 2}
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_support_sizes(self, n):
        valid_peak_sets = [
            frozenset(c)
            for size in range(n)
            for c in itertools.combinations(range(1, n), size)
            if all(
                b - a >= 2 for a, b in zip(sorted(c), sorted(c)[1:])
            )
        ]
        for peaks in valid_peak_sets:
            f = peak_function_type_b(0, peaks, n)
            assert len(f.coeffs) == 2 ** (n - len(peaks))
            assert all(c == 2 ** len(peaks) for _, c in f.coeffs)
            if 1 not in peaks:
                for variant in ("literal", "complemented"):
                    g = peak_function_type_b(1, peaks, n, variant)
                    assert len(g.coeffs) == 2 ** (n - len(peaks) - 1)
                    assert all(c == 2 ** (len(peaks) + 1) for _, c in g.coeffs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_variants_partition_the_bit_zero_support(self, n):
        # the two bit-1 variants use disjoint halves of the bit-0 support
        valid_peak_sets = [
            frozenset(c)
            for size in range(n)
            for c in itertools.combinations(range(2, n), size)
            if all(b - a >= 2 for a, b in zip(sorted(c), sorted(c)[1:]))
        ]
        for peaks in valid_peak_sets:
            base = support(peak_function_type_b(0, peaks, n))
            literal = support(peak_function_type_b(1, peaks, n, "literal"))
            complemented = support(peak_function_type_b(1, peaks, n, "complemented"))
            assert literal | complemented == base
            assert not literal & complemented
            assert all(0 in subset for subset in literal)
            assert all(0 not in subset for subset in complemented)

    def test_own_index_appears_in_literal_variant(self):
        for n in range(1, 5):
            for size in range(n + 1):
                for subset in itertools.combinations(range(n), size):
                    f = peak_characteristic(subset, n, "literal")
                    data = peak_data(subset, n)
                    expected = 2 ** (len(data.peak) + data.zeta)
                    assert coefficient(f, subset) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            peak_function_type_b(0, {1, 2}, 3)  # adjacent peaks
        with pytest.raises(ValueError):
            peak_function_type_b(1, {1}, 3)  # bit 1 needs 1 outside peaks
        with pytest.raises(ValueError):
            peak_function_type_b(2, set(), 3)
        with pytest.raises(ValueError):
            peak_function_type_b(0, {3}, 3)
        with pytest.raises(ValueError):
            peak_function_type_b(0, set(), 3, variant="other")

    @pytest.mark.parametrize("variant", ["literal", "complemented"])
    def test_bit_one_needs_index_zero_in_range(self, variant):
        # no subset of an empty index range holds 0
        with pytest.raises(ValueError, match="n >= 1"):
            peak_function_type_b(1, set(), 0, variant)
        assert peak_function_type_b(1, set(), 1, variant).n == 1
        assert str(peak_function_type_b(0, set(), 0, variant)) == "1*FB{}"


class TestQSymElement:
    def test_arithmetic(self):
        a = QSymElement.fundamental({0}, 2)
        b = QSymElement.fundamental({1}, 2)
        total = a + a + b.scale(3)
        assert coefficient(total, {0}) == 2
        assert coefficient(total, {1}) == 3
        assert (total + total.scale(-1)).coeffs == ()
        with pytest.raises(ValueError):
            a + QSymElement.fundamental(set(), 3)

    def test_from_descent_sets_counts_multiplicity(self):
        element = QSymElement.from_descent_sets(
            [frozenset({0}), frozenset({0}), frozenset()], 2
        )
        assert coefficient(element, {0}) == 2
        assert coefficient(element, set()) == 1

    def test_to_monomials_pinned(self):
        element = QSymElement.make(1, {frozenset(): 1, frozenset({0}): 1})
        assert element.to_monomials(3).as_dict() == {
            (1, 0, 0): 1,
            (0, 1, 0): 2,
            (0, 0, 1): 2,
        }

    @pytest.mark.parametrize("n,nvars", [(1, 2), (2, 3), (3, 3)])
    def test_to_monomials_is_the_sum_of_scaled_expansions(self, n, nvars):
        index_sets = [
            frozenset(c)
            for size in range(n + 1)
            for c in itertools.combinations(range(n), size)
        ]
        rng = random.Random(n)
        for _ in range(100):
            coefficients = [rng.randint(-2, 2) for _ in index_sets]
            element = QSymElement.make(n, dict(zip(index_sets, coefficients)))
            expected = Counter()
            for subset, c in zip(index_sets, coefficients):
                for exponents, d in brute_force_fb(subset, n, nvars).terms:
                    expected[exponents] += c * d
            assert element.to_monomials(nvars) == TruncatedPolynomial.make(
                nvars, n, expected
            )

    def test_to_monomials_cancels(self):
        element = QSymElement.make(1, {frozenset(): 1, frozenset({0}): -1})
        assert element.to_monomials(2).as_dict() == {(1, 0): 1}
        assert QSymElement.zero(2).to_monomials(3).terms == ()

    def test_json_pinned(self):
        element = QSymElement.make(4, {frozenset({0, 3}): 2})
        assert element.to_json() == {
            "n": 4,
            "basis": "FB",
            "coeffs": [["{0,3}", 2]],
        }

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            QSymElement.make(2, {frozenset({2}): 1})
        with pytest.raises(ValueError):
            QSymElement.make(2, {frozenset({-1}): 1})
        with pytest.raises(TypeError):
            QSymElement.from_descent_sets([{0.5}], 2)

    @pytest.mark.parametrize(
        "coeffs",
        [
            {frozenset(): 0.5},
            {frozenset({1}): "3"},
            {frozenset({1.0}): 1},
            {frozenset({1}): 1.0},
            {frozenset({1}): Fraction(3)},
        ],
    )
    def test_non_integral_input_is_a_type_error(self, coeffs):
        # indices and coefficients are read through operator.index, so none
        # is truncated or coerced: 0.5 is not zero, "3" is not 3
        with pytest.raises(TypeError):
            QSymElement.make(2, coeffs)

    @pytest.mark.parametrize("scalar", [0.5, 2.0, "2", Fraction(2)])
    def test_non_integral_scalar_is_a_type_error(self, scalar):
        with pytest.raises(TypeError):
            QSymElement.fundamental({0}, 2).scale(scalar)

    def test_bools_are_read_as_ints(self):
        element = QSymElement.make(2, {frozenset({True}): True})
        assert element.coeffs == (((1,), 1),)
        assert type(element.coeffs[0][0][0]) is type(element.coeffs[0][1]) is int


class TestLinearIndependence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_truncations_independent(self, n):
        assert fb_truncations_linearly_independent(n)

    def test_too_few_variables_fails(self):
        # with a single variable all strictness patterns collapse
        assert not fb_truncations_linearly_independent(2, nvars=1)
