"""Combinations built without checks are in normal form and equal ``make``.

``QSymElement`` and ``TruncatedPolynomial`` share one normal form: pairs
sorted by key, each key once, every coefficient a nonzero ``int``.  Only
``make`` checks a combination, given as a mapping; sums, scalings and the
combinations the package computes are put in normal form directly.  Each
test rebuilds such a result through ``make``, from the same terms or from an
independent transcription, and checks the normal form itself, so a collector
that keeps a zero sum or skips the sort fails here.
"""

import itertools
import random
from collections import Counter

import pytest

from tbhl.domino_tableaux import partitions_of
from tbhl.exact_algebra import TruncatedPolynomial
from tbhl.hecke_clifford import RES_FORMS, res_MI_formula
from tbhl.qsym_typeb import (
    PEAK_VARIANTS,
    QSymElement,
    fb_monomials,
    peak_characteristic,
    peak_data,
    peak_function_type_b,
)
from tbhl.shifted_domino import (
    enumerate_shifted,
    h_lambda,
    h_lambda_monomials,
    iter_semistandard,
    two_quotient,
)


def assert_normal(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(set(keys))
    assert all(type(c) is int and c != 0 for _, c in pairs)


def assert_qsym_normal(element):
    assert_normal(element.coeffs)
    for key, _ in element.coeffs:
        assert type(key) is tuple and list(key) == sorted(set(key))
        assert set(key) <= set(range(element.n))


def assert_polynomial_normal(polynomial):
    assert_normal(polynomial.terms)
    for exponents, _ in polynomial.terms:
        assert type(exponents) is tuple and len(exponents) == polynomial.nvars
        assert all(type(e) is int and e >= 0 for e in exponents)
        assert sum(exponents) <= polynomial.degree_cap


def summed(pairs):
    """The mapping ``make`` takes: coefficients of equal keys added up."""
    totals = Counter()
    for key, c in pairs:
        totals[key] += c
    return totals


def qsym_by_make(n, pairs):
    """``make`` over ``(key, coefficient)`` pairs, keys made frozensets."""
    return QSymElement.make(n, summed((frozenset(key), c) for key, c in pairs))


def index_sets(n):
    return [
        frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)
    ]


def random_elements(n, count, seed):
    """Elements with small coefficients, and for each its negative plus a
    sparser element, so sums both cancel and interleave keys."""
    rng = random.Random(seed)
    sets = index_sets(n)
    elements = []
    for _ in range(count):
        element = QSymElement.make(n, {s: rng.randint(-2, 2) for s in sets})
        elements += [element, element.scale(-1)]
        elements.append(QSymElement.make(n, {rng.choice(sets): rng.randint(1, 3)}))
    return elements


class TestQSymArithmetic:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_sums_equal_make_over_the_concatenated_terms(self, n):
        elements = random_elements(n, 6, seed=n)
        for a, b in itertools.product(elements, repeat=2):
            total = a + b
            assert_qsym_normal(total)
            assert total == qsym_by_make(n, a.coeffs + b.coeffs)
            assert total == b + a

    def test_a_cancelling_sum_is_zero(self):
        a = QSymElement.make(3, {frozenset({2}): 1, frozenset({0, 1}): -2})
        b = QSymElement.make(3, {frozenset({0, 1}): 2, frozenset(): 5})
        assert (a + a.scale(-1)).coeffs == ()
        assert (a + b).coeffs == (((), 5), ((2,), 1))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("scalar", [0, -1, 1, 3])
    def test_scalings_equal_make_over_the_scaled_terms(self, n, scalar):
        for element in random_elements(n, 6, seed=10 + n):
            scaled = element.scale(scalar)
            assert_qsym_normal(scaled)
            assert scaled == qsym_by_make(n, [(k, scalar * c) for k, c in element.coeffs])
        assert QSymElement.fundamental({0}, 1).scale(0).coeffs == ()
        assert QSymElement.zero(n) == QSymElement.make(n, {})

    @pytest.mark.parametrize("n,nvars", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_monomials_equal_make_over_the_scaled_expansions(self, n, nvars):
        for element in random_elements(n, 4, seed=20 + n):
            expanded = element.to_monomials(nvars)
            assert_polynomial_normal(expanded)
            terms = [
                (exponents, c * d)
                for key, c in element.coeffs
                for exponents, d in fb_monomials(key, n, nvars).terms
            ]
            assert expanded == TruncatedPolynomial.make(nvars, n, summed(terms))

    def test_cancelling_monomials_are_dropped(self):
        element = QSymElement.make(1, {frozenset(): 1, frozenset({0}): -1})
        assert element.to_monomials(3).terms == (((1, 0, 0), 1),)


class TestPolynomialArithmetic:
    @staticmethod
    def polynomials(seed):
        rng = random.Random(seed)
        vectors = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        vectors = [v for v in vectors if sum(v) <= 4]
        result = []
        for _ in range(6):
            coefficients = {v: rng.randint(-2, 2) for v in vectors}
            negated = {v: -c for v, c in coefficients.items()}
            result += [
                TruncatedPolynomial.make(3, 4, terms)
                for terms in (coefficients, negated)
            ]
            result.append(TruncatedPolynomial.make(3, 4, {rng.choice(vectors): 1}))
        return result

    def test_sums_equal_make(self):
        polys = self.polynomials(0)
        for p, q in itertools.product(polys, repeat=2):
            total = p + q
            assert_polynomial_normal(total)
            assert total == TruncatedPolynomial.make(3, 4, summed(p.terms + q.terms))
        assert TruncatedPolynomial.zero(3, 4) == TruncatedPolynomial.make(3, 4, {})


def peak_sets(n, bit):
    """Every valid peak set for the bit: no two adjacent, 1 excluded at bit 1."""
    for size in range(n):
        for peaks in itertools.combinations(range(1, n), size):
            if any(b - a == 1 for a, b in zip(peaks, peaks[1:])):
                continue
            if bit == 1 and 1 in peaks:
                continue
            yield frozenset(peaks)


def peak_function_by_make(bit, peaks, n, variant):
    """The peak function transcribed from its definition through ``make``."""
    chosen = {}
    for subset in index_sets(n):
        if not all((p in subset) != (p - 1 in subset) for p in peaks):
            continue
        if bit == 1 and (0 in subset) != (variant == "literal"):
            continue
        chosen[subset] = 2 ** (len(peaks) + bit)
    return QSymElement.make(n, chosen)


@pytest.mark.parametrize("n", range(1, 7))
def test_peak_functions_equal_their_transcription(n):
    checked = 0
    for variant, bit in itertools.product(PEAK_VARIANTS, (0, 1)):
        for peaks in peak_sets(n, bit):
            element = peak_function_type_b(bit, peaks, n, variant)
            assert_qsym_normal(element)
            assert element == peak_function_by_make(bit, peaks, n, variant)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("n", range(1, 6))
def test_restriction_formulas_equal_their_transcription(n):
    for index_set in index_sets(n):
        for form in RES_FORMS:
            assert_qsym_normal(res_MI_formula(index_set, n, form))
        data = peak_data(frozenset(range(n)) - index_set, n)
        expected = QSymElement.make(
            n,
            {
                subset: 2 ** len(data.valley)
                for subset in index_sets(n)
                if (0 in index_set or 0 not in subset)
                and all((p in subset) != (p - 1 in subset) for p in data.peak)
            },
        )
        assert res_MI_formula(index_set, n, "proof_penultimate") == expected


VALID_SHAPES = [
    shape
    for total in range(2, 9, 2)
    for shape in partitions_of(total)
    if two_quotient(shape).valid
]


@pytest.mark.parametrize("shape", VALID_SHAPES)
def test_generating_functions_equal_make_over_the_tableaux(shape):
    standard = enumerate_shifted(shape)
    for variant in PEAK_VARIANTS:
        peak = h_lambda(shape, variant)
        assert_qsym_normal(peak)
        assert peak == qsym_by_make(
            peak.n,
            [
                pair
                for t in standard
                for pair in peak_characteristic(t.descent_set(), peak.n, variant).coeffs
            ],
        )
    for nvars in (1, 2, 3):
        monomial = h_lambda_monomials(shape, nvars)
        assert_polynomial_normal(monomial)
        fillings = iter_semistandard(shape, nvars - 1)
        assert monomial == TruncatedPolynomial.make(
            nvars, monomial.degree_cap, Counter(t.weight(nvars) for t in fillings)
        )
