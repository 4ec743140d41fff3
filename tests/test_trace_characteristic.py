"""An order-free oracle for the composition-series characteristic.

The simple modules of the type-B 0-Hecke algebra are one-dimensional, one
per ``D`` in ``{0..n-1}``, with ``pi_i`` acting by -1 when ``i`` is in ``D``
and by 0 otherwise (Norton, J. Austral. Math. Soc. 27 (1979); Fayers, JPAA
199 (2005)).  The product ``pi_{w_0(J)}`` along a reduced word of the
longest element of the parabolic subgroup ``W_J`` acts on the simple of
``D`` by ``(-1)^l(w_0(J))`` when ``J`` is in ``D`` and by 0 otherwise.  So
``g_J = (-1)^l(w_0(J)) tr pi_{w_0(J)}`` counts the composition factors
``D`` containing ``J``, and Moebius inversion over the subsets gives each
multiplicity.  In characteristic 0 the traces fix the factors, so this
characteristic reads no basis order, no support digraph and no diagonal
mask, unlike ``characteristic_by_composition_series``.

It costs ``2**n`` products along words of length up to ``n**2``, so it runs
at ranks up to 4: on the 128 modules listed under ``MODULES`` and on every
``build_MI(I, n)`` with ``n <= 4``, in about 1 s on 2 vCPUs.

Two faults of the characteristic show that the comparison can fail: factors read
one bit higher (modulo the rank), and one factor of the largest key dropped
with its label.  Each fails the comparison on the modules it changes and a
cold default audit on the case ids listed with it.
"""

from collections import Counter
from functools import cache

import pytest

from tbhl import cli_verify, hecke_clifford, hecke_engine
from tbhl.cli_verify import (
    _ascent_compatible_catalog,
    _family_catalog,
    _valid_shapes,
    run_audit,
)
from tbhl.domino_tableaux import sdt_operator_family
from tbhl.exact_algebra import SparseMatrix
from tbhl.hecke_clifford import (
    build_MI,
    induce_labeled_basis,
    restriction_characteristic,
)
from tbhl.hecke_engine import (
    characteristic_by_composition_series,
    family_from_elements,
)
from tbhl.qsym_typeb import QSymElement
from tbhl.shifted_domino import conjugate_family
from tbhl.signed_permutations import (
    all_elements,
    identity,
    length,
    simple_reflection,
    subsets,
)


def longest_word(index_set, n):
    """A reduced word of ``w_0(J)``: grow ``w`` by any generator of ``J``
    that raises ``length``; it stops at the one element of ``W_J`` that
    every generator of ``J`` shortens."""
    w, word = identity(n), []
    while True:
        for j in sorted(index_set):
            longer = w * simple_reflection(j, n)
            if length(longer) > length(w):
                w, word = longer, word + [j]
                break
        else:
            return word


def trace_characteristic(fam):
    n, size = fam.rank, fam.size
    counts = {}
    for index_set in subsets(range(n)):
        word = longest_word(index_set, n)
        product = SparseMatrix.identity(size)
        for j in word:
            product = product @ fam.matrices[j]
        diagonal = [value for (r, c), value in product.entries.items() if r == c]
        assert not any(value.im for value in diagonal)
        counts[index_set] = (-1) ** len(word) * sum(value.re for value in diagonal)
    return QSymElement.make(n, {
        factor: sum(
            (-1) ** (len(above) - len(factor)) * count
            for above, count in counts.items()
            if set(factor) <= set(above)
        )
        for factor in counts
    })


def catalog_modules():
    # ranks 1-3: each catalog family, the induced module of each
    # ascent-compatible one, and each M_I: 43 + 23 + 14
    for n in range(1, 4):
        for fam in _family_catalog(n):
            yield family_from_elements(fam.members)
        for fam in _ascent_compatible_catalog(n):
            yield induce_labeled_basis(family_from_elements(fam.members))
        for index_set in subsets(range(n)):
            yield build_MI(index_set, n)


def shape_modules():
    # the tableau modules and their conjugates on the valid shapes of size
    # at most 8 that have a tableau
    for shape in _valid_shapes(8):
        for fam in (sdt_operator_family(shape), conjugate_family(shape)):
            if fam.labels:
                yield fam


def rank_four_modules():
    for fam in _ascent_compatible_catalog(4):
        yield induce_labeled_basis(family_from_elements(fam.members))


MODULES = {
    "catalog-ranks-1-3": (catalog_modules, 80),
    "shapes-up-to-8": (shape_modules, 27),
    "induced-rank-4": (rank_four_modules, 21),
}


def test_pinned():
    fam = family_from_elements(all_elements(1))
    assert str(trace_characteristic(fam)) == "1*FB{} + 1*FB{0}"
    fb = QSymElement.fundamental
    assert trace_characteristic(build_MI({0}, 2)) == (fb({0}, 2) + fb({1}, 2)).scale(2)


def test_longest_words():
    assert longest_word((), 3) == []
    assert len(longest_word((0, 1, 2), 3)) == 9
    assert len(longest_word((1, 2), 3)) == 3
    assert len(longest_word((0, 2), 3)) == 2


@cache
def oracle_pairs(name):
    """Each module of ``MODULES[name]`` with its trace characteristic,
    computed once for the tests that compare against it."""
    modules, expected = MODULES[name]
    pairs = tuple((fam, trace_characteristic(fam)) for fam in modules())
    assert len(pairs) == expected
    return pairs


@pytest.mark.parametrize("name", MODULES)
def test_agrees_with_the_composition_series(name):
    for fam, trace in oracle_pairs(name):
        char, _ = characteristic_by_composition_series(fam)
        assert trace == char, fam.labels[:2]


def shifted_masks(char):
    # every factor D read one bit higher, as {(i + 1) mod n for i in D}
    n = char.n
    return QSymElement.make(n, {
        frozenset((i + 1) % n for i in key): coefficient
        for key, coefficient in char.coeffs
    })


def dropped_label(char):
    # one factor of the largest key is lost, with its label
    if not char.coeffs:
        return char
    return char + QSymElement(char.n, ((char.coeffs[-1][0], -1),))


def faulty(fault):
    """``characteristic_by_composition_series`` with ``fault`` applied to
    each characteristic it returns."""

    def characteristic(fam):
        char, order = characteristic_by_composition_series(fam)
        return fault(char), order

    return characteristic


# fault -> (modules of MODULES whose comparison fails, failing audit case ids)
SERIES_FAULTS = {
    "shifted-masks": (shifted_masks, 88, {
        "families.relations": 27, "domino.modules": 23, "clifford.audit": 18,
        "induction.family": 17, "induction.conjugate": 7,
        "clifford.restriction": 2, "families.random-convex": 1,
    }),
    "dropped-label": (dropped_label, 128, {
        "families.relations": 43, "domino.modules": 37, "clifford.audit": 28,
        "induction.family": 23, "induction.conjugate": 11,
        "clifford.restriction": 3, "families.random-convex": 1, "morphisms.iso": 1,
    }),
}


@pytest.mark.parametrize("name", SERIES_FAULTS)
def test_a_faulty_series_fails_the_comparison(name):
    fault, expected, _ = SERIES_FAULTS[name]
    characteristic = faulty(fault)
    failing = sum(
        characteristic(fam)[0] != trace
        for modules in MODULES
        for fam, trace in oracle_pairs(modules)
    )
    assert failing == expected


@pytest.mark.parametrize("name", SERIES_FAULTS)
def test_a_faulty_series_fails_the_audit(monkeypatch, cleared_caches, name):
    fault, _, expected = SERIES_FAULTS[name]
    # each calling module holds its own binding
    for module in (hecke_engine, hecke_clifford, cli_verify):
        monkeypatch.setattr(
            module, "characteristic_by_composition_series", faulty(fault)
        )
    cases = run_audit("all", 3, 10, 0)
    assert Counter(case.id for case in cases if case.status == "fail") == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_agrees_with_restriction_characteristic(n):
    for index_set in subsets(range(n)):
        assert trace_characteristic(build_MI(index_set, n)) == (
            restriction_characteristic(index_set, n)
        ), index_set
