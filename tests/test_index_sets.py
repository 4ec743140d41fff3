"""Every public entry point that takes an index set checks it one way.

Fundamentals, peak sets, descent labels, primed entries, and the index sets
and Clifford index sets of induced modules all pass through
``checked_index_set``.  Each entry point accepts the empty set at its
smallest size and its top index, and rejects the top index together with an
element one past either end, with the one message.  A negative degree is
rejected with one message too, except where a degree check of its own comes
first, and a generator index outside ``0..n-1`` with another.
"""

import re

import pytest

from tbhl.hecke_clifford import (
    build_MI,
    centralizer_valleys,
    cover_lower_targets,
    iso_predicate,
    k_set,
    res_MI_formula,
    restriction_characteristic,
    ribbon_table_matrix,
)
from tbhl.domino_tableaux import enumerate_sdt, enumerate_tilings
from tbhl.hecke_engine import family_from_action
from tbhl.qsym_typeb import QSymElement, fb_monomials, peak_data, peak_function_type_b
from tbhl.shifted_domino import (
    MarkedStandardTableau,
    enumerate_shifted,
    enumerate_shifted_tilings,
)
from tbhl.signed_permutations import (
    braid_exponent,
    checked_index_set,
    format_index_set,
    simple_reflection,
)
from tbhl.special_families import build_family


def zero_to_top(n):
    return 0, n - 1


def one_to_top(n):
    return 1, n


def marked(primed, n):
    # the one standard tableau of a row of n dominoes
    (base,) = enumerate_shifted((2 * n,) if n else ())
    return MarkedStandardTableau(base, primed)


# name -> (call on (index_set, n), the allowed range at n, the smallest n)
ENTRY_POINTS = {
    "checked_index_set": (checked_index_set, zero_to_top, 0),
    "QSymElement.make": (lambda s, n: QSymElement.make(n, {s: 1}), zero_to_top, 0),
    "fb_monomials": (lambda s, n: fb_monomials(s, n, 2), zero_to_top, 0),
    "peak_data": (peak_data, zero_to_top, 0),
    "peak_function_type_b": (
        lambda s, n: peak_function_type_b(0, s, n), lambda n: (1, n - 1), 0
    ),
    "family_from_action": (
        lambda s, n: family_from_action(("y",), lambda y: s, lambda y, i: None, n),
        zero_to_top,
        0,
    ),
    "build_family-dclass": (
        lambda s, n: build_family("dclass", (s,), n), zero_to_top, 1
    ),
    "MarkedStandardTableau": (marked, one_to_top, 0),
    "k_set": (lambda s, n: k_set(s, (), n), zero_to_top, 0),
    "k_set-barred": (lambda s, n: k_set((), s, n), one_to_top, 0),
    "cover_lower_targets": (
        lambda s, n: cover_lower_targets(0, s, (), n), zero_to_top, 1
    ),
    "cover_lower_targets-barred": (
        lambda s, n: cover_lower_targets(0, (), s, n), one_to_top, 1
    ),
    "res_MI_formula": (
        lambda s, n: res_MI_formula(s, n, "proof_penultimate"), zero_to_top, 0
    ),
    "iso_predicate-first": (lambda s, n: iso_predicate(s, (), n), zero_to_top, 0),
    "iso_predicate-second": (lambda s, n: iso_predicate((), s, n), zero_to_top, 0),
    "ribbon_table_matrix": (
        lambda s, n: ribbon_table_matrix(0, s, n), zero_to_top, 1
    ),
    "centralizer_valleys": (centralizer_valleys, zero_to_top, 0),
    "build_MI": (build_MI, zero_to_top, 0),
    "restriction_characteristic": (restriction_characteristic, zero_to_top, 0),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_index_set_is_checked_at_both_edges(name, n):
    call, bounds, smallest = ENTRY_POINTS[name]
    call(frozenset(), smallest)
    low, top = bounds(n)
    inside = frozenset({top} if low <= top else ())
    call(inside, n)
    for outside in (low - 1, top + 1):
        rejected = inside | {outside}
        message = f"index set {format_index_set(rejected)} is outside {low}..{top}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(rejected, n)


# the entry points whose degree has no check of its own
DEGREE_CHECKED = [
    name for name in ENTRY_POINTS
    if name not in ("build_family-dclass", "MarkedStandardTableau")
]


@pytest.mark.parametrize("name", DEGREE_CHECKED)
def test_negative_degree_is_rejected(name):
    call, _, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="^degree -1 is negative$"):
        call(frozenset(), -1)


# name -> call on (generator index, n)
GENERATOR_INDICES = {
    "simple_reflection": simple_reflection,
    "cover_lower_targets": lambda i, n: cover_lower_targets(i, (), (), n),
    "ribbon_table_matrix": lambda i, n: ribbon_table_matrix(i, (), n),
}


@pytest.mark.parametrize("name", GENERATOR_INDICES)
@pytest.mark.parametrize("i, n", [(0, 0), (-1, 2), (2, 2), (7, 2)])
def test_generator_index_is_checked(name, i, n):
    message = f"generator index {i} out of range for n={n}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GENERATOR_INDICES[name](i, n)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-2, 3)])
def test_braid_exponent_rejects_a_negative_index(i, j):
    message = f"generator index {min(i, j)} out of range for n={max(i, j) + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        braid_exponent(i, j)


# the readers cached on a checked (I, n), with their further keyword arguments
CACHED_ON_INDEX_SETS = {
    "restriction_characteristic": (restriction_characteristic, {}),
    "fb_monomials": (fb_monomials, {"nvars": 2}),
}
CACHED_ON_SHAPES = (
    enumerate_sdt, enumerate_tilings, enumerate_shifted, enumerate_shifted_tilings
)


@pytest.mark.parametrize(
    "reader, keywords", CACHED_ON_INDEX_SETS.values(), ids=CACHED_ON_INDEX_SETS
)
def test_sets_and_lists_share_one_cached_value(cleared_caches, reader, keywords):
    # the index set is checked before the cache, so any iterable reaches it
    values = [
        reader(index_set, 3, **keywords)
        for index_set in ({0, 2}, [2, 0], frozenset({0, 2}))
    ]
    assert values[0] is values[1] is values[2]
    assert reader.cache_info().currsize == 1


def test_nvars_shares_one_entry_by_keyword_or_position(cleared_caches):
    assert fb_monomials({0}, 2, nvars=3) is fb_monomials((0,), 2, 3)
    assert fb_monomials.cache_info().currsize == 1


@pytest.mark.parametrize("enumerate_shape", CACHED_ON_SHAPES, ids=lambda f: f.__name__)
def test_lists_and_tuples_share_one_cached_shape(cleared_caches, enumerate_shape):
    assert enumerate_shape([2, 2]) is enumerate_shape((2, 2))
    assert enumerate_shape.cache_info().currsize == 1


def test_elements_are_read_as_ints():
    assert checked_index_set([True, 2], 3) == {1, 2}
    assert all(type(i) is int for i in checked_index_set([True], 3))
    with pytest.raises(TypeError):
        checked_index_set([1.0], 3)
