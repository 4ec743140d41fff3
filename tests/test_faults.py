"""A table of realistic faults, each with the default-audit cases it must fail.

Each row injects one fault into one library function and runs
``run_audit("all", 3, 10, 0)``, the audit of ``tbhl verify all``.  The
``cleared_caches`` fixture clears every ``tbhl`` cache before the row and
again after its fault is undone, so no result built without the fault
answers for it and none built under it outlives it.  A row lists each case
id it fails with the number of failing cases of that id; a row that fails
nothing fails the test.  Each row costs one cold default audit, 0.2-0.3 s
on 2 vCPUs, so the twenty-one rows cost 4.9-5.2 s of the tier-1 run.
Together they fail every case id of the default audit.
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import pytest

from tbhl import (
    cli_verify,
    domino_tableaux,
    hecke_clifford,
    hecke_engine,
    qsym_typeb,
    shifted_domino,
    signed_permutations,
    special_families,
)
from tbhl.cli_verify import run_audit
from tbhl.exact_algebra import GaussianInteger
from tbhl.qsym_typeb import QSymElement
from tbhl.signed_permutations import left_descents


def dropped_last_filling(monkeypatch):
    # every shifted tiling's walk loses its last filling
    code_walk = shifted_domino._code_walk

    def faulty(tiling, *args):
        # the walk reuses its two lists, so each filling is copied
        fillings = [
            (list(codes), list(counts)) for codes, counts in code_walk(tiling, *args)
        ]
        yield from fillings[:-1]

    monkeypatch.setattr(shifted_domino, "_code_walk", faulty)


def swapped_tie_rules(monkeypatch):
    # equal primed codes go left-to-right, equal unprimed ones top-to-bottom
    rule = shifted_domino._standardization

    def faulty(tiling, codes):
        # the rule reads only the tiling's tie ranks
        unprimed, primed = tiling._tie_ranks
        return rule(SimpleNamespace(_tie_ranks=(primed, unprimed)), codes)

    monkeypatch.setattr(shifted_domino, "_standardization", faulty)


def dropped_standard_order(monkeypatch):
    # a domino set with two or more standard numberings loses its last one
    standard_orders = domino_tableaux.standard_orders

    def faulty(dominoes):
        orders = list(standard_orders(dominoes))
        return iter(orders[:-1] if len(orders) > 1 else orders)

    # each calling module holds its own binding
    for module in (domino_tableaux, shifted_domino, cli_verify):
        monkeypatch.setattr(module, "standard_orders", faulty)


def dropped_adjacent_pair(monkeypatch):
    # two or more adjacent pairs lose the first one, so some numberings that
    # break it pass as standard and some modules have no composition series
    adjacent_pairs = domino_tableaux.adjacent_pairs

    def faulty(dominoes):
        pairs = adjacent_pairs(dominoes)
        return pairs[1:] if len(pairs) > 1 else pairs

    for module in (domino_tableaux, shifted_domino):
        monkeypatch.setattr(module, "adjacent_pairs", faulty)


def conjugated_block_entries(monkeypatch):
    # every entry of an induced block with an imaginary part comes out conjugated
    block = hecke_clifford._block

    def faulty(*args):
        return [(pos, GaussianInteger(x.re, -x.im)) for pos, x in block(*args)]

    monkeypatch.setattr(hecke_clifford, "_block", faulty)


def swapped_peak_variants(monkeypatch):
    # the literal and complemented readings of a zeta bit trade places
    peak_function_type_b = qsym_typeb.peak_function_type_b
    other = {"literal": "complemented", "complemented": "literal"}

    def faulty(bit, peaks, n, variant="literal"):
        return peak_function_type_b(bit, peaks, n, other[variant])

    for module in (qsym_typeb, cli_verify):
        monkeypatch.setattr(module, "peak_function_type_b", faulty)


def dropped_interval_top(monkeypatch):
    # an interval of two or more elements loses its top one
    weak_order_interval = signed_permutations.weak_order_interval

    def faulty(bottom, top):
        members = weak_order_interval(bottom, top)
        return tuple(w for w in members if w != top) if len(members) > 1 else members

    for module in (signed_permutations, special_families, cli_verify):
        monkeypatch.setattr(module, "weak_order_interval", faulty)


def empty_intervals(monkeypatch):
    # every weak-order interval comes out empty, even from an element to itself
    def faulty(bottom, top):
        return ()

    for module in (signed_permutations, special_families, cli_verify):
        monkeypatch.setattr(module, "weak_order_interval", faulty)


def dropped_k_set_zero(monkeypatch):
    # the acting set never holds index 0
    k_set = hecke_clifford.k_set

    def faulty(index_set, subset, n):
        return k_set(index_set, subset, n) - {0}

    for module in (hecke_clifford, cli_verify):
        monkeypatch.setattr(module, "k_set", faulty)


def complement_peaks_as_valleys(monkeypatch):
    # the expected endomorphism indices are the complement's peaks
    def faulty(index_set, n):
        complement = frozenset(range(n)) - frozenset(index_set)
        return qsym_typeb.peak_data(complement, n).peak

    for module in (hecke_clifford, cli_verify):
        monkeypatch.setattr(module, "centralizer_valleys", faulty)


def dropped_cover_pair(monkeypatch):
    # D - {i, i+1}, the one lower cover two smaller than D, is never allowed
    cover_lower_targets = hecke_clifford.cover_lower_targets

    def faulty(i, index_set, subset, n):
        targets = cover_lower_targets(i, index_set, subset, n)
        return frozenset(t for t in targets if len(t) != len(subset) - 2)

    for module in (hecke_clifford, cli_verify):
        monkeypatch.setattr(module, "cover_lower_targets", faulty)


def dropped_commutation_term(monkeypatch):
    # pi_1 c_1 c_2 loses its c_1 c_2 term
    pi_commute = hecke_clifford.pi_commute

    def faulty(i, word):
        terms = pi_commute(i, word)
        if (i, word) != (1, (1, 2)):
            return terms
        return tuple(term for term in terms if term[0] != word)

    monkeypatch.setattr(hecke_clifford, "pi_commute", faulty)


def dropped_primed_descent(monkeypatch):
    # i+1 primed over an unprimed i is no longer a descent
    def faulty(marked):
        descents = marked.base.descent_set()
        return frozenset(i for i in descents if i not in marked.primed)

    monkeypatch.setattr(shifted_domino, "marked_descents", faulty)


def arc_without_wrap(monkeypatch):
    # the letters of each word must increase by exactly one: n no longer
    # wraps to 1 there, though the starting letters still compare cyclically
    def faulty(x):
        positives = [v for v in x.window if v > 0]
        negatives = [v for v in x.window if v < 0]
        for word in (positives, negatives):
            if any(later - earlier != 1 for earlier, later in zip(word, word[1:])):
                return False
        starts = positives[:1] + negatives[:1]
        return len(starts) < 2 or (sum(starts) - 1) % x.n == 0

    monkeypatch.setattr(special_families, "is_signed_arc", faulty)


def vertical_first_domino_ignored(monkeypatch):
    # 0 is never a descent
    descent_set = domino_tableaux._descent_set

    def faulty(dominoes):
        return descent_set(dominoes) - {0}

    for module in (domino_tableaux, shifted_domino):
        monkeypatch.setattr(module, "_descent_set", faulty)


def dropped_valley_at_n(monkeypatch):
    # n is never a valley, even when n-1 is in the set
    peak_data = qsym_typeb.peak_data

    def faulty(subset, n):
        data = peak_data(subset, n)
        return dataclasses.replace(data, valley=data.valley - {n})

    for module in (qsym_typeb, hecke_clifford, cli_verify):
        monkeypatch.setattr(module, "peak_data", faulty)


def swapped_quotient(monkeypatch):
    # the even and odd offsets give each other's quotient partition
    two_quotient = shifted_domino.two_quotient

    def faulty(shape):
        quotient = two_quotient(shape)
        return dataclasses.replace(quotient, mu=quotient.nu, nu=quotient.mu)

    for module in (shifted_domino, cli_verify):
        monkeypatch.setattr(module, "two_quotient", faulty)


def index_zero_cap_one_too_low(monkeypatch):
    # a capped walk allows one entry of index 0 fewer than its weight asks
    code_walk = shifted_domino._code_walk

    def faulty(tiling, maxval, caps=None):
        if caps is not None:
            caps = (caps[0] - 1, *caps[1:])
        return code_walk(tiling, maxval, caps)

    for module in (shifted_domino, cli_verify):
        monkeypatch.setattr(module, "_code_walk", faulty)


def right_descent_sum(monkeypatch):
    # each element contributes its right descents instead of its left ones
    def faulty(elements):
        elements = list(elements)
        descent_sets = [left_descents(x.inverse()) for x in elements]
        return QSymElement.from_descent_sets(descent_sets, elements[0].n)

    for module in (hecke_engine, cli_verify):
        monkeypatch.setattr(module, "characteristic_by_descent_sum", faulty)


def diagonal_dominoes_unfilled(monkeypatch):
    # a domino is filled only with a cell strictly above the diagonal
    def faulty(domino):
        return any(c > r for (r, c) in domino.cells)

    monkeypatch.setattr(shifted_domino, "weakly_above_diagonal", faulty)


def ignored_last_strict_step(monkeypatch):
    # the step between i_{n-1} and i_n is never strict
    fb_monomials = qsym_typeb.fb_monomials

    def faulty(subset, n, nvars):
        return fb_monomials(frozenset(subset) - {n - 1}, n, nvars)

    for module in (qsym_typeb, shifted_domino, cli_verify):
        monkeypatch.setattr(module, "fb_monomials", faulty)


FAULTS = {
    "code-walk-drops-a-filling": (
        dropped_last_filling, {"shifted.h-modes": 11, "shifted.stand": 11}
    ),
    "standardization-swaps-tie-rules": (swapped_tie_rules, {"shifted.stand": 6}),
    "standard-orders-drops-an-order": (
        dropped_standard_order,
        {"domino.counts": 2, "shifted.h-modes": 3, "shifted.stand": 3},
    ),
    "adjacent-pairs-drops-a-pair": (
        dropped_adjacent_pair,
        {"domino.counts": 2, "domino.modules": 6, "shifted.h-modes": 3,
         "shifted.stand": 3},
    ),
    "induced-blocks-conjugate-imaginary-entries": (
        conjugated_block_entries, {"clifford.diagonal": 3, "clifford.relations": 3}
    ),
    "peak-function-swaps-variants": (swapped_peak_variants, {"clifford.audit": 7}),
    "weak-order-interval-drops-its-top": (
        dropped_interval_top, {"families.random-convex": 1, "unimodal.interval": 3}
    ),
    "weak-order-intervals-are-empty": (
        empty_intervals, {"families.random-convex": 1, "unimodal.interval": 3}
    ),
    "k-set-drops-index-zero": (dropped_k_set_zero, {"clifford.diagonal": 3}),
    "centralizer-valleys-are-complement-peaks": (
        complement_peaks_as_valleys,
        {"clifford.valley-stability": 2, "morphisms.centralizer": 3},
    ),
    "cover-lower-targets-drops-the-pair": (
        dropped_cover_pair, {"clifford.diagonal": 2}
    ),
    "pi-commute-drops-a-term": (
        dropped_commutation_term,
        {"clifford.audit": 12, "clifford.diagonal": 2, "clifford.relations": 2,
         "clifford.restriction": 2, "induction.conjugate": 6,
         "induction.family": 17, "morphisms.intertwiner": 2, "morphisms.iso": 2},
    ),
    "marked-descents-drops-the-primed-clause": (
        dropped_primed_descent, {"shifted.peak": 19, "shifted.stand": 11}
    ),
    "signed-arc-loses-the-wrap": (
        arc_without_wrap,
        {"arc.compatible": 2, "arc.count": 1, "arc.non-convex": 1,
         "induction.family": 2},
    ),
    "descent-set-ignores-a-vertical-first-domino": (
        vertical_first_domino_ignored,
        {"domino.modules": 15, "domino.pinned-descents": 1, "domino.pinned-g22": 1},
    ),
    "peak-data-drops-the-valley-at-n": (
        dropped_valley_at_n,
        {"clifford.audit": 7, "clifford.restriction": 3, "induction.conjugate": 5,
         "induction.family": 20, "morphisms.centralizer": 3, "qsym.peak-valley": 1},
    ),
    "two-quotient-swaps-mu-and-nu": (swapped_quotient, {"shifted.quotient": 1}),
    "code-walk-caps-index-zero-one-too-low": (
        index_zero_cap_one_too_low, {"shifted.witness-weight": 1}
    ),
    "descent-sum-reads-right-descents": (
        right_descent_sum, {"families.random-convex": 1, "families.relations": 27}
    ),
    "diagonal-dominoes-are-unfilled": (
        diagonal_dominoes_unfilled,
        {"shifted.witness-descents": 1, "shifted.witness-weight": 1},
    ),
    "fb-monomials-ignores-the-last-strict-step": (
        ignored_last_strict_step,
        {"qsym.truncations": 1, "shifted.h-modes": 11, "shifted.stand": 11},
    ),
}


@pytest.mark.parametrize("inject, expected", FAULTS.values(), ids=FAULTS.keys())
def test_fault_fails_exactly_its_cases(monkeypatch, cleared_caches, inject, expected):
    inject(monkeypatch)
    cases = run_audit("all", 3, 10, 0)
    failing = Counter(case.id for case in cases if case.status == "fail")
    assert failing, "the fault reached no verdict"
    assert failing == expected


def test_every_default_case_id_has_a_row():
    ids = {case.id for case in run_audit("all", 3, 10, 0)}
    assert ids == set().union(*(expected for _, expected in FAULTS.values()))
