"""A table of realistic faults, each with the default-audit cases it must fail.

Each row injects one fault into one library function and runs
``run_audit("all", 3, 10, 0)``, the audit of ``tbhl verify all``.  The
``cleared_caches`` fixture clears every ``tbhl`` cache before the row and
again after its fault is undone, so no result built without the fault
answers for it and none built under it outlives it.  A row lists each case
id it fails with the number of failing cases of that id; a row that fails
nothing fails the test.  Each row costs one cold default audit, about 0.3 s
on 2 vCPUs.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from tbhl import cli_verify, domino_tableaux, shifted_domino
from tbhl.cli_verify import run_audit


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


FAULTS = {
    "code-walk-drops-a-filling": (
        dropped_last_filling, {"shifted.h-modes": 11, "shifted.stand": 11}
    ),
    "standardization-swaps-tie-rules": (swapped_tie_rules, {"shifted.stand": 6}),
    "standard-orders-drops-an-order": (
        dropped_standard_order,
        {"domino.counts": 2, "shifted.h-modes": 3, "shifted.stand": 3},
    ),
}


@pytest.mark.parametrize("inject, expected", FAULTS.values(), ids=FAULTS.keys())
def test_fault_fails_exactly_its_cases(monkeypatch, cleared_caches, inject, expected):
    inject(monkeypatch)
    cases = run_audit("all", 3, 10, 0)
    failing = Counter(case.id for case in cases if case.status == "fail")
    assert failing, "the fault reached no verdict"
    assert failing == expected
