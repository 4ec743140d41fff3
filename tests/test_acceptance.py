"""Acceptance suite: the nine headline checks, each at exact equality.

Every check is an audit case of ``tbhl verify all``.  One audit run at
``--max-n 4 --max-partition 10 --seed 0`` is shared by the module; each
criterion asserts the exact set of ``(id, params)`` keys it owns and that
each of those cases passes.  A case may be ``variant-dependent`` only on a
``theorem_literal`` row of the convention audit.  The few checks that have
no audit case stay as direct assertions.  The same run, rendered as JSON,
must hash to the pinned digest of ``tbhl verify all --max-n 4 --json``.

The conftest hook prints one ``acceptance criterion N: PASS/FAIL`` line
per test in the terminal summary of every ``pytest -v`` run, using the
one-line summaries below, plus any notes recorded in ``NOTES``.
"""

import hashlib
import json

import pytest

from tbhl.cli_verify import (
    _ascent_compatible_catalog,
    _family_catalog,
    _shape_text,
    _valid_shapes,
    render_report,
    run_audit,
)
from tbhl.domino_tableaux import enumerate_sdt, partitions_of
from tbhl.hecke_clifford import RES_FORMS
from tbhl.shifted_domino import h_lambda, h_lambda_monomials
from tbhl.signed_permutations import format_index_set, subsets

CRITERION_SUMMARIES = {
    1: "relation suites and characteristics for all special families",
    2: "arc families: compatibility, count, non-convexity witness",
    3: "inverted unimodal families equal their weak-order intervals",
    4: "domino tableaux: counts, modules, pinned values",
    5: "shifted tableaux: quotient, fiber and marking sums, witnesses",
    6: "Clifford modules: relations, restriction, convention audit",
    7: "isomorphism predicate, intertwiners, commutant bases",
    8: "induction pipeline reproduces the shape generating functions",
    9: "valley/peak counting identity and truncation independence",
}

NOTES: list[str] = []


def _key(case_id: str, params: dict) -> tuple[str, str]:
    return case_id, json.dumps(params, sort_keys=True)


# sha256 prefix of the output of ``tbhl verify all --max-n 4 --json``
REPORT_DIGEST = "d546772f3804f88b"


@pytest.fixture(scope="module")
def audit_cases():
    """The sorted cases of ``tbhl verify all --max-n 4 --max-partition 10
    --seed 0``."""
    return run_audit("all", max_n=4, max_partition=10, seed=0)


@pytest.fixture(scope="module")
def audit(audit_cases):
    return {_key(case.id, case.params): case for case in audit_cases}


def test_report_digest_pinned(audit_cases):
    header = {"command": "verify all", "max_n": 4}
    report = render_report(audit_cases, True, header) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest().startswith(REPORT_DIGEST)


def _owned(audit, expected) -> dict:
    """Assert the audit's cases with the ids in ``expected`` are exactly
    ``expected`` (``(id, params)`` pairs) and all pass; return them."""
    keys = {_key(case_id, params) for case_id, params in expected}
    ids = {case_id for case_id, _ in keys}
    owned = {key: case for key, case in audit.items() if key[0] in ids}
    assert set(owned) == keys
    for case in owned.values():
        allowed = {"pass"}
        if case.params.get("form") == "theorem_literal":
            allowed.add("variant-dependent")
        assert case.status in allowed, (case.id, case.params, case.details)
    return owned


def _by_degree(case_id: str, degrees) -> list:
    return [(case_id, {"degree": n}) for n in degrees]


def _by_shape(case_id: str, shapes) -> list:
    return [(case_id, {"shape": _shape_text(shape)}) for shape in shapes]


def test_criterion_1_relation_suites(audit):
    assert [len(list(_family_catalog(n))) for n in range(1, 4)] == [7, 13, 23]
    _owned(
        audit,
        [
            ("families.relations", {"family": fam.name})
            for n in range(1, 4)
            for fam in _family_catalog(n)
        ]
        + [
            (
                "families.random-convex",
                {"degree": 3, "samples": 200, "seed": 0},
            )
        ],
    )


def test_criterion_2_arc_families(audit):
    _owned(
        audit,
        _by_degree("arc.compatible", (2, 3, 4))
        + [("arc.count", {"degree": 3}), ("arc.non-convex", {"max_degree": 4})],
    )


def test_criterion_3_unimodal_intervals(audit):
    _owned(audit, _by_degree("unimodal.interval", range(1, 5)))


def test_criterion_4_domino_tableaux(audit):
    totals = (2, 4, 6, 8)
    tileable = [
        shape
        for total in totals
        for shape in partitions_of(total)
        if enumerate_sdt(shape)
    ]
    assert len(tileable) == 37
    _owned(
        audit,
        [("domino.counts", {"total": total}) for total in totals]
        + _by_shape("domino.modules", tileable)
        + _by_shape("domino.pinned-g22", [(2, 2)])
        + _by_shape("domino.pinned-descents", [(5, 4, 4, 1)]),
    )


def test_criterion_5_shifted_tableaux(audit):
    small, large = list(_valid_shapes(8)), list(_valid_shapes(10))
    assert (len(small), len(large)) == (19, 33)
    witness = [(7, 7, 6, 5, 1)]
    owned = _owned(
        audit,
        _by_shape("shifted.quotient", witness)
        + _by_shape("shifted.stand", small)
        + _by_shape("shifted.h-modes", small)
        + _by_shape("shifted.peak", large)
        + _by_shape("shifted.witness-weight", witness)
        + _by_shape("shifted.witness-descents", witness),
    )
    # shifted.h-modes stops at size 8; the size-10 shapes are checked here
    sensitive = [
        tuple(int(part) for part in case.params["shape"].split(","))
        for case in owned.values()
        if case.id == "shifted.h-modes" and case.details.endswith("readings differ")
    ]
    for shape in [shape for shape in large if sum(shape) == 10]:
        literal = h_lambda(shape, "literal")
        n = literal.n
        assert literal.to_monomials(n + 1) == h_lambda_monomials(shape, n + 1), shape
        if literal != h_lambda(shape, "complemented"):
            sensitive.append(shape)
    NOTES.append(
        "criterion 5: variant-sensitive shapes up to size 10: "
        + (str(sensitive) if sensitive else "none")
    )


def test_criterion_6_clifford_modules(audit):
    degrees = range(1, 5)
    owned = _owned(
        audit,
        _by_degree("clifford.relations", degrees)
        + _by_degree("clifford.restriction", degrees)
        + _by_degree("clifford.valley-stability", degrees)
        + _by_degree("clifford.diagonal", degrees)
        + [
            (
                "clifford.audit",
                {"degree": n, "indices": format_index_set(index_set), "form": form},
            )
            for n in degrees
            for index_set in subsets(range(n))
            for form in RES_FORMS
        ],
    )
    # the smallest case separating the two readings of the theorem
    base_case = owned[
        _key(
            "clifford.audit",
            {"degree": 1, "indices": "{}", "form": "theorem_literal"},
        )
    ]
    assert base_case.status == "variant-dependent"
    assert base_case.details == "direct=2*FB{}; formula=2*FB{0}"


def test_criterion_7_morphisms(audit):
    owned = _owned(
        audit,
        _by_degree("morphisms.iso", range(1, 5))
        + _by_degree("morphisms.intertwiner", range(1, 4))
        + _by_degree("morphisms.centralizer", range(1, 4)),
    )
    assert (
        owned[_key("morphisms.intertwiner", {"degree": 3})].details
        == "3 admissible maps; all commute and are invertible"
    )


def test_criterion_8_induction_pipeline(audit):
    assert [len(_ascent_compatible_catalog(n)) for n in range(1, 4)] == [4, 7, 12]
    _owned(
        audit,
        _by_shape("induction.conjugate", _valid_shapes(8))
        + [
            ("induction.family", {"family": fam.name})
            for n in range(1, 4)
            for fam in _ascent_compatible_catalog(n)
        ],
    )


def test_criterion_9_foundations(audit):
    _owned(
        audit,
        [
            ("qsym.peak-valley", {"max_degree": 8}),
            ("qsym.truncations", {"max_degree": 6}),
        ],
    )
