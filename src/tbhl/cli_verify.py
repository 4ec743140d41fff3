"""Command-line driver: compute objects, enumerate, and audit the theorems.

Subcommands
-----------

``qsym``
    ``fb`` (fundamental element, optionally as bounded monomials),
    ``delta`` (the peak characteristic of a subset), and ``peakfn``
    (peak function from an explicit bit and peak set).

``enumerate``
    ``domino sdt`` (standard domino tableaux), ``shifted sshdt``
    (standard, or bounded semistandard with ``--maxval``), ``shifted
    quotient`` (the 2-quotient pair), and ``family`` (permutation
    families from compact descriptor strings).

``verify``
    ``all`` (the full audit suite), ``clifford-audit`` (the
    restriction-formula agreement table over all index sets), and
    ``peak-theorem`` (marking sums for one shape).

Reports are deterministic: cases are order-normalized and no timing
information is emitted.  Exit codes: 0 = no failing case, 1 = at least
one failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from dataclasses import dataclass

from .exact_algebra import GaussianInteger
from .domino_tableaux import (
    brute_force_sdt,
    enumerate_sdt,
    g_lambda,
    partitions_of,
    sdt_operator_family,
    validate_partition,
)
from .hecke_clifford import (
    RES_FORMS,
    build_MI,
    build_intertwiner,
    centralizer_check,
    centralizer_valleys,
    cover_lower_targets,
    induce_and_restrict,
    iso_predicate,
    k_factor,
    k_set,
    res_MI_formula,
    restriction_characteristic,
    ribbon_table_matrix,
    verify_hcl_relations,
)
from .hecke_engine import (
    OperatorFamily,
    characteristic_by_composition_series,
    characteristic_by_descent_sum,
    family_from_elements,
    verify_relations,
)
from .qsym_typeb import (
    QSymElement,
    fb_monomials,
    fb_truncations_linearly_independent,
    peak_characteristic,
    peak_data,
    peak_function_type_b,
)
from .shifted_domino import (
    conjugate_family,
    enumerate_shifted,
    filled_count,
    find_semistandard_with_weight,
    find_standard_with_descents,
    h_lambda,
    stand_theorem_failures,
    two_quotient,
    verify_peak_theorem,
)
from .signed_permutations import (
    all_elements,
    ascent_compatibility_report,
    format_index_set,
    format_window,
    identity,
    leq_left_weak,
    parse_index_set,
    subsets,
    weak_order_interval,
)
from .special_families import (
    MAX_DEGREE,
    build_family,
    invert_family,
    parse_family_spec,
    smallest_non_convex_arc_degree,
    unimodal_interval,
)

DEFAULT_SEED = 0
DEFAULT_MAX_N = 3
DEFAULT_MAX_PARTITION = 10
RANDOM_CONVEX_SAMPLES = 200
WITNESS_SHAPE = (7, 7, 6, 5, 1)
WITNESS_WEIGHT = (1, 4, 0, 1, 2, 2)
WITNESS_DESCENTS = frozenset({1, 5, 7, 8})
# Largest shapes, in dominoes (half the shape size), that the commands
# enumerating one shape's tableaux accept; the work is exponential in it.
MAX_STANDARD_DOMINOES = 12
MAX_SEMISTANDARD_DOMINOES = 6
MAX_PEAK_THEOREM_DOMINOES = 10
# Largest inputs of the ``qsym`` commands.  ``delta`` and ``peakfn`` sum over
# all 2^n subsets; ``fb --monomials`` writes one exponent vector of length
# nvars per chain, and the fundamental element of the empty set has the most
# chains, C(n + nvars - 1, n).
MAX_QSYM_DEGREE = 16
MAX_QSYM_VARIABLES = 64
MAX_MONOMIAL_CHAINS = 200_000


# ---------------------------------------------------------------------------
# audit cases


@dataclass(frozen=True)
class AuditCase:
    """One verified instance: identifier, parameters, status, details."""

    id: str
    params: dict
    status: str  # "pass" | "fail" | "variant-dependent"
    details: str

    def sort_key(self) -> tuple[str, str]:
        return (self.id, json.dumps(self.params, sort_keys=True))

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "details": self.details,
        }


def _shape_text(shape) -> str:
    return ",".join(str(part) for part in shape)


def _valid_shapes(max_total: int):
    for total in range(2, max_total + 1, 2):
        for shape in partitions_of(total):
            if two_quotient(shape).valid:
                yield shape


def _passfail(ok: bool) -> str:
    return "pass" if ok else "fail"


# -- criterion: operator families from distinguished permutation sets -------


def _family_catalog(n: int):
    for index_set in map(frozenset, subsets(range(n))):
        fam = build_family("dclass", (index_set,), n)
        yield fam
        yield invert_family(fam)
    for i in range(1, n + 1):
        fam = build_family("luni", (i,), n)
        yield fam
        yield invert_family(fam)
    yield build_family("arc", (), n)


def cases_family_relations(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, min(max_n, 3) + 1):
        for fam in _family_catalog(n):
            ops = family_from_elements(fam.members)
            relations = verify_relations(ops)
            char, _ = characteristic_by_composition_series(ops)
            descent_sum = characteristic_by_descent_sum(fam.members)
            ok = (
                bool(fam.members)
                and relations == {"relations": "ok"}
                and char == descent_sum
            )
            details = (
                f"{len(fam.members)} members; relations hold; "
                "characteristic equals descent sum"
                if ok
                else f"{len(fam.members)} members; relations={relations}; "
                f"characteristic={char}; descent sum={descent_sum}"
            )
            cases.append(
                AuditCase(
                    "families.relations",
                    {"family": fam.name},
                    _passfail(ok),
                    details,
                )
            )
    return cases


def cases_random_convex(max_n: int, seed: int, samples: int) -> list[AuditCase]:
    degree = min(max_n, 3)
    rng = random.Random(seed)
    group = all_elements(degree)
    failures = 0
    for _ in range(samples):
        top = rng.choice(group)
        bottom = rng.choice(weak_order_interval(identity(degree), top))
        members = weak_order_interval(bottom, top)
        report = ascent_compatibility_report(members)
        ops = family_from_elements(members)
        ok = (
            report.compatible
            and verify_relations(ops) == {"relations": "ok"}
            and characteristic_by_composition_series(ops)[0]
            == characteristic_by_descent_sum(members)
        )
        if not ok:
            failures += 1
    return [
        AuditCase(
            "families.random-convex",
            {"degree": degree, "samples": samples, "seed": seed},
            _passfail(failures == 0),
            f"weak-order intervals: ascent-compatible, relations hold, "
            f"characteristic equals descent sum; failures={failures}",
        )
    ]


# -- criterion: arc families ------------------------------------------------


def cases_arc(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(2, min(max_n, 4) + 1):
        fam = build_family("arc", (), n)
        report = ascent_compatibility_report(fam.members)
        cases.append(
            AuditCase(
                "arc.compatible",
                {"degree": n},
                _passfail(report.compatible),
                f"{len(fam.members)} members scanned",
            )
        )
    if max_n >= 3:
        count = len(build_family("arc", (), 3))
        cases.append(
            AuditCase(
                "arc.count",
                {"degree": 3},
                _passfail(count == 24),
                f"expected 24 members, found {count}",
            )
        )
        found = smallest_non_convex_arc_degree(min(max_n, 4))
        ok = False
        details = "no non-convex degree found"
        if found is not None:
            degree, (low, high, gap) = found
            members = set(build_family("arc", (), degree).members)
            ok = (
                degree == 3
                and low in members
                and high in members
                and gap not in members
                and leq_left_weak(low, gap)
                and leq_left_weak(gap, high)
            )
            details = (
                f"smallest non-convex degree {degree}: "
                f"{format_window(low)} <= {format_window(gap)} <= "
                f"{format_window(high)} with the middle element outside"
            )
        cases.append(
            AuditCase(
                "arc.non-convex",
                {"max_degree": min(max_n, 4)},
                _passfail(ok),
                details,
            )
        )
    return cases


# -- criterion: unimodal weak-order intervals -------------------------------


def cases_unimodal(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, min(max_n, 4) + 1):
        bad = []
        for i in range(1, n + 1):
            family = set(invert_family(build_family("luni", (i,), n)).members)
            if set(unimodal_interval(i, n, "corrected")) != family:
                bad.append(i)
        cases.append(
            AuditCase(
                "unimodal.interval",
                {"degree": n},
                _passfail(not bad),
                f"all {n} positions match the corrected interval"
                if not bad
                else f"mismatching positions: {bad}",
            )
        )
    return cases


# -- criterion: domino tableaux ---------------------------------------------


def cases_domino(max_partition: int) -> list[AuditCase]:
    cases = []
    for total in range(2, min(max_partition, 8) + 1, 2):
        mismatches = []
        for shape in partitions_of(total):
            fast = enumerate_sdt(shape)
            slow = brute_force_sdt(shape)
            if set(fast) != set(slow) or len(fast) != len(slow):
                mismatches.append(shape)
        cases.append(
            AuditCase(
                "domino.counts",
                {"total": total},
                _passfail(not mismatches),
                "enumerations agree with the brute-force oracle"
                if not mismatches
                else f"oracle mismatch at {mismatches}",
            )
        )
        for shape in partitions_of(total):
            if not enumerate_sdt(shape):
                continue
            ops = sdt_operator_family(shape)
            relations = verify_relations(ops)
            char, _ = characteristic_by_composition_series(ops)
            ok = relations == {"relations": "ok"} and char == g_lambda(shape)
            cases.append(
                AuditCase(
                    "domino.modules",
                    {"shape": _shape_text(shape)},
                    _passfail(ok),
                    "relations hold; characteristic equals the descent "
                    "generating function"
                    if ok
                    else f"relations={relations}; characteristic={char}",
                )
            )
    pinned = g_lambda((2, 2))
    expected = QSymElement.fundamental({0}, 2) + QSymElement.fundamental({1}, 2)
    cases.append(
        AuditCase(
            "domino.pinned-g22",
            {"shape": "2,2"},
            _passfail(pinned == expected),
            f"generating function {pinned}",
        )
    )
    descent_sets = {t.descent_set() for t in enumerate_sdt((5, 4, 4, 1))}
    ok = frozenset({0, 2, 5, 6}) in descent_sets
    cases.append(
        AuditCase(
            "domino.pinned-descents",
            {"shape": "5,4,4,1"},
            _passfail(ok),
            "a tableau with descents {0,2,5,6} exists"
            if ok
            else "no tableau with descents {0,2,5,6}",
        )
    )
    return cases


# -- criterion: shifted domino tableaux -------------------------------------


def cases_shifted(max_partition: int) -> list[AuditCase]:
    cases = [
        AuditCase(
            "shifted.quotient",
            {"shape": _shape_text(WITNESS_SHAPE)},
            _passfail(
                two_quotient(WITNESS_SHAPE).mu == (3, 3, 3)
                and two_quotient(WITNESS_SHAPE).nu == (4,)
            ),
            f"quotient pair mu={_shape_text(two_quotient(WITNESS_SHAPE).mu)} "
            f"nu={_shape_text(two_quotient(WITNESS_SHAPE).nu)}",
        )
    ]
    for shape in _valid_shapes(min(max_partition, 8)):
        nvars = filled_count(shape) + 1
        marked = enumerate_shifted(shape, "marked")
        bad = stand_theorem_failures(shape, nvars)
        cases.append(
            AuditCase(
                "shifted.stand",
                {"shape": _shape_text(shape)},
                _passfail(bad == 0),
                f"{len(marked)} marked tableaux; "
                f"standardization fibers match fundamentals; failures={bad}",
            )
        )
        monomial = h_lambda(shape, "monomial", nvars=nvars)
        literal = h_lambda(shape, "peak", variant="literal")
        complemented = h_lambda(shape, "peak", variant="complemented")
        ok = literal.to_monomials(nvars) == monomial
        cases.append(
            AuditCase(
                "shifted.h-modes",
                {"shape": _shape_text(shape)},
                _passfail(ok),
                "monomial and peak modes agree; "
                + (
                    "readings coincide (no index-0 descents)"
                    if literal == complemented
                    else "readings differ"
                ),
            )
        )
    for shape in _valid_shapes(min(max_partition, 10)):
        cases.append(peak_theorem_case(shape))
    if max_partition >= 10:
        cases.extend(witness_cases())
    return cases


def peak_theorem_case(shape) -> AuditCase:
    standards = enumerate_shifted(shape, "standard")
    bad = sum(
        1
        for standard in standards
        if not verify_peak_theorem(shape, standard, "literal")
    )
    return AuditCase(
        "shifted.peak",
        {"shape": _shape_text(shape)},
        _passfail(bad == 0),
        f"{len(standards)} standard tableaux; marking sums equal the "
        f"peak characteristic; failures={bad}",
    )


def witness_cases() -> list[AuditCase]:
    weight_status, _ = find_semistandard_with_weight(
        WITNESS_SHAPE, WITNESS_WEIGHT
    )
    descents_status, _ = find_standard_with_descents(
        WITNESS_SHAPE, WITNESS_DESCENTS
    )
    return [
        _witness_case(
            "shifted.witness-weight",
            weight_status,
            f"tableau with weight {WITNESS_WEIGHT}",
        ),
        _witness_case(
            "shifted.witness-descents",
            descents_status,
            f"tableau with descents {format_index_set(WITNESS_DESCENTS)}",
        ),
    ]


def _witness_case(case_id: str, status: str, target: str) -> AuditCase:
    found = status == "found"
    return AuditCase(
        case_id,
        {"shape": _shape_text(WITNESS_SHAPE)},
        _passfail(found),
        f"{target} found" if found else f"no {target}",
    )


# -- criterion: Clifford-extended modules -----------------------------------


_mi_characteristics: dict[tuple[frozenset[int], int], QSymElement] = {}


def _mi_characteristic(
    index_set: frozenset[int], n: int, module: OperatorFamily | None = None
) -> QSymElement:
    """Restriction characteristic of ``build_MI(index_set, n)``, computed once
    per ``(I, n)`` for the three Clifford sections.  Only the immutable
    characteristic is kept; a section that already holds the module passes
    it, so no module is built twice."""
    key = (index_set, n)
    if key not in _mi_characteristics:
        if module is None:
            module = build_MI(index_set, n)
        _mi_characteristics[key] = restriction_characteristic(module)[0]
    return _mi_characteristics[key]


def cases_clifford(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, max_n + 1):
        relation_failures = []
        restriction_failures = []
        stability_failures = []
        diagonal_failures = []
        for index_set in map(frozenset, subsets(range(n))):
            module = build_MI(index_set, n)
            if verify_hcl_relations(module) != {"relations": "ok"}:
                relation_failures.append(index_set)
            direct = _mi_characteristic(index_set, n, module)
            if direct != res_MI_formula(index_set, n, "proof_penultimate"):
                restriction_failures.append(index_set)
            complement = frozenset(range(n)) - index_set
            valleys = peak_data(complement, n).valley
            for i in range(n):
                if ribbon_table_matrix(i, index_set, n) != module.matrices[i]:
                    diagonal_failures.append((index_set, "case table", i))
            for subset in subsets(range(1, n + 1)):
                for valley in valleys:
                    if k_set(index_set, subset, n) != k_set(
                        index_set, frozenset(subset) | {valley}, n
                    ):
                        stability_failures.append((index_set, subset, valley))
                col = module.position[(subset, index_set)]
                for i in range(n):
                    diagonal = module.matrices[i].get(col, col)
                    expected = GaussianInteger.integer(
                        k_factor(i, index_set, subset)
                    )
                    if diagonal != expected:
                        diagonal_failures.append((index_set, subset, i))
                    allowed = cover_lower_targets(i, index_set, subset)
                    for row in module.matrices[i].column(col):
                        if row != col and module.labels[row][0] not in allowed:
                            diagonal_failures.append((index_set, subset, i))
        cases.append(
            AuditCase(
                "clifford.relations",
                {"degree": n},
                _passfail(not relation_failures),
                f"all {2 ** n} index sets satisfy the relation suite"
                if not relation_failures
                else f"failing index sets: {sorted(map(sorted, relation_failures))}",
            )
        )
        cases.append(
            AuditCase(
                "clifford.restriction",
                {"degree": n},
                _passfail(not restriction_failures),
                "restriction characteristics match the independent sum form"
                if not restriction_failures
                else f"failing index sets: {sorted(map(sorted, restriction_failures))}",
            )
        )
        cases.append(
            AuditCase(
                "clifford.valley-stability",
                {"degree": n},
                _passfail(not stability_failures),
                "adding complement valleys never changes the acting set"
                if not stability_failures
                else f"{len(stability_failures)} unstable triples",
            )
        )
        cases.append(
            AuditCase(
                "clifford.diagonal",
                {"degree": n},
                _passfail(not diagonal_failures),
                "diagonals match the closed form; off-diagonal support "
                "stays on lower covers"
                if not diagonal_failures
                else f"{len(diagonal_failures)} inconsistencies",
            )
        )
    return cases


def clifford_audit_cases(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, max_n + 1):
        for index_set in map(frozenset, subsets(range(n))):
            direct = _mi_characteristic(index_set, n)
            for form in RES_FORMS:
                formula = res_MI_formula(index_set, n, form)
                if direct == formula:
                    status = "pass"
                    details = f"both equal {direct}"
                elif form == "theorem_literal":
                    status = "variant-dependent"
                    details = f"direct={direct}; formula={formula}"
                else:
                    status = "fail"
                    details = f"direct={direct}; formula={formula}"
                cases.append(
                    AuditCase(
                        "clifford.audit",
                        {
                            "degree": n,
                            "indices": format_index_set(index_set),
                            "form": form,
                        },
                        status,
                        details,
                    )
                )
    return cases


# -- criterion: isomorphisms, intertwiners, centralizers --------------------


def cases_morphisms(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, max_n + 1):
        chars = {
            index_set: _mi_characteristic(index_set, n)
            for index_set in map(frozenset, subsets(range(n)))
        }
        mismatches = [
            (first, second)
            for first in chars
            for second in chars
            if iso_predicate(first, second, n) != (chars[first] == chars[second])
        ]
        cases.append(
            AuditCase(
                "morphisms.iso",
                {"degree": n},
                _passfail(not mismatches),
                "predicate agrees with characteristic equality on all pairs"
                if not mismatches
                else f"{len(mismatches)} disagreeing pairs",
            )
        )
    for n in range(1, min(max_n, 3) + 1):
        built = 0
        broken = 0
        for index_set in map(frozenset, subsets(range(n))):
            for k in range(1, n):
                if k in index_set or not iso_predicate(
                    index_set, index_set | {k}, n
                ):
                    continue
                result = build_intertwiner(index_set, k, n)
                built += 1
                if not (result.commutes and result.invertible):
                    broken += 1
        cases.append(
            AuditCase(
                "morphisms.intertwiner",
                {"degree": n},
                _passfail(broken == 0),
                f"{built} admissible maps; all commute and are invertible"
                if broken == 0
                else f"{broken} of {built} maps fail",
            )
        )
        bad = []
        for index_set in map(frozenset, subsets(range(n))):
            expected = subsets(sorted(centralizer_valleys(index_set, n)))
            if centralizer_check(index_set, n) != expected:
                bad.append(index_set)
        cases.append(
            AuditCase(
                "morphisms.centralizer",
                {"degree": n},
                _passfail(not bad),
                "commutant bases equal the valley powersets"
                if not bad
                else f"failing index sets: {sorted(map(sorted, bad))}",
            )
        )
    return cases


# -- criterion: induction of general modules --------------------------------


def cases_induction(max_n: int, max_partition: int) -> list[AuditCase]:
    cases = []
    for shape in _valid_shapes(min(max_partition, 8)):
        direct, closed_form = induce_and_restrict(conjugate_family(shape))
        expected = h_lambda(shape, "peak", variant="literal")
        ok = direct == closed_form and direct == expected
        cases.append(
            AuditCase(
                "induction.conjugate",
                {"shape": _shape_text(shape)},
                _passfail(ok),
                "induced characteristic equals the shape's peak "
                "generating function"
                if ok
                else f"direct={direct}; expected={expected}",
            )
        )
    for n in range(1, min(max_n, 3) + 1):
        for fam in _ascent_compatible_catalog(n):
            compatible = ascent_compatibility_report(fam.members).compatible
            direct, closed_form = induce_and_restrict(
                family_from_elements(fam.members)
            )
            agrees = direct == closed_form
            ok = compatible and agrees
            cases.append(
                AuditCase(
                    "induction.family",
                    {"family": fam.name},
                    _passfail(ok),
                    "induced characteristic equals the per-member sum form"
                    if ok
                    else f"ascent-compatible={compatible}; direct={direct}; "
                    f"per-member sum agrees={agrees}",
                )
            )
    return cases


def _ascent_compatible_catalog(n: int):
    return [fam for fam in _family_catalog(n) if fam.inverted or fam.kind == "arc"]


# -- criterion: quasisymmetric foundations ----------------------------------


def cases_qsym() -> list[AuditCase]:
    bad = []
    for n in range(1, 9):
        for index_set in map(frozenset, subsets(range(n))):
            data = peak_data(index_set, n)
            if len(data.valley) != len(data.peak) + data.zeta:
                bad.append((n, index_set))
    cases = [
        AuditCase(
            "qsym.peak-valley",
            {"max_degree": 8},
            _passfail(not bad),
            "valley count equals peak count plus the zero indicator"
            if not bad
            else f"{len(bad)} failing subsets",
        )
    ]
    dependent = [
        n for n in range(1, 7) if not fb_truncations_linearly_independent(n, n + 1)
    ]
    cases.append(
        AuditCase(
            "qsym.truncations",
            {"max_degree": 6},
            _passfail(not dependent),
            "bounded monomial truncations are linearly independent"
            if not dependent
            else f"dependent at degrees {dependent}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# audit orchestration


def run_audit(
    which: str,
    max_n: int,
    max_partition: int,
    seed: int,
    shape=None,
) -> list[AuditCase]:
    if which == "clifford-audit":
        cases = clifford_audit_cases(max_n)
    elif which == "peak-theorem":
        cases = [peak_theorem_case(shape)]
    else:
        # cases_qsym first: its truncation matrix, the audit's memory peak,
        # then does not sit on top of the caches the other sections fill
        cases = [
            *cases_qsym(),
            *cases_family_relations(max_n),
            *cases_random_convex(max_n, seed, RANDOM_CONVEX_SAMPLES),
            *cases_arc(max_n),
            *cases_unimodal(max_n),
            *cases_domino(max_partition),
            *cases_shifted(max_partition),
            *cases_clifford(max_n),
            *clifford_audit_cases(max_n),
            *cases_morphisms(max_n),
            *cases_induction(max_n, max_partition),
        ]
    return sorted(cases, key=AuditCase.sort_key)


def summarize(cases: list[AuditCase]) -> dict:
    summary = {"pass": 0, "fail": 0, "variant-dependent": 0}
    for case in cases:
        summary[case.status] += 1
    return summary


def render_report(cases: list[AuditCase], as_json: bool, header: dict) -> str:
    summary = summarize(cases)
    if as_json:
        return json.dumps(
            {
                **header,
                "cases": [case.to_json() for case in cases],
                "summary": summary,
            },
            sort_keys=True,
            indent=2,
        )
    width = max((len(case.id) for case in cases), default=4)
    rendered = [
        " ".join(f"{key}={value}" for key, value in sorted(case.params.items()))
        for case in cases
    ]
    pwidth = max((len(params) for params in rendered), default=0)
    lines = []
    for case, params in zip(cases, rendered):
        status = case.status.upper()
        lines.append(
            f"{status:<18}{case.id:<{width + 2}}{params:<{pwidth + 2}}"
            f"{case.details}"
        )
    lines.append(
        f"summary: {summary['pass']} pass, {summary['fail']} fail, "
        f"{summary['variant-dependent']} variant-dependent"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# object commands


def _prettify_polynomial(text: str) -> str:
    """Drop unit coefficients: a ``1*`` at the start or right after ``+ ``."""
    return re.sub(r"(^|\+ )1\*", r"\1", text)


def cmd_qsym(args) -> int:
    if args.n < 0 or (getattr(args, "nvars", None) or 0) < 0:
        raise ValueError("--n and --nvars must be nonnegative")
    if args.n > MAX_QSYM_DEGREE:
        raise ValueError(f"--n must be at most {MAX_QSYM_DEGREE}")
    if args.qsym_command == "fb":
        subset = parse_index_set(args.set)
        if args.monomials:
            nvars = args.nvars if args.nvars is not None else args.n + 1
            if nvars > MAX_QSYM_VARIABLES:
                raise ValueError(f"--nvars must be at most {MAX_QSYM_VARIABLES}")
            if math.comb(max(args.n + nvars - 1, 0), args.n) > MAX_MONOMIAL_CHAINS:
                raise ValueError(
                    f"--monomials needs C(n+nvars-1, n) at most {MAX_MONOMIAL_CHAINS}"
                )
            poly = fb_monomials(subset, args.n, nvars)
            payload = {
                "kind": "fundamental-monomials",
                "set": format_index_set(subset),
                "n": args.n,
                "nvars": nvars,
                "terms": poly.to_json(),
            }
            text = _prettify_polynomial(str(poly))
        else:
            element = QSymElement.fundamental(subset, args.n)
            payload = element.to_json()
            text = str(element)
    elif args.qsym_command == "delta":
        subset = parse_index_set(args.set)
        element = peak_characteristic(subset, args.n, args.variant)
        payload = {"variant": args.variant, **element.to_json()}
        text = str(element)
    else:  # peakfn
        peaks = parse_index_set(args.peaks)
        element = peak_function_type_b(args.bit, peaks, args.n, args.variant)
        payload = {
            "bit": args.bit,
            "variant": args.variant,
            **element.to_json(),
        }
        text = str(element)
    print(json.dumps(payload, sort_keys=True, indent=2) if args.json else text)
    return 0


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise ValueError(f"shape {text!r} must be comma-separated integers") from exc
    return validate_partition(parts)


def _emit_tableaux(tableaux, meta: dict, args) -> None:
    if args.count:
        if args.json:
            print(json.dumps({**meta, "count": len(tableaux)}, sort_keys=True))
        else:
            print(len(tableaux))
        return
    if args.json:
        payload = {
            **meta,
            "count": len(tableaux),
            "tableaux": [
                {
                    "descents": format_index_set(t.descent_set())
                    if hasattr(t, "descent_set")
                    else None,
                    "layout": t.to_text(),
                }
                for t in tableaux
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    blocks = []
    for t in tableaux:
        lines = []
        if hasattr(t, "descent_set"):
            lines.append(f"descents={format_index_set(t.descent_set())}")
        lines.append(t.to_text())
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks) if blocks else "(none)")


def cmd_enumerate(args) -> int:
    if args.enumerate_command == "domino":
        shape = _parse_shape(args.shape)
        if sum(shape) > 2 * MAX_STANDARD_DOMINOES:
            raise ValueError(f"--shape has more than {MAX_STANDARD_DOMINOES} dominoes")
        tableaux = enumerate_sdt(shape)
        _emit_tableaux(
            tableaux, {"shape": _shape_text(shape), "kind": "sdt"}, args
        )
        return 0
    if args.enumerate_command == "shifted":
        shape = _parse_shape(args.shape)
        if args.shifted_command == "quotient":
            quotient = two_quotient(shape)
            if args.json:
                print(
                    json.dumps(
                        {
                            "shape": _shape_text(shape),
                            "mu": list(quotient.mu),
                            "nu": list(quotient.nu),
                            "offsets": list(quotient.lambda_star),
                            "word": list(quotient.word),
                            "valid": quotient.valid,
                        },
                        sort_keys=True,
                        indent=2,
                    )
                )
            else:
                print(
                    f"mu={_shape_text(quotient.mu)} "
                    f"nu={_shape_text(quotient.nu)} "
                    f"valid={'yes' if quotient.valid else 'no'}"
                )
            return 0
        dominoes = sum(shape) // 2
        bound = MAX_STANDARD_DOMINOES
        if args.maxval is not None:
            bound = MAX_SEMISTANDARD_DOMINOES
        if dominoes > bound:
            raise ValueError(f"--shape has more than {bound} dominoes")
        if args.maxval is not None:
            # a filling has at most one distinct value per domino, so larger
            # bounds add only relabelings of the same fillings
            if not 1 <= args.maxval <= dominoes:
                raise ValueError(
                    f"--maxval must lie in 1..{dominoes} for shape {_shape_text(shape)}"
                )
        kind = "semistandard" if args.maxval is not None else "standard"
        tableaux = enumerate_shifted(shape, kind, args.maxval)
        _emit_tableaux(
            tableaux, {"shape": _shape_text(shape), "kind": kind}, args
        )
        return 0
    # family
    fam = parse_family_spec(args.spec)
    if args.count:
        if args.json:
            print(
                json.dumps(
                    {"name": fam.name, "count": len(fam.members)},
                    sort_keys=True,
                )
            )
        else:
            print(len(fam.members))
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "name": fam.name,
                    "count": len(fam.members),
                    "members": [format_window(x) for x in fam.members],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        for x in fam.members:
            print(format_window(x))
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= MAX_DEGREE:
        raise ValueError(f"--max-n must lie in 1..{MAX_DEGREE}")
    max_partition = getattr(args, "max_partition", DEFAULT_MAX_PARTITION)
    if max_partition < 2:
        raise ValueError("--max-partition must be at least 2")
    shape = _parse_shape(args.shape) if getattr(args, "shape", None) else None
    if shape and sum(shape) > 2 * MAX_PEAK_THEOREM_DOMINOES:
        raise ValueError(f"--shape has more than {MAX_PEAK_THEOREM_DOMINOES} dominoes")
    cases = run_audit(
        args.verify_command,
        args.max_n,
        max_partition,
        getattr(args, "seed", DEFAULT_SEED),
        shape=shape,
    )
    header = {"command": f"verify {args.verify_command}", "max_n": args.max_n}
    print(render_report(cases, args.json, header))
    return 1 if any(case.status == "fail" for case in cases) else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    mode = output.add_mutually_exclusive_group()
    mode.add_argument(
        "--json", action="store_true", help="emit JSON instead of plain text"
    )
    mode.add_argument(
        "--text",
        dest="json",
        action="store_false",
        help="emit plain text (default)",
    )
    output.set_defaults(json=False)

    parser = argparse.ArgumentParser(
        prog="tbhl",
        description="Exact computations with signed permutations, domino "
        "tableaux, and Clifford-extended casewise modules.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    qsym = top.add_parser("qsym", help="quasisymmetric elements")
    qsub = qsym.add_subparsers(dest="qsym_command", required=True)
    fb = qsub.add_parser("fb", parents=[output], help="fundamental element")
    degree_help = f"degree, at most {MAX_QSYM_DEGREE}"
    fb.add_argument("--set", required=True, help="index set, e.g. {0,3}")
    fb.add_argument("--n", type=int, required=True, help=degree_help)
    fb.add_argument(
        "--monomials",
        action="store_true",
        help="expand in variables; needs C(n+nvars-1, n) at most "
        f"{MAX_MONOMIAL_CHAINS}",
    )
    fb.add_argument(
        "--nvars",
        type=int,
        default=None,
        help=f"number of variables (default n+1), at most {MAX_QSYM_VARIABLES}",
    )
    delta = qsub.add_parser(
        "delta", parents=[output], help="peak characteristic of a subset"
    )
    delta.add_argument("--set", required=True)
    delta.add_argument("--n", type=int, required=True, help=degree_help)
    delta.add_argument(
        "--variant", choices=("literal", "complemented"), default="literal"
    )
    peakfn = qsub.add_parser(
        "peakfn", parents=[output], help="peak function from bit and peaks"
    )
    peakfn.add_argument("--bit", type=int, choices=(0, 1), required=True)
    peakfn.add_argument("--peaks", required=True)
    peakfn.add_argument("--n", type=int, required=True, help=degree_help)
    peakfn.add_argument(
        "--variant", choices=("literal", "complemented"), default="literal"
    )

    enum = top.add_parser("enumerate", help="enumerate objects")
    esub = enum.add_subparsers(dest="enumerate_command", required=True)
    domino = esub.add_parser("domino", help="standard domino tableaux")
    dsub = domino.add_subparsers(dest="domino_command", required=True)
    sdt = dsub.add_parser("sdt", parents=[output])
    sdt.add_argument(
        "--shape", required=True, help=f"at most {MAX_STANDARD_DOMINOES} dominoes"
    )
    sdt.add_argument("--count", action="store_true")
    shifted = esub.add_parser("shifted", help="shifted domino objects")
    ssub = shifted.add_subparsers(dest="shifted_command", required=True)
    sshdt = ssub.add_parser("sshdt", parents=[output])
    sshdt.add_argument(
        "--shape",
        required=True,
        help=f"at most {MAX_STANDARD_DOMINOES} dominoes, "
        f"{MAX_SEMISTANDARD_DOMINOES} with --maxval",
    )
    sshdt.add_argument("--count", action="store_true")
    sshdt.add_argument(
        "--maxval",
        type=int,
        default=None,
        help="bound entry indices by 1..(number of dominoes), since a filling "
        "uses at most that many distinct values; switches to semistandard "
        "tableaux",
    )
    quotient = ssub.add_parser("quotient", parents=[output])
    quotient.add_argument("--shape", required=True)
    family = esub.add_parser(
        "family", parents=[output], help="permutation families"
    )
    family.add_argument("spec", help="e.g. arc:3, dclass:{0,1}:3, luni:2:4")
    family.add_argument("--count", action="store_true")

    verify = top.add_parser("verify", help="run audit cases")
    vsub = verify.add_subparsers(dest="verify_command", required=True)
    common_verify = argparse.ArgumentParser(add_help=False)
    common_verify.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    allcmd = vsub.add_parser("all", parents=[output, common_verify])
    allcmd.add_argument(
        "--max-partition",
        type=int,
        default=DEFAULT_MAX_PARTITION,
        help="largest partition size of the shape-indexed cases (at least 2)",
    )
    allcmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vsub.add_parser("clifford-audit", parents=[output, common_verify])
    peak = vsub.add_parser("peak-theorem", parents=[output, common_verify])
    peak.add_argument(
        "--shape", required=True, help=f"at most {MAX_PEAK_THEOREM_DOMINOES} dominoes"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "qsym":
            return cmd_qsym(args)
        if args.command == "enumerate":
            return cmd_enumerate(args)
        return cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
