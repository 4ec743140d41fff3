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
import contextlib
import functools
import json
import math
import random
import re
import sys
from dataclasses import asdict, dataclass

from .exact_algebra import GaussianInteger
from .domino_tableaux import (
    brute_force_sdt,
    enumerate_sdt,
    enumerate_tilings,
    g_lambda,
    partitions_of,
    sdt_operator_family,
    standard_orders,
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
    k_set,
    res_MI_formula,
    restriction_characteristic,
    ribbon_table_matrix,
    verify_hcl_relations,
)
from .hecke_engine import (
    NoCompositionSeries,
    characteristic_by_composition_series,
    characteristic_by_descent_sum,
    family_from_elements,
    verify_relations,
)
from .qsym_typeb import (
    PEAK_VARIANTS,
    QSymElement,
    fb_monomials,
    fb_truncations_linearly_independent,
    peak_characteristic,
    peak_data,
    peak_function_type_b,
)
from .shifted_domino import (
    _code_walk,
    _valid_quotient_shape,
    conjugate_family,
    enumerate_shifted,
    enumerate_shifted_tilings,
    filled_count,
    find_semistandard_with_weight,
    find_standard_with_descents,
    h_lambda,
    iter_semistandard,
    stand_theorem_check,
    two_quotient,
    verify_peak_theorem,
)
from .signed_permutations import (
    MAX_RANK,
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
        return asdict(self)


def _shape_text(shape) -> str:
    return ",".join(str(part) for part in shape)


def _valid_shapes(max_total: int):
    for total in range(2, max_total + 1, 2):
        for shape in partitions_of(total):
            if two_quotient(shape).valid:
                yield shape


def _case(
    case_id: str, params: dict, ok: bool, passed: str, failed: str | None = None
) -> AuditCase:
    """The one verdict rule: a case passes exactly when ``ok``.  Its details
    are ``passed``, what was checked, or else ``failed``, what failed;
    without ``failed`` they are ``passed`` either way."""
    details = passed if ok or failed is None else failed
    return AuditCase(case_id, params, "pass" if ok else "fail", details)


def _failing_index_sets(index_sets) -> str:
    return f"failing index sets: {sorted(map(sorted, index_sets))}"


@contextlib.contextmanager
def _series_case(cases: list, case_id: str, params: dict):
    """Guard a block that reads composition-series characteristics and adds
    one case to ``cases``, through the yielded ``_case(case_id, params, ...)``
    builder.  Where a module has no composition series, the case fails with
    the reason."""
    try:
        yield lambda *verdict: cases.append(_case(case_id, params, *verdict))
    except NoCompositionSeries as exc:
        cases.append(_case(case_id, params, False, str(exc)))


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
            params = {"family": fam.name}
            with _series_case(cases, "families.relations", params) as case:
                ops = family_from_elements(fam.members)
                relations = verify_relations(ops)
                char, _ = characteristic_by_composition_series(ops)
                descent_sum = characteristic_by_descent_sum(fam.members)
                ok = (
                    bool(fam.members)
                    and relations == {"relations": "ok"}
                    and char == descent_sum
                )
                size = len(fam.members)
                case(
                    ok,
                    f"{size} members; relations hold; "
                    "characteristic equals descent sum",
                    f"{size} members; relations={relations}; "
                    f"characteristic={char}; descent sum={descent_sum}",
                )
    return cases


def cases_random_convex(max_n: int, seed: int, samples: int) -> list[AuditCase]:
    degree = min(max_n, 3)
    rng = random.Random(seed)
    group = all_elements(degree)
    params = {"degree": degree, "samples": samples, "seed": seed}
    cases = []
    with _series_case(cases, "families.random-convex", params) as case:
        failures = 0
        for _ in range(samples):
            top = rng.choice(group)
            below = weak_order_interval(identity(degree), top)
            if not below:
                # the identity lies below every element: an empty interval is a fault
                failures += 1
                continue
            members = weak_order_interval(rng.choice(below), top)
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
        case(
            failures == 0,
            f"weak-order intervals: ascent-compatible, relations hold, "
            f"characteristic equals descent sum; failures={failures}",
        )
    return cases


# -- criterion: arc families ------------------------------------------------


def cases_arc(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(2, min(max_n, 4) + 1):
        fam = build_family("arc", (), n)
        report = ascent_compatibility_report(fam.members)
        cases.append(_case(
            "arc.compatible", {"degree": n}, report.compatible,
            f"{len(fam.members)} members scanned",
        ))
    if max_n >= 3:
        count = len(build_family("arc", (), 3))
        cases.append(_case(
            "arc.count", {"degree": 3}, count == 24,
            f"expected 24 members, found {count}",
        ))
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
        params = {"max_degree": min(max_n, 4)}
        cases.append(_case("arc.non-convex", params, ok, details))
    return cases


# -- criterion: unimodal weak-order intervals -------------------------------


def cases_unimodal(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, min(max_n, 4) + 1):
        bad = []
        for i in range(1, n + 1):
            family = set(invert_family(build_family("luni", (i,), n)).members)
            if set(unimodal_interval(i, n)) != family:
                bad.append(i)
        cases.append(_case(
            "unimodal.interval", {"degree": n}, not bad,
            f"all {n} positions match the corrected interval",
            f"mismatching positions: {bad}",
        ))
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
        cases.append(_case(
            "domino.counts", {"total": total}, not mismatches,
            "enumerations agree with the brute-force oracle",
            f"oracle mismatch at {mismatches}",
        ))
        for shape in partitions_of(total):
            if not enumerate_sdt(shape):
                continue
            params = {"shape": _shape_text(shape)}
            with _series_case(cases, "domino.modules", params) as case:
                ops = sdt_operator_family(shape)
                relations = verify_relations(ops)
                char, _ = characteristic_by_composition_series(ops)
                case(
                    relations == {"relations": "ok"} and char == g_lambda(shape),
                    "relations hold; characteristic equals the descent "
                    "generating function",
                    f"relations={relations}; characteristic={char}",
                )
    pinned = g_lambda((2, 2))
    expected = QSymElement.fundamental({0}, 2) + QSymElement.fundamental({1}, 2)
    cases.append(_case(
        "domino.pinned-g22", {"shape": "2,2"}, pinned == expected,
        f"generating function {pinned}",
    ))
    descent_sets = {t.descent_set() for t in enumerate_sdt((5, 4, 4, 1))}
    cases.append(_case(
        "domino.pinned-descents", {"shape": "5,4,4,1"},
        frozenset({0, 2, 5, 6}) in descent_sets,
        "a tableau with descents {0,2,5,6} exists",
        "no tableau with descents {0,2,5,6}",
    ))
    return cases


# -- criterion: shifted domino tableaux -------------------------------------


def cases_shifted(max_partition: int) -> list[AuditCase]:
    quotient = two_quotient(WITNESS_SHAPE)
    cases = [_case(
        "shifted.quotient", {"shape": _shape_text(WITNESS_SHAPE)},
        quotient.mu == (3, 3, 3) and quotient.nu == (4,),
        f"quotient pair mu={_shape_text(quotient.mu)} "
        f"nu={_shape_text(quotient.nu)}",
    )]
    for shape in _valid_shapes(min(max_partition, 8)):
        nvars = filled_count(shape) + 1
        bad, compared, monomial = stand_theorem_check(shape, nvars)
        cases.append(_case(
            "shifted.stand", {"shape": _shape_text(shape)}, bad == 0,
            f"{compared} marked tableaux; "
            f"standardization fibers match fundamentals; failures={bad}",
        ))
        literal = h_lambda(shape, "literal")
        complemented = h_lambda(shape, "complemented")
        cases.append(_case(
            "shifted.h-modes", {"shape": _shape_text(shape)},
            literal.to_monomials(nvars) == monomial,
            "monomial and peak modes agree; "
            + (
                "readings coincide (no index-0 descents)"
                if literal == complemented
                else "readings differ"
            ),
        ))
    for shape in _valid_shapes(min(max_partition, 10)):
        cases.append(peak_theorem_case(shape))
    if max_partition >= 10:
        cases.extend(witness_cases())
    return cases


def peak_theorem_case(shape) -> AuditCase:
    standards = enumerate_shifted(shape)
    bad = sum(not verify_peak_theorem(standard, "literal") for standard in standards)
    return _case(
        "shifted.peak", {"shape": _shape_text(shape)}, bad == 0,
        f"{len(standards)} standard tableaux; marking sums equal the "
        f"peak characteristic; failures={bad}",
    )


def witness_cases() -> list[AuditCase]:
    searches = [
        ("shifted.witness-weight", find_semistandard_with_weight, WITNESS_WEIGHT,
         f"tableau with weight {WITNESS_WEIGHT}"),
        ("shifted.witness-descents", find_standard_with_descents, WITNESS_DESCENTS,
         f"tableau with descents {format_index_set(WITNESS_DESCENTS)}"),
    ]
    return [
        _case(
            case_id, {"shape": _shape_text(WITNESS_SHAPE)},
            find(WITNESS_SHAPE, goal)[0] == "found", f"{target} found", f"no {target}",
        )
        for case_id, find, goal, target in searches
    ]


# -- criterion: Clifford-extended modules -----------------------------------


def cases_clifford(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, max_n + 1):
        relation_failures = []
        stability_failures = []
        diagonal_failures = []
        for index_set in map(frozenset, subsets(range(n))):
            module = build_MI(index_set, n)
            if verify_hcl_relations(module) != {"relations": "ok"}:
                relation_failures.append(index_set)
            valleys = centralizer_valleys(index_set, n)
            for col, (subset, _) in enumerate(module.labels):
                acting = k_set(index_set, subset, n)
                for valley in valleys:
                    if k_set(index_set, frozenset(subset) | {valley}, n) != acting:
                        stability_failures.append((index_set, subset, valley))
                for i, matrix in enumerate(module.matrices):
                    expected = GaussianInteger.integer(-1 if i in acting else 0)
                    if matrix.get(col, col) != expected:
                        diagonal_failures.append((index_set, subset, i))
            for i, matrix in enumerate(module.matrices):
                if ribbon_table_matrix(i, index_set, n) != matrix:
                    diagonal_failures.append((index_set, "case table", i))
                off_diagonal = ((row, col) for row, col in matrix.entries if row != col)
                for row, col in off_diagonal:
                    subset = module.labels[col][0]
                    lower = cover_lower_targets(i, index_set, subset, n)
                    if module.labels[row][0] not in lower:
                        diagonal_failures.append((index_set, subset, i))
        with _series_case(cases, "clifford.restriction", {"degree": n}) as case:
            restriction_failures = [
                index_set
                for index_set in map(frozenset, subsets(range(n)))
                if restriction_characteristic(index_set, n)
                != res_MI_formula(index_set, n, "proof_penultimate")
            ]
            case(
                not restriction_failures,
                "restriction characteristics match the independent sum form",
                _failing_index_sets(restriction_failures),
            )
        cases += [
            _case(
                "clifford.relations", {"degree": n}, not relation_failures,
                f"all {2 ** n} index sets satisfy the relation suite",
                _failing_index_sets(relation_failures),
            ),
            _case(
                "clifford.valley-stability", {"degree": n}, not stability_failures,
                "adding complement valleys never changes the acting set",
                f"{len(stability_failures)} unstable triples",
            ),
            _case(
                "clifford.diagonal", {"degree": n}, not diagonal_failures,
                "diagonals match the closed form; off-diagonal support "
                "stays on lower covers",
                f"{len(diagonal_failures)} inconsistencies",
            ),
        ]
    return cases


def clifford_audit_cases(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, max_n + 1):
        for index_set in map(frozenset, subsets(range(n))):
            for form in RES_FORMS:
                params = {
                    "degree": n, "indices": format_index_set(index_set), "form": form
                }
                miss = "variant-dependent" if form == "theorem_literal" else "fail"
                with _series_case(cases, "clifford.audit", params):
                    direct = restriction_characteristic(index_set, n)
                    formula = res_MI_formula(index_set, n, form)
                    if direct == formula:
                        status, details = "pass", f"both equal {direct}"
                    else:
                        status, details = miss, f"direct={direct}; formula={formula}"
                    cases.append(AuditCase("clifford.audit", params, status, details))
    return cases


# -- criterion: isomorphisms, intertwiners, centralizers --------------------


def cases_morphisms(max_n: int) -> list[AuditCase]:
    cases = []
    for n in range(1, max_n + 1):
        with _series_case(cases, "morphisms.iso", {"degree": n}) as case:
            chars = {
                index_set: restriction_characteristic(index_set, n)
                for index_set in map(frozenset, subsets(range(n)))
            }
            mismatches = [
                (first, second)
                for first in chars
                for second in chars
                if iso_predicate(first, second, n) != (chars[first] == chars[second])
            ]
            case(
                not mismatches,
                "predicate agrees with characteristic equality on all pairs",
                f"{len(mismatches)} disagreeing pairs",
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
        cases.append(_case(
            "morphisms.intertwiner", {"degree": n}, broken == 0,
            f"{built} admissible maps; all commute and are invertible",
            f"{broken} of {built} maps fail",
        ))
        bad = []
        for index_set in map(frozenset, subsets(range(n))):
            expected = subsets(sorted(centralizer_valleys(index_set, n)))
            if centralizer_check(index_set, n) != expected:
                bad.append(index_set)
        cases.append(_case(
            "morphisms.centralizer", {"degree": n}, not bad,
            "commutant bases equal the valley powersets",
            _failing_index_sets(bad),
        ))
    return cases


# -- criterion: induction of general modules --------------------------------


def cases_induction(max_n: int, max_partition: int) -> list[AuditCase]:
    cases = []
    for shape in _valid_shapes(min(max_partition, 8)):
        params = {"shape": _shape_text(shape)}
        with _series_case(cases, "induction.conjugate", params) as case:
            direct, closed_form = induce_and_restrict(conjugate_family(shape))
            expected = h_lambda(shape, "literal")
            case(
                direct == closed_form and direct == expected,
                "induced characteristic equals the shape's peak "
                "generating function",
                f"direct={direct}; expected={expected}",
            )
    for n in range(1, min(max_n, 3) + 1):
        for fam in _ascent_compatible_catalog(n):
            with _series_case(cases, "induction.family", {"family": fam.name}) as case:
                compatible = ascent_compatibility_report(fam.members).compatible
                direct, closed_form = induce_and_restrict(
                    family_from_elements(fam.members)
                )
                agrees = direct == closed_form
                case(
                    compatible and agrees,
                    "induced characteristic equals the per-member sum form",
                    f"ascent-compatible={compatible}; direct={direct}; "
                    f"per-member sum agrees={agrees}",
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
    dependent = [
        n for n in range(1, 7) if not fb_truncations_linearly_independent(n, n + 1)
    ]
    return [
        _case(
            "qsym.peak-valley", {"max_degree": 8}, not bad,
            "valley count equals peak count plus the zero indicator",
            f"{len(bad)} failing subsets",
        ),
        _case(
            "qsym.truncations", {"max_degree": 6}, not dependent,
            "bounded monomial truncations are linearly independent",
            f"dependent at degrees {dependent}",
        ),
    ]


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
        return _json_text(
            {**header, "cases": [case.to_json() for case in cases], "summary": summary}
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


def _json_text(payload: dict) -> str:
    """The JSON form of every command's output: indented, keys sorted."""
    return json.dumps(payload, sort_keys=True, indent=2)


def _emit(args, payload: dict, text: str) -> None:
    """Print ``payload`` as JSON under ``--json``, else ``text``."""
    print(_json_text(payload) if args.json else text)


def _emit_listing(
    args, meta: dict, count, listing, key: str, entry, block, separator="\n\n"
) -> None:
    """Print the items of ``listing()``: under ``--json`` as ``meta``, their
    count and ``entry(item)`` each under ``key``; else as ``block(item)``
    each, joined by ``separator``, or ``(none)``.  Under ``--count`` only
    ``count()`` runs, printed bare or with ``meta`` as one line of JSON."""
    if args.count:
        total = count()
        print(json.dumps({**meta, "count": total}, sort_keys=True) if args.json else total)
    elif args.json:
        items = tuple(listing())
        print(_json_text({**meta, "count": len(items), key: [entry(x) for x in items]}))
    else:
        print(separator.join(block(x) for x in listing()) or "(none)")


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
        payload = {"bit": args.bit, "variant": args.variant, **element.to_json()}
        text = str(element)
    _emit(args, payload, text)
    return 0


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise ValueError(f"shape {text!r} must be comma-separated integers") from exc
    return validate_partition(parts)


def _count_tableaux(shape, kind: str, maxval: int | None) -> int:
    """The number of tableaux the ``kind`` listing of ``cmd_enumerate`` shows,
    counted over the tilings without building a tableau."""
    if kind == "sdt":
        walks = (standard_orders(t) for t in enumerate_tilings(shape))
    elif kind == "standard":
        walks = (standard_orders(t.filled) for t in enumerate_shifted_tilings(shape))
    else:
        walks = (_code_walk(t, maxval) for t in enumerate_shifted_tilings(shape))
    return sum(1 for walk in walks for _ in walk)


def cmd_enumerate(args) -> int:
    if args.enumerate_command == "family":
        fam = parse_family_spec(args.spec)
        _emit_listing(
            args, {"name": fam.name}, lambda: len(fam.members),
            lambda: fam.members, "members", format_window, format_window, "\n",
        )
        return 0
    shape = _parse_shape(args.shape)
    if args.enumerate_command == "shifted" and args.shifted_command == "quotient":
        quotient = two_quotient(shape)
        payload = {
            "shape": _shape_text(shape),
            "mu": list(quotient.mu),
            "nu": list(quotient.nu),
            "offsets": list(quotient.lambda_star),
            "word": list(quotient.word),
            "valid": quotient.valid,
        }
        _emit(
            args,
            payload,
            f"mu={_shape_text(quotient.mu)} nu={_shape_text(quotient.nu)} "
            f"valid={'yes' if quotient.valid else 'no'}",
        )
        return 0
    maxval = getattr(args, "maxval", None)
    if args.enumerate_command == "domino":
        kind, bound = "sdt", MAX_STANDARD_DOMINOES
    elif maxval is None:
        kind, bound = "standard", MAX_STANDARD_DOMINOES
    else:
        kind, bound = "semistandard", MAX_SEMISTANDARD_DOMINOES
    dominoes = sum(shape) // 2
    if dominoes > bound:
        raise ValueError(f"--shape has more than {bound} dominoes")
    # a filling has at most one distinct value per domino, so larger bounds
    # add only relabelings of the same fillings
    if kind == "semistandard" and not 1 <= maxval <= dominoes:
        raise ValueError(
            f"--maxval must lie in 1..{dominoes} for shape {_shape_text(shape)}"
        )
    if kind != "sdt":
        _valid_quotient_shape(shape)
    # only the standard kinds show descent sets
    descents = kind != "semistandard"
    if kind == "sdt":
        listing = functools.partial(enumerate_sdt, shape)
    elif kind == "standard":
        listing = functools.partial(enumerate_shifted, shape)
    else:
        listing = functools.partial(iter_semistandard, shape, maxval)

    def entry(t) -> dict:
        shown = format_index_set(t.descent_set()) if descents else None
        return {"descents": shown, "layout": t.to_text()}

    def block(t) -> str:
        if not descents:
            return t.to_text()
        return f"descents={format_index_set(t.descent_set())}\n{t.to_text()}"

    _emit_listing(
        args, {"shape": _shape_text(shape), "kind": kind},
        lambda: _count_tableaux(shape, kind, maxval), listing, "tableaux",
        entry, block,
    )
    return 0


def cmd_verify(args) -> int:
    header = {"command": f"verify {args.verify_command}"}
    max_n = getattr(args, "max_n", None)  # peak-theorem takes no --max-n
    if max_n is not None:
        if not 1 <= max_n <= MAX_RANK:
            raise ValueError(f"--max-n must lie in 1..{MAX_RANK}")
        header["max_n"] = max_n
    max_partition = getattr(args, "max_partition", DEFAULT_MAX_PARTITION)
    if max_partition < 2:
        raise ValueError("--max-partition must be at least 2")
    shape = _parse_shape(args.shape) if getattr(args, "shape", None) else None
    if shape and sum(shape) > 2 * MAX_PEAK_THEOREM_DOMINOES:
        raise ValueError(f"--shape has more than {MAX_PEAK_THEOREM_DOMINOES} dominoes")
    cases = run_audit(
        args.verify_command,
        max_n,
        max_partition,
        getattr(args, "seed", DEFAULT_SEED),
        shape=shape,
    )
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
    delta.add_argument("--variant", choices=PEAK_VARIANTS, default="literal")
    peakfn = qsub.add_parser(
        "peakfn", parents=[output], help="peak function from bit and peaks"
    )
    peakfn.add_argument("--bit", type=int, choices=(0, 1), required=True)
    peakfn.add_argument("--peaks", required=True)
    peakfn.add_argument("--n", type=int, required=True, help=degree_help)
    peakfn.add_argument("--variant", choices=PEAK_VARIANTS, default="literal")

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
    peak = vsub.add_parser("peak-theorem", parents=[output])
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
