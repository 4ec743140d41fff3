"""Per-layer metrics, computed from the spans and counters of a traced run.

Each metric is ``(name, unit, better, source)``; ``source`` names what is read
from a traced run:

- ``("s", span)``: time inside the outermost calls of ``span``;
- ``("self_s", span)``: time inside ``span`` minus time in traced callees;
- ``("calls", span)``: number of calls;
- ``("layer", module)``: self time of every span of ``module``;
- ``("counter", key)``: a work counter (items yielded, nonzeros, cases);
- ``("hits" | "misses", span)``: ``cache_info()`` of a cached function;
- ``("match_ratio",)``: matched fibre members per ``standardize`` call;
- ``("overhead",)``: traced minus untraced wall time.

Every count is per traced run of the workload: one audit, or one pass over
the workload's intervals.
"""

from __future__ import annotations

from spans import AUDIT_SECTIONS, LAYERS

# Metric prefix -> traced method, for methods named by their operation.
SPARSE = {
    "matmul": "exact_algebra.SparseMatrix.__matmul__",
    "scale": "exact_algebra.SparseMatrix.scale",
    "add": "exact_algebra.SparseMatrix.__add__",
    "is_invertible": "exact_algebra.SparseMatrix.is_invertible",
}


def _timed(span: str, *kinds: str, prefix: str | None = None) -> list[tuple]:
    return [
        (
            f"{prefix or span}.{kind}",
            "count" if kind == "calls" else "s",
            "lower",
            (kind, span),
        )
        for kind in kinds
    ]


def _cache(span: str) -> list[tuple]:
    return [
        (f"{span}.cache_hits", "count", "higher", ("hits", span)),
        (f"{span}.cache_misses", "count", "lower", ("misses", span)),
    ]


def _build() -> list[tuple]:
    metrics = [(f"{layer}.self_s", "s", "lower", ("layer", layer)) for layer in LAYERS]
    for section in AUDIT_SECTIONS:
        span = f"cli_verify.{section}"
        metrics += _timed(span, "s")
        metrics.append(
            (f"{span}.cases", "count", "higher", ("counter", f"{span}.cases"))
        )
    metrics += _timed("cli_verify.render_report", "s")

    sd = "shifted_domino"
    metrics += _timed(f"{sd}.find_semistandard_with_weight", "s")
    metrics += _timed(f"{sd}.find_standard_with_descents", "s")
    metrics.append(
        (
            f"{sd}.iter_semistandard.yielded",
            "count",
            "lower",
            ("counter", f"{sd}.iter_semistandard.yielded"),
        )
    )
    metrics += _timed(f"{sd}.standardize", "calls", "self_s")
    metrics += _timed(f"{sd}.verify_stand_theorem", "s")
    metrics += _timed(f"{sd}.verify_peak_theorem", "s")
    metrics += _timed(f"{sd}.h_lambda", "s")
    metrics += _timed(f"{sd}.enumerate_shifted", "self_s")
    metrics += _cache(f"{sd}.enumerate_shifted")
    metrics += _cache(f"{sd}.enumerate_shifted_tilings")
    metrics.append((f"{sd}.stand.match_ratio", "ratio", "higher", ("match_ratio",)))

    hc = "hecke_clifford"
    metrics += _timed(f"{hc}.build_MI", "calls", "s")
    metrics += _timed(f"{hc}.induce_labeled_basis", "self_s")
    for name in (
        "verify_hcl_relations",
        "restriction_characteristic",
        "build_intertwiner",
        "centralizer_check",
        "induce_and_restrict",
    ):
        metrics += _timed(f"{hc}.{name}", "s")
    metrics += _timed(f"{hc}.iso_predicate", "calls")

    for name, span in SPARSE.items():
        metrics += _timed(span, "calls", "self_s", prefix=f"exact_algebra.{name}")
    metrics.append(
        ("exact_algebra.matmul.nnz", "count", "lower", ("counter", f"{SPARSE['matmul']}.nnz"))
    )

    sp = "signed_permutations"
    metrics += _timed(f"{sp}.right_inversions", "calls", "self_s")
    metrics += _timed(f"{sp}.weak_order_interval", "s")
    metrics += _timed(f"{sp}.is_convex_left_weak", "s")
    metrics += _timed(f"{sp}.leq_left_weak", "calls")
    metrics += _timed(f"{sp}.ascent_compatibility_report", "s")
    metrics += _timed(f"{sp}.left_descents", "calls")
    for name in ("all_elements", "reflections", "bfs_word_lengths"):
        metrics += _cache(f"{sp}.{name}")

    for span in (
        "hecke_engine.verify_relations",
        "hecke_engine.characteristic_by_composition_series",
        "hecke_engine.family_from_elements",
        "qsym_typeb.fb_monomials",
        "qsym_typeb.peak_characteristic",
        "domino_tableaux.enumerate_sdt",
        "domino_tableaux.brute_force_sdt",
        "special_families.build_family",
    ):
        metrics += _timed(span, "calls", "s")
    metrics += _cache("domino_tableaux.enumerate_sdt")
    metrics += _cache("domino_tableaux.enumerate_tilings")
    metrics.append(("trace.overhead_s", "s", "lower", ("overhead",)))
    return metrics


PER_LAYER = _build()


def value(source: tuple, traced: dict) -> float:
    """Read one metric's ``source`` from a traced run's summary.

    ``traced`` holds ``totals`` (from ``spans.span_totals``), ``counters``,
    ``cache``, ``match_ratio`` and ``overhead``.
    """
    kind = source[0]
    if kind in ("s", "self_s", "calls"):
        return traced["totals"][source[1]][kind]
    if kind == "layer":
        prefix = source[1] + "."
        return sum(
            entry["self_s"]
            for name, entry in traced["totals"].items()
            if name.startswith(prefix)
        )
    if kind == "counter":
        return traced["counters"][source[1]]
    if kind in ("hits", "misses"):
        return traced["cache"][source[1]][kind]
    return traced[kind]
