"""Workload inputs and the correctness checks on their reports."""

import json

from collections import Counter

from tbhl.signed_permutations import (
    SignedPermutation,
    leq_left_weak,
    length,
    weak_order_interval,
)

from workloads import (
    WEAK_ORDER_SAMPLES,
    WEAK_ORDER_SHAPES,
    WEAK_ORDER_SPAN,
    WORKLOADS,
    weak_order_intervals,
)


def test_weak_order_intervals_repeat_for_a_seed():
    assert weak_order_intervals(5) == weak_order_intervals(5)
    assert weak_order_intervals(5) != weak_order_intervals(6)


def test_weak_order_intervals_have_the_requested_length_span():
    intervals = weak_order_intervals(5)
    assert len(intervals) == WEAK_ORDER_SAMPLES
    for bottom, top in intervals:
        bottom, top = SignedPermutation(bottom), SignedPermutation(top)
        assert length(top) - length(bottom) == WEAK_ORDER_SPAN
        assert leq_left_weak(bottom, top)


def test_weak_order_intervals_have_the_same_shapes_for_every_seed():
    for seed in (5, 6):
        shapes = Counter()
        for bottom, top in weak_order_intervals(seed):
            members = weak_order_interval(SignedPermutation(bottom), SignedPermutation(top))
            pairs = sum(1 for x in members for y in members if leq_left_weak(x, y))
            shapes[len(members), pairs] += 1
        assert shapes == WEAK_ORDER_SHAPES


def _report(seed):
    """A report of ``audit-default`` that matches the reference exactly."""
    workload = WORKLOADS["audit-default"]
    cases = [
        {"id": case_id, "params": json.loads(params), "status": status, "details": "ok"}
        for (case_id, params), status in workload.expected(seed).items()
    ]
    return workload, {"cases": cases}


def test_reference_report_passes_for_any_seed():
    workload, report = _report(9)
    assert workload.check(json.dumps(report).encode(), 9) == (275, 0)
    assert workload.check(json.dumps(report).encode(), 8) == (276, 2)


def test_audit_check_counts_each_kind_of_failure():
    workload, report = _report(9)
    cases = report["cases"]
    cases[0]["status"] = "fail"
    cases[1]["details"] = "SKIPPED: search budget exhausted before a verdict"
    cases[2]["status"] = "variant-dependent" if cases[2]["status"] == "pass" else "pass"
    del cases[3]
    cases.append({"id": "new.case", "params": {}, "status": "pass", "details": ""})
    assert workload.check(json.dumps(report).encode(), 9) == (276, 5)
    assert workload.check(b"Traceback", 9) == (275, 275)


def test_weak_order_check_counts_missing_and_failed_lines():
    workload = WORKLOADS["weak-order-b4"]
    lines = ["PASS x"] * (WEAK_ORDER_SAMPLES - 2) + ["FAIL x"]
    assert workload.check("\n".join(lines).encode(), 1) == (WEAK_ORDER_SAMPLES, 2)
