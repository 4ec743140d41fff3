"""The benchmark's workloads: their inputs and the checks on their outputs.

Each workload turns the benchmark seed into the argument list of one child
run (see ``child.py``) and checks the report that run prints.  An operation
is one audit case or one sampled weak-order interval; ``check`` returns how
many were attempted and how many failed.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# weak-order-b4 sizing: rank, the number of length-raising left
# multiplications from bottom to top, and how many intervals of each shape a
# run checks.  A shape is (members, comparable pairs); these four are every
# shape of span 3 in B4.  The checks' work grows with the comparable pairs
# (``is_convex_left_weak`` scans B4 once per pair), so fixed counts per shape
# give every seed the same work; drawn freely, 20 intervals held from 253 to
# 298 comparable pairs over seeds 0-9.
WEAK_ORDER_DEGREE = 4
WEAK_ORDER_SPAN = 3
WEAK_ORDER_SHAPES = {(4, 10): 2, (5, 14): 2, (6, 17): 2, (6, 18): 2}
WEAK_ORDER_SAMPLES = sum(WEAK_ORDER_SHAPES.values())


class AuditWorkload:
    """``tbhl verify all --json`` checked against a stored reference report.

    The reference was produced at seed 0 by ``make_reference.py`` from this
    commit; the only seed-dependent case is ``families.random-convex``, whose
    ``seed`` parameter is set to the workload seed before comparing.
    """

    def __init__(self, name: str, options: tuple[str, ...]) -> None:
        self.name = name
        self.options = options

    def child_args(self, seed: int, workdir: Path) -> list[str]:
        return ["audit", "verify", "all", "--json", *self.options, "--seed", str(seed)]

    def expected(self, seed: int) -> dict[tuple[str, str], str]:
        with open(REFERENCE_DIR / f"{self.name}.json") as source:
            reference = json.load(source)
        expected = {}
        for case in reference["cases"]:
            params = dict(case["params"])
            if "seed" in params:
                params["seed"] = seed
            expected[_case_key(case["id"], params)] = case["status"]
        return expected

    def check(self, report: bytes, seed: int) -> tuple[int, int]:
        """Count failed cases: ``fail``, ``SKIPPED``, or not as in the reference.

        A reference case absent from the report fails, and so does a
        reported case the reference does not hold.
        """
        expected = self.expected(seed)
        try:
            cases = json.loads(report)["cases"]
        except (ValueError, KeyError, TypeError):
            return len(expected), len(expected)
        failed = 0
        extra = 0
        seen = set()
        for case in cases:
            key = _case_key(case["id"], case["params"])
            if key not in expected:
                extra += 1
            if (
                case["status"] == "fail"
                or "SKIPPED" in case["details"]
                or expected.get(key) != case["status"]
                or key in seen
            ):
                failed += 1
            seen.add(key)
        missing = len(set(expected) - seen)
        return len(expected) + extra, failed + missing


def _case_key(case_id: str, params: dict) -> tuple[str, str]:
    return case_id, json.dumps(params, sort_keys=True)


class WeakOrderWorkload:
    """Library checks on random weak-order intervals [bottom, top] in B4."""

    name = "weak-order-b4"

    def child_args(self, seed: int, workdir: Path) -> list[str]:
        path = workdir / f"intervals-{seed}.json"
        if not path.exists():
            path.write_text(json.dumps(weak_order_intervals(seed)))
        return ["weak-order", str(path)]

    def check(self, report: bytes, seed: int) -> tuple[int, int]:
        """Count intervals whose verdict line is missing or not ``PASS``."""
        lines = report.decode(errors="replace").splitlines()
        passed = sum(1 for line in lines[:WEAK_ORDER_SAMPLES] if line.startswith("PASS "))
        extra = max(0, len(lines) - WEAK_ORDER_SAMPLES)
        return WEAK_ORDER_SAMPLES + extra, WEAK_ORDER_SAMPLES + extra - passed


def weak_order_intervals(
    seed: int,
    shapes: dict[tuple[int, int], int] = WEAK_ORDER_SHAPES,
    degree: int = WEAK_ORDER_DEGREE,
    span: int = WEAK_ORDER_SPAN,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Intervals [bottom, top] drawn from ``seed``, ``shapes[s]`` of shape s.

    bottom is uniform over B_degree; top is reached from it by ``span``
    left multiplications by simple reflections, each drawn uniformly among
    those that raise the length.  A bottom too close to the longest element
    to rise ``span`` times is drawn again, and so is an interval whose shape
    has its count already.  The arithmetic is done here, on windows, so the
    inputs do not depend on the code being measured.
    """
    group = sorted(
        tuple(sign * value for sign, value in zip(signs, values))
        for values in itertools.permutations(range(1, degree + 1))
        for signs in itertools.product((1, -1), repeat=degree)
    )
    rng = random.Random(seed)
    wanted = dict(shapes)
    intervals = []
    while any(wanted.values()):
        bottom = top = rng.choice(group)
        for _ in range(span):
            ups = raises(top)
            if not ups:
                break
            top = rng.choice(ups)
        else:
            shape = interval_shape(bottom, top, span)
            if wanted.get(shape, 0) > 0:
                wanted[shape] -= 1
                intervals.append((bottom, top))
    return intervals


def interval_shape(
    bottom: tuple[int, ...], top: tuple[int, ...], span: int
) -> tuple[int, int]:
    """(members, comparable pairs) of [bottom, top], ``span`` apart in length.

    Every member lies on a maximal chain, a path of length-raising left
    multiplications from bottom to top, and two members are comparable
    exactly when one chain passes through both.
    """
    chains = [(bottom,)]
    for _ in range(span):
        chains = [chain + (up,) for chain in chains for up in raises(chain[-1])]
    chains = [chain for chain in chains if chain[-1] == top]
    members = {z for chain in chains for z in chain}
    pairs = {
        (chain[i], chain[j])
        for chain in chains
        for i in range(len(chain))
        for j in range(i, len(chain))
    }
    return len(members), len(pairs)


def raises(window: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``s_i * x`` for every simple reflection that raises the length of x."""
    return [
        raised
        for i in range(len(window))
        for raised in [left_multiply(i, window)]
        if type_b_length(raised) > type_b_length(window)
    ]


def left_multiply(i: int, window: tuple[int, ...]) -> tuple[int, ...]:
    """``s_i * x``: s_0 negates the value 1, s_i swaps the values i and i+1."""
    if i == 0:
        swap = {1: -1, -1: 1}
    else:
        swap = {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
    return tuple(swap.get(value, value) for value in window)


def type_b_length(window: tuple[int, ...]) -> int:
    """Window inversions plus the sum of the negated values."""
    inversions = sum(
        1
        for j in range(len(window))
        for k in range(j + 1, len(window))
        if window[j] > window[k]
    )
    return inversions + sum(-value for value in window if value < 0)


# Each workload loads one layer heavily and the others lightly, so a change to
# one layer shows on one workload and should show no change on the others:
# audit-default (the headline audit) loads shifted_domino, audit-rank5 (the
# scaled audit) hecke_clifford and exact_algebra, weak-order-b4 (the rank-4
# random-convex check the CLI caps away) signed_permutations.
WORKLOADS = {
    workload.name: workload
    for workload in (
        AuditWorkload("audit-default", ()),
        AuditWorkload("audit-rank5", ("--max-n", "5", "--max-partition", "6")),
        WeakOrderWorkload(),
    )
}
