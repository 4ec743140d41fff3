"""Self-time arithmetic and the tracer's view of a real run."""

import json
import os
import subprocess
import sys

import pytest

from run import HERE, ROOT, SRC
from spans import child_calls, load, span_totals

# a [0, 10] calls b [1, 4] (which calls c [2, 3]), b [5, 7] and a [8, 9].
NAMES = ["a", "b", "c"]
NAME_IDS = [0, 1, 2, 1, 0]
PARENTS = [-1, 0, 1, 0, 0]
STARTS = [0.0, 1.0, 2.0, 5.0, 8.0]
ENDS = [10.0, 4.0, 3.0, 7.0, 9.0]


def test_self_time_subtracts_child_spans():
    totals = span_totals(NAMES, NAME_IDS, PARENTS, STARTS, ENDS)
    assert totals["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0}
    assert totals["b"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert totals["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(entry["self_s"] for entry in totals.values()) == 10.0


def test_overlapping_children_are_covered_once():
    totals = span_totals(["p", "q"], [0, 1, 1], [-1, 0, 0], [0.0, 1.0, 2.0], [4.0, 3.0, 5.0])
    assert totals["p"]["self_s"] == 1.0


def test_child_calls_counts_direct_children_only():
    assert child_calls(NAMES, NAME_IDS, PARENTS, "b", "a") == 2
    assert child_calls(NAMES, NAME_IDS, PARENTS, "c", "a") == 0
    assert child_calls(NAMES, NAME_IDS, PARENTS, "a", "a") == 1


@pytest.fixture(scope="module")
def peak_theorem(tmp_path_factory):
    """One untraced and one traced run of ``tbhl verify peak-theorem``."""
    workdir = tmp_path_factory.mktemp("trace")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reports = []
    for traced in (False, True):
        command = [sys.executable, str(HERE / "child.py"), str(workdir / f"{traced}.json")]
        if traced:
            command += ["--trace", str(workdir / "spans")]
        command += ["audit", "verify", "peak-theorem", "--shape", "4,2", "--json"]
        done = subprocess.run(command, capture_output=True, env=env, cwd=ROOT, check=True)
        reports.append(done.stdout)
    return reports, load(str(workdir / "spans"))


def test_traced_report_is_byte_identical(peak_theorem):
    (plain, traced), _ = peak_theorem
    assert plain == traced
    assert json.loads(plain)["summary"]["fail"] == 0


def test_calls_between_layers_are_seen(peak_theorem):
    _, (header, name_ids, parents, starts, ends) = peak_theorem
    names = header["names"]
    totals = span_totals(names, name_ids, parents, starts, ends)
    assert totals["cli_verify.peak_theorem_case"]["calls"] == 1
    assert child_calls(
        names, name_ids, parents, "shifted_domino.verify_peak_theorem", "cli_verify.peak_theorem_case"
    ) == totals["shifted_domino.verify_peak_theorem"]["calls"] > 0
    assert child_calls(
        names, name_ids, parents, "qsym_typeb.peak_characteristic", "shifted_domino.verify_peak_theorem"
    ) > 0
    assert header["counters"]["shifted_domino.iter_standard.yielded"] > 0
