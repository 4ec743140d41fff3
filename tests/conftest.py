"""Session-level reporting, and the one sweep over the package's caches.

The acceptance tests are named ``test_criterion_<number>_...``; after the
run this hook prints ``acceptance criterion N: PASS/FAIL/SKIP`` for each,
plus any notes the tests recorded, in a dedicated summary section.

The ``cleared_caches`` fixture clears every ``cache_info``-bearing callable
of ``tbhl``, for tests that count cache misses or inject a fault.
"""

import importlib
import re
import sys

import pytest

import tbhl

_CRITERION = re.compile(r"test_criterion_(\d+)")
_VERDICTS = {
    "passed": "PASS",
    "failed": "FAIL",
    "error": "FAIL",
    "skipped": "SKIP",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, verdict in _VERDICTS.items():
        for report in terminalreporter.stats.get(status, []):
            if status != "error" and getattr(report, "when", "call") != "call":
                continue
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                outcomes[int(match.group(1))] = verdict
    if not outcomes:
        return
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    summaries = getattr(module, "CRITERION_SUMMARIES", {}) if module else {}
    notes = getattr(module, "NOTES", []) if module else []
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        summary = summaries.get(number, "")
        suffix = f" — {summary}" if summary else ""
        terminalreporter.write_line(
            f"acceptance criterion {number}: {outcomes[number]}{suffix}"
        )
    for note in notes:
        terminalreporter.write_line(f"note: {note}")


def tbhl_caches() -> list:
    """Every ``cache_info``-bearing callable of ``tbhl``'s modules and of the
    classes they hold, each once."""
    found = {}
    for name in tbhl.__all__:
        module = importlib.import_module(f"tbhl.{name}")
        for value in vars(module).values():
            members = [value]
            if isinstance(value, type):
                members += [getattr(value, attr) for attr in vars(value)]
            found.update((id(m), m) for m in members if hasattr(m, "cache_info"))
    return list(found.values())


def clear_tbhl_caches() -> None:
    for cached in tbhl_caches():
        cached.cache_clear()


@pytest.fixture
def cleared_caches(monkeypatch):
    """Clear every ``tbhl`` cache before the test, and again once its
    monkeypatches are undone, so nothing built under a fault outlives it.
    Yields the sweep, for a test that clears in between."""
    clear_tbhl_caches()
    yield clear_tbhl_caches
    monkeypatch.undo()
    clear_tbhl_caches()
