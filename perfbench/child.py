"""One measured run of a workload, in a fresh interpreter.

    python3 perfbench/child.py RESULT [--trace SPANS] setup
    python3 perfbench/child.py RESULT [--trace SPANS] audit ARGS...
    python3 perfbench/child.py RESULT [--trace SPANS] weak-order INTERVALS

``setup`` only imports ``tbhl``; ``audit`` runs ``tbhl ARGS...`` through
``tbhl.cli_verify.main``; ``weak-order`` runs the library checks on the
intervals listed in the JSON file INTERVALS.  The report goes to standard
output.  RESULT receives the moment (``time.monotonic``) at which
``tbhl.cli_verify`` and every layer were imported, and the Python version.
With ``--trace`` every ``tbhl`` call is recorded and written to SPANS.
"""

import time
import importlib

import tbhl.cli_verify

for _layer in tbhl.__all__:
    importlib.import_module(f"tbhl.{_layer}")
READY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from tbhl import hecke_engine, signed_permutations  # noqa: E402


def run_weak_order(path: str) -> int:
    """Check each interval [bottom, top]; print one verdict line per interval."""
    with open(path) as source:
        intervals = json.load(source)
    perm = signed_permutations.SignedPermutation
    for bottom_window, top_window in intervals:
        bottom, top = perm(tuple(bottom_window)), perm(tuple(top_window))
        members = signed_permutations.weak_order_interval(bottom, top)
        convex = signed_permutations.is_convex_left_weak(members)
        compatible = signed_permutations.ascent_compatibility_report(
            members
        ).compatible
        ops = hecke_engine.family_from_elements(members)
        relations = hecke_engine.verify_relations(ops) == {"relations": "ok"}
        series, _ = hecke_engine.characteristic_by_composition_series(ops)
        descents = hecke_engine.characteristic_by_descent_sum(members)
        ok = (
            bottom in members
            and top in members
            and convex
            and compatible
            and relations
            and series == descents
        )
        print(
            f"{'PASS' if ok else 'FAIL'} {bottom_window} {top_window} "
            f"members={len(members)} convex={convex} compatible={compatible} "
            f"relations={relations} characteristic={series}"
        )
    return 0


def main(argv: list[str]) -> int:
    result_path, argv = argv[0], argv[1:]
    tracer = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        status = 0
    elif mode == "audit":
        status = tbhl.cli_verify.main(args)
    elif mode == "weak-order":
        status = run_weak_order(args[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w") as out:
        json.dump(
            {
                "ready": READY,
                "python": sys.version.split()[0],
                "tbhl": tbhl.__file__,
            },
            out,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
