"""Benchmark of tbhl's audits, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; it measures the checkout it sits in.  The workloads are
in ``workloads.py``.  Each run of a workload is a fresh interpreter (see
``child.py``), started after the previous one ended: a closed loop with one
caller, no threads, ``TBHL_THREADS`` unset and ``PYTHONPATH`` set to this
checkout's ``src``.  Times, CPU and memory are taken from outside the child.

``--trace 0`` starts ``SETUP_RUNS`` interpreters that only import ``tbhl``,
then runs the workload for ``--seconds`` (at least once; a run starts while
at least half of it is expected to fit) and reports the medians of
``wall_s``, ``setup_s``, ``cpu_s`` and ``peak_rss_mib``.  ``--trace 1`` runs
the workload once untraced and twice traced and reports the per-layer metrics
of ``layers.py``.

Every run's report is checked (see ``workloads.py``); two runs of one seed
must print the same report, and two traced runs the same work counts.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--workload all`` prints one such
object per workload, keyed by name.  Exit status 0 means the benchmark
measured (check ``correct``); 2 means this checkout has no ``tbhl`` to
measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# Per-layer sources that are times, so vary between traced runs; the others
# are exact counts, which both traced runs must repeat.
TIMED_SOURCES = ("s", "self_s", "layer")


@dataclass
class ChildRun:
    """What one child interpreter did, measured from outside."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    setup_s: float | None
    exit_code: int
    report: bytes
    meta: dict | None
    spans: Path | None


class Session:
    """Child runs of one benchmark invocation, sharing a deadline and a workdir."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("TBHL_THREADS", None)

    def run(self, args: list[str], trace: bool = False) -> ChildRun:
        self.count += 1
        stem = self.workdir / str(self.count)
        result = stem.with_suffix(".json")
        span_file = stem.with_suffix(".spans") if trace else None
        command = [sys.executable, str(HERE / "child.py"), str(result)]
        if trace:
            command += ["--trace", str(span_file)]
        command += args
        with open(stem.with_suffix(".out"), "wb") as out:
            start = time.monotonic()
            child = subprocess.Popen(command, stdout=out, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(self.deadline - start, 0.0), child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                # Interrupted or terminated: take the child down with us.
                child.kill()
                child.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        meta = json.loads(result.read_text()) if result.exists() else None
        return ChildRun(
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024,
            setup_s=meta["ready"] - start if meta else None,
            exit_code=child.returncode,
            report=stem.with_suffix(".out").read_bytes(),
            meta=meta,
            spans=span_file,
        )


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.problems: list[str] = []

    def add(self, run: ChildRun, label: str) -> int:
        """Account one run's operations; return how many it attempted."""
        attempted, failed = self.workload.check(run.report, self.seed)
        digest = hashlib.sha256(run.report).hexdigest()
        if run.exit_code != 0 or run.meta is None:
            self.problems.append(f"{label}: exit code {run.exit_code}")
            failed = attempted
        elif not run.meta["tbhl"].startswith(str(SRC)):
            self.problems.append(f"{label}: measured {run.meta['tbhl']}")
            failed = attempted
        elif self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append(f"{label}: report digest {digest[:12]} differs")
            failed = attempted
        if failed:
            self.problems.append(f"{label}: {failed} of {attempted} operations failed")
        self.attempted += attempted
        self.failed += failed
        return attempted

    def fail_run(self, attempted: int, reason: str) -> None:
        self.problems.append(reason)
        self.failed += attempted


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (SRC / "tbhl").glob("*.py")
    )


def describe(tally: Tally, runs: list[ChildRun]) -> str:
    meta = runs[0].meta or {}
    return (
        f"meta: python {meta.get('python', '?')}, nproc {os.cpu_count()}, "
        f"src/tbhl {src_lines()} lines, report sha256 {(tally.digest or '?')[:16]}"
    )


def measure_end_to_end(session: Session, workload, seed: int, seconds: float):
    """Medians of the end-to-end metrics over repeated child runs."""
    tally = Tally(workload, seed)
    started = time.monotonic()
    setups = []
    for _ in range(SETUP_RUNS):
        run = session.run(["setup"])
        if run.setup_s is None:
            raise RuntimeError(f"set-up run failed with exit code {run.exit_code}")
        setups.append(run.setup_s)
    args = workload.child_args(seed, session.workdir)
    runs: list[ChildRun] = []
    while True:
        run = session.run(args)
        runs.append(run)
        tally.add(run, f"run {len(runs)}")
        if run.setup_s is not None:
            setups.append(run.setup_s)
        # Start another run while at least half of it falls within --seconds.
        expected = statistics.median(r.wall_s for r in runs)
        now = time.monotonic()
        if now + expected / 2 > started + seconds or now + expected > session.deadline:
            break
    values = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in runs),
    }
    lines = [
        describe(tally, runs),
        f"wall_s        {values['wall_s']:.4f} s    median of {len(runs)} runs: "
        + ", ".join(f"{r.wall_s:.3f}" for r in runs),
        f"setup_s       {values['setup_s']:.4f} s    median of {len(setups)} set-ups",
        f"cpu_s         {values['cpu_s']:.4f} s    median of {len(runs)} runs",
        f"peak_rss_mib  {values['peak_rss_mib']:.2f} MiB  median of {len(runs)} runs",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return tally, metrics, lines


def traced_summary(path: Path) -> dict:
    header, name_ids, parents, starts, ends = spans.load(str(path))
    names = header["names"]
    totals = spans.span_totals(names, name_ids, parents, starts, ends)
    matched = spans.child_calls(
        names,
        name_ids,
        parents,
        "shifted_domino.ShiftedSemistandardTableau.monomial",
        "shifted_domino.verify_stand_theorem",
    )
    standardized = totals["shifted_domino.standardize"]["calls"]
    return {
        "totals": totals,
        "counters": header["counters"],
        "cache": header["cache"],
        "match_ratio": matched / standardized if standardized else 0.0,
    }


def exact_counts(summary: dict) -> dict:
    return {
        "calls": {name: entry["calls"] for name, entry in summary["totals"].items()},
        "counters": summary["counters"],
        "cache": summary["cache"],
    }


def measure_layers(session: Session, workload, seed: int):
    """Per-layer metrics from two traced runs, against one untraced run."""
    tally = Tally(workload, seed)
    args = workload.child_args(seed, session.workdir)
    plain = session.run(args)
    per_run = tally.add(plain, "untraced run")
    traced = []
    summaries = []
    for index in (1, 2):
        run = session.run(args, trace=True)
        tally.add(run, f"traced run {index}")
        traced.append(run)
        if run.exit_code == 0:
            summaries.append(traced_summary(run.spans))
    if len(summaries) < 2:
        raise RuntimeError("a traced run failed: " + "; ".join(tally.problems))
    if exact_counts(summaries[0]) != exact_counts(summaries[1]):
        tally.fail_run(per_run, "work counts differ between the two traced runs")
    overhead = statistics.median(r.wall_s for r in traced) - plain.wall_s
    summary = {**summaries[0], "overhead": overhead}
    metrics = {}
    lines = [
        describe(tally, traced),
        f"counts are per traced run of {workload.name}: "
        f"{per_run} operations; times are the median of 2 traced runs",
    ]
    for name, unit, _, source in layers.PER_LAYER:
        if source[0] in TIMED_SOURCES:
            value = statistics.median(layers.value(source, s) for s in summaries)
        else:
            value = layers.value(source, summary)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:60s} {value:.6g} {unit}")
    return tally, metrics, lines


def benchmark(name: str, seed: int, seconds: float, trace: bool, session: Session):
    workload = WORKLOADS[name]
    if trace:
        tally, metrics, lines = measure_layers(session, workload, seed)
    else:
        tally, metrics, lines = measure_end_to_end(session, workload, seed, seconds)
    print(f"workload {name}, seed {seed}, trace {int(trace)}")
    for line in lines:
        print("  " + line)
    rate = tally.failed / tally.attempted
    print(
        f"  error_rate    {rate:.4g} ratio  "
        f"{tally.failed} failed of {tally.attempted} operations"
    )
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tbhl" / "cli_verify.py").is_file():
        print(f"error: no tbhl sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so the running child is stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        session = Session(Path(workdir), deadline)
        try:
            results = {
                name: benchmark(name, args.seed, args.seconds, bool(args.trace), session)
                for name in names
            }
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
