"""Write the reference reports that the audit workloads are checked against.

    python3 perfbench/make_reference.py

Runs each audit workload once at seed 0 and stores every case's id, params
and status under ``perfbench/reference/``.  Run it only when a change to
``tbhl`` alters the audit report on purpose, and say why in that change.
"""

import json
import tempfile
import time
from pathlib import Path

from run import ROOT, TIME_LIMIT_S, Session
from workloads import REFERENCE_DIR, WORKLOADS, AuditWorkload


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        session = Session(Path(workdir), time.monotonic() + TIME_LIMIT_S)
        for workload in WORKLOADS.values():
            if not isinstance(workload, AuditWorkload):
                continue
            run = session.run(workload.child_args(0, session.workdir))
            if run.exit_code != 0:
                raise SystemExit(f"{workload.name}: exit code {run.exit_code}")
            cases = [
                {"id": case["id"], "params": case["params"], "status": case["status"]}
                for case in json.loads(run.report)["cases"]
            ]
            path = REFERENCE_DIR / f"{workload.name}.json"
            rows = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
            path.write_text('{"cases": [\n' + rows + "\n]}\n")
            print(f"{path}: {len(cases)} cases")


if __name__ == "__main__":
    main()
