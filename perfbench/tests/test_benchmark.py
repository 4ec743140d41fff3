"""The benchmark end to end: its contract file, a fresh seed, a bare copy."""

import json
import shutil
import subprocess
import sys

import layers
from run import END_TO_END, HERE, ROOT
from workloads import WORKLOADS

# Not a seed used while the benchmark was tuned.
UNUSED_SEED = 7919


def test_contract_file_lists_the_metrics_the_benchmark_prints():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        metric[:3] for metric in layers.PER_LAYER
    ]


def test_unused_seed_passes_every_check_on_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", str(UNUSED_SEED), "--seconds", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert set(results) == set(WORKLOADS)
    assert done.stdout.count("error_rate    0 ratio") == len(WORKLOADS)
    for name, result in results.items():
        assert result["correct"], (name, done.stdout)
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {name for name, _ in END_TO_END}


def test_refuses_a_checkout_without_tbhl(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
