"""The benchmark in perfbench/ keeps running against the package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["pingpong", "forkjoin", "racy-corpus"]


def _run_round(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round(workload):
    result = _run_round(workload, 1)
    assert result["metrics"]["detector.scan_useful_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_round(workload):
    # The untraced path reads the end-to-end metrics, record events among them.
    result = _run_round(workload, 0)
    assert result["metrics"]["record_events_per_s"]["value"] > 0
