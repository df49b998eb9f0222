"""The benchmark in perfbench/ keeps running against the package."""

import hashlib
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


# SHA-256 of each workload's (program text, record seed) inputs, as
# ``perfbench/cases.py`` builds them from benchmark seeds 1 and 2.
INPUT_SHA256 = {
    ("pingpong", 1): "9fdf755b970a8eda8b348f1209ff39595150b1a9cf284ff6203fe53037893cee",
    ("pingpong", 2): "0607813fe7a24cbfb9a7d0313985bcf707d363f17444d75f5b0a0dee6f23617c",
    ("forkjoin", 1): "798f34e380138f9979757637275939069d505c5ade7574a64957b835413c329d",
    ("forkjoin", 2): "12abfa768e92407584c487b631e0f048c0db19e272a95b5a9dacd21c90288020",
    ("racy-corpus", 1): "77b75f52d5495de17bf131e2d4b776c33b797727b68de195c24806a1b5e1d565",
    ("racy-corpus", 2): "c2dfbbc1252a5d1f0fc38f4ae2d24bfc1797d7096e5bc979d346170805cfd74c",
}


@pytest.mark.parametrize("workload, seed", sorted(INPUT_SHA256))
def test_workload_inputs_pinned_byte_for_byte(workload, seed, monkeypatch):
    # A change to the generator or the builders must not hand the benchmark
    # different programs, or two commits would be timed on different work.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from cases import WORKLOADS as CASES

    digest = hashlib.sha256()
    for text, record_seed in CASES[workload].inputs(seed):
        digest.update(text.encode())
        digest.update(record_seed.to_bytes(8, "little"))
    assert digest.hexdigest() == INPUT_SHA256[workload, seed]
