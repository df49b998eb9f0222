"""Self-test of the benchmark: each workload at a tiny size passes its checks,
and each check rejects a planted wrong answer.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
from dataclasses import replace

import pytest

import run

assert run.import_package() is not None, "racereplay must import from src/"

from racereplay.detector import CLEAN, RACE  # noqa: E402
from racereplay.program import parse_program  # noqa: E402
from racereplay.tracefile import SyncTrace  # noqa: E402

from cases import (ForkJoin, PingPong, RacyCorpus, check_report,  # noqa: E402
                   check_trace, observe)
from pipeline import run_pipeline  # noqa: E402

TINY = {"pingpong": PingPong(turns=20),
        "forkjoin": ForkJoin(threads=4, ops_per_thread=40, programs=1),
        "racy-corpus": RacyCorpus(programs=24)}
SEED = 3


def _observed(workload):
    return [observe(run_pipeline(parse_program(text), record_seed))
            for text, record_seed in workload.inputs(SEED)]


def _rejected(workload, observed) -> bool:
    return any(workload.check(observed))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean_and_reports_every_metric(name):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key, build in ((False, "end_to_end", run.end_to_end_metrics),
                              (True, "per_layer", run.per_layer_metrics)):
        result = run.run_workload(TINY[name], SEED, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == (2 if trace else 1) * len(
            TINY[name].inputs(SEED))
        metrics = build(result)
        assert [(m["name"], m["unit"]) for m in spec[key]] == [
            (n, unit) for n, (_, unit) in metrics.items()]


def test_pingpong_checks_reject_planted_answers():
    workload = TINY["pingpong"]
    (obs,) = _observed(workload)
    assert not _rejected(workload, [obs])
    assert _rejected(workload, [replace(obs, status=RACE)])
    assert _rejected(workload, [replace(obs, replay_verdict="DIVERGED")])
    assert _rejected(workload, [replace(obs, sync_ops=obs.sync_ops - 1)])
    for field in ("recorded_memory", "replayed_memory"):
        memory = dict(getattr(obs, field))
        memory[0x2000] += 1
        assert _rejected(workload, [replace(obs, **{field: memory})])


def test_forkjoin_checks_reject_planted_answers():
    workload = TINY["forkjoin"]
    (obs,) = _observed(workload)
    assert not _rejected(workload, [obs])
    assert _rejected(workload, [replace(obs, status=RACE)])
    memory = dict(obs.replayed_memory)
    addr = min(memory)
    memory[addr] = (memory[addr] + 1) & 0xFFFFFFFF
    assert _rejected(workload, [replace(obs, replayed_memory=memory)])


def test_racy_corpus_checks_reject_planted_answers():
    workload = TINY["racy-corpus"]
    observed = _observed(workload)
    assert not _rejected(workload, observed)
    racy = next(i for i, obs in enumerate(observed) if obs.report is not None)
    clean = next(i for i, obs in enumerate(observed) if obs.report is None)

    def planted(i, **changes):
        return observed[:i] + [replace(observed[i], **changes)] + observed[i + 1:]

    obs = observed[racy]
    assert _rejected(workload, planted(racy, report=None, status=CLEAN))
    swapped = replace(obs.report, instructions=obs.report.instructions[::-1])
    assert _rejected(workload, planted(racy, report=swapped))
    assert _rejected(workload, planted(clean, report=obs.report, status=RACE))
    assert _rejected(workload, [o for o in observed if o.report is not None])


def test_codec_and_report_checks_reject_planted_answers():
    (obs,) = _observed(TINY["forkjoin"])
    assert check_trace(obs) == []
    stamps = [list(s) for s in obs.decoded_trace.stamps]
    stamps[0][-1] += 1
    bad = SyncTrace(obs.decoded_trace.seed, obs.decoded_trace.digest, stamps)
    assert check_trace(replace(obs, decoded_trace=bad))

    racy = next(o for o in _observed(TINY["racy-corpus"]) if o.report)
    assert check_report(racy) == []
    shifted = replace(racy.parsed_report,
                      witnesses=(racy.report.witnesses[0] + 4,))
    assert check_report(replace(racy, parsed_report=shifted))


def test_a_repetition_that_differs_counts_as_failed():
    workload = TINY["racy-corpus"]
    programs = [parse_program(text) for text, _ in workload.inputs(SEED)]
    seeds = [seed for _, seed in workload.inputs(SEED)]
    n = len(programs)
    baseline, observed, failed = [None] * n, [None] * n, [0] * n
    run._round(programs, seeds, baseline, observed, failed)
    run._round(programs, seeds, baseline, observed, failed)
    assert failed == [0] * n
    baseline[1] = baseline[1][:-1] + (("planted",),)
    run._round(programs, seeds, baseline, observed, failed)
    assert failed == [0, 1] + [0] * (n - 2)
