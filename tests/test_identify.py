"""Identification phase: pinpointing racing instructions."""

from collections import Counter
from dataclasses import replace
from importlib import import_module

import pytest

from _helpers import replay_events

from racereplay import workloads
from racereplay.detector import RACE, detect
from racereplay.errors import IdentifyError, MismatchError
from racereplay.generator import generate_program
from racereplay.identify import identify, identify_all
from racereplay.oracle import expected_instruction_pair, full_access_log
from racereplay.program import Op, parse_program
from racereplay.record import record_execution
from racereplay.replay import replay_execution

# The package re-exports the function ``identify`` under the module's name.
identify_mod = import_module("racereplay.identify")


def test_shared_counter_store_instructions():
    prog = parse_program(workloads.shared_counter())
    for seed in range(20):
        rec = record_execution(prog, seed)
        report = detect(prog, rec.trace).report
        one, two = identify(prog, rec.trace, report)
        # Both sides store; ordinal 2 is the STORE in each worker body.
        assert (one.tid, one.ordinal, one.kind) == (1, 2, "store")
        assert (two.tid, two.ordinal, two.kind) == (2, 2, "store")
        assert one.address == two.address == 0x1000
        assert prog.threads[1][one.ordinal].op is Op.STORE
        assert prog.threads[2][two.ordinal].op is Op.STORE


def test_single_load_store_pair():
    text = ("thread 0:\n  CREATE 1\n  LOAD r0 0x00000100\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  SET r0 9\n  STORE r0 0x00000100\n  EXIT\n")
    prog = parse_program(text)
    for seed in range(10):
        rec = record_execution(prog, seed)
        result = detect(prog, rec.trace)
        assert result.status == RACE
        one, two = identify(prog, rec.trace, result.report)
        kinds = {(s.tid, s.kind) for s in (one, two)}
        assert kinds == {(0, "load"), (1, "store")}
        load_site = one if one.kind == "load" else two
        store_site = two if one.kind == "load" else one
        assert prog.threads[load_site.tid][load_site.ordinal].op is Op.LOAD
        assert prog.threads[store_site.tid][store_site.ordinal].op is Op.STORE


def test_randomized_identification_matches_full_log():
    found = 0
    for i in range(60):
        text = generate_program(seed=7000 + i, threads=2 + i % 3,
                                ops_per_thread=18 + (i * 11) % 60,
                                lock_density=(0.0, 0.3)[i % 2],
                                shared_addresses=1 + i % 4)
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        result = detect(prog, rec.trace)
        if result.status != RACE:
            continue
        found += 1
        sites = identify(prog, rec.trace, result.report)
        events, _ = replay_events(prog, rec.trace)
        log = full_access_log(events, prog.n_threads)
        expected = expected_instruction_pair(log, result.report)
        assert tuple((s.tid, s.ordinal, s.kind, s.address) for s in sites) \
            == expected
    assert found >= 20  # the corpus actually exercised identification


def test_identified_pair_is_a_real_conflict():
    prog = parse_program(workloads.shared_counter())
    rec = record_execution(prog, 3)
    report = detect(prog, rec.trace).report
    one, two = identify(prog, rec.trace, report)
    assert one.address in report.witnesses
    assert "store" in (one.kind, two.kind)


def test_identify_rejects_wrong_program():
    prog_a = parse_program(workloads.shared_counter())
    prog_b = parse_program(workloads.shared_counter(locked=True))
    rec = record_execution(prog_a, 0)
    report = detect(prog_a, rec.trace).report
    with pytest.raises(MismatchError):
        identify(prog_b, rec.trace, report)


def test_identify_rejects_foreign_report():
    prog = parse_program(workloads.shared_counter())
    rec = record_execution(prog, 0)
    report = detect(prog, rec.trace).report
    # A report naming segments that never see the witness address.
    from racereplay.detector import RaceReport, RaceSide
    bogus = RaceReport(witnesses=(0xDEAD0000,),
                       side1=RaceSide(1, 0, (0, 1, 0), "store"),
                       side2=RaceSide(2, 0, (0, 0, 1), "store"))
    with pytest.raises(IdentifyError):
        identify(prog, rec.trace, bogus)


def test_one_replay_answers_every_report_as_the_oracle_does():
    reports_seen = shared = 0
    for i in range(16):
        prog = parse_program(generate_program(
            seed=8100 + i, threads=3 + i % 3, ops_per_thread=30 + 7 * i,
            lock_density=(0.0, 0.3)[i % 2], shared_addresses=2 + i % 3))
        trace = record_execution(prog, seed=i).trace
        reports = detect(prog, trace, all_races=True).reports
        answers = identify_all(prog, trace, reports)
        log = full_access_log(replay_events(prog, trace)[0], prog.n_threads)
        assert [tuple((s.tid, s.ordinal, s.kind, s.address) for s in sites)
                for sites in answers] \
            == [expected_instruction_pair(log, r) for r in reports]
        sides = Counter((side.tid, side.segment) for r in reports
                        for side in (r.side1, r.side2))
        shared += max(sides.values(), default=0) > 1
        reports_seen += len(reports)
    assert reports_seen >= 100
    assert shared  # some segment is a side of two reports


def test_identify_replay_ends_no_later_than_the_detect_replay(monkeypatch):
    steps = []

    def counted(*args, **kwargs):
        result = replay_execution(*args, **kwargs)
        steps.append(result.steps)
        return result

    monkeypatch.setattr(identify_mod, "replay_execution", counted)
    racy = 0
    for i in range(30):
        prog = parse_program(generate_program(
            seed=8300 + i, threads=2 + i % 4, ops_per_thread=20 + 5 * i,
            lock_density=(0.0, 0.3)[i % 2], shared_addresses=1 + i % 4))
        rec = record_execution(prog, seed=i)
        result = detect(prog, rec.trace)
        if result.status != RACE:
            continue
        racy += 1
        identify(prog, rec.trace, result.report)
        assert steps.pop() <= result.replay.steps
    assert racy >= 20


def test_missing_answer_names_the_side_and_the_replay_verdict():
    prog = parse_program(workloads.shared_counter())
    rec = record_execution(prog, 0)
    report = detect(prog, rec.trace).report
    bogus = replace(report, side2=replace(report.side2, segment=9))
    with pytest.raises(IdentifyError, match=r"no store of 0x00001000 found in "
                       r"thread 2 segment 9 \(replay OK\)"):
        identify(prog, rec.trace, bogus)
