"""CLI: exit codes, artifacts, formats."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from _helpers import TWO_RACES, replay_events

import racereplay
from racereplay import generator, workloads
from racereplay.cli import main
from racereplay.detector import detect
from racereplay.errors import ParseError, RaceReplayError
from racereplay.identify import identify
from racereplay.oracle import expected_instruction_pair, full_access_log
from racereplay.program import parse_program
from racereplay.record import record_execution
from racereplay.replay import replay_execution
from racereplay.reporting import (parse_report_record, report_human_text,
                                  report_record_lines)
from racereplay.tracefile import SyncTrace


@pytest.fixture
def racy(tmp_path):
    path = tmp_path / "racy.prog"
    path.write_text(workloads.shared_counter())
    return str(path)


@pytest.fixture
def clean(tmp_path):
    path = tmp_path / "clean.prog"
    path.write_text(workloads.shared_counter(locked=True))
    return str(path)


def test_pipeline_race_exit_and_artifacts(racy, tmp_path, capsys):
    code = main(["pipeline", racy, "--seed", "3"])
    assert code == 10
    out = capsys.readouterr().out
    assert "witness=0x00001000" in out
    assert "status=race" in out
    report = parse_report_record((tmp_path / "racy.prog.report").read_text())
    assert report.witnesses == (0x1000,)
    assert report.instructions is not None
    one, two = report.instructions
    assert {one.ordinal, two.ordinal} == {2}
    assert (tmp_path / "racy.prog.trace").exists()


def test_pipeline_prints_every_race_detect_prints(tmp_path, capsys):
    path = tmp_path / "two.prog"
    path.write_text(TWO_RACES)
    trace = str(tmp_path / "two.trace")
    assert main(["record", str(path), "-o", trace]) == 0
    capsys.readouterr()

    def races(out):
        return [line for line in out.splitlines()
                if line.startswith("data race on")]

    assert main(["detect", str(path), "--trace", trace, "--all-races"]) == 10
    detected = races(capsys.readouterr().out)
    assert len(detected) == 2
    assert main(["pipeline", str(path), "--all-races"]) == 10
    assert races(capsys.readouterr().out) == detected


def test_pipeline_all_races_identifies_every_race(tmp_path, capsys):
    path = tmp_path / "two.prog"
    path.write_text(TWO_RACES)
    program = parse_program(TWO_RACES)
    trace = record_execution(program, 1).trace
    reports = detect(program, trace, all_races=True).reports
    log = full_access_log(replay_events(program, trace)[0],
                          program.n_threads)
    expected = [expected_instruction_pair(log, report) for report in reports]
    assert len(expected) == 2
    assert main(["pipeline", str(path), "--seed", "1", "--all-races"]) == 10
    out = capsys.readouterr().out
    assert "racing instructions: unknown" not in out
    blocks = out.split("data race on")[1:]
    sites = [tuple((int(tid), int(ordinal), kind, int(addr, 16))
                   for tid, ordinal, kind, addr in re.findall(
                       r"thread (\d+) instruction (\d+):.*\((\w+) 0x(\w+)\)",
                       block))
             for block in blocks]
    assert sites == expected


# Eight unlocked threads that race 28 times under record seed 1.
MANY_RACES = generator.generate_program(1, threads=8, ops_per_thread=200,
                                        lock_density=0.0)


@pytest.mark.parametrize("text, races", [(TWO_RACES, 2), (MANY_RACES, 28)],
                         ids=["two", "many"])
def test_pipeline_all_races_makes_one_identify_replay(
        text, races, monkeypatch, tmp_path, capsys):
    identify_mod = import_module("racereplay.identify")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return replay_execution(*args, **kwargs)

    monkeypatch.setattr(identify_mod, "replay_execution", counted)
    path = tmp_path / "many.prog"
    path.write_text(text)
    assert main(["pipeline", str(path), "--seed", "1", "--all-races"]) == 10
    out = capsys.readouterr().out
    assert out.count("data race on") == races
    assert "racing instructions: unknown" not in out
    assert len(calls) == 1


def test_detect_all_races_prints_a_record_identify_takes_for_each_race(
        tmp_path, capsys):
    path = tmp_path / "two.prog"
    path.write_text(TWO_RACES)
    trace = str(tmp_path / "two.trace")
    first = tmp_path / "first.report"
    assert main(["record", str(path), "--seed", "1", "-o", trace]) == 0
    capsys.readouterr()
    assert main(["detect", str(path), "--trace", trace, "--all-races",
                 "--report", str(first)]) == 10
    lines = capsys.readouterr().out.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("witness=")]
    records = ["\n".join(lines[i:i + 5]) + "\n" for i in starts]
    assert len(records) == 2
    assert first.read_text() == records[0]

    program = parse_program(TWO_RACES)
    decoded = SyncTrace.read(trace)
    second = detect(program, decoded, all_races=True).reports[1]
    log = full_access_log(replay_events(program, decoded)[0],
                          program.n_threads)
    report = tmp_path / "second.report"
    report.write_text(records[1])
    assert main(["identify", str(path), "--trace", trace,
                 "--report", str(report)]) == 10
    sites = parse_report_record(report.read_text()).instructions
    assert tuple((s.tid, s.ordinal, s.kind, s.address) for s in sites) \
        == expected_instruction_pair(log, second)
    assert second.witness == 0x200


def test_pipeline_clean_exit(clean, capsys):
    assert main(["pipeline", clean, "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "no race" in out
    assert "status=clean" in out
    assert "bits per sync op" in out
    printed = [line for line in out.splitlines() if line.startswith("trace_bytes=")]
    assert printed == [f"trace_bytes={os.path.getsize(clean + '.trace')}"]


def test_missing_file_usage_error(capsys):
    assert main(["pipeline", "/nonexistent.prog"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_program_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.prog"
    path.write_text("thread 0:\n  LOCK nope\n  EXIT\n")
    assert main(["record", str(path)]) == 1
    err = capsys.readouterr().err
    assert "undeclared sync object" in err


def test_non_utf8_program_usage_error(tmp_path, capsys):
    path = tmp_path / "bin.prog"
    path.write_bytes(b"thread 0:\n  EXIT \xff\n")
    assert main(["record", str(path)]) == 1
    assert "not UTF-8" in capsys.readouterr().err


GARBLED_SITE_REPORT = ("witness=0x00001000\nwitnesses=0x00001000\n"
                       "t1=1 seg=1 kind=store clock=1,2,0\n"
                       "t2=2 seg=1 kind=store clock=1,0,2\n"
                       "i1=garbage\ni2=2:2 store\n")


def test_report_with_garbled_site_is_domain_error():
    with pytest.raises(RaceReplayError, match="malformed report record"):
        parse_report_record(GARBLED_SITE_REPORT)


def test_identify_garbled_report_usage_error(racy, tmp_path, capsys):
    trace = str(tmp_path / "g.trace")
    report = tmp_path / "g.report"
    report.write_text(GARBLED_SITE_REPORT)
    assert main(["record", racy, "--seed", "8", "-o", trace]) == 0
    assert main(["identify", racy, "--trace", trace, "--report", str(report)]) == 1
    assert "malformed report record" in capsys.readouterr().err


CLOCKLESS_REPORT = ("witnesses=0x00001000\nt1=1 seg=0 kind=store\n"
                    "t2=2 seg=0 kind=store\n")


def test_report_side_without_a_clock_is_refused(racy, tmp_path, capsys):
    # Detect writes a clock on every side, and identify cannot place a side
    # without one, so the parser refuses it.
    with pytest.raises(ParseError, match="malformed report record: side "
                       "'1 seg=0 kind=store' has no clock="):
        parse_report_record(CLOCKLESS_REPORT)
    trace = str(tmp_path / "c.trace")
    report = tmp_path / "c.report"
    report.write_text(CLOCKLESS_REPORT)
    assert main(["record", racy, "--seed", "8", "-o", trace]) == 0
    assert main(["identify", racy, "--trace", trace, "--report", str(report)]) == 1
    assert "has no clock=" in capsys.readouterr().err


def test_parsed_report_prints_as_the_original():
    program = parse_program(workloads.shared_counter())
    trace = record_execution(program, 3).trace
    report = detect(program, trace).report
    report.instructions = identify(program, trace, report)
    parsed = parse_report_record("\n".join(report_record_lines(report)))
    assert report_human_text(parsed, program) \
        == report_human_text(report, program)


@pytest.mark.parametrize("edits, site", [
    ([("i1=1:2", "i1=1:99")], "1:99 store"),
    ([("t1=1", "t1=7"), ("i1=1:2", "i1=7:2")], "7:2 store"),
])
def test_parsed_site_past_the_program_is_refused(edits, site):
    # The parser cannot know the program; printing the report against it
    # refuses a site that is no instruction of it, naming the site.
    program = parse_program(workloads.shared_counter())
    text = GARBLED_SITE_REPORT.replace("i1=garbage", "i1=1:2 store")
    assert "thread 1 instruction 2" in report_human_text(
        parse_report_record(text), program)
    for find, replace in edits:
        assert find in text
        text = text.replace(find, replace)
    report = parse_report_record(text)
    with pytest.raises(RaceReplayError,
                       match=f"site {site} is not an instruction"):
        report_human_text(report, program)


@pytest.mark.parametrize("edits, site", [
    ([("i1=1:2 store", "i1=1:0 store")], "1:0 store"),
    ([("t1=1 seg=1 kind=store", "t1=1 seg=1 kind=load"),
      ("i1=1:2 store", "i1=1:2 load")], "1:2 load"),
])
def test_parsed_site_of_the_wrong_access_is_refused(edits, site):
    # Instruction 1:0 of the shared counter is its LOAD of the witness, and
    # 1:2 its STORE: a site must be an access of its own kind at the
    # report's witness, or printing it would name the wrong instruction.
    program = parse_program(workloads.shared_counter())
    text = GARBLED_SITE_REPORT.replace("i1=garbage", "i1=1:2 store")
    for find, replace in edits:
        assert find in text
        text = text.replace(find, replace)
    report = parse_report_record(text)
    with pytest.raises(RaceReplayError,
                       match=f"site {site} is not a {site[4:]} of 0x00001000"):
        report_human_text(report, program)


@pytest.mark.parametrize("find, replace, message", [
    ("i1=1:2 store", "i1=1:2 banana", "neither load nor store"),
    ("i1=1:2 store", "i1=1:2 load", "not a store like its side"),
    ("i1=1:2 store", "i1=2:2 store", "not on thread 1"),
    ("i2=2:2 store", "i2=-2:2 store", "not on thread 2"),
    ("i1=1:2 store", "i1=1:-2 store", "negative ordinal"),
    ("i1=1:2 store\n", "", "one of i1 and i2 without the other"),
    ("i2=2:2 store\n", "", "one of i1 and i2 without the other"),
])
def test_report_with_a_site_identify_never_writes_is_refused(
        find, replace, message):
    good = GARBLED_SITE_REPORT.replace("i1=garbage", "i1=1:2 store")
    assert parse_report_record(good).instructions is not None
    assert find in good
    with pytest.raises(RaceReplayError, match="malformed report record: .*"
                       + message):
        parse_report_record(good.replace(find, replace))


TWO_RACES_REPORT = ("witness=0x00000100\nwitnesses=0x00000100\n"
                    "t1=1 seg=0 kind=store clock=0,1,0\n"
                    "t2=2 seg=0 kind=store clock=1,0,1\n")


@pytest.mark.parametrize("find, replace, message", [
    ("t2=2", "t2=1", "both sides on thread 1"),
    ("t1=1 seg=0 kind=store", "t1=1 seg=0 kind=write",
     "neither load nor store"),
    ("t1=1 seg=0", "t1=1 seg=-1", "negative thread or segment"),
    ("witnesses=0x00000100", "witnesses=0x00000200,0x00000100",
     "not strictly ascending"),
    ("witnesses=0x00000100", "witnesses=0x00000100,0x00000100",
     "not strictly ascending"),
    ("kind=store", "kind=load", "both sides load"),
    ("witness=0x00000100", "witness=0x00000200",
     "witness=0x00000200 is not the first of witnesses="),
])
def test_identify_refuses_a_report_detect_never_writes(
        find, replace, message, tmp_path, capsys):
    path = tmp_path / "two.prog"
    path.write_text(TWO_RACES)
    trace = str(tmp_path / "two.trace")
    report = tmp_path / "two.report"
    assert main(["record", str(path), "-o", trace]) == 0
    report.write_text(TWO_RACES_REPORT)
    assert main(["identify", str(path), "--trace", trace,
                 "--report", str(report)]) == 10
    capsys.readouterr()
    assert find in TWO_RACES_REPORT
    report.write_text(TWO_RACES_REPORT.replace(find, replace))
    assert main(["identify", str(path), "--trace", trace,
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "malformed report record" in err and message in err


@pytest.mark.parametrize("find, replace, message", [
    ("t1=1 ", "t1=7 ", "report side t1 (thread 7, clock of 3) does not fit "
     "a program of 3 threads"),
    ("clock=0,1,0", "clock=9,0,1,0", "report side t1 (thread 1, clock of 4) "
     "does not fit a program of 3 threads"),
])
def test_identify_refuses_a_report_side_the_program_lacks(
        find, replace, message, racy, tmp_path, capsys):
    # A side on a thread the program lacks, or with a clock not of one
    # component per thread, is refused before identify replays, and the
    # report file is left as it was.
    trace = str(tmp_path / "s.trace")
    report = tmp_path / "s.report"
    assert main(["record", racy, "--seed", "1", "-o", trace]) == 0
    assert main(["detect", racy, "--trace", trace,
                 "--report", str(report)]) == 10
    text = report.read_text()
    assert find in text
    report.write_text(text.replace(find, replace))
    before = report.read_text()
    capsys.readouterr()
    assert main(["identify", racy, "--trace", trace,
                 "--report", str(report)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert report.read_text() == before


def test_directory_as_program_usage_error(tmp_path, capsys):
    assert main(["record", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_directory_as_trace_or_report_usage_error(racy, tmp_path, capsys):
    trace = str(tmp_path / "d.trace")
    assert main(["record", racy, "--seed", "3", "-o", trace]) == 0
    assert main(["detect", racy, "--trace", str(tmp_path)]) == 1
    assert main(["identify", racy, "--trace", trace,
                 "--report", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("error") == 2


def test_non_utf8_report_usage_error(racy, tmp_path, capsys):
    trace = str(tmp_path / "u.trace")
    report = tmp_path / "u.report"
    report.write_bytes(b"witness=0x\xff\n")
    assert main(["record", racy, "--seed", "3", "-o", trace]) == 0
    assert main(["identify", racy, "--trace", trace, "--report", str(report)]) == 1
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["replay", "detect"])
def test_trace_claiming_a_billion_ops_rejected(command, tmp_path, capsys):
    # 46 bytes: magic, one thread, seed 0, the program's digest, then thread
    # 0 claiming 10^9 sync ops with no exceptions. The program allows 1.
    from racereplay.program import parse_program
    from racereplay.tracefile import MAGIC, encode_varint
    prog_text = "mutex m\nthread 0:\n  LOCK m\n  EXIT\n"
    path = tmp_path / "p.prog"
    path.write_text(prog_text)
    blob = (MAGIC + encode_varint(1) + encode_varint(0)
            + parse_program(prog_text).digest()
            + encode_varint(0) + encode_varint(10**9) + encode_varint(0))
    assert len(blob) == 46
    trace_path = tmp_path / "huge.trace"
    trace_path.write_bytes(blob)
    assert main([command, str(path), "--trace", str(trace_path)]) == 1
    assert "claims 1000000000 sync ops; the program has at most 1" in \
        capsys.readouterr().err


def test_record_then_replay_exit_codes(clean, tmp_path, capsys):
    trace = str(tmp_path / "c.trace")
    assert main(["record", clean, "--seed", "4", "-o", trace]) == 0
    assert main(["replay", clean, "--trace", trace, "--show-memory"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "0x00001000 = 18" in out


def test_replay_divergence_exit_code(tmp_path, capsys):
    prog_text = ("thread 0:\n  CREATE 1\n  STORE r0 0x00000100\n  JOIN 1\n"
                 "  EXIT\nthread 1:\n  STORE r0 0x00000100\n  EXIT\n")
    path = tmp_path / "p.prog"
    path.write_text(prog_text)
    prog = parse_program(prog_text)
    trace = SyncTrace(seed=0, digest=prog.digest(), stamps=[[1, 2], [3, 4]])
    trace_path = tmp_path / "crafted.trace"
    trace.write(str(trace_path))
    assert main(["replay", str(path), "--trace", str(trace_path)]) == 20
    assert main(["detect", str(path), "--trace", str(trace_path)]) == 20
    out = capsys.readouterr().out
    assert "divergence without detected race" in out

    # One stamp short for thread 1: refused before the replay runs.
    short = SyncTrace(seed=0, digest=prog.digest(), stamps=[[1, 4], [2]])
    short_path = str(tmp_path / "short.trace")
    short.write(short_path)
    detail = "thread 1 has a recorded sync op count of 1; the program makes 2"
    assert main(["replay", str(path), "--trace", short_path]) == 20
    assert main(["detect", str(path), "--trace", short_path]) == 20
    out = capsys.readouterr().out
    assert f"replay verdict: DIVERGED ({detail})" in out
    assert f"divergence without detected race: {detail}" in out
    # The report detect writes from an honest trace cannot be answered.
    honest = str(tmp_path / "honest.trace")
    report = str(tmp_path / "p.report")
    assert main(["record", str(path), "-o", honest]) == 0
    assert main(["detect", str(path), "--trace", honest,
                 "--report", report]) == 10
    capsys.readouterr()
    assert main(["identify", str(path), "--trace", short_path,
                 "--report", report]) == 1
    err = capsys.readouterr().err
    assert f"(replay DIVERGED: {detail})" in err


def test_detect_and_identify_roundtrip(racy, tmp_path, capsys):
    trace = str(tmp_path / "r.trace")
    report = str(tmp_path / "r.report")
    assert main(["record", racy, "--seed", "8", "-o", trace]) == 0
    assert main(["detect", racy, "--trace", trace, "--report", report]) == 10
    text_before = open(report).read()
    assert "instructions=unknown" in text_before
    assert main(["identify", racy, "--trace", trace, "--report", report]) == 10
    text_after = open(report).read()
    assert "i1=1:2 store" in text_after
    assert "i2=2:2 store" in text_after
    out = capsys.readouterr().out
    assert "STORE r0 0x00001000" in out


def test_probe_csv_written(tmp_path, capsys):
    prog_path = tmp_path / "pp.prog"
    prog_path.write_text(workloads.ping_pong(50, slack=2))
    csv = tmp_path / "live.csv"
    trace = str(tmp_path / "pp.trace")
    assert main(["record", str(prog_path), "-o", trace]) == 0
    assert main(["detect", str(prog_path), "--trace", trace,
                 "--probe-live-segments", str(csv)]) == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "snoop_point,live_snooped,live_logical"
    assert len(rows) > 10
    # One row per sync op, including ops that close no segment.
    with open(trace, "rb") as f:
        assert len(rows) - 1 == SyncTrace.from_bytes(f.read()).total_ops
    for row in rows[1:]:
        _, snooped, logical = row.split(",")
        assert int(snooped) <= int(logical)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.prog"
    assert main(["gen", "--seed", "9", "--threads", "3", "--ops", "30",
                 "--lock-density", "0.0", "-o", str(out)]) == 0
    code = main(["pipeline", str(out), "--seed", "1"])
    assert code in (0, 10)  # depends on workload; must not error
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, message", [
    ("--threads", "0", "at least one thread"),
    ("--ops", "3", "too small"),
    ("--shared", "0", "at least one shared address"),
])
def test_gen_bad_knob_usage_error(flag, value, message, tmp_path, capsys):
    out = tmp_path / "gen.prog"
    assert main(["gen", flag, value, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_gen_over_budget_refused_before_work(monkeypatch, tmp_path, capsys):
    # The budget is checked before anything is generated; a small one
    # here keeps the refused requests tiny.
    monkeypatch.setattr(generator, "MAX_TOTAL_OPS", 100)
    out = tmp_path / "gen.prog"
    for flags in (["--threads", "3", "--ops", "34"], ["--shared", "101"]):
        assert main(["gen", *flags, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gen: ") and "above the budget of 100" in err
        assert not out.exists()
    assert main(["gen", "--threads", "4", "--ops", "25", "--shared", "100",
                 "-o", str(out)]) == 0
    capsys.readouterr()


def test_gen_budget_admits_the_sweeps_and_refuses_huge_requests():
    assert 64 * 250 <= generator.MAX_TOTAL_OPS
    assert 16 * 4000 <= generator.MAX_TOTAL_OPS
    assert 10**8 * 10 > generator.MAX_TOTAL_OPS
    assert 2 * 10**9 > generator.MAX_TOTAL_OPS


@pytest.mark.parametrize("argv", [
    ["record", "PROG", "--seed", str(10**27)],
    ["detect", "PROG"],
    ["gen", "--threads", "many"],
    ["frobnicate"],
    [],
])
def test_argparse_usage_error_exits_1(argv, racy, capsys):
    argv = [racy if arg == "PROG" else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: racereplay")
    assert "error: racereplay" in err


def test_identify_takes_no_replay_seed(racy, tmp_path, capsys):
    # Replay draws no random values, so no command takes a replay seed:
    # passing one is a usage error, exit 1.
    trace, report = str(tmp_path / "s.trace"), str(tmp_path / "s.report")
    assert main(["record", racy, "--seed", "3", "-o", trace]) == 0
    assert main(["detect", racy, "--trace", trace, "--report", report]) == 10
    capsys.readouterr()
    for argv in (["identify", racy, "--trace", trace, "--report", report],
                 ["replay", racy, "--trace", trace],
                 ["detect", racy, "--trace", trace],
                 ["pipeline", racy, "--out-prefix", str(tmp_path / "p")]):
        assert main(argv + ["--replay-seed", "1"]) == 1
        assert "unrecognized arguments: --replay-seed 1" in \
            capsys.readouterr().err


def test_console_script_entry_point(racy):
    # The child imports the same package as this test, installed or not.
    src = str(Path(racereplay.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "racereplay.cli", "pipeline", racy],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 10
    assert "witness=0x00001000" in proc.stdout
