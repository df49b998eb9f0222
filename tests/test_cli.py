"""CLI: exit codes, artifacts, formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import racereplay
from racereplay import generator, workloads
from racereplay.cli import main
from racereplay.errors import RaceReplayError
from racereplay.reporting import parse_report_record
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
    prog_text = "thread 0:\n  CREATE 1\n  JOIN 1\n  EXIT\nthread 1:\n  EXIT\n"
    path = tmp_path / "p.prog"
    path.write_text(prog_text)
    from racereplay.program import parse_program
    from racereplay.tracefile import SyncTrace
    prog = parse_program(prog_text)
    trace = SyncTrace(seed=0, digest=prog.digest(), stamps=[[1, 2], [3, 4]])
    trace_path = tmp_path / "crafted.trace"
    trace.write(str(trace_path))
    assert main(["replay", str(path), "--trace", str(trace_path)]) == 20
    assert main(["detect", str(path), "--trace", str(trace_path)]) == 20
    out = capsys.readouterr().out
    assert "divergence without detected race" in out


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


def test_console_script_entry_point(racy):
    # The child imports the same package as this test, installed or not.
    src = str(Path(racereplay.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "racereplay.cli", "pipeline", racy],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 10
    assert "witness=0x00001000" in proc.stdout
