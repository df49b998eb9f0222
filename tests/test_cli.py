"""CLI: exit codes, artifacts, formats."""

import subprocess
import sys

import pytest

from racereplay import workloads
from racereplay.cli import main
from racereplay.errors import RaceReplayError
from racereplay.reporting import parse_report_record


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


def test_oracle_detect_agrees(racy, tmp_path, capsys):
    trace = str(tmp_path / "o.trace")
    assert main(["record", racy, "-o", trace]) == 0
    assert main(["detect", racy, "--trace", trace]) == 10
    assert main(["oracle-detect", racy, "--trace", trace]) == 10
    out = capsys.readouterr().out
    assert "witnesses=0x00001000" in out


def test_console_script_entry_point(racy):
    proc = subprocess.run(
        [sys.executable, "-m", "racereplay.cli", "pipeline", racy],
        capture_output=True, text=True)
    assert proc.returncode == 10
    assert "witness=0x00001000" in proc.stdout


def test_bench_smoke(capsys):
    assert main(["bench", "--inserts", "2000", "--pairs", "20"]) == 0
    out = capsys.readouterr().out
    assert "backend" in out
    assert "py" in out
