"""Serialization of race reports and run summaries.

Reports have two forms: a machine-readable record of key=value lines
(stable field order, parseable back) and a human text block. Summaries are
emitted both as an aligned table and as key=value records.
"""

from __future__ import annotations

from .detector import RaceReport, RaceSide
from .errors import RaceReplayError
from .identify import InstructionSite
from .program import Program


def _side_line(tag: str, side: RaceSide) -> str:
    clock = ",".join(str(c) for c in side.clock)
    return f"{tag}={side.tid} seg={side.segment} kind={side.kind} clock={clock}"


def report_record_lines(report: RaceReport) -> list:
    lines = [
        f"witness=0x{report.witness:08X}",
        "witnesses=" + ",".join(f"0x{w:08X}" for w in report.witnesses),
        _side_line("t1", report.side1),
        _side_line("t2", report.side2),
    ]
    if report.instructions is None:
        lines.append("instructions=unknown")
    else:
        one, two = report.instructions
        lines.append(f"i1={one}")
        lines.append(f"i2={two}")
    return lines


def _parse_side(value: str) -> RaceSide:
    fields = {}
    head = value.split()
    tid = int(head[0])
    for item in head[1:]:
        key, _, val = item.partition("=")
        fields[key] = val
    clock = tuple(int(c) for c in fields["clock"].split(",")) if "clock" in fields else ()
    return RaceSide(tid=tid, segment=int(fields["seg"]),
                    clock=clock, kind=fields["kind"])


def _parse_site(value: str) -> InstructionSite:
    where, kind = value.split()
    tid, ordinal = where.split(":")
    return InstructionSite(int(tid), int(ordinal), kind, -1)


def parse_report_record(text: str) -> RaceReport:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise RaceReplayError(f"bad report line: {line!r}")
        fields[key] = value
    try:
        witnesses = tuple(int(w, 16) for w in fields["witnesses"].split(","))
        side1 = _parse_side(fields["t1"])
        side2 = _parse_side(fields["t2"])
        instructions = None
        if "i1" in fields and "i2" in fields:
            instructions = (_parse_site(fields["i1"]), _parse_site(fields["i2"]))
    except (KeyError, ValueError, IndexError) as exc:
        raise RaceReplayError(f"malformed report record: {exc}")
    return RaceReport(witnesses=witnesses, side1=side1, side2=side2,
                      instructions=instructions)


def report_human_text(report: RaceReport, program: Program = None) -> str:
    lines = [f"data race on 0x{report.witness:08X}"]
    if len(report.witnesses) > 1:
        lines[0] += f" (+{len(report.witnesses) - 1} more addresses)"
    for side in (report.side1, report.side2):
        lines.append(f"  thread {side.tid} segment {side.segment}: "
                     f"{side.kind} (clock {','.join(map(str, side.clock))})")
    if report.instructions is None:
        lines.append("  racing instructions: unknown (run the identification phase)")
    else:
        for site in report.instructions:
            text = ""
            if program is not None:
                text = f"  {program.instruction_text(site.tid, site.ordinal)}"
            lines.append(f"  thread {site.tid} instruction {site.ordinal}:"
                         f"{text}  ({site.kind} 0x{site.address:08X})")
    return "\n".join(lines)


def summary_lines(entries) -> list:
    """Aligned table plus key=value records for a summary mapping."""
    width = max(len(k) for k, _ in entries)
    aligned = [f"  {k.ljust(width)}  {v}" for k, v in entries]
    records = [f"{k.replace(' ', '_')}={v}" for k, v in entries]
    return aligned + records
