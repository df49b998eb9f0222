"""Serialization of race reports and run summaries.

Reports have two forms: a machine-readable record of key=value lines
(stable field order, parseable back) and a human text block. Summaries are
emitted both as an aligned table and as key=value records.
"""

from __future__ import annotations

from operator import ge

from .detector import RaceReport, RaceSide
from .errors import MismatchError, ParseError, shown
from .identify import InstructionSite
from .program import Op, Program

_ACCESS_OP = {"load": Op.LOAD, "store": Op.STORE}


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


def _int(tok: str, base: int = 10) -> int:
    """``int(tok, base)``, whose ValueError quotes the token as ``shown``
    does, not as ``int`` does (up to 200 characters)."""
    try:
        return int(tok, base)
    except ValueError:
        raise ValueError(f"bad number {shown(tok)}") from None


def _parse_side(value: str) -> RaceSide:
    fields = {}
    head = value.split()
    tid = _int(head[0])
    for item in head[1:]:
        key, _, val = item.partition("=")
        fields[key] = val
    if "clock" not in fields:
        raise ValueError(f"side {shown(value)} has no clock=")
    side = RaceSide(tid=tid, segment=_int(fields["seg"]),
                    clock=tuple(_int(c) for c in fields["clock"].split(",")),
                    kind=fields["kind"])
    if side.tid < 0 or side.segment < 0:
        raise ValueError(f"negative thread or segment in {shown(value)}")
    if side.kind not in ("load", "store"):
        raise ValueError(f"access kind {shown(side.kind)} is neither load nor store")
    return side


def _parse_site(value: str, side: RaceSide, witness: int) -> InstructionSite:
    """A site as identify writes it: an access of its side's thread and
    kind, at the report's witness."""
    where, kind = value.split()
    tid, ordinal = map(_int, where.split(":"))
    if kind not in ("load", "store"):
        raise ValueError(f"access kind {shown(kind)} is neither load nor store")
    if kind != side.kind:
        raise ValueError(f"site {shown(value)} is not a {side.kind} like its side")
    if tid != side.tid:
        raise ValueError(f"site {shown(value)} is not on thread "
                         f"{shown(str(side.tid), '')}")
    if ordinal < 0:
        raise ValueError(f"negative ordinal in site {shown(value)}")
    return InstructionSite(tid, ordinal, kind, witness)


def parse_report_record(text: str) -> RaceReport:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"bad report line: {shown(line)}")
        fields[key] = value
    try:
        witnesses = tuple(_int(w, 16) for w in fields["witnesses"].split(","))
        side1 = _parse_side(fields["t1"])
        side2 = _parse_side(fields["t2"])
        if side1.tid == side2.tid:
            raise ValueError(f"both sides on thread {shown(str(side1.tid), '')}")
        if side1.kind == side2.kind == "load":
            raise ValueError("both sides load; a race needs a store")
        if any(map(ge, witnesses, witnesses[1:])):
            raise ValueError("witnesses not strictly ascending")
        if "witness" in fields and _int(fields["witness"], 16) != witnesses[0]:
            raise ValueError(f"witness={shown(fields['witness'], '')} is not "
                             f"the first of witnesses=")
        if ("i1" in fields) != ("i2" in fields):
            raise ValueError("one of i1 and i2 without the other")
        instructions = None
        if "i1" in fields:
            instructions = (_parse_site(fields["i1"], side1, witnesses[0]),
                            _parse_site(fields["i2"], side2, witnesses[0]))
    except (KeyError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed report record: {exc}")
    return RaceReport(witnesses=witnesses, side1=side1, side2=side2,
                      instructions=instructions)


def report_human_text(report: RaceReport, program: Program) -> str:
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
            # A parsed report's sites are checked here, where they first
            # meet the program.
            if not (site.tid < program.n_threads
                    and site.ordinal < len(program.threads[site.tid])):
                raise MismatchError(f"site {site} is not an instruction "
                                    f"of this program")
            op, _, address = program.threads[site.tid][site.ordinal]
            if op is not _ACCESS_OP[site.kind] or address != site.address:
                raise MismatchError(f"site {site} is not a {site.kind} of "
                                    f"0x{site.address:08X} in this program")
            text = program.instruction_text(site.tid, site.ordinal)
            lines.append(f"  thread {site.tid} instruction {site.ordinal}:"
                         f"  {text}  ({site.kind} 0x{site.address:08X})")
    return "\n".join(lines)


def summary_lines(entries) -> list:
    """Aligned table plus key=value records for a summary mapping."""
    width = max(len(k) for k, _ in entries)
    aligned = [f"  {k.ljust(width)}  {v}" for k, v in entries]
    records = [f"{k.replace(' ', '_')}={v}" for k, v in entries]
    return aligned + records
