"""Identification phase: locate the racing instructions.

Detection stores only addresses, so a report names the racing segments and
the conflicting address but not the instructions. This phase replays the
same trace. Thread bodies are straight-line code with constant addresses,
so a segment ``(tid, index)`` makes the same accesses in the same program
order in every replay of the trace. One replay answers every report: for
each reported side it watches that thread's segment for the report's
smallest witness, its ``witness``, accessed with the side's access type.
The answer is the first such access in the segment's own program order,
so each asked (segment, address, type) keeps one ordinal, and the replay
stops as soon as the last one is found.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detector import RaceReport
from .errors import IdentifyError, MismatchError
from .machine import EventKind
from .program import Program
from .replay import replay_execution
from .tracefile import SyncTrace

_SYNC_EVENT, _STORE_EVENT = EventKind.SYNC, EventKind.STORE


@dataclass(frozen=True)
class InstructionSite:
    tid: int
    ordinal: int
    kind: str
    address: int

    def __str__(self):
        return f"{self.tid}:{self.ordinal} {self.kind}"


class _Collector:
    """Replay observer holding the asked (thread, segment, witness, kind)
    keys not yet seen. The first access matching a key, in the segment's
    program order, takes the key out and keeps its ordinal; the replay stops
    once no key is left.

    A thread's segment index counts its closed segments that made a memory
    access, as the detector numbers them.
    """

    def __init__(self, reports, n_threads: int):
        self.asked = {(side.tid, side.segment, report.witness, side.kind)
                      for report in reports
                      for side in (report.side1, report.side2)}
        self.found: dict[tuple, int] = {}  # asked key -> ordinal
        self.segment = [0] * n_threads
        self.accessed = [False] * n_threads

    def __call__(self, machine, event) -> bool:
        tid = event.tid
        if event.kind is _SYNC_EVENT:
            self.segment[tid] += self.accessed[tid]
            self.accessed[tid] = False
            return False
        self.accessed[tid] = True
        key = (tid, self.segment[tid], event.addr,
               "store" if event.kind is _STORE_EVENT else "load")
        if key in self.asked:
            self.asked.remove(key)
            self.found[key] = event.ordinal
            return not self.asked  # every answer found; stop replaying
        return False


def identify_all(program: Program, trace: SyncTrace, reports) -> list:
    """Returns one (InstructionSite, InstructionSite) per report, in the
    reports' order, all from one replay that ends at its last answer.

    Raises ``MismatchError``, before any replay, when a report side names
    a thread the program lacks or a clock not of one component per thread,
    and from the replay when the trace is not this program's;
    ``IdentifyError`` when a side's access never occurs.
    """
    n = program.n_threads
    for report in reports:
        for tag, side in (("t1", report.side1), ("t2", report.side2)):
            if side.tid >= n or len(side.clock) != n:
                raise MismatchError(f"report side {tag} (thread {side.tid}, clock of "
                                    f"{len(side.clock)}) does not fit a program of {n} threads")
    if not reports:
        return []
    collector = _Collector(reports, program.n_threads)
    result = replay_execution(program, trace, observer=collector)

    def site(side, w):
        ordinal = collector.found.get((side.tid, side.segment, w, side.kind))
        if ordinal is None:
            detail = f": {result.detail}" if result.detail else ""
            raise IdentifyError(
                f"no {side.kind} of 0x{w:08X} found in thread {side.tid} "
                f"segment {side.segment} (replay {result.verdict}{detail}); "
                f"report does not match this trace")
        return InstructionSite(side.tid, ordinal, side.kind, w)
    return [(site(r.side1, r.witness), site(r.side2, r.witness))
            for r in reports]


def identify(program: Program, trace: SyncTrace, report: RaceReport) -> tuple:
    """Returns (InstructionSite, InstructionSite), one per report side."""
    return identify_all(program, trace, [report])[0]
