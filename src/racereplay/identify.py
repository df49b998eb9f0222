"""Identification phase: locate the racing instructions.

Detection stores only addresses, so a report names the racing segments and
the conflicting address but not the instructions. This phase replays the
same trace with the same tie-breaking seed (replays are deterministic, so
the prefix up to the race repeats exactly), runs without any per-access
bookkeeping outside the two reported segments, and inside them records
every access to the smallest witness address, the report's ``witness``.
The answer is the first recorded access in each segment's own program
order whose access type matches the type in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detector import RaceReport
from .errors import IdentifyError
from .machine import EventKind
from .program import Program
from .replay import DIVERGED, replay_execution
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
    def __init__(self, report: RaceReport):
        self.targets = {(report.side1.tid, report.side1.segment): [],
                        (report.side2.tid, report.side2.segment): []}
        self.witness = report.witness
        self.counts: dict[int, int] = {}
        self.open: dict[int, bool] = {}
        self.closed_targets = 0

    def __call__(self, machine, event) -> bool:
        tid = event.tid
        if event.kind is _SYNC_EVENT:
            if self.open.pop(tid, False):
                if (tid, self.counts.get(tid, 0)) in self.targets:
                    self.closed_targets += 1
                    if self.closed_targets == len(self.targets):
                        return True  # both segments scanned; stop replaying
                self.counts[tid] = self.counts.get(tid, 0) + 1
            return False
        self.open[tid] = True
        key = (tid, self.counts.get(tid, 0))
        if key in self.targets and event.addr == self.witness:
            kind = "store" if event.kind is _STORE_EVENT else "load"
            self.targets[key].append((event.ordinal, kind))
        return False


def identify(program: Program, trace: SyncTrace, report: RaceReport,
             replay_seed: int = 0) -> tuple:
    """Returns (InstructionSite, InstructionSite), one per report side.

    Raises ``MismatchError`` from the replay when the trace is not this
    program's.
    """
    collector = _Collector(report)
    result = replay_execution(program, trace, observer=collector,
                              replay_seed=replay_seed)
    if collector.closed_targets < len(collector.targets) and result.verdict == DIVERGED:
        raise IdentifyError(f"replay diverged before the reported segments "
                            f"({result.detail})")
    w = report.witness
    sites = []
    for side in (report.side1, report.side2):
        accesses = collector.targets.get((side.tid, side.segment), [])
        match = next(((o, k) for o, k in accesses if k == side.kind), None)
        if match is None:
            raise IdentifyError(
                f"no {side.kind} of 0x{w:08X} found in thread {side.tid} "
                f"segment {side.segment}; report does not match this trace")
        sites.append(InstructionSite(side.tid, match[0], match[1], w))
    return tuple(sites)
