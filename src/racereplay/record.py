"""Record phase: run a program once and trace its synchronisation order.

Only sync operations are traced. Each gets a scalar timestamp of
max(thread clock, object clock) + 1, advancing both chains, so the trace
captures the partial order of the execution in one strictly increasing
run per thread. Memory operations are not traced in this phase, and the
timestamps are assigned from the finished event stream, so recording
cannot perturb the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clocks import lamport_advance
from .machine import EventKind, run
from .program import Program
from .tracefile import SyncTrace

_SYNC_EVENT = EventKind.SYNC


@dataclass
class RecordResult:
    trace: SyncTrace
    memory: dict
    events: list
    steps: int

    @property
    def sync_ops(self) -> int:
        return self.trace.total_ops


def assign_timestamps(events, n_threads: int, n_objects: int):
    """Scalar timestamps for every SYNC event, grouped per thread."""
    thread_ts = [0] * n_threads
    object_ts = [0] * n_objects
    stamps = [[] for _ in range(n_threads)]
    for ev in events:
        if ev.kind is not _SYNC_EVENT:
            continue
        ts = lamport_advance(thread_ts[ev.tid], object_ts[ev.obj])
        thread_ts[ev.tid] = ts
        object_ts[ev.obj] = ts
        stamps[ev.tid].append(ts)
    return stamps


def record_execution(program: Program, seed: int) -> RecordResult:
    """Run under the given seed and produce the sync trace."""
    result = run(program, seed)
    stamps = assign_timestamps(result.events, program.n_threads, program.n_objects)
    trace = SyncTrace(seed=seed, digest=program.digest(), stamps=stamps)
    return RecordResult(trace=trace, memory=result.memory,
                        events=result.events, steps=result.steps)
