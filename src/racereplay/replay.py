"""Replay phase: re-execute a program under the recorded sync order.

A thread whose next step is a synchronisation operation is stalled until
every recorded sync op with a smaller timestamp has executed; equal
timestamps may run in any order. Memory and register operations are never
stalled. Tie-breaking among simultaneously eligible threads uses the
machine scheduler with a fixed replay seed, so replays are deterministic.

The verdict is DIVERGED when a thread attempts more sync ops than were
recorded, when the machine gets stuck (a sync op stalls forever), or when
the run ends with recorded ops unexecuted. Observers see every event and
may stop the run early; an observer stop is reported as STOPPED and is
not a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Callable, Optional

from .errors import DeadlockError, MismatchError
from .machine import Event, EventKind, ExecutionHooks, Machine
from .program import Program
from .tracefile import SyncTrace

OK = "OK"
DIVERGED = "DIVERGED"
STOPPED = "STOPPED"

_SYNC_EVENT = EventKind.SYNC


@dataclass
class ReplayResult:
    verdict: str
    memory: dict
    steps: int
    detail: str = ""


class _ReplayHooks(ExecutionHooks):
    """The replay gate: a sync op runs once no smaller stamp is unexecuted.

    The machine asks only about gate ops that emit a SYNC event, so each
    question is about the thread's next recorded stamp. A thread past its
    recorded sync count is refused for good. The frontier is the smallest
    unexecuted stamp. The thread's stamp is unexecuted, so it is never
    below the frontier, and the op may run exactly when the two are equal.
    A refused thread is parked under its stamp, and ``recheck`` hands back
    the threads parked at the frontier's stamp. That one stamp is enough:
    a parked stamp is unexecuted, so the frontier never passes it, and the
    thread's next stamp changes only when the thread itself executes a
    sync op. The frontier moves only at a SYNC event, and the machine
    calls ``recheck`` after every gate step while any thread is refused,
    so each parked thread is handed back at the first recheck that finds
    the frontier at its stamp.

    The gate keeps O(threads) state: a heap of the threads' next stamps,
    their heads. This needs each thread's stamps to strictly increase, as
    record writes them and the trace decoder demands; then a thread's head
    is its smallest unexecuted stamp, and the frontier is the smallest
    head, the heap's top (None once every stamp has executed). An op is
    permitted only at the frontier's stamp, so a SYNC event executes a
    head equal to the top, and the top is replaced by that thread's next
    stamp, or popped when the thread has none.
    """

    def __init__(self, stamps, observer):
        self.stamps = stamps
        self.observer = observer
        self.done = [0] * len(stamps)  # sync ops executed per thread
        self.total = sum(map(len, stamps))
        self.heads = [per_thread[0] for per_thread in stamps if per_thread]
        heapify(self.heads)
        self.frontier = self.heads[0] if self.heads else None
        self.over_budget: set[int] = set()
        self.parked: dict[int, int] = {}  # stamp -> threads refused at it

    def permits(self, machine: Machine, tid: int) -> bool:
        k = self.done[tid]
        if k >= len(self.stamps[tid]):
            self.over_budget.add(tid)
            return False
        stamp = self.stamps[tid][k]
        if stamp == self.frontier:
            return True
        self.parked[stamp] = self.parked.get(stamp, 0) | 1 << tid
        return False

    def recheck(self, machine: Machine, vetoed: int) -> int:
        """The threads parked at the frontier's stamp."""
        return self.parked.pop(self.frontier, 0)

    def on_event(self, machine: Machine, event: Event):
        if event.kind is _SYNC_EVENT:
            stamps = self.stamps[event.tid]
            k = self.done[event.tid] = self.done[event.tid] + 1
            heads = self.heads
            if k < len(stamps):
                heapreplace(heads, stamps[k])
            else:
                heappop(heads)
            self.frontier = heads[0] if heads else None
        if self.observer is not None:
            return self.observer(machine, event)
        return None

    def unexecuted(self) -> int:
        return self.total - sum(self.done)


def replay_execution(program: Program, trace: SyncTrace,
                     observer: Optional[Callable] = None,
                     replay_seed: int = 0) -> ReplayResult:
    """Drive an execution equivalent to the recorded one.

    ``observer(machine, event)`` is called for every event (memory events
    included); returning truthy stops the run.
    """
    if trace.digest != program.digest():
        raise MismatchError("trace does not match program (digest mismatch)")
    if trace.n_threads != program.n_threads:
        raise MismatchError("trace thread count does not match program")
    hooks = _ReplayHooks(trace.stamps, observer)
    machine = Machine(program, replay_seed, hooks)
    try:
        result = machine.run()
    except DeadlockError as dead:
        stuck = "; ".join(f"thread {tid}: {why}" for tid, why in dead.blocked)
        extra = ""
        if hooks.over_budget:
            who = ", ".join(str(t) for t in sorted(hooks.over_budget))
            extra = f" (threads past recorded sync count: {who})"
        return ReplayResult(DIVERGED, dead.memory, dead.steps,
                            detail=f"stuck: {stuck}{extra}")
    if result.stopped:
        return ReplayResult(STOPPED, result.memory, result.steps)
    left = hooks.unexecuted()
    if left:
        return ReplayResult(DIVERGED, result.memory, result.steps,
                            detail=f"{left} recorded sync ops never executed")
    return ReplayResult(OK, result.memory, result.steps)
