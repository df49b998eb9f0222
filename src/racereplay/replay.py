"""Replay phase: re-execute a program under the recorded sync order.

Sync operations run one at a time in Lamport's total order: by recorded
timestamp, equal timestamps by ascending thread id. A thread whose next
step is a sync op is stalled until it holds the smallest unexecuted
(timestamp, thread id) pair, so the sync order of a replay does not
depend on the replay seed. Memory and register operations are never
stalled; the machine scheduler, seeded with the replay seed, interleaves
them, so replays are deterministic.

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
    """The replay gate: sync ops run one at a time in (stamp, tid) order.

    This is Lamport's total order: the recorded stamps, ties broken by
    thread id. The machine asks only about gate ops that emit a SYNC
    event, so each question is about the thread's next recorded stamp. A
    thread past its recorded sync count is refused for good.

    The gate keeps O(threads) state: a heap of each thread's next
    ``(stamp, tid)``, packed as the int ``stamp * n + tid``. Each thread's
    stamps strictly increase, as record writes them and the trace decoder
    demands, and ``tid < n``, so the ints order as the pairs do. The heap
    top is the smallest unexecuted pair, and ``frontier`` is its thread
    (None once every stamp has executed). Only the frontier thread may run
    its op; its SYNC event replaces the top by the thread's next pair, or
    pops it when the thread has none. The frontier moves only there, and
    the machine calls ``recheck`` after every gate step while any thread is
    refused, so handing back the frontier's bit alone is enough.

    Under an honest trace the frontier op can always complete: every op it
    waits on has a smaller stamp, so it has already run.
    """

    def __init__(self, stamps, observer):
        self.stamps = stamps
        self.observer = observer
        self.n = n = len(stamps)
        self.done = [0] * n  # sync ops executed per thread
        self.heads = [per_thread[0] * n + tid
                      for tid, per_thread in enumerate(stamps) if per_thread]
        heapify(self.heads)
        self.frontier = self.heads[0] % n if self.heads else None
        self.over_budget: set[int] = set()

    def permits(self, machine: Machine, tid: int) -> bool:
        if self.done[tid] >= len(self.stamps[tid]):
            self.over_budget.add(tid)
            return False
        return tid == self.frontier

    def recheck(self, machine: Machine, vetoed: int) -> int:
        """The frontier thread, if it was refused."""
        frontier = self.frontier
        return 0 if frontier is None else vetoed & (1 << frontier)

    def on_event(self, machine: Machine, event: Event):
        if event.kind is _SYNC_EVENT:
            tid = event.tid
            stamps = self.stamps[tid]
            k = self.done[tid] = self.done[tid] + 1
            heads = self.heads
            if k < len(stamps):
                heapreplace(heads, stamps[k] * self.n + tid)
            else:
                heappop(heads)
            self.frontier = heads[0] % self.n if heads else None
        if self.observer is not None:
            return self.observer(machine, event)
        return None

    def unexecuted(self) -> int:
        return sum(map(len, self.stamps)) - sum(self.done)


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
