"""Replay phase: re-execute a program under the recorded sync order.

Sync operations run one at a time in Lamport's total order: by recorded
timestamp, equal timestamps by ascending thread id. That order is total,
so replay needs no scheduler and draws no random values. One sequential
driver takes the smallest unexecuted (timestamp, thread id) pair, runs
that thread's gate op, then runs the thread's memory and register
operations up to its next gate op. Main's operations before its first
gate op run first. Once every recorded pair has run, each thread's
unjoined EXIT runs, in thread-id order. The op semantics are the
machine's own (``Machine._plain`` and ``Machine._step``); the driver only
chooses the order, so every replay of a trace is the same.

The plain operations run eagerly, as soon as the sync order lets their
thread run. Each thread thus makes its last access, and leaves the
detector's discard horizon, at the earliest point the sync order allows:
no segment stays live because a thread's last accesses wait to be
scheduled.

The verdict is DIVERGED when the op at the smallest pair cannot complete
(the detail names its thread, recorded stamp and the reason it blocks),
when that thread has no sync op left to run, or when a thread reaches a
sync op past its recorded count. Observers see every event and may stop
the run early; an observer stop is reported as STOPPED and is not a
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Callable, Optional

from .errors import MismatchError
from .machine import (_EXIT, _EXITED, _NEW, _PLAIN_OPS, _READY, Event,
                      EventKind, Machine)
from .program import MAIN_THREAD, Program
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


class _ReplayHooks:
    """The replay gate: sync ops run one at a time in (stamp, tid) order.

    This is Lamport's total order: the recorded stamps, ties broken by
    thread id. The driver asks ``permits`` before each op that emits a
    SYNC event, so each question is about the thread's next recorded
    stamp. A thread past its recorded sync count is refused for good.

    The gate keeps O(threads) state: a heap of each thread's next
    ``(stamp, tid)``, packed as the int ``stamp * n + tid``. Each thread's
    stamps strictly increase, as record writes them and the trace decoder
    demands, and ``tid < n``, so the ints order as the pairs do. The heap
    top is the smallest unexecuted pair, and its thread is the frontier.
    Only the frontier thread may run its op; its SYNC event replaces the
    top by the thread's next pair, or pops it when the thread has none.

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
        self.over_budget: set[int] = set()

    def permits(self, machine: Machine, tid: int) -> bool:
        if self.done[tid] >= len(self.stamps[tid]):
            self.over_budget.add(tid)
            return False
        # The thread's next pair is in the heap, so the heap has a top.
        return self.heads[0] % self.n == tid

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
        if self.observer is not None:
            return self.observer(machine, event)
        return None

    def unexecuted(self) -> int:
        return sum(map(len, self.stamps)) - sum(self.done)


def _emits_sync(machine: Machine, tid: int) -> bool:
    """Whether the live thread's next op emits a SYNC event: every gate op
    but an EXIT that no thread joins."""
    return (machine.code[tid][machine.pc[tid]][0] is not _EXIT
            or tid in machine.program.exit_obj)


def _stall(machine: Machine, hooks: _ReplayHooks, tid: int):
    """None if the frontier thread can run its next op now, else why not."""
    status = machine.status[tid]
    if status is _NEW:
        return "not created"
    if status is _EXITED or not _emits_sync(machine, tid):
        return (f"no sync op left ({hooks.unexecuted()} recorded sync ops "
                f"never executed)")
    if not hooks.permits(machine, tid):
        return "past its recorded sync count"
    return machine._block_reason(tid)


def _past_count(machine: Machine, hooks: _ReplayHooks) -> str:
    """Asks the gate about every live thread at a SYNC-emitting op and
    names those past their recorded sync count, or returns ""."""
    for tid, status in enumerate(machine.status):
        if status is _READY and _emits_sync(machine, tid):
            hooks.permits(machine, tid)
    if not hooks.over_budget:
        return ""
    who = ", ".join(str(t) for t in sorted(hooks.over_budget))
    return f"threads past recorded sync count: {who}"


def replay_execution(program: Program, trace: SyncTrace,
                     observer: Optional[Callable] = None,
                     replay_seed: int = 0) -> ReplayResult:
    """Drive an execution equivalent to the recorded one.

    ``observer(machine, event)`` is called for every event (memory events
    included); returning truthy stops the run. ``replay_seed`` is ignored:
    replay draws no random values, and the keyword stays only because
    ``perfbench/tracing.py`` passes it.
    """
    if trace.digest != program.digest():
        raise MismatchError("trace does not match program (digest mismatch)")
    if trace.n_threads != program.n_threads:
        raise MismatchError("trace thread count does not match program")
    hooks = _ReplayHooks(trace.stamps, observer)
    machine = Machine(program, 0, None)
    code, pc, memory = machine.code, machine.pc, machine.memory
    plain, step = machine._plain, machine._step
    on_event, heads = hooks.on_event, hooks.heads
    n = program.n_threads
    seq = steps = 0
    tid = MAIN_THREAD
    while True:
        # The thread's plain ops, up to its next gate op.
        body = code[tid]
        while body[pc[tid]][0] in _PLAIN_OPS:
            steps += 1
            ev = plain(tid, seq)
            if ev is not None:
                seq += 1
                if on_event(machine, ev):
                    return ReplayResult(STOPPED, memory, steps)
        if not heads:
            break
        stamp, tid = divmod(heads[0], n)
        why = _stall(machine, hooks, tid)
        if why is not None:
            past = _past_count(machine, hooks)
            return ReplayResult(
                DIVERGED, memory, steps,
                detail=f"thread {tid} stuck at recorded stamp {stamp}: {why}"
                + (f"; {past}" if past else ""))
        steps += 1
        ev = step(tid, code[tid][pc[tid]], seq)
        seq += 1
        if on_event(machine, ev):
            return ReplayResult(STOPPED, memory, steps)
    # Every recorded op has run. What is left is each thread's unjoined
    # EXIT; a thread at any other gate op is past its recorded count.
    past = _past_count(machine, hooks)
    if past:
        return ReplayResult(DIVERGED, memory, steps, detail=past)
    for tid, status in enumerate(machine.status):
        if status is _READY:
            steps += 1
            step(tid, code[tid][pc[tid]], seq)
    return ReplayResult(OK, memory, steps)
