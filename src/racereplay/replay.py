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

Before anything runs, each thread's recorded sync-op count is checked
against ``Program.static_sync_counts()``, which is exact for a complete
run because bodies are straight-line code. A trace whose counts differ is
DIVERGED at once, with no step run. With the counts equal, the driver
needs no budget of its own. A live thread is always at a gate op, and
while a thread has done fewer sync ops than its count, that gate op
emits one. So the thread at the smallest pair always has its op left:
the op either completes, or the thread is not yet created, or the op
blocks (``_block_reason``), and each refusal is DIVERGED with the
thread, its recorded stamp and that reason in the detail. Once every
pair has run, every thread has run all its sync ops, and each live
thread is at an EXIT that no thread joins.

Observers see every event and may stop the run early; an observer stop
is reported as STOPPED and is not a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Callable, Optional

from .errors import MismatchError
from .machine import _NEW, _READY, Event, Machine
from .program import MAIN_THREAD, PLAIN_OPS, Program
from .tracefile import SyncTrace

OK = "OK"
DIVERGED = "DIVERGED"
STOPPED = "STOPPED"


@dataclass
class ReplayResult:
    verdict: str
    memory: dict
    steps: int
    detail: str = ""


class _ReplayHooks:
    """The replay gate: sync ops run one at a time in (stamp, tid) order.

    This is Lamport's total order: the recorded stamps, ties broken by
    thread id. The gate keeps O(threads) state: a heap of each thread's
    next ``(stamp, tid)``, packed as the int ``stamp * n + tid``. Each
    thread's stamps strictly increase, as record writes them and the trace
    decoder demands, and ``tid < n``, so the ints order as the pairs do.
    The heap top is the smallest unexecuted pair, and its thread is the
    frontier. The driver asks ``permits`` once before each frontier op and
    hands the gate the op's SYNC event, which replaces the top by the
    thread's next pair, or pops it when the thread has none.

    Under an honest trace the frontier op can always complete: every op it
    waits on has a smaller stamp, so it has already run.
    """

    def __init__(self, stamps):
        self.stamps = stamps
        self.n = n = len(stamps)
        self.done = [0] * n  # sync ops executed per thread
        self.heads = [per_thread[0] * n + tid
                      for tid, per_thread in enumerate(stamps) if per_thread]
        heapify(self.heads)

    def permits(self, machine: Machine, tid: int) -> bool:
        """Whether the frontier thread's next op can run now: the thread is
        created and the op does not block."""
        return (machine.status[tid] is not _NEW
                and machine._block_reason(tid) is None)

    def on_event(self, machine: Machine, event: Event):
        """Advance the heap past the frontier's SYNC event."""
        tid = event.tid
        stamps = self.stamps[tid]
        k = self.done[tid] = self.done[tid] + 1
        if k < len(stamps):
            heapreplace(self.heads, stamps[k] * self.n + tid)
        else:
            heappop(self.heads)


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
    # The up-front count check: see the module docstring.
    for tid, (stamps, want) in enumerate(zip(trace.stamps,
                                             program.static_sync_counts())):
        if len(stamps) != want:
            return ReplayResult(
                DIVERGED, dict(program.initial_memory), 0,
                detail=f"thread {tid} has a recorded sync op count of "
                f"{len(stamps)}; the program makes {want}")
    gate = _ReplayHooks(trace.stamps)
    machine = Machine(program, 0, None)
    code, pc, memory = machine.code, machine.pc, machine.memory
    plain, step = machine._plain, machine._step
    permits, advance, heads = gate.permits, gate.on_event, gate.heads
    n = program.n_threads
    seq = steps = 0
    tid = MAIN_THREAD
    while True:
        # The thread's plain ops, up to its next gate op.
        body = code[tid]
        while body[pc[tid]][0] in PLAIN_OPS:
            steps += 1
            ev = plain(tid, seq)
            if ev is not None:
                seq += 1
                if observer is not None and observer(machine, ev):
                    return ReplayResult(STOPPED, memory, steps)
        if not heads:
            break
        stamp, tid = divmod(heads[0], n)
        if not permits(machine, tid):
            why = ("not created" if machine.status[tid] is _NEW
                   else machine._block_reason(tid))
            return ReplayResult(
                DIVERGED, memory, steps,
                detail=f"thread {tid} stuck at recorded stamp {stamp}: {why}")
        steps += 1
        ev = step(tid, code[tid][pc[tid]], seq)
        seq += 1
        advance(machine, ev)
        if observer is not None and observer(machine, ev):
            return ReplayResult(STOPPED, memory, steps)
    # Every recorded op has run; what is left is each thread's unjoined EXIT.
    for tid, status in enumerate(machine.status):
        if status is _READY:
            steps += 1
            step(tid, code[tid][pc[tid]], seq)
    return ReplayResult(OK, memory, steps)
