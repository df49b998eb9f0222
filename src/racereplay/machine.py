"""Deterministic seeded execution of simulated thread programs.

Scheduling draws one value per step from a splitmix64 sequence and picks
uniformly (value mod k) among the k runnable threads in ascending thread-id
order, so identical (program, seed, hooks) triples produce bit-identical
event streams. A thread is runnable when it has been started, has not
exited, its next operation can complete now (mutex free, semaphore
positive, join target exited) and the hooks do not veto it.

Thread start is an explicit synchronisation step: the first time a created
thread is scheduled it performs a START handshake on its creation object
before executing instruction 0. EXIT performs the matching handshake on
the thread's exit object, but only for threads some JOIN targets;
untargeted exits (typically main's) emit no event.

The runnable list is kept from one step to the next. It is recomputed over
all threads only after a gate step: a START, a sync op or an EXIT. After a
plain step (LOAD, STORE, ADDI, SET) only the stepping thread is re-checked,
and only if its next op is now a gate op; otherwise the list is reused as
is. This is exact: a plain step changes only memory, registers and the
stepping thread's pc, while blocking depends only on mutex owners,
semaphore counts and thread status, which only gate steps change. A plain
op never blocks, and the hooks contract (``ExecutionHooks.permits``) lets
an answer change only at the same points. So the list, and hence the
draw, is the one a full recomputation would give at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

from .errors import DeadlockError, MachineError
from .program import MAIN_THREAD, NUM_REGISTERS, WORD_MASK, Op, Program

MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next state, output value)."""
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class EventKind(IntEnum):
    LOAD = 0
    STORE = 1
    SYNC = 2


class SyncKind(IntEnum):
    LOCK = 0
    UNLOCK = 1
    SEM_WAIT = 2
    SEM_POST = 3
    CREATE = 4
    JOIN = 5
    START = 6
    EXIT = 7


# Acquire-like ops receive ordering from the object; release-like publish to it.
ACQUIRE_KINDS = frozenset((SyncKind.LOCK, SyncKind.SEM_WAIT, SyncKind.JOIN, SyncKind.START))
RELEASE_KINDS = frozenset((SyncKind.UNLOCK, SyncKind.SEM_POST, SyncKind.CREATE, SyncKind.EXIT))

# Ops that never block and change no state another thread's runnability reads.
_PLAIN_OPS = frozenset((Op.LOAD, Op.STORE, Op.ADDI, Op.SET))

_OP_SYNC = {
    Op.LOCK: SyncKind.LOCK,
    Op.UNLOCK: SyncKind.UNLOCK,
    Op.SEM_WAIT: SyncKind.SEM_WAIT,
    Op.SEM_POST: SyncKind.SEM_POST,
    Op.CREATE: SyncKind.CREATE,
    Op.JOIN: SyncKind.JOIN,
}


class Event(NamedTuple):
    seq: int          # global sequence number, strictly increasing
    tid: int
    kind: EventKind
    addr: int         # -1 unless LOAD/STORE
    ordinal: int      # per-thread instruction index; -1 for START
    obj: int          # sync object id, -1 unless SYNC
    sync: int         # SyncKind value, -1 unless SYNC


class ExecutionHooks:
    """Observer/veto interface; the default implementation does nothing."""

    def permits(self, machine: "Machine", tid: int) -> bool:
        """Whether the thread, which can otherwise run, may take its next step.

        The machine caches the answer. It asks again for every thread after
        a step that was a START, a sync op or an EXIT, and for the stepping
        thread after a plain step that leaves it before a sync op or EXIT.
        So the answer may change only at those points: it may depend on the
        thread's next op and on state that only those steps change.
        """
        return True

    def on_event(self, machine: "Machine", event: Event):
        """Return a truthy value to stop execution after this event."""
        return None


@dataclass
class RunResult:
    memory: dict
    events: list
    steps: int
    stopped: bool = False


class _Status(IntEnum):
    NEW = 0
    READY = 1
    EXITED = 2


class Machine:
    def __init__(self, program: Program, seed: int, hooks: Optional[ExecutionHooks] = None):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.program = program
        self.hooks = hooks
        self._rng = seed
        n = program.n_threads
        self.status = [_Status.NEW] * n
        self.status[MAIN_THREAD] = _Status.READY
        self.needs_start = [False] * n
        self.pc = [0] * n
        self.regs = [[0] * NUM_REGISTERS for _ in range(n)]
        self.memory = dict(program.initial_memory)
        self.mutex_owner = {oid: None for oid in program.mutexes.values()}
        self.sem_count = dict(program.sem_initials())
        self.sync_done = [0] * n  # sync events emitted per thread
        self.events: list[Event] = []
        self.steps = 0

    # -- introspection used by replay hooks ---------------------------------

    def next_sync(self, tid: int):
        """(SyncKind, object id) if the thread's next step is a sync op, else None."""
        if self.needs_start[tid]:
            return SyncKind.START, self.program.create_obj[tid]
        ins = self.program.threads[tid][self.pc[tid]]
        if ins.op is Op.EXIT:
            if tid in self.program.join_targets:
                return SyncKind.EXIT, self.program.exit_obj[tid]
            return None
        kind = _OP_SYNC.get(ins.op)
        if kind is None:
            return None
        if ins.op in (Op.CREATE, Op.JOIN):
            obj = (self.program.create_obj[ins.a] if ins.op is Op.CREATE
                   else self.program.exit_obj.get(ins.a, -1))
        else:
            obj = ins.a
        return kind, obj

    # -- scheduling ----------------------------------------------------------

    def _can_run(self, tid: int) -> bool:
        """Whether a READY thread's next op can complete now and the hooks permit it."""
        if not self.needs_start[tid]:
            ins = self.program.threads[tid][self.pc[tid]]
            op = ins.op
            if op is Op.LOCK:
                if self.mutex_owner[ins.a] is not None:
                    return False
            elif op is Op.SEM_WAIT:
                if self.sem_count[ins.a] <= 0:
                    return False
            elif op is Op.JOIN:
                if self.status[ins.a] is not _Status.EXITED:
                    return False
        return self.hooks is None or self.hooks.permits(self, tid)

    def _runnable(self):
        status = self.status
        return [tid for tid in range(self.program.n_threads)
                if status[tid] is _Status.READY and self._can_run(tid)]

    def _block_reason(self, tid: int):
        """None if the thread's next op can complete now, else a reason string."""
        if self.needs_start[tid]:
            return None
        ins = self.program.threads[tid][self.pc[tid]]
        if ins.op is Op.LOCK:
            owner = self.mutex_owner[ins.a]
            if owner is not None:
                who = "itself" if owner == tid else f"thread {owner}"
                return f"waiting for {self.program.obj_names[ins.a]} held by {who}"
        elif ins.op is Op.SEM_WAIT:
            if self.sem_count[ins.a] <= 0:
                return f"waiting on {self.program.obj_names[ins.a]} (count 0)"
        elif ins.op is Op.JOIN:
            if self.status[ins.a] is not _Status.EXITED:
                return f"joining thread {ins.a} (not exited)"
        return None

    def _blocked_report(self):
        blocked = []
        for tid in range(self.program.n_threads):
            if self.status[tid] is _Status.EXITED:
                continue
            if self.status[tid] is _Status.NEW:
                blocked.append((tid, "never created"))
                continue
            reason = self._block_reason(tid)
            if reason is None:
                blocked.append((tid, "stalled by scheduler hook"))
            else:
                blocked.append((tid, reason))
        return blocked

    # -- execution -----------------------------------------------------------

    def _emit(self, tid, kind, addr=-1, ordinal=-1, obj=-1, sync=-1):
        ev = Event(len(self.events), tid, kind, addr, ordinal, obj, sync)
        self.events.append(ev)
        if self.hooks is not None:
            return self.hooks.on_event(self, ev)
        return None

    def _step(self, tid: int):
        """Execute one step; returns truthy when a hook requested a stop."""
        prog = self.program
        if self.needs_start[tid]:
            self.needs_start[tid] = False
            self.sync_done[tid] += 1
            return self._emit(tid, EventKind.SYNC, obj=prog.create_obj[tid],
                              sync=SyncKind.START)
        pc = self.pc[tid]
        ins = prog.threads[tid][pc]
        op = ins.op
        if op is Op.LOAD:
            self.regs[tid][ins.a] = self.memory.get(ins.b, 0)
            self.pc[tid] = pc + 1
            return self._emit(tid, EventKind.LOAD, addr=ins.b, ordinal=pc)
        if op is Op.STORE:
            self.memory[ins.b] = self.regs[tid][ins.a]
            self.pc[tid] = pc + 1
            return self._emit(tid, EventKind.STORE, addr=ins.b, ordinal=pc)
        if op is Op.ADDI:
            self.regs[tid][ins.a] = (self.regs[tid][ins.a] + ins.b) & WORD_MASK
            self.pc[tid] = pc + 1
            return None
        if op is Op.SET:
            self.regs[tid][ins.a] = ins.b & WORD_MASK
            self.pc[tid] = pc + 1
            return None
        if op is Op.EXIT:
            self.status[tid] = _Status.EXITED
            if tid in prog.join_targets:
                self.sync_done[tid] += 1
                return self._emit(tid, EventKind.SYNC, ordinal=pc,
                                  obj=prog.exit_obj[tid], sync=SyncKind.EXIT)
            return None

        # Remaining ops are sync instructions with one event each.
        if op is Op.LOCK:
            self.mutex_owner[ins.a] = tid
            obj, sync = ins.a, SyncKind.LOCK
        elif op is Op.UNLOCK:
            if self.mutex_owner[ins.a] != tid:
                raise MachineError(
                    f"thread {tid} unlocks {prog.obj_names[ins.a]} it does not hold")
            self.mutex_owner[ins.a] = None
            obj, sync = ins.a, SyncKind.UNLOCK
        elif op is Op.SEM_WAIT:
            self.sem_count[ins.a] -= 1
            obj, sync = ins.a, SyncKind.SEM_WAIT
        elif op is Op.SEM_POST:
            self.sem_count[ins.a] += 1
            obj, sync = ins.a, SyncKind.SEM_POST
        elif op is Op.CREATE:
            self.status[ins.a] = _Status.READY
            self.needs_start[ins.a] = True
            obj, sync = prog.create_obj[ins.a], SyncKind.CREATE
        else:  # JOIN
            obj, sync = prog.exit_obj.get(ins.a, -1), SyncKind.JOIN
        self.pc[tid] = pc + 1
        self.sync_done[tid] += 1
        return self._emit(tid, EventKind.SYNC, ordinal=pc, obj=obj, sync=sync)

    def run(self) -> RunResult:
        threads, pc, needs_start = self.program.threads, self.pc, self.needs_start
        live = sum(s is not _Status.EXITED for s in self.status)
        runnable = self._runnable()
        while live:
            if not runnable:
                raise DeadlockError(self._blocked_report(), self.events,
                                    self.memory, self.steps)
            self._rng, draw = splitmix64(self._rng)
            tid = runnable[draw % len(runnable)]
            self.steps += 1
            plain = not needs_start[tid] and threads[tid][pc[tid]].op in _PLAIN_OPS
            if self._step(tid):
                return RunResult(self.memory, self.events, self.steps, stopped=True)
            if not plain:
                if self.status[tid] is _Status.EXITED:
                    live -= 1
                runnable = self._runnable()
            elif threads[tid][pc[tid]].op not in _PLAIN_OPS and not self._can_run(tid):
                runnable.remove(tid)
        return RunResult(self.memory, self.events, self.steps)


def run(program: Program, seed: int, hooks: Optional[ExecutionHooks] = None) -> RunResult:
    """Execute a program to completion under the seeded scheduler."""
    return Machine(program, seed, hooks).run()
