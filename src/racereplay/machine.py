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

Runnable state is kept as thread-id bitmasks (Python ints, bit t for
thread t) and changed only by gate steps (a START, a sync op or an EXIT)
and by a plain step that brings its thread to a gate op.
Every thread whose next op waits on an object (LOCK on a mutex, SEM_WAIT
on a semaphore, JOIN on a thread's exit object) is filed in that object's
waiter mask, and ``blocked`` holds the waiters of objects that cannot be
taken now. A gate step is one mask operation on its object's waiters:
LOCK blocks them all, UNLOCK frees them, a semaphore count going from 1
to 0 blocks them and from 0 to 1 frees them, and a joined thread's EXIT
frees its joiners. A step thus costs O(1) mask operations plus one hooks
call per thread it releases. The draw indexes ``ids``, the set bits of
the runnable mask in ascending order, built again in O(k) only when the
mask changes, so a step between plain ops draws in O(1). Three arguments
make the runnable mask the set a full recomputation would give at every
step:

* A whole group of waiters changes state at once. Whether a waiter can
  take its object depends only on the object (owner, count, target's
  status), never on the waiter, so all of an object's waiters block and
  unblock together, and only a gate step on that object changes them. A
  plain step (LOAD, STORE, ADDI, SET) never blocks and changes no state
  that blocking reads.
* The hooks are first asked at the first point the thread can run at
  its op: when it reaches a gate op that is not blocked, or when its
  object frees. That is where a full recomputation would first ask them,
  so a hook with side effects on its first refusal (the replay gate's
  over-budget set) sees the same threads. Plain ops are never vetoed.
* The gate is monotone. An answer is kept for the thread's current op.
  A True answer stays True until the thread steps; a False answer may
  turn True only after a gate step, and only for the threads that
  ``ExecutionHooks.recheck`` names, which are asked again then. The
  default names every refused thread.
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

        Asked only when the next step is a gate step (a START, a sync op
        or an EXIT), first at the first point the thread can run there:
        when it reaches the op with its object free, or when the object
        frees. The machine keeps the answer for that op. True is final
        until the thread steps. False is asked again only after a gate
        step, and only if ``recheck`` names the thread; so an answer may
        turn from False to True only through state that gate steps change.
        """
        return True

    def recheck(self, machine: "Machine", vetoed: int) -> int:
        """Bitmask of the vetoed threads to ask again after a gate step.

        ``vetoed`` has bit ``t`` set for each thread refused at its current
        op. Naming all of them is always correct; a hooks class that knows
        which refusals the last step can have lifted may name only those.
        """
        return vetoed

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
        # Thread-id bitmasks; see the module docstring.
        self.waiters: dict[int, int] = {}  # object id -> threads waiting on it
        self.blocked = 0    # waiting on an object that cannot be taken now
        self.permitted = 0  # at a plain op, or the hooks allowed the current op
        self.vetoed = 0     # the hooks refused the current op

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

    def _ask(self, mask: int):
        """Ask the hooks about each thread in the mask, which can all run now."""
        hooks = self.hooks
        if hooks is None:
            self.permitted |= mask
            return
        while mask:
            low = mask & -mask
            mask ^= low
            if hooks.permits(self, low.bit_length() - 1):
                self.permitted |= low
            else:
                self.vetoed |= low

    def _arrive(self, tid: int):
        """Enter the thread's next op: file it under its object, ask the hooks."""
        bit = 1 << tid
        self.permitted &= ~bit
        if not self.needs_start[tid]:
            ins = self.program.threads[tid][self.pc[tid]]
            op = ins.op
            if op is Op.LOCK:
                obj, free = ins.a, self.mutex_owner[ins.a] is None
            elif op is Op.SEM_WAIT:
                obj, free = ins.a, self.sem_count[ins.a] > 0
            elif op is Op.JOIN:
                obj = self.program.exit_obj[ins.a]
                free = self.status[ins.a] is _Status.EXITED
            elif op in _PLAIN_OPS:
                self.permitted |= bit
                return
            else:
                obj = None
            if obj is not None:
                self.waiters[obj] = self.waiters.get(obj, 0) | bit
                if not free:
                    self.blocked |= bit
                    return
        self._ask(bit)

    def _release(self, obj: int) -> int:
        """Unblock the object's waiters; returns those not yet asked."""
        freed = self.waiters.get(obj, 0)
        self.blocked &= ~freed
        return freed & ~self.permitted & ~self.vetoed

    def _after_gate(self, tid: int, ins) -> None:
        """Update the masks after a START (``ins`` None), sync op or EXIT step."""
        bit = 1 << tid
        waiters = self.waiters
        ask = 0
        if ins is not None:
            op, a = ins.op, ins.a
            if op is Op.LOCK:
                waiters[a] &= ~bit
                self.blocked |= waiters[a]
            elif op is Op.UNLOCK:
                ask = self._release(a)
            elif op is Op.SEM_WAIT:
                waiters[a] &= ~bit
                if self.sem_count[a] == 0:
                    self.blocked |= waiters[a]
            elif op is Op.SEM_POST:
                if self.sem_count[a] == 1:
                    ask = self._release(a)
            elif op is Op.JOIN:
                waiters[self.program.exit_obj[a]] &= ~bit
            elif op is Op.EXIT:
                self.permitted &= ~bit
                if tid in self.program.join_targets:
                    ask = self._release(self.program.exit_obj[tid])
        if self.hooks is not None and self.vetoed:
            again = self.hooks.recheck(self, self.vetoed) & self.vetoed
            self.vetoed &= ~again
            ask |= again & ~self.blocked
        if ask:
            self._ask(ask)
        if ins is not None and ins.op is Op.CREATE:
            self._arrive(ins.a)
        # The thread just ran, so it is permitted: a plain next op keeps it so.
        if self.status[tid] is not _Status.EXITED and \
                self.program.threads[tid][self.pc[tid]].op not in _PLAIN_OPS:
            self._arrive(tid)

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
        self._arrive(MAIN_THREAD)
        runnable = self.permitted & ~self.blocked
        ids = _bit_ids(runnable)
        while live:
            if not ids:
                raise DeadlockError(self._blocked_report(), self.events,
                                    self.memory, self.steps)
            self._rng, draw = splitmix64(self._rng)
            tid = ids[draw % len(ids)]
            self.steps += 1
            if needs_start[tid]:
                ins = None
            else:
                ins = threads[tid][pc[tid]]
                if ins.op in _PLAIN_OPS:
                    if self._step(tid):
                        return RunResult(self.memory, self.events, self.steps, stopped=True)
                    if threads[tid][pc[tid]].op not in _PLAIN_OPS:
                        self._arrive(tid)
                        now = self.permitted & ~self.blocked
                        if now != runnable:
                            runnable, ids = now, _bit_ids(now)
                    continue
            if self._step(tid):
                return RunResult(self.memory, self.events, self.steps, stopped=True)
            if self.status[tid] is _Status.EXITED:
                live -= 1
            self._after_gate(tid, ins)
            now = self.permitted & ~self.blocked
            if now != runnable:
                runnable, ids = now, _bit_ids(now)
        return RunResult(self.memory, self.events, self.steps)


def _bit_ids(mask: int) -> list:
    """The set bits of a thread-id mask as ascending thread ids."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def run(program: Program, seed: int, hooks: Optional[ExecutionHooks] = None) -> RunResult:
    """Execute a program to completion under the seeded scheduler."""
    return Machine(program, seed, hooks).run()
