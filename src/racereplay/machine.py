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
* The hooks are asked only about gate ops that emit a SYNC event (a
  START, a sync op, a joined thread's EXIT), first at the first point the
  thread can run there: when it reaches the op with its object free, or
  when its object frees. That is where a full recomputation would first
  ask them, so a hook with side effects on its first refusal (the replay
  gate's over-budget set) sees the same threads. Plain ops and an EXIT
  that no thread joins are never vetoed.
* The gate is monotone. An answer is kept for the thread's current op.
  A True answer stays True until the thread steps; a False answer may
  turn True only after a gate step, and only for the threads that
  ``ExecutionHooks.recheck`` names, which are asked again then. The
  default names every refused thread.

Only a run without hooks keeps its events, in ``Machine.events`` and
``RunResult.events``; record's run is the one such run in the package. A
run with hooks keeps none: it passes each event to ``on_event``, and a
caller that needs the stream keeps it there.

``Machine.run`` is the one step loop. It inlines the splitmix64 draw and
runs plain steps itself, with the machine's state in local variables and
events built straight from tuples; only gate steps call out. ``_step``
applies the op's state change and its waiter-mask change and reports the
threads it frees; after ``on_event``, ``_after_gate`` asks the hooks about
those and the rechecked threads, and brings the thread to its next op.
With one runnable thread the draw's output is not mixed (any value mod 1
is 0), but the state still advances, so the generator state after ``s``
steps is ``seed + s * _GOLDEN`` mod 2**64 whichever threads ran. ``pc``,
``regs``, ``memory`` and ``status`` are current whenever a hook runs;
``steps`` and the generator state are written back when ``run`` returns
or raises.
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
    """One splitmix64 step: returns (next state, output value).

    ``Machine.run`` inlines this step; this function is the reference.
    """
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

# Enum members read once or more per step, bound as module globals: reading
# one through its class costs about four times a global lookup.
_LOAD, _STORE, _ADDI, _SET = Op.LOAD, Op.STORE, Op.ADDI, Op.SET
_LOCK, _UNLOCK, _SEM_WAIT, _SEM_POST = Op.LOCK, Op.UNLOCK, Op.SEM_WAIT, Op.SEM_POST
_CREATE, _JOIN, _EXIT = Op.CREATE, Op.JOIN, Op.EXIT
_LOAD_EVENT, _STORE_EVENT, _SYNC_EVENT = EventKind.LOAD, EventKind.STORE, EventKind.SYNC
_START_SYNC, _EXIT_SYNC = SyncKind.START, SyncKind.EXIT


class Event(NamedTuple):
    seq: int          # global sequence number, strictly increasing
    tid: int
    kind: EventKind
    addr: int         # -1 unless LOAD/STORE
    ordinal: int      # per-thread instruction index; -1 for START
    obj: int          # sync object id, -1 unless SYNC
    sync: int         # SyncKind value, -1 unless SYNC


# Builds an Event from a 7-tuple without the NamedTuple's Python-level __new__.
_new_tuple = tuple.__new__


class ExecutionHooks:
    """Observer/veto interface; the default implementation does nothing."""

    def permits(self, machine: "Machine", tid: int) -> bool:
        """Whether the thread, which can otherwise run, may take its next step.

        Asked only about gate ops that emit a SYNC event (a START, a sync
        op, a joined thread's EXIT), first at the first point the thread
        can run there: when it reaches the op with its object free, or
        when the object frees. The machine keeps the answer for that op.
        True is final until the thread steps. False is asked again only
        after a gate step, and only if ``recheck`` names the thread; so an
        answer may turn from False to True only through state that gate
        steps change.
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
        """Return a truthy value to stop execution after this event.

        A run with hooks keeps no events itself; keep here any it needs.
        """
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


_READY, _EXITED = _Status.READY, _Status.EXITED


class Machine:
    def __init__(self, program: Program, seed: int,
                 hooks: Optional[ExecutionHooks]):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.program = program
        self.hooks = hooks
        self._rng = seed
        n = program.n_threads
        self.status = [_Status.NEW] * n
        self.status[MAIN_THREAD] = _READY
        self.needs_start = [False] * n
        self.pc = [0] * n
        self.regs = [[0] * NUM_REGISTERS for _ in range(n)]
        self.memory = dict(program.initial_memory)
        self.mutex_owner = {oid: None for oid in program.mutexes.values()}
        self.sem_count = dict(program.sem_initials())
        self.events: list[Event] = []  # filled only in a run without hooks
        self.steps = 0
        # Thread-id bitmasks; see the module docstring.
        self.waiters: dict[int, int] = {}  # object id -> threads waiting on it
        self.blocked = 0    # waiting on an object that cannot be taken now
        self.permitted = 0  # at a plain op, or the hooks allowed the current op
        self.vetoed = 0     # the hooks refused the current op

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
            prog = self.program
            op, a, _ = prog.threads[tid][self.pc[tid]]
            if op is _LOCK:
                obj, free = a, self.mutex_owner[a] is None
            elif op is _SEM_WAIT:
                obj, free = a, self.sem_count[a] > 0
            elif op is _JOIN:
                obj, free = prog.exit_obj[a], self.status[a] is _EXITED
            elif op in _PLAIN_OPS or op is _EXIT and tid not in prog.join_targets:
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

    def _after_gate(self, tid: int, ask: int) -> None:
        """After a gate step's event: ask the hooks about the threads the
        step freed (``ask``) and those ``recheck`` names, then bring the
        thread to its next op."""
        vetoed = self.vetoed  # nonzero only in a run with hooks
        if vetoed:
            again = self.hooks.recheck(self, vetoed) & vetoed
            self.vetoed = vetoed & ~again
            ask |= again & ~self.blocked
        if ask:
            self._ask(ask)
        # The thread just ran, so it is permitted: a plain next op keeps it so.
        if self.status[tid] is not _EXITED and \
                self.program.threads[tid][self.pc[tid]][0] not in _PLAIN_OPS:
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

    def _step(self, tid: int, ins, seq: int):
        """Execute one gate step: START (``ins`` None), a sync op or EXIT.

        Plain steps run inline in ``run``. Applies the op's state change
        and its change to the waiter masks. Returns the step's SYNC event,
        numbered ``seq`` (None for an EXIT that no thread joins), and the
        threads the step frees that the hooks have not been asked about.
        """
        prog = self.program
        if ins is None:
            self.needs_start[tid] = False
            return _new_tuple(Event, (seq, tid, _SYNC_EVENT, -1, -1,
                                      prog.create_obj[tid], _START_SYNC)), 0
        op, obj, _ = ins
        bit = 1 << tid
        waiters = self.waiters
        ordinal = self.pc[tid]
        ask = 0
        if op is _LOCK:
            self.mutex_owner[obj] = tid
            waiters[obj] &= ~bit
            self.blocked |= waiters[obj]
        elif op is _UNLOCK:
            if self.mutex_owner[obj] != tid:
                raise MachineError(
                    f"thread {tid} unlocks {prog.obj_names[obj]} it does not hold")
            self.mutex_owner[obj] = None
            ask = self._release(obj)
        elif op is _SEM_WAIT:
            self.sem_count[obj] -= 1
            waiters[obj] &= ~bit
            if not self.sem_count[obj]:
                self.blocked |= waiters[obj]
        elif op is _SEM_POST:
            self.sem_count[obj] += 1
            if self.sem_count[obj] == 1:
                ask = self._release(obj)
        elif op is _CREATE:
            self.status[obj] = _READY
            self.needs_start[obj] = True
            ask = 1 << obj  # the new thread arrives at its START
            obj = prog.create_obj[obj]
        elif op is _JOIN:
            obj = prog.exit_obj[obj]
            waiters[obj] &= ~bit
        else:  # EXIT
            self.status[tid] = _EXITED
            self.permitted &= ~bit
            if tid not in prog.join_targets:
                return None, 0
            obj = prog.exit_obj[tid]
            return _new_tuple(Event, (seq, tid, _SYNC_EVENT, -1, ordinal, obj,
                                      _EXIT_SYNC)), self._release(obj)
        self.pc[tid] = ordinal + 1
        return _new_tuple(Event, (seq, tid, _SYNC_EVENT, -1, ordinal, obj,
                                  _OP_SYNC[op])), ask

    def run(self) -> RunResult:
        """Run to completion, a hook's stop request, or a deadlock.

        The fused step loop; see the module docstring.
        """
        threads, pc, regs = self.program.threads, self.pc, self.regs
        needs_start, memory, events = self.needs_start, self.memory, self.events
        append = events.append
        on_event = None if self.hooks is None else self.hooks.on_event
        live = sum(s is not _EXITED for s in self.status)
        self._arrive(MAIN_THREAD)
        runnable = self.permitted & ~self.blocked
        ids = _bit_ids(runnable)
        k = len(ids)
        rng, steps = self._rng, self.steps
        seq = 0
        try:
            while live:
                if not k:
                    raise DeadlockError(self._blocked_report(), memory, steps)
                rng = (rng + _GOLDEN) & MASK64  # splitmix64, inlined
                if k == 1:
                    tid = ids[0]
                else:
                    z = ((rng ^ (rng >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
                    tid = ids[(z ^ (z >> 31)) % k]
                steps += 1
                if needs_start[tid]:
                    op = ins = None
                else:
                    body = threads[tid]
                    p = pc[tid]
                    op, a, b = ins = body[p]
                if op is _LOAD:
                    regs[tid][a] = memory.get(b, 0)
                    pc[tid] = p + 1
                    ev = _new_tuple(Event, (seq, tid, _LOAD_EVENT, b, p, -1, -1))
                    seq += 1
                    if on_event is None:
                        append(ev)
                    elif on_event(self, ev):
                        return RunResult(memory, events, steps, stopped=True)
                elif op is _STORE:
                    memory[b] = regs[tid][a]
                    pc[tid] = p + 1
                    ev = _new_tuple(Event, (seq, tid, _STORE_EVENT, b, p, -1, -1))
                    seq += 1
                    if on_event is None:
                        append(ev)
                    elif on_event(self, ev):
                        return RunResult(memory, events, steps, stopped=True)
                elif op is _ADDI:
                    r = regs[tid]
                    r[a] = (r[a] + b) & WORD_MASK
                    pc[tid] = p + 1
                elif op is _SET:
                    regs[tid][a] = b & WORD_MASK
                    pc[tid] = p + 1
                else:
                    ev, ask = self._step(tid, ins, seq)
                    if ev is not None:
                        seq += 1
                        if on_event is None:
                            append(ev)
                        elif on_event(self, ev):
                            return RunResult(memory, events, steps, stopped=True)
                    if op is _EXIT:
                        live -= 1
                    self._after_gate(tid, ask)
                    now = self.permitted & ~self.blocked
                    if now != runnable:
                        runnable = now
                        ids = _bit_ids(now)
                        k = len(ids)
                    continue
                # A plain step changes the runnable mask only when it brings
                # its thread to a gate op.
                if body[p + 1][0] not in _PLAIN_OPS:
                    self._arrive(tid)
                    now = self.permitted & ~self.blocked
                    if now != runnable:
                        runnable = now
                        ids = _bit_ids(now)
                        k = len(ids)
            return RunResult(memory, events, steps)
        finally:
            self._rng, self.steps = rng, steps


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
