"""Deterministic seeded execution of simulated thread programs.

Scheduling draws one value per step from a splitmix64 sequence and picks
uniformly (value mod k) among the k runnable threads in ascending thread-id
order, so identical (program, seed, hooks) triples produce bit-identical
event streams. A thread is runnable when it has been created, has not
exited, its next operation can complete now and the hooks do not veto it.

Thread start is an explicit synchronisation step. The machine runs each
body with a private START pseudo-op appended after its EXIT, and a
created thread begins at pc -1, so its first step is a START handshake
on its creation object, an event with ordinal -1, before instruction 0.
EXIT performs the matching handshake on the thread's exit object, but
only for threads some JOIN targets; untargeted exits (typically main's)
emit no event.

Every sync object is a counter in ``count``, indexed by object id: a
mutex is 1 while free and 0 while held, a semaphore holds its count, and
a thread's exit object is 0 until the thread exits and 1 after. A wait
op (LOCK, SEM_WAIT, JOIN) can complete exactly when its object's count is
positive. LOCK and SEM_WAIT take one from the count; JOIN takes nothing,
so every joiner passes once its target has exited. UNLOCK and SEM_POST
add one, and a joined thread's EXIT sets its exit object to 1.
``mutex_owner`` serves only UNLOCK's check that the thread holds the
mutex and the holder named in a deadlock report.

Runnable state is kept as thread-id bitmasks (Python ints, bit t for
thread t) and changed only by gate steps (a START, a sync op or an EXIT)
and by a plain step that brings its thread to a gate op. Every thread
whose next op is a wait op is filed in its object's waiter mask, and
``blocked`` holds the waiters of objects whose count is 0. A gate step
is one mask operation on its object's waiters: a count going from 1 to 0
blocks them all and one going from 0 to 1 frees them. A step thus costs
O(1) mask operations plus one hooks call per thread it releases. The
draw indexes ``ids``, the set bits of the runnable mask in ascending
order, built again in O(k) only when the mask changes, so a step between
plain ops draws in O(1). Three arguments make the runnable mask the set
a full recomputation would give at every step:

* A whole group of waiters changes state at once. Whether a waiter can
  take its object depends only on the object's count, never on the
  waiter, so all of an object's waiters block and unblock together, and
  only a gate step on that object changes them. A plain step (LOAD,
  STORE, ADDI, SET) never blocks and changes no count.
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
# Ops that can complete only while their object's count is positive.
_WAIT_OPS = frozenset((Op.LOCK, Op.SEM_WAIT, Op.JOIN))

# The START pseudo-op appended to each body: distinct from every Op.
_START = "START"

_OP_SYNC = {
    Op.LOCK: SyncKind.LOCK,
    Op.UNLOCK: SyncKind.UNLOCK,
    Op.SEM_WAIT: SyncKind.SEM_WAIT,
    Op.SEM_POST: SyncKind.SEM_POST,
    Op.CREATE: SyncKind.CREATE,
    Op.JOIN: SyncKind.JOIN,
    Op.EXIT: SyncKind.EXIT,
    _START: SyncKind.START,
}

# Enum members read once or more per step, bound as module globals: reading
# one through its class costs about four times a global lookup.
_LOAD, _STORE, _ADDI, _SET = Op.LOAD, Op.STORE, Op.ADDI, Op.SET
_LOCK, _UNLOCK, _SEM_WAIT, _SEM_POST = Op.LOCK, Op.UNLOCK, Op.SEM_WAIT, Op.SEM_POST
_CREATE, _JOIN, _EXIT = Op.CREATE, Op.JOIN, Op.EXIT
_LOAD_EVENT, _STORE_EVENT, _SYNC_EVENT = EventKind.LOAD, EventKind.STORE, EventKind.SYNC


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


_NEW, _READY, _EXITED = _Status.NEW, _Status.READY, _Status.EXITED


class Machine:
    def __init__(self, program: Program, seed: int,
                 hooks: Optional[ExecutionHooks]):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.program = program
        self.hooks = hooks
        self._rng = seed
        n = program.n_threads
        # Each body with its START appended, so a created thread's pc -1
        # reads its START; see the module docstring.
        self.code = [body + ((_START, program.create_obj.get(tid, -1), 0),)
                     for tid, body in enumerate(program.threads)]
        self.status = [_NEW] * n
        self.status[MAIN_THREAD] = _READY
        self.pc = [-1] * n
        self.pc[MAIN_THREAD] = 0
        self.regs = [[0] * NUM_REGISTERS for _ in range(n)]
        self.memory = dict(program.initial_memory)
        self.count = [0] * program.n_objects  # object id -> counter
        for oid in program.mutexes.values():
            self.count[oid] = 1
        for oid, init in program.semaphores.values():
            self.count[oid] = init
        self.mutex_owner = dict.fromkeys(program.mutexes.values())
        self.events: list[Event] = []  # filled only in a run without hooks
        self.steps = 0
        # Thread-id bitmasks; see the module docstring.
        self.waiters = [0] * program.n_objects  # object id -> threads waiting on it
        self.blocked = 0    # waiting on an object whose count is 0
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
        prog = self.program
        op, obj, _ = self.code[tid][self.pc[tid]]
        if op in _PLAIN_OPS or op is _EXIT and tid not in prog.exit_obj:
            self.permitted |= bit
            return
        if op in _WAIT_OPS:
            if op is _JOIN:
                obj = prog.exit_obj[obj]
            self.waiters[obj] |= bit
            if not self.count[obj]:
                self.blocked |= bit
                return
        self._ask(bit)

    def _release(self, obj: int) -> int:
        """Unblock the object's waiters; returns those not yet asked."""
        freed = self.waiters[obj]
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
                self.code[tid][self.pc[tid]][0] not in _PLAIN_OPS:
            self._arrive(tid)

    def _block_reason(self, tid: int):
        """None if the thread's next op can complete now, else a reason string."""
        op, a, _ = self.code[tid][self.pc[tid]]
        obj = self.program.exit_obj[a] if op is _JOIN else a
        if op not in _WAIT_OPS or self.count[obj]:
            return None
        if op is _JOIN:
            return f"joining thread {a} (not exited)"
        name = self.program.obj_names[a]
        if op is _SEM_WAIT:
            return f"waiting on {name} (count 0)"
        owner = self.mutex_owner[a]
        return f"waiting for {name} held by " + (
            "itself" if owner == tid else f"thread {owner}")

    def _blocked_report(self):
        return [(tid, "never created" if status is _NEW
                 else self._block_reason(tid) or "stalled by scheduler hook")
                for tid, status in enumerate(self.status) if status is not _EXITED]

    # -- execution -----------------------------------------------------------

    def _step(self, tid: int, ins, seq: int):
        """Execute one gate step: START, a sync op or EXIT.

        Plain steps run inline in ``run``. Applies the op's state change
        and its change to the waiter masks. Returns the step's SYNC event,
        numbered ``seq`` (None for an EXIT that no thread joins), and the
        threads the step frees that the hooks have not been asked about.
        """
        prog = self.program
        op, obj, _ = ins
        bit = 1 << tid
        count, waiters = self.count, self.waiters
        ordinal = self.pc[tid]
        ask = 0
        if op is _LOCK or op is _SEM_WAIT:
            if op is _LOCK:
                self.mutex_owner[obj] = tid
            count[obj] -= 1
            waiters[obj] &= ~bit
            if not count[obj]:
                self.blocked |= waiters[obj]
        elif op is _UNLOCK or op is _SEM_POST:
            if op is _UNLOCK:
                if self.mutex_owner[obj] != tid:
                    raise MachineError(
                        f"thread {tid} unlocks {prog.obj_names[obj]} it does not hold")
                self.mutex_owner[obj] = None
            count[obj] += 1
            if count[obj] == 1:
                ask = self._release(obj)
        elif op is _JOIN:
            obj = prog.exit_obj[obj]
            waiters[obj] &= ~bit
        elif op is _CREATE:
            self.status[obj] = _READY
            ask = 1 << obj  # the new thread arrives at its START
            obj = prog.create_obj[obj]
        elif op is _EXIT:
            self.status[tid] = _EXITED
            self.permitted &= ~bit
            obj = prog.exit_obj.get(tid)
            if obj is None:
                return None, 0
            count[obj] = 1
            ask = self._release(obj)
        # A START changes no state: its object is its thread's creation object.
        self.pc[tid] = ordinal + 1
        return _new_tuple(Event, (seq, tid, _SYNC_EVENT, -1, ordinal, obj,
                                  _OP_SYNC[op])), ask

    def run(self) -> RunResult:
        """Run to completion, a hook's stop request, or a deadlock.

        The fused step loop; see the module docstring.
        """
        threads, pc, regs = self.code, self.pc, self.regs
        memory, events = self.memory, self.events
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
