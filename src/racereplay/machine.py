"""Deterministic seeded execution of simulated thread programs.

Step s of a run (from 0) owns output s of the splitmix64 sequence from
the seed. A step with k >= 2 runnable threads runs the thread at index
(output mod k) among them in ascending thread-id order, so identical
(program, seed) pairs produce bit-identical event streams; an observer
sees a run and never changes its schedule. A thread is runnable when it
has been created, has not exited, and its next operation can complete now.

Thread start is an explicit synchronisation step. ``Op.START`` never
appears in program text: the machine appends one to each body, after its
EXIT, and a created thread begins at pc -1, so its first step is a START
handshake on its creation object, an event with ordinal -1, before
instruction 0. A SYNC event's ``sync`` is the ``Op`` that made it.
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
and by a plain step that brings its thread to a gate op. ``live`` holds
the created threads that have not exited. Every thread whose next op is a
wait op is filed in its object's waiter mask, and ``blocked`` holds the
waiters of objects whose count is 0; the runnable mask is ``live`` less
``blocked``. A gate step is one mask operation on its object's waiters:
a count going from 1 to 0 blocks them all and one going from 0 to 1
frees them. A whole group of waiters changes state at once because
whether a waiter can take its object depends only on the object's count,
never on the waiter; so only a gate step on that object changes them,
and the masks give the set a full recomputation would give at every
step. A plain step (LOAD, STORE, ADDI, SET) never blocks and changes no
count. The draw indexes ``ids``, the set bits of the runnable mask in
ascending order, built again in O(k) only when the mask changes, so a
step between plain ops draws in O(1).

The op semantics exist once: ``_plain`` runs a plain op and ``_step`` a
gate op, applying its state change and its waiter-mask change. ``run``,
the scheduler's one step loop, draws a thread and runs its next op
through one of them. The replay driver (``replay.py``) runs the same two
methods in the recorded sync order, with no scheduler, and asks
``_block_reason`` before each gate op.

Every gate op but an EXIT that no thread joins emits exactly one SYNC
event, and a body runs each of its ops at most once, START first. So a
thread's SYNC events in a complete run are exactly
``Program.static_sync_counts()``, and a thread that has emitted fewer
and stands at a gate op stands at one that emits a SYNC event. The
replay driver checks a trace's counts against that figure before it
runs, and needs no per-thread budget afterwards.

Only a run without an observer keeps its events, in ``Machine.events``
and ``RunResult.events``; record's run is the one such run in the
package. A run with an observer keeps none: it calls ``observer(machine,
event)`` with each event, stops once that returns a truthy value, and a
caller that needs the stream keeps it there. Replay takes the same
observer.

A step with one runnable thread reads no output (any value mod 1 is 0).
A step with k >= 2 reads its output from ``draws``, a block of outputs
from ``splitmix64_block``; a new block is drawn only when the step falls
past the current one, and starts at that step. Its size is LANES or the
number of steps a complete run has left, if fewer: every body is
straight-line, so a complete run takes one step per op of every body and
one START per created thread, a count fixed before the run starts. So a
run draws at most ceil(steps / LANES) blocks, and none if it never has
two threads runnable. The generator state after ``s`` steps is ``seed + s
* _GOLDEN`` mod 2**64 whichever threads ran. ``pc``, ``regs``, ``memory``
and ``status`` are current whenever the observer runs; ``steps`` and the
generator state are written back when ``run`` returns or raises.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, NamedTuple, Optional

from .errors import DeadlockError, MachineError
from .program import MAIN_THREAD, NUM_REGISTERS, PLAIN_OPS, WORD_MASK, Op, Program

MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next state, output value).

    The reference that ``splitmix64_block`` is tested against.
    """
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


# The most outputs one ``splitmix64_block`` call draws, and its constants:
# lane i of each is bits 128*i .. 128*i + 127. ``_ONES`` holds 1 in every
# lane, ``_LOW64`` the low 64 bits of every lane, ``_STRIDES`` (i+1)*_GOLDEN
# in lane i.
LANES = 1024
_ONES = int.from_bytes((b"\1" + bytes(15)) * LANES, "little")
_LOW64 = _ONES * MASK64
_STRIDES = int.from_bytes(b"".join(((i + 1) * _GOLDEN).to_bytes(16, "little")
                                   for i in range(LANES)), "little")
_BIG_ENDIAN = sys.byteorder == "big"


def splitmix64_block(state: int, n: int) -> array:
    """The next ``n <= LANES`` splitmix64 outputs from the 64-bit ``state``.

    Output i is what ``splitmix64`` gives after i+1 steps from ``state``,
    bit for bit. The block is computed in one Python int that holds one
    128-bit lane per output, so each big-int operation does the work of
    ``n`` single steps:

    - lane i starts as ``state + (i+1)*_GOLDEN``, below 2**75, so no
      carry leaves it; masking it to 64 bits gives that value mod 2**64,
      the state of step i+1;
    - a right shift by 30, 27 or 31 moves the low 64 bits of lane i+1
      into bits 98, 101 and 97 upward of lane i, never below bit 97, and
      the mask to 64 bits that follows each xor clears them (the last
      shift's are left in place: only the low 64 bits are read out);
    - a lane masked to 64 bits times a 64-bit constant stays below
      2**128, so no carry crosses into the next lane, and the mask after
      it gives the product mod 2**64.

    The lanes are read out as little-endian bytes, so the outputs are the
    same on every platform; ``array("Q")`` items are 8 bytes on every
    platform CPython supports.
    """
    if not 0 <= n <= LANES:
        raise ValueError(f"a block holds 0 to {LANES} outputs, not {n}")
    ones, strides, low64 = _ONES, _STRIDES, _LOW64
    if n < LANES:
        low = (1 << 128 * n) - 1
        ones, strides, low64 = ones & low, strides & low, low64 & low
    z = (state * ones + strides) & low64
    z = ((z ^ (z >> 30)) & low64) * 0xBF58476D1CE4E5B9 & low64
    z = ((z ^ (z >> 27)) & low64) * 0x94D049BB133111EB & low64
    words = array("Q", (z ^ (z >> 31)).to_bytes(16 * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2]  # each lane's low word


class EventKind(IntEnum):
    LOAD = 0
    STORE = 1
    SYNC = 2


# Acquire-like ops receive ordering from the object; every other sync op
# (UNLOCK, SEM_POST, CREATE, EXIT) is release-like and publishes to it.
ACQUIRE_KINDS = frozenset((Op.LOCK, Op.SEM_WAIT, Op.JOIN, Op.START))

# Ops that can complete only while their object's count is positive.
_WAIT_OPS = frozenset((Op.LOCK, Op.SEM_WAIT, Op.JOIN))

# Enum members read once or more per step, bound as module globals: reading
# one through its class costs about four times a global lookup.
_LOAD, _STORE, _ADDI = Op.LOAD, Op.STORE, Op.ADDI
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
    sync: int         # the Op that made a SYNC event, -1 unless SYNC


# Builds an Event from a 7-tuple without the NamedTuple's Python-level __new__.
_new_tuple = tuple.__new__


@dataclass
class RunResult:
    memory: dict
    events: list
    steps: int


class _Status(IntEnum):
    NEW = 0
    READY = 1
    EXITED = 2


_NEW, _READY, _EXITED = _Status.NEW, _Status.READY, _Status.EXITED


class Machine:
    def __init__(self, program: Program, seed: int,
                 observer: Optional[Callable]):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.program = program
        self.observer = observer
        self._rng = seed
        n = program.n_threads
        # Each body with its START appended, so a created thread's pc -1
        # reads its START; see the module docstring.
        self.code = [body + ((Op.START, program.create_obj.get(tid, -1), 0),)
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
        self.events: list[Event] = []  # filled only in a run without an observer
        self.steps = 0
        # Thread-id bitmasks; see the module docstring.
        self.waiters = [0] * program.n_objects  # object id -> threads waiting on it
        self.blocked = 0  # waiting on an object whose count is 0
        self.live = 1 << MAIN_THREAD  # created and not exited

    # -- scheduling ----------------------------------------------------------

    def _arrive(self, tid: int):
        """File a thread that has reached a wait op under its object, and
        block it if the object's count is 0."""
        op, obj, _ = self.code[tid][self.pc[tid]]
        if op in _WAIT_OPS:
            if op is _JOIN:
                obj = self.program.exit_obj[obj]
            bit = 1 << tid
            self.waiters[obj] |= bit
            if not self.count[obj]:
                self.blocked |= bit

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
                 else self._block_reason(tid))
                for tid, status in enumerate(self.status) if status is not _EXITED]

    # -- execution -----------------------------------------------------------

    def _plain(self, tid: int, seq: int):
        """Execute the thread's next op, a plain one: LOAD, STORE, ADDI or SET.

        Returns the op's event, numbered ``seq``, or None for ADDI and
        SET, which emit none.
        """
        p = self.pc[tid]
        op, a, b = self.code[tid][p]
        self.pc[tid] = p + 1
        if op is _LOAD:
            self.regs[tid][a] = self.memory.get(b, 0)
            return _new_tuple(Event, (seq, tid, _LOAD_EVENT, b, p, -1, -1))
        if op is _STORE:
            self.memory[b] = self.regs[tid][a]
            return _new_tuple(Event, (seq, tid, _STORE_EVENT, b, p, -1, -1))
        regs = self.regs[tid]
        regs[a] = (regs[a] + b if op is _ADDI else b) & WORD_MASK
        return None

    def _step(self, tid: int, ins, seq: int):
        """Execute one gate step: START, a sync op or EXIT.

        The op must be able to complete now (``_block_reason`` is None).
        Applies the op's state change and its change to the runnable
        masks. Returns the step's SYNC event, numbered ``seq``, or None for
        an EXIT that no thread joins.
        """
        prog = self.program
        op, obj, _ = ins
        bit = 1 << tid
        count, waiters = self.count, self.waiters
        ordinal = self.pc[tid]
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
                self.blocked &= ~waiters[obj]
        elif op is _JOIN:
            obj = prog.exit_obj[obj]
            waiters[obj] &= ~bit
        elif op is _CREATE:
            self.status[obj] = _READY
            self.live |= 1 << obj  # the new thread arrives at its START
            obj = prog.create_obj[obj]
        elif op is _EXIT:
            self.status[tid] = _EXITED
            self.live &= ~bit
            obj = prog.exit_obj.get(tid)
            if obj is None:
                return None
            count[obj] = 1
            self.blocked &= ~waiters[obj]
        # A START changes no state: its object is its thread's creation object.
        self.pc[tid] = ordinal + 1
        return _new_tuple(Event, (seq, tid, _SYNC_EVENT, -1, ordinal, obj, op))

    def run(self) -> RunResult:
        """Run to completion, the observer's stop request, or a deadlock.

        The scheduler's step loop; see the module docstring.
        """
        code, pc = self.code, self.pc
        memory, events = self.memory, self.events
        append = events.append
        plain, step, arrive = self._plain, self._step, self._arrive
        observer = self.observer
        left = sum(s is not _EXITED for s in self.status)
        arrive(MAIN_THREAD)
        runnable = self.live & ~self.blocked
        ids = _bit_ids(runnable)
        k = len(ids)
        rng, steps = self._rng, self.steps
        first = steps
        # Every op of every body runs once in a complete run, main's START
        # excepted, so that run takes ``total`` steps.
        total = sum(map(len, code)) - 1
        draws, base, end = (), steps, steps  # draws[i] is step base+i's
        seq = 0
        try:
            while left:
                if not k:
                    raise DeadlockError(self._blocked_report(), memory, steps)
                if k == 1:
                    tid = ids[0]
                else:
                    if steps >= end:
                        base = steps
                        draws = splitmix64_block(
                            (rng + (steps - first) * _GOLDEN) & MASK64,
                            min(LANES, total - steps))
                        end = base + len(draws)
                    tid = ids[draws[steps - base] % k]
                steps += 1
                body = code[tid]
                ins = body[pc[tid]]
                if ins[0] in PLAIN_OPS:
                    ev = plain(tid, seq)
                    # A plain step changes the runnable mask only when it
                    # brings its thread to a gate op.
                    moved = body[pc[tid]][0] not in PLAIN_OPS
                else:
                    ev = step(tid, ins, seq)
                    if ins[0] is _EXIT:
                        left -= 1
                    moved = True
                if moved:
                    if self.status[tid] is not _EXITED:
                        arrive(tid)
                    now = self.live & ~self.blocked
                    if now != runnable:
                        runnable = now
                        ids = _bit_ids(now)
                        k = len(ids)
                if ev is not None:
                    seq += 1
                    if observer is None:
                        append(ev)
                    elif observer(self, ev):
                        return RunResult(memory, events, steps)
            return RunResult(memory, events, steps)
        finally:
            self._rng = (rng + (steps - first) * _GOLDEN) & MASK64
            self.steps = steps


def _bit_ids(mask: int) -> list:
    """The set bits of a thread-id mask as ascending thread ids."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def run(program: Program, seed: int, observer: Optional[Callable] = None) -> RunResult:
    """Execute a program to completion under the seeded scheduler.

    ``observer(machine, event)``, when given, is called with every event;
    a truthy return stops the run. See the module docstring.
    """
    return Machine(program, seed, observer).run()
