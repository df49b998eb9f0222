"""The simulated thread-program language: types, parser, canonical form.

A program is a set of straight-line thread bodies over a tiny register
machine (16 registers per thread, word-granular 32-bit memory) plus
declared synchronisation objects (mutexes and counting semaphores).
Thread creation and joining are synchronisation operations as well; each
non-main thread has an implicit start handshake with its creator and,
when some thread joins it, an exit handshake with the joiner.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .errors import ParseError, shown

WORD_MASK = 0xFFFFFFFF
ADDR_MASK = 0xFFFFFFFF
NUM_REGISTERS = 16
MAIN_THREAD = 0


class Op(IntEnum):
    """Every op, sync ops first: a SYNC event's ``sync`` is the op that
    made it."""

    LOCK = 0
    UNLOCK = 1
    SEM_WAIT = 2
    SEM_POST = 3
    CREATE = 4
    JOIN = 5
    # Never in program text: the machine appends one to each body, after its
    # EXIT, and a created thread runs it first (see ``machine.py``).
    START = 6
    EXIT = 7
    LOAD = 8
    STORE = 9
    ADDI = 10
    SET = 11


# Ops that always act on a sync object / on a thread.
OBJECT_OPS = frozenset((Op.LOCK, Op.UNLOCK, Op.SEM_WAIT, Op.SEM_POST))
THREAD_OPS = frozenset((Op.CREATE, Op.JOIN))
_ADDRESS_OPS = frozenset((Op.LOAD, Op.STORE))
_CONSTANT_OPS = frozenset((Op.ADDI, Op.SET))
# Ops that never block and change no state another thread's runnability reads.
PLAIN_OPS = _ADDRESS_OPS | _CONSTANT_OPS
# Mnemonics by op; reading ``Op.name`` goes through a Python-level property.
_OP_NAMES = {op: op.name for op in Op}
# Ops by mnemonic, as program text may spell them: every op but START.
_MNEMONICS = {op.name: op for op in Op if op is not Op.START}
# Read once per body line; a global costs a fifth of a read through ``Op``.
_EXIT, _CREATE, _JOIN = Op.EXIT, Op.CREATE, Op.JOIN
# Registers by canonical spelling; ``_parse_register`` takes any other.
_REGISTERS = {f"r{n}": n for n in range(NUM_REGISTERS)}


class Instruction(NamedTuple):
    op: Op
    a: int = 0  # register | sync object id | thread id
    b: int = 0  # address | constant


# Builds an Instruction without the keyword handling of ``Instruction(...)``.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class Program:
    """A parsed, validated program. Thread ids are contiguous 0..N-1."""

    threads: tuple[tuple[Instruction, ...], ...]
    mutexes: dict  # name -> object id
    semaphores: dict  # name -> (object id, initial count)
    initial_memory: dict  # address -> 32-bit value
    obj_names: tuple[str, ...]
    create_obj: dict  # tid -> object id of the start handshake
    exit_obj: dict  # tid -> object id of the exit handshake (join targets only)
    last_access: tuple  # tid -> index of its last LOAD or STORE, or -1

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def n_objects(self) -> int:
        return len(self.obj_names)

    def static_sync_counts(self) -> tuple:
        """Per thread, the sync events a complete run emits for it,
        computed once per program.

        That is one per sync instruction, plus START for a created thread
        and EXIT for a join target. Bodies are straight-line, so each
        instruction runs exactly once in a complete run, and the count is
        exact, not only a bound. Replay relies on that: it refuses, before
        it runs anything, a trace whose per-thread counts differ.
        """
        cached = self.__dict__.get("_sync_counts")
        if cached is None:
            cached = self.__dict__["_sync_counts"] = tuple(
                sum(ins.op in OBJECT_OPS or ins.op in THREAD_OPS for ins in body)
                + (tid != MAIN_THREAD) + (tid in self.exit_obj)
                for tid, body in enumerate(self.threads))
        return cached

    def instruction_text(self, tid: int, ordinal: int) -> str:
        return render_instruction(self, self.threads[tid][ordinal])

    def canonical_text(self) -> str:
        """Deterministic re-serialization; whitespace/comment insensitive."""
        out = []
        for name in sorted(self.mutexes):
            out.append(f"mutex {name}")
        for name in sorted(self.semaphores):
            out.append(f"sem {name} {self.semaphores[name][1]}")
        for addr in sorted(self.initial_memory):
            out.append(f"mem 0x{addr:08X} {self.initial_memory[addr]}")
        rendered = {}  # straight-line bodies repeat instructions often
        for tid, body in enumerate(self.threads):
            out.append(f"thread {tid}:")
            for ins in body:
                line = rendered.get(ins)
                if line is None:
                    line = rendered[ins] = "  " + render_instruction(self, ins)
                out.append(line)
        return "\n".join(out) + "\n"

    def digest(self) -> bytes:
        """SHA-256 of the canonical text, computed once per program."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = self.__dict__["_digest"] = hashlib.sha256(
                self.canonical_text().encode()).digest()
        return cached


def render_instruction(program: Program, ins: Instruction) -> str:
    op, a, b = ins
    if op in _ADDRESS_OPS:
        return f"{_OP_NAMES[op]} r{a} 0x{b:08X}"
    if op in _CONSTANT_OPS:
        return f"{_OP_NAMES[op]} r{a} {b}"
    if op in OBJECT_OPS:
        return f"{_OP_NAMES[op]} {program.obj_names[a].split(':', 1)[1]}"
    if op in THREAD_OPS:
        return f"{_OP_NAMES[op]} {a}"
    return "EXIT"


def _parse_register(tok: str, line: int) -> int:
    if tok.startswith("r"):
        try:
            n = int(tok[1:])
        except ValueError:
            raise ParseError(f"undeclared register {shown(tok)}", line)
        if 0 <= n < NUM_REGISTERS:
            return n
    raise ParseError(f"undeclared register {shown(tok)} "
                     f"(registers are r0..r{NUM_REGISTERS - 1})", line)


def _parse_int(tok: str, line: int, what: str, base: int = 0) -> int:
    try:
        return int(tok, base)
    except ValueError:
        raise ParseError(f"bad {what} {shown(tok)}", line)


def _parse_address(tok: str, line: int) -> int:
    value = _parse_int(tok, line, "address", 16)
    if not 0 <= value <= ADDR_MASK:
        raise ParseError(f"address {shown(f'0x{value:X}', '')} outside 32-bit range",
                         line)
    return value


def _parse_instruction(line: str, lineno: int, mutexes: dict,
                       semaphores: dict, threads) -> Instruction:
    """One body line as an Instruction.

    Depends only on the line and the declarations, except that a CREATE's
    own checks (creator, duplicate creation) are left to the caller.
    """
    tokens = line.split()
    mnemonic = tokens[0]
    op = _MNEMONICS.get(mnemonic)
    if op is None:
        raise ParseError(f"unknown instruction {shown(mnemonic)}", lineno)
    args = tokens[1:]
    if op in _ADDRESS_OPS:
        if len(args) != 2:
            raise ParseError(f"{mnemonic} takes a register and an address", lineno)
        reg = _REGISTERS.get(args[0])
        if reg is None:
            reg = _parse_register(args[0], lineno)
        return _new_tuple(Instruction, (op, reg, _parse_address(args[1], lineno)))
    if op in _CONSTANT_OPS:
        if len(args) != 2:
            raise ParseError(f"{mnemonic} takes a register and a constant", lineno)
        reg = _REGISTERS.get(args[0])
        if reg is None:
            reg = _parse_register(args[0], lineno)
        value = _parse_int(args[1], lineno, "constant") & WORD_MASK
        return _new_tuple(Instruction, (op, reg, value))
    if op in OBJECT_OPS:
        mutex = op is Op.LOCK or op is Op.UNLOCK
        if len(args) != 1:
            raise ParseError(f"{mnemonic} takes a {'mutex' if mutex else 'semaphore'} name",
                             lineno)
        if args[0] not in (mutexes if mutex else semaphores):
            raise ParseError(f"undeclared sync object {shown(args[0])}", lineno)
        obj = mutexes[args[0]] if mutex else semaphores[args[0]][0]
        return _new_tuple(Instruction, (op, obj, 0))
    if op in THREAD_OPS:
        if len(args) != 1:
            raise ParseError(f"{mnemonic} takes a thread id", lineno)
        target = _parse_int(args[0], lineno, "thread id", 10)
        if target not in threads:
            raise ParseError(f"undeclared thread {shown(str(target), '')}", lineno)
        return _new_tuple(Instruction, (op, target, 0))
    if args:
        raise ParseError("EXIT takes no operands", lineno)
    return _new_tuple(Instruction, (op, 0, 0))


def parse_program(text: str) -> Program:
    """Parse program source into a validated Program.

    Format: header lines (``mutex <name>``, ``sem <name> <initial>``,
    ``mem <hex-addr> <value>``) followed by ``thread <id>:`` sections with
    one instruction per line. ``#`` starts a comment. Addresses are hex.

    Bodies repeat lines often, so one cache maps lines to Instructions
    shared by every occurrence. A raw line not in the cache is stripped and
    looked up again by its stripped text, which is parsed and cached on a
    miss; on a hit the raw line is cached too. So a repeated raw line costs
    one lookup, every spelling of an instruction shares one Instruction,
    and a text of distinct instructions holds one entry per instruction.
    CREATE and JOIN lines are never cached: they are parsed at each
    occurrence, since their checks depend on which thread holds them and
    on the CREATEs before them.
    """
    # Declared names in declaration order, which fixes their object ids.
    mutex_names: dict[str, None] = {}
    sem_decls: dict[str, int] = {}  # name -> initial count
    memory: dict[int, int] = {}
    mem_lines: dict[int, int] = {}  # address -> line of its 'mem'
    lines = text.splitlines()
    # tid -> indices of its section's lines; the start is its header's line number
    bodies: dict[int, range] = {}

    current_tid = None
    for index, raw in enumerate(lines):
        if current_tid is not None and "thread" not in raw:
            continue  # cannot be a header: a body line, parsed below
        line = raw.split("#", 1)[0].strip()
        if not line or (current_tid is not None and not line.startswith("thread")):
            continue  # blank, or a body line: parsed below
        lineno = index + 1
        tokens = line.split()
        head = tokens[0]
        if head == "thread":
            if len(tokens) != 2 or not tokens[1].endswith(":"):
                raise ParseError("expected 'thread <id>:'", lineno)
            tid = _parse_int(tokens[1][:-1], lineno, "thread id", 10)
            if tid in bodies:
                raise ParseError(f"duplicate thread {shown(str(tid), '')}", lineno)
            if current_tid is not None:
                bodies[current_tid] = range(bodies[current_tid].start, index)
            bodies[tid] = range(lineno, len(lines))
            current_tid = tid
            continue
        if current_tid is None:
            if head == "mutex":
                if len(tokens) != 2:
                    raise ParseError("expected 'mutex <name>'", lineno)
                if tokens[1] in mutex_names or tokens[1] in sem_decls:
                    raise ParseError(f"duplicate sync object {shown(tokens[1])}",
                                     lineno)
                mutex_names[tokens[1]] = None
            elif head == "sem":
                if len(tokens) != 3:
                    raise ParseError("expected 'sem <name> <initial>'", lineno)
                if tokens[1] in mutex_names or tokens[1] in sem_decls:
                    raise ParseError(f"duplicate sync object {shown(tokens[1])}",
                                     lineno)
                init = _parse_int(tokens[2], lineno, "semaphore count", 10)
                if init < 0:
                    raise ParseError("semaphore count must be non-negative", lineno)
                if init > WORD_MASK:
                    raise ParseError(f"semaphore count {shown(str(init), '')} "
                                     "outside 32-bit range", lineno)
                sem_decls[tokens[1]] = init
            elif head == "mem":
                if len(tokens) != 3:
                    raise ParseError("expected 'mem <hex-addr> <value>'", lineno)
                addr = _parse_address(tokens[1], lineno)
                if addr in mem_lines:
                    raise ParseError(f"duplicate mem address 0x{addr:08X} "
                                     f"(first at line {mem_lines[addr]})", lineno)
                mem_lines[addr] = lineno
                memory[addr] = _parse_int(tokens[2], lineno, "value") & WORD_MASK
            else:
                raise ParseError(f"unknown directive {shown(head)}", lineno)
        # Otherwise a body line such as 'threadx', rejected below.

    if MAIN_THREAD not in bodies:
        raise ParseError("program must declare thread 0 (main)")
    tids = sorted(bodies)
    if tids != list(range(len(tids))):
        gap = next(t for t in range(len(tids)) if t not in bodies)
        raise ParseError(f"thread ids must be contiguous 0..{len(tids) - 1}, "
                         f"but thread {gap} is missing")

    # Object id space: mutexes, semaphores, start handshakes, exit handshakes.
    obj_ids: dict[str, int] = {}
    obj_names: list[str] = []

    def new_obj(name: str) -> int:
        obj_ids[name] = len(obj_names)
        obj_names.append(name)
        return obj_ids[name]

    mutexes = {n: new_obj(f"mutex:{n}") for n in mutex_names}
    semaphores = {n: (new_obj(f"sem:{n}"), init) for n, init in sem_decls.items()}

    create_targets: dict[int, int] = {}  # tid -> line of its CREATE
    join_targets: set[int] = set()
    parsed: dict[int, list[Instruction]] = {tid: [] for tid in tids}
    cache: dict[str, Instruction] = {}  # stripped or raw line -> Instruction

    last_access: list[int] = []
    for tid in tids:
        body = parsed[tid]
        append = body.append
        seen_exit = False
        for index in bodies[tid]:
            raw = lines[index]
            ins = cache.get(raw)
            if ins is None:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if seen_exit:
                    raise ParseError("instruction after EXIT", index + 1)
                ins = cache.get(line)
                if ins is not None:
                    cache[raw] = ins
                else:
                    lineno = index + 1
                    ins = _parse_instruction(line, lineno, mutexes, semaphores, bodies)
                    op, target, _ = ins
                    if op is _CREATE:
                        if target == MAIN_THREAD:
                            raise ParseError("thread 0 cannot be created", lineno)
                        if target == tid:
                            raise ParseError("thread cannot create itself", lineno)
                        if target in create_targets:
                            raise ParseError(
                                f"thread {target} created more than once "
                                f"(first at line {create_targets[target]})", lineno)
                        create_targets[target] = lineno
                    elif op is _JOIN:
                        join_targets.add(target)
                    else:
                        cache[line] = ins
            elif seen_exit:
                raise ParseError("instruction after EXIT", index + 1)
            append(ins)
            seen_exit = ins[0] is _EXIT
        if not seen_exit:
            raise ParseError(f"thread {tid} body must end with EXIT",
                             bodies[tid].start)
        last = len(body) - 1
        while last >= 0 and body[last][0] not in _ADDRESS_OPS:
            last -= 1
        last_access.append(last)

    for tid in tids:
        if tid != MAIN_THREAD and tid not in create_targets:
            raise ParseError(f"thread {tid} is declared but never created",
                             bodies[tid].start)

    create_obj = {tid: new_obj(f"start:{tid}") for tid in tids if tid != MAIN_THREAD}
    exit_obj = {tid: new_obj(f"exit:{tid}") for tid in sorted(join_targets)}

    return Program(
        threads=tuple(tuple(parsed[tid]) for tid in tids),
        mutexes=mutexes,
        semaphores=semaphores,
        initial_memory=memory,
        obj_names=tuple(obj_names),
        create_obj=create_obj,
        exit_obj=exit_obj,
        last_access=tuple(last_access),
    )


def read_utf8(path: str) -> str:
    """The file's text; a ParseError names the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})")


def load_program(path: str) -> Program:
    return parse_program(read_utf8(path))
