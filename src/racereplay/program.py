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

from .errors import ParseError

WORD_MASK = 0xFFFFFFFF
ADDR_MASK = 0xFFFFFFFF
NUM_REGISTERS = 16
MAIN_THREAD = 0


class Op(IntEnum):
    LOAD = 0
    STORE = 1
    ADDI = 2
    SET = 3
    LOCK = 4
    UNLOCK = 5
    SEM_WAIT = 6
    SEM_POST = 7
    CREATE = 8
    JOIN = 9
    EXIT = 10


# Ops that always act on a sync object / on a thread.
OBJECT_OPS = frozenset((Op.LOCK, Op.UNLOCK, Op.SEM_WAIT, Op.SEM_POST))
THREAD_OPS = frozenset((Op.CREATE, Op.JOIN))
_ADDRESS_OPS = frozenset((Op.LOAD, Op.STORE))
_CONSTANT_OPS = frozenset((Op.ADDI, Op.SET))
# Mnemonics by op; reading ``Op.name`` goes through a Python-level property.
_OP_NAMES = {op: op.name for op in Op}
# Read once per body line; a global costs a fifth of a read through ``Op``.
_EXIT = Op.EXIT


class Instruction(NamedTuple):
    op: Op
    a: int = 0  # register | sync object id | thread id
    b: int = 0  # address | constant


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
    join_targets: frozenset
    last_access: tuple  # tid -> index of its last LOAD or STORE, or -1
    source_name: str = "<program>"

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def n_objects(self) -> int:
        return len(self.obj_names)

    def sem_initials(self):
        return {oid: init for oid, init in self.semaphores.values()}

    def static_sync_counts(self) -> list:
        """Per thread, the most sync events a run can emit for it.

        That is one per sync instruction, plus START for a created thread
        and EXIT for a join target. Bodies are straight-line, so each
        instruction runs at most once.
        """
        return [sum(ins.op in OBJECT_OPS or ins.op in THREAD_OPS for ins in body)
                + (tid != MAIN_THREAD) + (tid in self.join_targets)
                for tid, body in enumerate(self.threads)]

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
            cached = hashlib.sha256(self.canonical_text().encode()).digest()
            object.__setattr__(self, "_digest", cached)
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
            raise ParseError(f"undeclared register '{tok}'", line)
        if 0 <= n < NUM_REGISTERS:
            return n
    raise ParseError(f"undeclared register '{tok}' (registers are r0..r{NUM_REGISTERS - 1})", line)


def _parse_int(tok: str, line: int, what: str, base: int = 0) -> int:
    try:
        return int(tok, base)
    except ValueError:
        raise ParseError(f"bad {what} '{tok}'", line)


def _parse_address(tok: str, line: int) -> int:
    value = _parse_int(tok, line, "address", 16)
    if not 0 <= value <= ADDR_MASK:
        raise ParseError(f"address 0x{value:X} outside 32-bit range", line)
    return value


def _parse_instruction(line: str, lineno: int, mutexes: dict,
                       semaphores: dict, threads) -> Instruction:
    """One body line as an Instruction.

    Depends only on the line and the declarations, except that a CREATE's
    own checks (creator, duplicate creation) are left to the caller.
    """
    tokens = line.split()
    mnemonic = tokens[0]
    try:
        op = Op[mnemonic]
    except KeyError:
        raise ParseError(f"unknown instruction '{mnemonic}'", lineno)
    args = tokens[1:]
    if op in _ADDRESS_OPS:
        if len(args) != 2:
            raise ParseError(f"{mnemonic} takes a register and an address", lineno)
        return Instruction(op, _parse_register(args[0], lineno),
                           _parse_address(args[1], lineno))
    if op in _CONSTANT_OPS:
        if len(args) != 2:
            raise ParseError(f"{mnemonic} takes a register and a constant", lineno)
        reg = _parse_register(args[0], lineno)
        return Instruction(op, reg, _parse_int(args[1], lineno, "constant") & WORD_MASK)
    if op in (Op.LOCK, Op.UNLOCK):
        if len(args) != 1:
            raise ParseError(f"{mnemonic} takes a mutex name", lineno)
        if args[0] not in mutexes:
            raise ParseError(f"undeclared sync object '{args[0]}'", lineno)
        return Instruction(op, mutexes[args[0]])
    if op in (Op.SEM_WAIT, Op.SEM_POST):
        if len(args) != 1:
            raise ParseError(f"{mnemonic} takes a semaphore name", lineno)
        if args[0] not in semaphores:
            raise ParseError(f"undeclared sync object '{args[0]}'", lineno)
        return Instruction(op, semaphores[args[0]][0])
    if op in THREAD_OPS:
        if len(args) != 1:
            raise ParseError(f"{mnemonic} takes a thread id", lineno)
        target = _parse_int(args[0], lineno, "thread id", 10)
        if target not in threads:
            raise ParseError(f"undeclared thread {target}", lineno)
        return Instruction(op, target)
    if args:
        raise ParseError("EXIT takes no operands", lineno)
    return Instruction(op)


def parse_program(text: str, name: str = "<program>") -> Program:
    """Parse program source into a validated Program.

    Format: header lines (``mutex <name>``, ``sem <name> <initial>``,
    ``mem <hex-addr> <value>``) followed by ``thread <id>:`` sections with
    one instruction per line. ``#`` starts a comment. Addresses are hex.

    Bodies repeat lines often, so each distinct line is parsed once and
    its Instruction shared by every occurrence. CREATE and JOIN lines are
    parsed at each occurrence, since their checks depend on which thread
    holds them and on the CREATEs before them.
    """
    mutex_names: list[str] = []
    sem_decls: list[tuple[str, int]] = []
    memory: dict[int, int] = {}
    lines = text.splitlines()
    bodies: dict[int, range] = {}  # tid -> indices of its section's lines
    thread_lines: dict[int, int] = {}

    current_tid = None
    for index, raw in enumerate(lines):
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
                raise ParseError(f"duplicate thread {tid}", lineno)
            if current_tid is not None:
                bodies[current_tid] = range(bodies[current_tid].start, index)
            bodies[tid] = range(lineno, len(lines))
            thread_lines[tid] = lineno
            current_tid = tid
            continue
        if current_tid is None:
            if head == "mutex":
                if len(tokens) != 2:
                    raise ParseError("expected 'mutex <name>'", lineno)
                if tokens[1] in mutex_names or any(n == tokens[1] for n, _ in sem_decls):
                    raise ParseError(f"duplicate sync object '{tokens[1]}'", lineno)
                mutex_names.append(tokens[1])
            elif head == "sem":
                if len(tokens) != 3:
                    raise ParseError("expected 'sem <name> <initial>'", lineno)
                if tokens[1] in mutex_names or any(n == tokens[1] for n, _ in sem_decls):
                    raise ParseError(f"duplicate sync object '{tokens[1]}'", lineno)
                init = _parse_int(tokens[2], lineno, "semaphore count", 10)
                if init < 0:
                    raise ParseError("semaphore count must be non-negative", lineno)
                if init > WORD_MASK:
                    raise ParseError(f"semaphore count {init} outside 32-bit range",
                                     lineno)
                sem_decls.append((tokens[1], init))
            elif head == "mem":
                if len(tokens) != 3:
                    raise ParseError("expected 'mem <hex-addr> <value>'", lineno)
                addr = _parse_address(tokens[1], lineno)
                memory[addr] = _parse_int(tokens[2], lineno, "value") & WORD_MASK
            else:
                raise ParseError(f"unknown directive '{head}'", lineno)
        # Otherwise a body line such as 'threadx', rejected below.

    if MAIN_THREAD not in bodies:
        raise ParseError("program must declare thread 0 (main)")
    tids = sorted(bodies)
    if tids != list(range(len(tids))):
        raise ParseError(f"thread ids must be contiguous 0..{len(tids) - 1}, got {tids}")

    # Object id space: mutexes, semaphores, start handshakes, exit handshakes.
    obj_ids: dict[str, int] = {}
    obj_names: list[str] = []

    def new_obj(name: str) -> int:
        obj_ids[name] = len(obj_names)
        obj_names.append(name)
        return obj_ids[name]

    mutexes = {n: new_obj(f"mutex:{n}") for n in mutex_names}
    semaphores = {n: (new_obj(f"sem:{n}"), init) for n, init in sem_decls}

    create_targets: dict[int, int] = {}  # tid -> line of its CREATE
    join_targets: set[int] = set()
    parsed: dict[int, list[Instruction]] = {tid: [] for tid in tids}
    shared: dict[str, Instruction] = {}  # distinct line -> its Instruction

    last_access: list[int] = []
    for tid in tids:
        body = parsed[tid]
        seen_exit = False
        last = -1
        for index in bodies[tid]:
            line = lines[index].split("#", 1)[0].strip()
            if not line:
                continue
            if seen_exit:
                raise ParseError("instruction after EXIT", index + 1)
            ins = shared.get(line)
            if ins is None:
                lineno = index + 1
                ins = _parse_instruction(line, lineno, mutexes, semaphores, bodies)
                op, target, _ = ins
                if op is Op.CREATE:
                    if target == MAIN_THREAD:
                        raise ParseError("thread 0 cannot be created", lineno)
                    if target == tid:
                        raise ParseError("thread cannot create itself", lineno)
                    if target in create_targets:
                        raise ParseError(
                            f"thread {target} created more than once "
                            f"(first at line {create_targets[target]})", lineno)
                    create_targets[target] = lineno
                elif op is Op.JOIN:
                    join_targets.add(target)
                else:
                    shared[line] = ins
            op = ins[0]
            if op in _ADDRESS_OPS:
                last = len(body)
            body.append(ins)
            seen_exit = op is _EXIT
        if not body or body[-1].op is not _EXIT:
            raise ParseError(f"thread {tid} body must end with EXIT",
                             thread_lines[tid])
        last_access.append(last)

    for tid in tids:
        if tid != MAIN_THREAD and tid not in create_targets:
            raise ParseError(f"thread {tid} is declared but never created",
                             thread_lines[tid])

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
        join_targets=frozenset(join_targets),
        last_access=tuple(last_access),
        source_name=name,
    )


def load_program(path: str) -> Program:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})")
    return parse_program(text, name=path)
