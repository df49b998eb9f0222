"""Deterministic random program generation for property tests and the CLI.

Programs follow one shape: main initialises shared memory, creates the
workers, optionally runs some work of its own, joins the workers and
exits. Worker bodies are straight-line mixes of private arithmetic,
private memory traffic, and shared-address access groups. Each shared
group is wrapped in one common lock with probability ``lock_density``, so
density 1.0 is race-free by construction. Random semaphore handoffs add
cross-thread ordering edges; they always post from a lower thread id to a
higher one, which keeps generated programs deadlock-free.
"""

from __future__ import annotations

from .machine import MASK64, splitmix64

# The most instructions, over all threads, and shared addresses one call
# may generate; larger requests are refused before any work starts.
MAX_TOTAL_OPS = 1 << 20


class Rng:
    """Tiny deterministic generator (splitmix64), independent of stdlib."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u64(self) -> int:
        self.state, value = splitmix64(self.state)
        return value

    def below(self, n: int) -> int:
        return self.u64() % n

    def chance(self, p: float) -> bool:
        return self.u64() < int(p * 2**64)

    def choice(self, seq):
        return seq[self.below(len(seq))]


def _shared_pool(rng: Rng, size: int) -> list:
    """Word addresses, mostly clustered low with some spread over the full
    32-bit space so all bitmap levels get exercised."""
    pool = []
    for i in range(size):
        if i % 4 == 3:
            addr = rng.u64() & 0xFFFFFFFC
            while 0x00100000 <= addr < 0x00200000:  # keep clear of private ranges
                addr = rng.u64() & 0xFFFFFFFC
            pool.append(addr)
        else:
            pool.append(0x00001000 + 4 * i)
    return sorted(set(pool))


def generate_program(seed: int, threads: int = 3, ops_per_thread: int = 40,
                     lock_density: float = 1.0, shared_addresses: int = 4) -> str:
    """Program text for the given knobs; same arguments, same text."""
    if threads * ops_per_thread > MAX_TOTAL_OPS:
        raise ValueError(f"threads x ops is {threads * ops_per_thread}, "
                         f"above the budget of {MAX_TOTAL_OPS}")
    if shared_addresses > MAX_TOTAL_OPS:
        raise ValueError(f"{shared_addresses} shared addresses, above the "
                         f"budget of {MAX_TOTAL_OPS}")
    if threads < 1:
        raise ValueError("need at least one thread")
    if ops_per_thread < 4:
        raise ValueError("ops_per_thread too small for a useful body")
    if shared_addresses < 1:
        raise ValueError("need at least one shared address")
    rng = Rng(seed)
    pool = _shared_pool(rng, shared_addresses)

    handoffs = []  # (sem name, poster tid, waiter tid, count)
    if threads >= 3 and rng.chance(0.5):
        lo = 1 + rng.below(threads - 2)
        hi = lo + 1 + rng.below(threads - 1 - lo)
        handoffs.append((f"h{len(handoffs)}", lo, hi, 1 + rng.below(2)))

    lines = ["# generated workload", "mutex g"]
    for name, _, _, _ in handoffs:
        lines.append(f"sem {name} 0")
    for i, addr in enumerate(pool):
        lines.append(f"mem 0x{addr:08X} {i + 1}")

    def shared_group(tid: int, budget: int, body: list) -> int:
        """One shared-address access group; returns instructions used."""
        addr = rng.choice(pool)
        locked = rng.chance(lock_density)
        kind = rng.below(3)
        group = []
        if kind == 0:  # read-modify-write
            group += [f"LOAD r1 0x{addr:08X}", f"ADDI r1 {1 + rng.below(9)}",
                      f"STORE r1 0x{addr:08X}"]
        elif kind == 1:  # blind write
            group += [f"SET r2 {rng.below(100)}", f"STORE r2 0x{addr:08X}"]
        else:  # read
            group += [f"LOAD r3 0x{addr:08X}"]
        cost = len(group) + (2 if locked else 0)
        if cost > budget:
            return 0
        if locked:
            body.append("LOCK g")
        body.extend(group)
        if locked:
            body.append("UNLOCK g")
        return cost

    def private_work(tid: int, budget: int, body: list) -> int:
        addr = 0x00100000 + tid * 0x1000 + 4 * rng.below(8)
        choice = rng.below(3)
        if choice == 0 and budget >= 2:
            body += [f"SET r0 {rng.below(50)}", f"STORE r0 0x{addr:08X}"]
            return 2
        if choice == 1 and budget >= 1:
            body.append(f"LOAD r0 0x{addr:08X}")
            return 1
        body.append(f"ADDI r0 {rng.below(20)}")
        return 1

    def fill_body(tid: int, budget: int, posts: list, waits: list) -> list:
        body = []
        used = 0
        sem_ops = [f"SEM_POST {n}" for n, c in posts for _ in range(c)]
        sem_ops += [f"SEM_WAIT {n}" for n, c in waits for _ in range(c)]
        budget -= len(sem_ops)
        while used < budget:
            if sem_ops and rng.chance(0.25):
                body.append(sem_ops.pop(0))
                continue
            step = (shared_group(tid, budget - used, body) if rng.chance(0.6)
                    else private_work(tid, budget - used, body))
            if step == 0:
                step = private_work(tid, budget - used, body)
            used += step
        body.extend(sem_ops)
        return body

    sections = {}
    for tid in range(1, threads):
        posts = [(n, c) for n, lo, hi, c in handoffs if lo == tid]
        waits = [(n, c) for n, lo, hi, c in handoffs if hi == tid]
        sections[tid] = fill_body(tid, ops_per_thread - 1, posts, waits)

    main = []
    for tid in range(1, threads):
        main.append(f"CREATE {tid}")
    main_work = min(6, max(0, ops_per_thread - 1 - 2 * (threads - 1)))
    spent = 0
    while spent < main_work:
        step = shared_group(0, main_work - spent, main)
        if step == 0:
            step = private_work(0, main_work - spent, main)
        spent += step
    for tid in range(1, threads):
        main.append(f"JOIN {tid}")
    sections[0] = main

    for tid in range(threads):
        lines.append(f"thread {tid}:")
        lines.extend(f"  {ins}" for ins in sections[tid])
        lines.append("  EXIT")
    return "\n".join(lines) + "\n"
