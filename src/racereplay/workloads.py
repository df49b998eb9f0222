"""Canonical programs used by the test suite and as demo inputs.

All builders return program text. The shared counter pair (unsynchronised
and lock-protected) is the smallest program with a write-write race; the
remaining builders stress specific subsystems: alternation for trace
compression and discard-horizon comparisons, all-threads contention for
segment discard, and a bounded producer/consumer for live-segment bounds.
"""

from __future__ import annotations

SHARED = 0x00001000


def shared_counter(locked: bool = False) -> str:
    """Two workers add 6 and 7 to one shared word initialised to 5.

    Unsynchronised, the final value is 18, 11 or 12 depending on the
    interleaving and the store/store (or load/store) conflict is a data
    race; with ``locked=True`` both updates hold a common mutex and the
    final value is always 18.
    """
    lock, unlock = ("  LOCK m\n", "  UNLOCK m\n") if locked else ("", "")
    addr = SHARED
    return (
        f"mutex m\n"
        f"mem 0x{addr:08X} 5\n"
        f"thread 0:\n"
        f"  CREATE 1\n"
        f"  CREATE 2\n"
        f"  JOIN 1\n"
        f"  JOIN 2\n"
        f"  EXIT\n"
        f"thread 1:\n"
        f"{lock}"
        f"  LOAD r0 0x{addr:08X}\n"
        f"  ADDI r0 6\n"
        f"  STORE r0 0x{addr:08X}\n"
        f"{unlock}"
        f"  EXIT\n"
        f"thread 2:\n"
        f"{lock}"
        f"  LOAD r0 0x{addr:08X}\n"
        f"  ADDI r0 7\n"
        f"  STORE r0 0x{addr:08X}\n"
        f"{unlock}"
        f"  EXIT\n"
    )


def ping_pong(iterations: int, slack: int = 1) -> str:
    """Main and one worker trade semaphore tokens, each bumping a private
    counter per turn. Race-free; every thread keeps progressing, so discard
    horizons advance throughout.

    ``slack`` is the initial token count: 1 gives strict alternation (both
    threads' clocks are always fully published at every segment end), while
    2+ lets the threads overlap, which is what makes direct clock snooping
    see more than causal propagation can.
    """
    if slack < 1:
        raise ValueError("slack must be positive")
    base = 0x00002000

    def turns(me: str, other: str, addr: int) -> str:
        return (f"  SEM_WAIT {me}\n  LOAD r0 0x{addr:08X}\n  ADDI r0 1\n"
                f"  STORE r0 0x{addr:08X}\n  SEM_POST {other}\n") * iterations

    return (f"sem a {slack}\nsem b 0\n"
            f"mem 0x{base:08X} 0\nmem 0x{base + 0x100:08X} 0\n"
            f"thread 0:\n  CREATE 1\n{turns('a', 'b', base)}  JOIN 1\n  EXIT\n"
            f"thread 1:\n{turns('b', 'a', base + 0x100)}  EXIT\n")


def contended_counter(threads: int, iterations: int) -> str:
    """All threads (main included) repeatedly update one lock-protected
    counter. Race-free; heavy segment churn with fast knowledge spread."""
    if threads < 2:
        raise ValueError("need at least two threads")
    addr = 0x00003000
    body = (f"  LOCK m\n  LOAD r0 0x{addr:08X}\n  ADDI r0 1\n"
            f"  STORE r0 0x{addr:08X}\n  UNLOCK m\n") * iterations
    workers = range(1, threads)
    return (f"mutex m\nmem 0x{addr:08X} 0\nthread 0:\n"
            + "".join(f"  CREATE {tid}\n" for tid in workers) + body
            + "".join(f"  JOIN {tid}\n" for tid in workers) + "  EXIT\n"
            + "".join(f"thread {tid}:\n{body}  EXIT\n" for tid in workers))


def producer_consumer(iterations: int, capacity: int) -> str:
    """Bounded handoff: a worker produces into a small ring of addresses,
    main consumes. Backpressure keeps the producer at most ``capacity``
    items ahead, so live segment counts stay bounded."""
    slots = [f"0x{0x00004000 + 4 * i:08X}" for i in range(capacity)]
    consume = "".join(f"  SEM_WAIT items\n  LOAD r1 {slots[i % capacity]}\n"
                      f"  SEM_POST slots\n" for i in range(iterations))
    produce = "".join(f"  SEM_WAIT slots\n  SET r0 {i % 97}\n"
                      f"  STORE r0 {slots[i % capacity]}\n  SEM_POST items\n"
                      for i in range(iterations))
    return (f"sem slots {capacity}\nsem items 0\nthread 0:\n  CREATE 1\n"
            f"{consume}  JOIN 1\n  EXIT\nthread 1:\n{produce}  EXIT\n")
