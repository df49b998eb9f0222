"""Golden digest of the observable behaviour of record, detect and replay.

One SHA-256 over a fixed corpus and seed set covers trace bytes, recorded
events, final memory and step counts; detect status, stats, reports and
replay results in first-race, all-races and probe modes; deadlock reports;
and one divergent replay per program. Any change to the scheduler's draw
rule, the replay gate or the detector's verdicts changes the digest.

The constant was captured before the scheduler kept its runnable list
from step to step, so it pins that change to the earlier per-step
recomputation bit for bit.
"""

import hashlib
from dataclasses import astuple

from racereplay import workloads
from racereplay.detector import detect
from racereplay.errors import DeadlockError
from racereplay.generator import generate_program
from racereplay.program import parse_program
from racereplay.record import record_execution
from racereplay.replay import replay_execution
from racereplay.tracefile import SyncTrace

GOLDEN = "c90be311369ff79e6cc5f03e5aa0cccab6c10ebda2ac0d44d7879935204e08aa"

SEEDS = (0, 1, 7)

SELF_LOCK_DEADLOCK = (
    "mutex m\n"
    "thread 0:\n  CREATE 1\n  LOCK m\n  SET r0 1\n  LOCK m\n  UNLOCK m\n"
    "  CREATE 2\n  JOIN 1\n  EXIT\n"
    "thread 1:\n  LOAD r0 0x00000010\n  STORE r0 0x00000014\n  LOCK m\n"
    "  UNLOCK m\n  EXIT\n"
    "thread 2:\n  EXIT\n")

SEM_DEADLOCK = (
    "sem s 0\n"
    "thread 0:\n  CREATE 1\n  LOAD r0 0x00000020\n  SEM_WAIT s\n  JOIN 1\n  EXIT\n"
    "thread 1:\n  STORE r0 0x00000020\n  SEM_WAIT s\n  SEM_POST s\n  EXIT\n")


def corpus():
    texts = []
    for threads in (2, 3, 4, 5):
        for i, density in enumerate((0.0, 0.25, 0.5, 1.0)):
            texts.append(generate_program(10 * threads + i, threads=threads,
                                          ops_per_thread=40,
                                          lock_density=density))
    for i in range(6):
        texts.append(generate_program(200 + i, threads=16, ops_per_thread=12,
                                      lock_density=(0.0, 0.5, 1.0)[i % 3]))
    texts += [workloads.ping_pong(10, slack=s) for s in (1, 2, 3)]
    texts += [workloads.contended_counter(3, 4),
              workloads.producer_consumer(8, 2),
              workloads.shared_counter(),
              workloads.shared_counter(locked=True),
              SELF_LOCK_DEADLOCK, SEM_DEADLOCK]
    return texts


def _ints(events):
    return [tuple(int(f) for f in ev) for ev in events]


def _mem(memory):
    return sorted(memory.items())


def _replay_fields(result):
    return (result.verdict, result.detail, result.steps, _mem(result.memory))


def _detect_fields(result):
    return (result.status, astuple(result.stats),
            [astuple(r) for r in result.reports], result.probe_rows,
            _replay_fields(result.replay))


def behaviour(text, seed):
    """Everything observable about one (program, seed) pair, as plain data."""
    program = parse_program(text)
    try:
        rec = record_execution(program, seed)
    except DeadlockError as dead:
        return ("deadlock", dead.blocked, dead.steps)
    out = [rec.trace.to_bytes(), _ints(rec.events), _mem(rec.memory), rec.steps]
    for replay_seed in (0, 3):
        for all_races in (False, True):
            out.append(_detect_fields(detect(program, rec.trace,
                                             all_races=all_races,
                                             replay_seed=replay_seed)))
    out.append(_detect_fields(detect(program, rec.trace, probe=True)))
    stamps = [list(s) for s in rec.trace.stamps]
    victim = max(t for t, s in enumerate(stamps) if s)
    stamps[victim].pop()
    short = SyncTrace(seed=seed, digest=rec.trace.digest, stamps=stamps)
    out.append(_replay_fields(replay_execution(program, short)))
    return out


def corpus_digest():
    h = hashlib.sha256()
    for text in corpus():
        for seed in SEEDS:
            h.update(repr(behaviour(text, seed)).encode())
    return h.hexdigest()


def test_corpus_covers_deadlock_and_divergence():
    kinds = {behaviour(SELF_LOCK_DEADLOCK, 0)[0], behaviour(SEM_DEADLOCK, 0)[0]}
    assert kinds == {"deadlock"}
    diverged = behaviour(workloads.ping_pong(10, slack=2), 1)[-1]
    assert diverged[0] == "DIVERGED"


def test_golden_digest():
    assert corpus_digest() == GOLDEN
