"""Golden digest of the observable behaviour of record, detect and replay.

One SHA-256 over a fixed corpus and seed set covers trace bytes, recorded
events, final memory and step counts; detect status, stats, reports and
replay results in first-race, all-races and probe modes; deadlock reports;
and one divergent replay per program. Any change to the scheduler's draw
rule, the replay gate or the detector's verdicts changes the digest.

The constant was captured before the scheduler kept its runnable list
from step to step, so it pins that change to the earlier per-step
recomputation bit for bit.

``GOLDEN_CONTENDED`` covers what that corpus lacks: many threads blocked on
one object at once (a semaphore starting at 0 with three waiters, a thread
joined by two others, dense locking at 8 to 32 threads). It was captured
while the scheduler still rebuilt its runnable list over every thread after
each sync op, before the list became per-object waiter bitmasks, so it pins
that change bit for bit.

Both constants were captured again when the discard moved from the
all-components test to the own-component test with frozen segments. That
change moves only what the masked digests below leave out, which were
captured before it and still pass.
"""

import hashlib
from collections import Counter
from dataclasses import astuple, replace

from racereplay import workloads
from racereplay.detector import LiveSegmentProbe, detect
from racereplay.errors import DeadlockError
from racereplay.generator import generate_program
from racereplay.machine import ExecutionHooks, _Status, run
from racereplay.program import parse_program
from racereplay.record import record_execution
from racereplay.replay import replay_execution
from racereplay.tracefile import SyncTrace

GOLDEN = "d297eae31a05273d5cf29a2e10c8f3bc6bb7981c43c2b9c2a10a2fff55409f76"
GOLDEN_CONTENDED = "61d72d013c429605e346fd053d4f2cefe7d4a37bc1e1f58d260ddebf40e63db3"
# The same two corpora with the snooped discard's own counts masked. They
# were captured under the strict all-components discard test, so they pin
# a change of discard policy to the verdicts, reports, scan counts and
# logical-horizon rows of that test bit for bit.
GOLDEN_MASKED = "94e85cd6765ea4b55a38e6b632d7436e31663b21d5125ed1934bd1fd6f0486de"
GOLDEN_CONTENDED_MASKED = (
    "78d2edfa3623a2ccdcfdb8c2d7229fd3997f76dca3b2a5e8bc00f44e3f2555dc")

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


SEM_THREE_WAITERS = (
    "sem s 0\nmutex m\n"
    "thread 0:\n  CREATE 1\n  CREATE 2\n  CREATE 3\n  SEM_POST s\n"
    "  SEM_POST s\n  LOCK m\n  STORE r0 0x00000100\n  UNLOCK m\n"
    "  SEM_POST s\n  JOIN 1\n  JOIN 2\n  JOIN 3\n  EXIT\n"
    + "".join(f"thread {t}:\n  SEM_WAIT s\n  LOCK m\n  LOAD r0 0x00000100\n"
              "  ADDI r0 1\n  STORE r0 0x00000100\n  UNLOCK m\n  EXIT\n"
              for t in (1, 2, 3)))

TWO_JOINERS = (
    "thread 0:\n  CREATE 1\n  CREATE 2\n  CREATE 3\n  JOIN 2\n  JOIN 3\n  EXIT\n"
    "thread 1:\n  SET r0 5\n" + "  ADDI r0 1\n" * 6 + "  STORE r0 0x00000200\n  EXIT\n"
    "thread 2:\n  JOIN 1\n  LOAD r0 0x00000200\n  EXIT\n"
    "thread 3:\n  JOIN 1\n  LOAD r0 0x00000200\n  STORE r0 0x00000204\n  EXIT\n")


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


def contended_corpus():
    texts = [SEM_THREE_WAITERS, TWO_JOINERS,
             generate_program(32, threads=32, ops_per_thread=20,
                              lock_density=1.0)]
    for i, (threads, density) in enumerate(((8, 0.0), (8, 1.0), (12, 0.5),
                                            (16, 1.0))):
        texts.append(generate_program(300 + i, threads=threads,
                                      ops_per_thread=24, lock_density=density))
    texts += [workloads.contended_counter(8, 20),
              workloads.producer_consumer(30, 3)]
    return texts


def _ints(events):
    return [tuple(int(f) for f in ev) for ev in events]


def _mem(memory):
    return sorted(memory.items())


def _replay_fields(result):
    return (result.verdict, result.detail, result.steps, _mem(result.memory))


def _detect_fields(result, probe_rows, masked):
    stats = result.stats
    if masked:
        stats = replace(stats, segments_max_live=None,
                        segments_discarded=None)
        probe_rows = [(at, None, logical) for at, _, logical in probe_rows]
    return (result.status, astuple(stats),
            [astuple(r) for r in result.reports], probe_rows,
            _replay_fields(result.replay))


def behaviour(text, seed, masked=False):
    """Everything observable about one (program, seed) pair, as plain data.

    ``masked`` leaves out what depends on the snooped discard's policy:
    ``segments_max_live``, ``segments_discarded`` and the probe's snooped
    column.
    """
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
                                             replay_seed=replay_seed), [],
                                      masked))
    probe = LiveSegmentProbe(program)
    out.append(_detect_fields(detect(program, rec.trace, listener=probe),
                              probe.rows, masked))
    stamps = [list(s) for s in rec.trace.stamps]
    victim = max(t for t, s in enumerate(stamps) if s)
    stamps[victim].pop()
    short = SyncTrace(seed=seed, digest=rec.trace.digest, stamps=stamps)
    out.append(_replay_fields(replay_execution(program, short)))
    return out


def corpus_digest(texts, masked=False):
    h = hashlib.sha256()
    for text in texts:
        for seed in SEEDS:
            h.update(repr(behaviour(text, seed, masked)).encode())
    return h.hexdigest()


def test_corpus_covers_deadlock_and_divergence():
    kinds = {behaviour(SELF_LOCK_DEADLOCK, 0)[0], behaviour(SEM_DEADLOCK, 0)[0]}
    assert kinds == {"deadlock"}
    diverged = behaviour(workloads.ping_pong(10, slack=2), 1)[-1]
    assert diverged[0] == "DIVERGED"


def test_golden_digest():
    assert corpus_digest(corpus()) == GOLDEN


class _WaiterCount(ExecutionHooks):
    """Largest number of threads blocked for the same reason after any event."""

    def __init__(self):
        self.most = 0

    def on_event(self, machine, event):
        reasons = Counter(machine._block_reason(tid)
                          for tid in range(machine.program.n_threads)
                          if machine.status[tid] is _Status.READY)
        reasons.pop(None, None)
        self.most = max([self.most, *reasons.values()])


def test_contended_cases_block_several_threads_on_one_object():
    for text in (SEM_THREE_WAITERS, TWO_JOINERS):
        program = parse_program(text)
        for seed in SEEDS:
            hooks = _WaiterCount()
            run(program, seed, hooks)
            assert hooks.most >= 2


def test_golden_contended_digest():
    assert corpus_digest(contended_corpus()) == GOLDEN_CONTENDED


def test_masked_digests_ignore_the_discard_policy():
    assert corpus_digest(corpus(), masked=True) == GOLDEN_MASKED
    assert corpus_digest(contended_corpus(), masked=True) == \
        GOLDEN_CONTENDED_MASKED
