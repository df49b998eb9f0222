"""Golden digest of the observable behaviour of record, detect and replay.

One SHA-256 over a fixed corpus and seed set covers trace bytes, recorded
events, final memory and step counts; detect status, stats, reports and
replay results in first-race, all-races and probe modes; deadlock reports;
and one divergent replay per program. Any change to the scheduler's draw
rule, the replay order or the detector's verdicts changes the digest.

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

All four constants were captured again when the probe's logical discard
moved to the same own-component test. That change moves only the probe's
logical column: with that column masked too, both corpora gave the same
digests before and after it.

All four constants were captured again when replay moved to Lamport's
total order, sync ops one at a time by (stamp, thread id), from a tie
order drawn by the replay seed. That change moves only the order of ops
with equal stamps. Over both corpora (120 program and seed pairs) the
recorded traces, events and memory, every status, and every all-races
report set were the same before and after it, under replay seeds 0 and
3; what moved is where a tie put the first race (6 of 114 first-race runs
at seed 3, none at seed 0), the order of all-races reports, and the
counts and replay steps that follow from the interleaving. On the 500
programs of acceptance criterion 2, every all-races report set was also
the same, and 21 first races moved, each still equal to the oracle's.

All four constants were captured again when replay dropped the machine's
scheduler for one sequential driver that runs each thread's memory steps
as soon as its last sync op has run, and lost its replay seed; detect
then ran once per mode here instead of once per mode and seed. A
record-only digest over both corpora (trace bytes, events, memory, steps
and deadlock reports) was the same before and after it. Against the
earlier replay at seed 0, over both corpora (114 program and seed pairs,
first-race and all-races), every status, every report in order,
identify's sites, ``segments_created`` and ``segments_compared`` were the
same. What moved follows from where the driver stops and how early a
thread's last access comes: first-race ``mem_events`` rose in 23 runs,
``segments_discarded`` rose in 3, and ``segments_max_live`` fell in 6
and rose in none; the replay steps of stopped runs and the wording of
the divergent replay's detail moved too.

All four constants were captured again when replay began to check each
thread's recorded sync-op count against the program's static count
before it runs. Each program's divergent replay pops one stamp, so its
counts differ, and it is now refused before any step runs: over both
corpora, all 114 such replays went from DIVERGED after some steps, stuck
at a stamp, to DIVERGED with 0 steps, the initial memory and a detail
naming the short thread and both counts. With that one field left out
of ``behaviour``, all four digests were the same before and after the
change.
"""

import hashlib
from collections import Counter
from dataclasses import astuple, replace

from racereplay import workloads
from racereplay.detector import LiveSegmentProbe, detect
from racereplay.errors import DeadlockError
from racereplay.generator import generate_program
from racereplay.machine import _Status, run
from racereplay.program import parse_program
from racereplay.record import record_execution
from racereplay.replay import replay_execution
from racereplay.tracefile import SyncTrace

GOLDEN = "2b87f225aa9e3d2c24e19aa9d42cedf9ff38519126f6a4da7c401041c3f280c3"
GOLDEN_CONTENDED = "7913f9e278af516bafd18960379c24b569921045ef06f45066470915ea6e84b3"
# The same two corpora with the snooped discard's own counts masked. They
# pin a change of the snooped discard to the verdicts, reports, scan
# counts and logical-horizon rows bit for bit.
GOLDEN_MASKED = "64a9badf8aafa3002151732148a0d0c1202c3ceb7d01328bd76455a6ad843715"
GOLDEN_CONTENDED_MASKED = (
    "095b4988c3c828a686120fede03a5e489e845102783bb4b34cbbd9b11f7a3fba")

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
    for all_races in (False, True):
        out.append(_detect_fields(detect(program, rec.trace,
                                         all_races=all_races), [], masked))
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


class _WaiterCount:
    """Observer: the largest number of threads blocked for the same reason
    after any event."""

    def __init__(self):
        self.most = 0

    def __call__(self, machine, event):
        reasons = Counter(machine._block_reason(tid)
                          for tid in range(machine.program.n_threads)
                          if machine.status[tid] is _Status.READY)
        reasons.pop(None, None)
        self.most = max([self.most, *reasons.values()])


def test_contended_cases_block_several_threads_on_one_object():
    for text in (SEM_THREE_WAITERS, TWO_JOINERS):
        program = parse_program(text)
        for seed in SEEDS:
            waiters = _WaiterCount()
            run(program, seed, waiters)
            assert waiters.most >= 2


def test_golden_contended_digest():
    assert corpus_digest(contended_corpus()) == GOLDEN_CONTENDED


def test_masked_digests_ignore_the_discard_policy():
    assert corpus_digest(corpus(), masked=True) == GOLDEN_MASKED
    assert corpus_digest(contended_corpus(), masked=True) == \
        GOLDEN_CONTENDED_MASKED
