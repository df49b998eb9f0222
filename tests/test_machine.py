"""Seeded scheduler and execution semantics."""

import pytest

from racereplay import workloads
from racereplay.errors import DeadlockError, MachineError
from racereplay.machine import (EventKind, ExecutionHooks, SyncKind, run,
                                splitmix64)
from racereplay.program import parse_program


def test_splitmix64_reference_sequence():
    # First outputs for state 0, cross-checked against the published
    # constants with an independent transcription of the algorithm.
    def reference(state):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return state, z ^ (z >> 31)

    state_a = state_b = 0
    for _ in range(100):
        state_a, va = splitmix64(state_a)
        state_b, vb = reference(state_b)
        assert va == vb
    state, first = splitmix64(0)
    assert first == 0xE220A8397B1DCDAF  # widely published first output


def test_single_thread_store():
    prog = parse_program("thread 0:\n  SET r1 7\n  STORE r1 0x00000020\n  EXIT\n")
    res = run(prog, 0)
    assert res.memory[0x20] == 7
    assert [(e.kind, e.addr) for e in res.events] == [(EventKind.STORE, 0x20)]


def test_load_default_zero_and_wraparound():
    prog = parse_program(
        "thread 0:\n  LOAD r0 0x00000040\n  ADDI r0 -1\n"
        "  STORE r0 0x00000044\n  EXIT\n")
    res = run(prog, 1)
    assert res.memory[0x44] == 0xFFFFFFFF


def test_determinism_same_seed():
    prog = parse_program(workloads.shared_counter())
    a = run(prog, 1234)
    b = run(prog, 1234)
    assert a.events == b.events
    assert a.memory == b.memory


def test_seeds_vary_schedules():
    prog = parse_program(workloads.shared_counter())
    streams = {tuple(run(prog, seed).events) for seed in range(20)}
    assert len(streams) > 1


def test_shared_counter_final_values():
    prog = parse_program(workloads.shared_counter())
    finals = {run(prog, seed).memory[0x1000] for seed in range(200)}
    assert finals <= {11, 12, 18}
    assert len(finals) > 1  # schedule variety reaches multiple outcomes


def test_locked_counter_always_18():
    prog = parse_program(workloads.shared_counter(locked=True))
    for seed in range(50):
        assert run(prog, seed).memory[0x1000] == 18


def test_mutual_join_deadlock():
    text = ("mutex m\n"
            "thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
            "thread 1:\n  LOCK m\n  JOIN 2\n  UNLOCK m\n  EXIT\n"
            "thread 2:\n  JOIN 1\n  EXIT\n")
    prog = parse_program(text)
    with pytest.raises(DeadlockError) as err:
        run(prog, 0)
    reasons = dict(err.value.blocked)
    assert "joining thread 2" in reasons[1]
    assert "joining thread 1" in reasons[2]
    assert 0 in reasons  # main still waits on a child


def test_self_lock_deadlock_reported():
    text = "mutex m\nthread 0:\n  LOCK m\n  LOCK m\n  UNLOCK m\n  UNLOCK m\n  EXIT\n"
    with pytest.raises(DeadlockError) as err:
        run(parse_program(text), 0)
    assert "held by itself" in dict(err.value.blocked)[0]


def test_unlock_not_held_is_machine_error():
    text = "mutex m\nthread 0:\n  UNLOCK m\n  EXIT\n"
    with pytest.raises(MachineError, match="does not hold"):
        run(parse_program(text), 0)


def test_lock_blocking_semantics_respected():
    # No LOCK event may appear while another thread holds the mutex.
    prog = parse_program(workloads.contended_counter(3, 10))
    for seed in (0, 1, 2):
        held = None
        for ev in run(prog, seed).events:
            if ev.kind is not EventKind.SYNC:
                continue
            if ev.sync == SyncKind.LOCK:
                assert held is None
                held = ev.tid
            elif ev.sync == SyncKind.UNLOCK:
                assert held == ev.tid
                held = None


def test_semaphore_count_never_negative():
    prog = parse_program(workloads.producer_consumer(40, 3))
    for seed in (0, 5):
        counts = {oid: init for oid, init in prog.sem_initials().items()}
        for ev in run(prog, seed).events:
            if ev.kind is not EventKind.SYNC:
                continue
            if ev.sync == SyncKind.SEM_WAIT:
                counts[ev.obj] -= 1
                assert counts[ev.obj] >= 0
            elif ev.sync == SyncKind.SEM_POST:
                counts[ev.obj] += 1


def test_event_stream_invariants():
    prog = parse_program(workloads.ping_pong(20))
    res = run(prog, 3)
    seqs = [e.seq for e in res.events]
    assert seqs == sorted(set(seqs))
    per_thread_last = {}
    for ev in res.events:
        prev = per_thread_last.get(ev.tid, -1)
        assert ev.ordinal >= prev or ev.ordinal == -1
        if ev.ordinal >= 0:
            per_thread_last[ev.tid] = ev.ordinal


def test_start_events_precede_thread_activity():
    prog = parse_program(workloads.shared_counter())
    res = run(prog, 9)
    seen_start = set()
    for ev in res.events:
        if ev.tid == 0:
            continue
        if ev.kind is EventKind.SYNC and ev.sync == SyncKind.START:
            seen_start.add(ev.tid)
        else:
            assert ev.tid in seen_start


def test_exit_event_only_for_join_targets():
    # Worker 1 is joined; worker 2 is created but never joined.
    text = ("thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  SET r0 1\n  EXIT\n"
            "thread 2:\n  SET r0 2\n  EXIT\n")
    prog = parse_program(text)
    res = run(prog, 4)
    exits = [e.tid for e in res.events
             if e.kind is EventKind.SYNC and e.sync == SyncKind.EXIT]
    assert exits == [1]


class CountingHooks(ExecutionHooks):
    def __init__(self):
        self.permits_calls = 0

    def permits(self, machine, tid):
        self.permits_calls += 1
        return True


def test_scheduler_rechecks_threads_only_at_sync_points():
    # Main forks 8 workers that each make 500 memory ops, then joins them.
    # The runnable set is recomputed only after sync and EXIT steps, plus
    # one re-check of a thread whose next op has just become a sync op.
    workers = 8
    lines = ["thread 0:"]
    lines += [f"  CREATE {t}" for t in range(1, workers + 1)]
    lines += [f"  JOIN {t}" for t in range(1, workers + 1)]
    lines += ["  EXIT"]
    for t in range(1, workers + 1):
        addr = f"0x{0x1000 + 4 * t:08X}"
        lines.append(f"thread {t}:")
        lines += [f"  LOAD r0 {addr}\n  STORE r0 {addr}"] * 250
        lines.append("  EXIT")
    prog = parse_program("\n".join(lines) + "\n")
    hooks = CountingHooks()
    res = run(prog, 5, hooks)
    n = prog.n_threads
    syncs = sum(1 for e in res.events if e.kind is EventKind.SYNC)
    exits = n
    assert res.steps == workers * 500 + syncs + 1  # main's EXIT emits no event
    assert hooks.permits_calls <= n * (syncs + exits + 1) + syncs + exits
