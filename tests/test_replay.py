"""Replay: fidelity for race-free programs, divergence signalling."""

import tracemalloc
from functools import partial
from importlib import import_module
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import CountingHooks, per_object_sync_sequences, replay_events

import racereplay.replay as replay_mod
from racereplay import workloads
from racereplay.detector import detect
from racereplay.errors import MismatchError
from racereplay.generator import generate_program
from racereplay.identify import identify_all
from racereplay.machine import EventKind, run
from racereplay.program import parse_program
from racereplay.record import record_execution
from racereplay.replay import DIVERGED, OK, _ReplayHooks, replay_execution
from racereplay.tracefile import SyncTrace

# The package re-exports the function ``identify`` under the module's name.
identify_mod = import_module("racereplay.identify")


def test_race_free_replay_matches_record():
    prog = parse_program(workloads.shared_counter(locked=True))
    for seed in range(10):
        rec = record_execution(prog, seed)
        events, result = replay_events(prog, rec.trace, replay_seed=99)
        assert result.verdict == OK
        assert result.memory[0x1000] == 18
        assert (per_object_sync_sequences(events)
                == per_object_sync_sequences(rec.events))


def test_generated_race_free_fidelity():
    for i in range(15):
        text = generate_program(seed=500 + i, threads=2 + i % 3,
                                ops_per_thread=20 + i, lock_density=1.0)
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        events, result = replay_events(prog, rec.trace, replay_seed=7)
        assert result.verdict == OK
        assert result.memory == rec.memory
        assert (per_object_sync_sequences(events)
                == per_object_sync_sequences(rec.events))


def test_no_sync_program_replays_trivially():
    prog = parse_program("thread 0:\n  SET r0 1\n  STORE r0 0x00000010\n  EXIT\n")
    rec = record_execution(prog, 3)
    result = replay_execution(prog, rec.trace)
    assert result.verdict == OK
    assert result.memory == rec.memory


def test_digest_mismatch_rejected():
    prog_a = parse_program(workloads.shared_counter())
    prog_b = parse_program(workloads.shared_counter(locked=True))
    trace = record_execution(prog_a, 0).trace
    with pytest.raises(MismatchError, match="digest"):
        replay_execution(prog_b, trace)


def test_replay_determinism():
    prog = parse_program(workloads.shared_counter())
    rec = record_execution(prog, 11)
    a, ra = replay_events(prog, rec.trace, replay_seed=5)
    b, rb = replay_events(prog, rec.trace, replay_seed=5)
    assert a == b
    assert ra.memory == rb.memory


def _two_thread_program():
    return parse_program(
        "thread 0:\n  CREATE 1\n  JOIN 1\n  EXIT\nthread 1:\n  EXIT\n")


def test_crafted_unreachable_order_diverges():
    # Honest stamps would be CREATE=1, START=2, EXIT=3, JOIN=4. Demanding
    # JOIN before the child's START can never be satisfied by the machine,
    # so the replay stalls and reports divergence.
    prog = _two_thread_program()
    trace = SyncTrace(seed=0, digest=prog.digest(),
                      stamps=[[1, 2], [3, 4]])
    result = replay_execution(prog, trace)
    assert result.verdict == DIVERGED
    assert "stuck" in result.detail


def test_crafted_extra_recorded_ops_diverge():
    # Trace promises three sync ops for the child, which only has two.
    prog = _two_thread_program()
    trace = SyncTrace(seed=0, digest=prog.digest(),
                      stamps=[[1, 4], [2, 3, 5]])
    result = replay_execution(prog, trace)
    assert result.verdict == DIVERGED
    assert "never executed" in result.detail


def test_crafted_missing_recorded_ops_diverge():
    # Trace records only one sync op for the child; its EXIT goes over
    # budget, the parent can never join, and the replay reports the stall.
    prog = _two_thread_program()
    trace = SyncTrace(seed=0, digest=prog.digest(), stamps=[[1, 3], [2]])
    result = replay_execution(prog, trace)
    assert result.verdict == DIVERGED
    assert "past recorded sync count" in result.detail


def test_equal_stamps_may_run_any_order():
    # Two workers lock distinct mutexes: their op stamps coincide. Ties run
    # in thread-id order, so the replay completes under any replay seed and
    # its sync order is the same under each.
    text = ("mutex m\nmutex n\n"
            "thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
            "thread 1:\n  LOCK m\n  UNLOCK m\n  EXIT\n"
            "thread 2:\n  LOCK n\n  UNLOCK n\n  EXIT\n")
    prog = parse_program(text)
    rec = record_execution(prog, 1)
    orders = set()
    for replay_seed in range(6):
        events, result = replay_events(prog, rec.trace, replay_seed)
        assert result.verdict == OK
        orders.add(tuple((ev.tid, ev.obj, ev.sync) for ev in events
                         if ev.kind is EventKind.SYNC))
    assert len(orders) == 1


@pytest.mark.parametrize("threads, ops", [(16, 200), (64, 100)])
def test_gate_work_is_bounded_by_sync_ops(monkeypatch, threads, ops):
    # The hooks are asked when a thread first can run at a gate op and
    # again only when its refusal may have been lifted: a lock's release,
    # or the replay frontier reaching the thread's stamp. So the asks stay
    # within a few per sync op, however many threads wait on each lock.
    prog = parse_program(generate_program(3, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=1.0))
    rec = record_execution(prog, 1)
    bound = 3 * rec.sync_ops + prog.n_threads
    counting = CountingHooks()
    run(prog, 1, counting)
    assert counting.permits_calls <= bound

    calls = 0
    permits = _ReplayHooks.permits

    def counted(self, machine, tid):
        nonlocal calls
        calls += 1
        return permits(self, machine, tid)

    monkeypatch.setattr(_ReplayHooks, "permits", counted)
    assert replay_execution(prog, rec.trace).verdict == OK
    assert calls <= bound


def test_recheck_hands_back_only_threads_at_the_frontier(monkeypatch):
    # Only the frontier thread may run, so recheck hands back at most one
    # thread, and that thread's next recorded stamp, packed with its tid,
    # is the heap top; an OK replay ends with the heap empty. Each program
    # is replayed under its honest trace and under one with a stamp
    # raised, which makes threads wait that would otherwise run.
    gates = []
    handed = 0

    class Checked(_ReplayHooks):
        def __init__(self, stamps, observer):
            super().__init__(stamps, observer)
            gates.append(self)

        def recheck(self, machine, vetoed):
            nonlocal handed
            due = super().recheck(machine, vetoed)
            assert due & (due - 1) == 0  # at most one bit
            if due:
                tid = due.bit_length() - 1
                stamp = self.stamps[tid][self.done[tid]]
                assert stamp * len(self.stamps) + tid == self.heads[0]
                handed += 1
            return due

    monkeypatch.setattr(replay_mod, "_ReplayHooks", Checked)
    for i in range(40):
        prog = parse_program(generate_program(seed=700 + i, threads=2 + i % 6,
                                              ops_per_thread=30,
                                              lock_density=i % 5 / 4))
        rec = record_execution(prog, i)
        raised = [list(stamps) for stamps in rec.trace.stamps]
        busiest = max(raised, key=len)
        busiest[i % len(busiest)] += 1 + i % 3
        for stamps in (rec.trace.stamps, raised):
            trace = SyncTrace(seed=i, digest=rec.trace.digest, stamps=stamps)
            gates.clear()
            result = replay_execution(prog, trace, replay_seed=i)
            assert result.verdict == OK or stamps is raised
            if result.verdict == OK:
                assert gates[0].heads == []
                assert gates[0].frontier is None
    assert handed > 0


def test_gate_state_is_bounded_by_threads():
    # The gate keeps a heap of one head per thread, not a table over the
    # recorded stamps, so building it for a long two-thread trace holds a
    # few hundred bytes. A table per stamp would hold over a MiB here.
    prog = parse_program(workloads.ping_pong(20000))
    stamps = record_execution(prog, 1).trace.stamps
    assert sum(map(len, stamps)) == 80004
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gate = _ReplayHooks(stamps, None)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gate.unexecuted() == 80004
    assert held < 16 * 1024, held


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), threads=st.integers(2, 5),
       ops=st.integers(8, 60),
       density=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
       shared=st.integers(1, 6), record_seed=st.integers(0, 2**16))
def test_reports_do_not_depend_on_the_replay_seed(seed, threads, ops, density,
                                                  shared, record_seed):
    # Sync ops replay in (stamp, tid) order whatever the seed, and the seed
    # moves only memory and register steps, which no report depends on.
    # Identify's own replay is run under each seed too.
    prog = parse_program(generate_program(seed, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=density,
                                          shared_addresses=shared))
    trace = record_execution(prog, record_seed).trace
    outcomes = set()
    for replay_seed in range(4):
        first = detect(prog, trace, replay_seed=replay_seed)
        every = detect(prog, trace, all_races=True, replay_seed=replay_seed)
        seeded = partial(replay_execution, replay_seed=replay_seed)
        with mock.patch.object(identify_mod, "replay_execution", seeded):
            sites = identify_all(prog, trace, every.reports)
        outcomes.add((first.status, repr(first.reports),
                      every.status, repr(every.reports), repr(sites)))
    assert len(outcomes) == 1
