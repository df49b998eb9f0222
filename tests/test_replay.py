"""Replay: fidelity for race-free programs, divergence signalling."""

import re
import tracemalloc
from functools import partial
from importlib import import_module
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import per_object_sync_sequences, replay_events

import racereplay.replay as replay_mod
from racereplay import workloads
from racereplay.detector import DIVERGED_NO_RACE, detect
from racereplay.errors import IdentifyError, MismatchError
from racereplay.generator import generate_program
from racereplay.identify import identify_all
from racereplay.machine import EventKind
from racereplay.program import MAIN_THREAD, parse_program
from racereplay.record import record_execution
from racereplay.replay import DIVERGED, OK, _ReplayHooks, replay_execution
from racereplay.tracefile import SyncTrace

# The package re-exports the functions ``detect`` and ``identify`` under
# their modules' names.
detector_mod = import_module("racereplay.detector")
identify_mod = import_module("racereplay.identify")


def test_race_free_replay_matches_record():
    prog = parse_program(workloads.shared_counter(locked=True))
    for seed in range(10):
        rec = record_execution(prog, seed)
        events, result = replay_events(prog, rec.trace)
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
        events, result = replay_events(prog, rec.trace)
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
    a, ra = replay_events(prog, rec.trace)
    b, rb = replay_events(prog, rec.trace)
    assert a == b
    assert ra.memory == rb.memory


def _two_thread_program():
    return parse_program("mem 0x00000010 7\n"
                         "thread 0:\n  CREATE 1\n  JOIN 1\n  EXIT\n"
                         "thread 1:\n  EXIT\n")


def _count_detail(tid, recorded, makes):
    return (f"thread {tid} has a recorded sync op count of {recorded}; "
            f"the program makes {makes}")


def _diverges_before_any_step(prog, stamps):
    """Replays the trace and returns its DIVERGED detail, checking that no
    step ran and no event reached the observer."""
    seen = []
    trace = SyncTrace(seed=0, digest=prog.digest(), stamps=stamps)
    result = replay_execution(prog, trace,
                              observer=lambda m, ev: seen.append(ev))
    assert result.verdict == DIVERGED
    assert result.steps == 0
    assert result.memory == prog.initial_memory
    assert seen == []
    return result.detail


def test_crafted_unreachable_order_diverges():
    # Honest stamps would be CREATE=1, START=2, EXIT=3, JOIN=4. Demanding
    # JOIN before the child's START can never be satisfied by the machine,
    # so the replay stalls and reports divergence.
    prog = _two_thread_program()
    trace = SyncTrace(seed=0, digest=prog.digest(),
                      stamps=[[1, 2], [3, 4]])
    result = replay_execution(prog, trace)
    assert result.verdict == DIVERGED
    assert result.detail == ("thread 0 stuck at recorded stamp 2: "
                             "joining thread 1 (not exited)")


def test_crafted_extra_recorded_ops_diverge():
    # Trace promises three sync ops for the child, which only has two: the
    # replay refuses it before running anything.
    prog = _two_thread_program()
    assert _diverges_before_any_step(prog, [[1, 4], [2, 3, 5]]) == \
        _count_detail(1, 3, 2)


def test_crafted_missing_recorded_ops_diverge():
    # Trace records only one sync op for the child, whose START and EXIT
    # make two.
    prog = _two_thread_program()
    assert _diverges_before_any_step(prog, [[1, 3], [2]]) == _count_detail(1, 1, 2)


def test_equal_stamps_may_run_any_order():
    # Two workers lock distinct mutexes: their op stamps coincide. Ties run
    # in thread-id order, so the replay completes and its sync order is
    # the same under every ``replay_seed``, which the driver ignores.
    text = ("mutex m\nmutex n\n"
            "thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
            "thread 1:\n  LOCK m\n  UNLOCK m\n  EXIT\n"
            "thread 2:\n  LOCK n\n  UNLOCK n\n  EXIT\n")
    prog = parse_program(text)
    rec = record_execution(prog, 1)
    assert set(rec.trace.stamps[1]) & set(rec.trace.stamps[2])
    orders = set()
    for replay_seed in range(6):
        events = []
        result = replay_execution(prog, rec.trace,
                                  observer=lambda m, ev: events.append(ev),
                                  replay_seed=replay_seed)
        assert result.verdict == OK
        orders.add(tuple((ev.tid, ev.obj, ev.sync) for ev in events
                         if ev.kind is EventKind.SYNC))
    assert len(orders) == 1
    (order,) = orders
    assert [tid for tid, _, _ in order] == [
        tid for _, tid in sorted((stamp, tid) for tid, stamps
                                 in enumerate(rec.trace.stamps)
                                 for stamp in stamps)]


@pytest.mark.parametrize("stamps, detail", [
    ([[2, 4], [1, 3]], "thread 1 stuck at recorded stamp 1: not created"),
    ([[1, 4, 5], [2, 3]], _count_detail(0, 3, 2)),
])
def test_frontier_thread_without_its_op_diverges(stamps, detail):
    # The smallest pair is the child's START before main has created it,
    # or a stamp for main past its CREATE and JOIN, when only its unjoined
    # EXIT, which emits no event, would be left. The first stalls at the
    # frontier; the second is refused before anything runs.
    prog = _two_thread_program()
    assert _diverges_before_any_step(prog, stamps) == detail


def test_sync_op_past_the_recorded_count_diverges():
    # The trace leaves the child's EXIT and the parent's JOIN without a
    # stamp. The lowest such thread is named.
    prog = _two_thread_program()
    assert _diverges_before_any_step(prog, [[1], [2]]) == _count_detail(0, 1, 2)


@pytest.mark.parametrize("threads, ops", [(16, 200), (64, 100)])
def test_gate_work_is_bounded_by_sync_ops(monkeypatch, threads, ops):
    # The driver asks the gate once per op that emits a SYNC event, however
    # many threads wait on each lock and however many memory steps lie
    # between: an OK replay asks exactly as often as it emits SYNC events.
    prog = parse_program(generate_program(3, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=1.0))
    rec = record_execution(prog, 1)
    calls = 0
    permits = _ReplayHooks.permits

    def counted(self, machine, tid):
        nonlocal calls
        calls += 1
        return permits(self, machine, tid)

    monkeypatch.setattr(_ReplayHooks, "permits", counted)
    events, result = replay_events(prog, rec.trace)
    assert result.verdict == OK
    syncs = sum(ev.kind is EventKind.SYNC for ev in events)
    assert syncs == rec.sync_ops
    assert calls == syncs


def test_heap_top_is_always_the_next_pair_run(monkeypatch):
    # Every SYNC event of a replay is the heap top's: its thread's next
    # recorded stamp, packed with its tid. An OK replay ends with the heap
    # empty. Each program is replayed under its honest trace and under one
    # with a stamp raised, which makes threads wait that would otherwise
    # run.
    gates = []
    checked = 0

    class Checked(_ReplayHooks):
        def __init__(self, stamps):
            super().__init__(stamps)
            gates.append(self)

        def on_event(self, machine, event):
            nonlocal checked
            assert event.kind is EventKind.SYNC
            tid = event.tid
            stamp = self.stamps[tid][self.done[tid]]
            assert stamp * len(self.stamps) + tid == self.heads[0]
            checked += 1
            return super().on_event(machine, event)

    monkeypatch.setattr(replay_mod, "_ReplayHooks", Checked)
    raised_ok = 0
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
            result = replay_execution(prog, trace)
            assert result.verdict == OK or stamps is raised
            if result.verdict == OK:
                assert gates[0].heads == []
                raised_ok += stamps is raised
    assert checked > 0
    assert raised_ok > 0


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
        gate = _ReplayHooks(stamps)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(gate.heads) == 2
    assert held < 16 * 1024, held


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), threads=st.integers(2, 5),
       ops=st.integers(8, 60),
       density=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
       shared=st.integers(1, 6), record_seed=st.integers(0, 2**16))
def test_replay_runs_the_trace_order_eagerly(seed, threads, ops, density,
                                            shared, record_seed):
    # Sync ops replay in the trace's sorted (stamp, tid) order, ties by
    # thread id. Each memory event directly follows its own thread's last
    # gate op or memory event, with no other thread's event between: a
    # thread runs its memory ops as soon as its last sync op has run. A
    # race-free program ends with record's memory.
    prog = parse_program(generate_program(seed, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=density,
                                          shared_addresses=shared))
    rec = record_execution(prog, record_seed)
    events, result = replay_events(prog, rec.trace)
    assert result.verdict == OK
    order = sorted((stamp, tid) for tid, stamps in enumerate(rec.trace.stamps)
                   for stamp in stamps)
    assert [ev.tid for ev in events if ev.kind is EventKind.SYNC] == \
        [tid for _, tid in order]
    previous = MAIN_THREAD
    for ev in events:
        if ev.kind is not EventKind.SYNC:
            assert ev.tid == previous
        previous = ev.tid
    if density == 1.0:
        assert result.memory == rec.memory


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), threads=st.integers(2, 5),
       ops=st.integers(8, 60),
       density=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
       shared=st.integers(1, 6), record_seed=st.integers(0, 2**16))
def test_reports_do_not_depend_on_the_replay_seed(seed, threads, ops, density,
                                                  shared, record_seed):
    # ``replay_execution`` still takes a ``replay_seed`` keyword and ignores
    # it. Detection and identify's replay, each run with the keyword set,
    # give the same statuses, reports and sites under every seed.
    prog = parse_program(generate_program(seed, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=density,
                                          shared_addresses=shared))
    trace = record_execution(prog, record_seed).trace
    outcomes = set()
    for replay_seed in range(4):
        seeded = partial(replay_execution, replay_seed=replay_seed)
        with mock.patch.object(detector_mod, "replay_execution", seeded), \
                mock.patch.object(identify_mod, "replay_execution", seeded):
            first = detect(prog, trace)
            every = detect(prog, trace, all_races=True)
            sites = identify_all(prog, trace, every.reports)
        outcomes.add((first.status, repr(first.reports),
                      every.status, repr(every.reports), repr(sites)))
    assert len(outcomes) == 1


_STALL = re.compile(r"thread (\d+) stuck at recorded stamp (\d+): .+")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), threads=st.integers(2, 5),
       ops=st.integers(8, 60),
       density=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
       shared=st.integers(1, 6), record_seed=st.integers(0, 2**16),
       pick=st.integers(0, 2**16), by=st.integers(1, 3))
def test_forged_traces_diverge_or_replay(seed, threads, ops, density, shared,
                                         record_seed, pick, by):
    # Every recorded trace has the program's static per-thread counts.
    # Dropping or duplicating one stamp of one thread is refused before
    # anything runs, and detect and identify see the refusal. Raising one
    # stamp, each thread's stamps still strictly increasing, replays OK or
    # stalls at the smallest pair not yet run.
    prog = parse_program(generate_program(seed, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=density,
                                          shared_addresses=shared))
    rec = record_execution(prog, record_seed)
    counts = prog.static_sync_counts()
    assert tuple(len(s) for s in rec.trace.stamps) == counts
    reports = detect(prog, rec.trace, all_races=True).reports
    busy = [tid for tid, stamps in enumerate(rec.trace.stamps) if stamps]
    tid = busy[pick % len(busy)]
    honest = rec.trace.stamps[tid]
    k = pick % len(honest)

    for forged in (honest[:k] + honest[k + 1:], honest[:k + 1] + honest[k:]):
        stamps = list(rec.trace.stamps)
        stamps[tid] = forged
        trace = SyncTrace(seed=0, digest=prog.digest(), stamps=stamps)
        assert _diverges_before_any_step(prog, stamps) == \
            _count_detail(tid, len(forged), counts[tid])
        result = detect(prog, trace)
        assert result.status == DIVERGED_NO_RACE and result.reports == []
        if reports:
            with pytest.raises(IdentifyError):
                identify_all(prog, trace, reports)

    # The last stamp always has room above it; an earlier one only below
    # its successor.
    room = [j for j in range(len(honest))
            if j + 1 == len(honest) or honest[j] + 1 < honest[j + 1]]
    j = room[pick % len(room)]
    raised = list(honest)
    raised[j] += by if j + 1 == len(honest) else \
        min(by, honest[j + 1] - honest[j] - 1)
    stamps = list(rec.trace.stamps)
    stamps[tid] = raised
    trace = SyncTrace(seed=0, digest=prog.digest(), stamps=stamps)
    done = [0] * prog.n_threads

    def count(machine, event):
        done[event.tid] += event.kind is EventKind.SYNC

    result = replay_execution(prog, trace, observer=count)
    if result.verdict != OK:
        assert result.verdict == DIVERGED
        stalled = _STALL.fullmatch(result.detail)
        assert stalled is not None, result.detail
        frontier = min((stamp, t) for t, s in enumerate(stamps)
                       for stamp in s[done[t]:])
        assert (int(stalled[2]), int(stalled[1])) == frontier
