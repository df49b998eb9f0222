"""The brute-force references themselves, on hand-checkable cases, plus
the vector-clock strong-consistency cross-check."""

from _helpers import SegmentLog, replay_events

from racereplay import workloads
from racereplay.clocks import Ordering, vc_compare
from racereplay.detector import detect
from racereplay.generator import generate_program
from racereplay.machine import EventKind, run
from racereplay.oracle import (HbOracle, brute_force_detect, build_segments,
                               race_formula, segments_ordered)
from racereplay.program import Op, parse_program
from racereplay.record import record_execution


def test_program_order_is_happened_before():
    prog = parse_program(
        "thread 0:\n  SET r0 1\n  STORE r0 0x00000010\n  LOAD r0 0x00000010\n  EXIT\n")
    events = run(prog, 0).events
    hb = HbOracle(events)
    assert hb.happened_before(events[0].seq, events[1].seq)
    assert not hb.happened_before(events[1].seq, events[0].seq)


def test_release_acquire_edge():
    text = ("mutex m\n"
            "thread 0:\n  CREATE 1\n  LOCK m\n  STORE r0 0x00000010\n"
            "  UNLOCK m\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  LOCK m\n  LOAD r0 0x00000010\n  UNLOCK m\n  EXIT\n")
    prog = parse_program(text)
    for seed in range(6):
        events = run(prog, seed).events
        hb = HbOracle(events)
        by_kind = {}
        for ev in events:
            if ev.kind is EventKind.SYNC:
                by_kind.setdefault((ev.tid, ev.sync), []).append(ev)
        unlocks0 = by_kind[(0, Op.UNLOCK)]
        locks1 = by_kind[(1, Op.LOCK)]
        # Whichever thread entered first, the two critical sections are
        # ordered: one unlock happens before the other's lock.
        first_unlock = min(unlocks0[0].seq, by_kind[(1, Op.UNLOCK)][0].seq)
        later_lock = max(by_kind[(0, Op.LOCK)][0].seq, locks1[0].seq)
        assert hb.happened_before(first_unlock, later_lock)


def test_segments_of_shared_counter():
    prog = parse_program(workloads.shared_counter())
    events = run(prog, 0).events
    segs = build_segments(events, 3)
    with_data = [s for s in segs if not s.is_empty()]
    assert sorted(s.key for s in with_data) == [(1, 0), (2, 0)]
    for s in with_data:
        assert s.loads == {0x1000}
        assert s.stores == {0x1000}
    hb = HbOracle(events)
    a, b = with_data
    assert not segments_ordered(hb, a, b)


def test_race_formula_reference_cases():
    assert race_formula({0x100}, set(), set(), {0x100}) == {0x100}
    assert race_formula({0x100}, set(), {0x100}, set()) == set()
    assert race_formula(set(), {0x100}, set(), {0x100}) == {0x100}
    assert race_formula(set(), set(), set(), set()) == set()


def test_brute_force_on_shared_counter():
    prog = parse_program(workloads.shared_counter())
    rec = record_execution(prog, 4)
    events, _ = replay_events(prog, rec.trace)
    race = brute_force_detect(events, 3)
    assert race is not None
    assert race.pair_key() == (frozenset({(1, 0), (2, 0)}), frozenset({0x1000}))
    assert detect(prog, rec.trace).report.pair_key() == race.pair_key()


def test_brute_force_clean_on_locked_variant():
    prog = parse_program(workloads.shared_counter(locked=True))
    rec = record_execution(prog, 4)
    events, _ = replay_events(prog, rec.trace)
    assert brute_force_detect(events, 3) is None


def test_read_only_sharing_is_clean():
    text = ("mem 0x00000010 9\n"
            "thread 0:\n  CREATE 1\n  LOAD r0 0x00000010\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  LOAD r0 0x00000010\n  EXIT\n")
    prog = parse_program(text)
    rec = record_execution(prog, 0)
    events, _ = replay_events(prog, rec.trace)
    assert brute_force_detect(events, 2) is None


def test_vector_clocks_strongly_consistent_with_graph():
    # Production clock construction vs independent reachability closure,
    # across every segment pair of a varied corpus.
    for i in range(25):
        text = generate_program(seed=3000 + i, threads=2 + i % 3,
                                ops_per_thread=18 + (i * 7) % 40,
                                lock_density=(0.0, 0.5, 1.0)[i % 3],
                                shared_addresses=1 + i % 4)
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        events, _ = replay_events(prog, rec.trace)
        log = SegmentLog()
        detect(prog, rec.trace, all_races=True, gc=False, listener=log)
        ref = {s.key: s for s in build_segments(events, prog.n_threads)}
        hb = HbOracle(events)
        assert set(ref) == {s.key for s in log.segments}
        segs = sorted(log.segments, key=lambda s: s.key)
        for x in range(len(segs)):
            for y in range(x + 1, len(segs)):
                a, b = segs[x], segs[y]
                concurrent_vc = (vc_compare(a.clock, b.clock)
                                 is Ordering.CONCURRENT)
                concurrent_graph = not segments_ordered(
                    hb, ref[a.key], ref[b.key])
                assert concurrent_vc == concurrent_graph, (a.key, b.key)
