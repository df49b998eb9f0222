"""Detection: first-race semantics, oracle equivalence, discard safety."""

import tracemalloc
from itertools import combinations

import pytest
from _helpers import SegmentLog, replay_events

import racereplay.detector as detector_mod
from racereplay import workloads
from racereplay.clocks import (MatrixClockTracker, Ordering, column_min,
                               vc_compare, vc_join)
from racereplay.detector import (CLEAN, DIVERGED_NO_RACE, RACE,
                                 DetectorListener, LiveSegmentProbe, detect)
from racereplay.generator import generate_program
from racereplay.machine import EventKind
from racereplay.oracle import (HbOracle, brute_force_detect, build_segments,
                               race_formula, segments_ordered)
from racereplay.program import Op, parse_program
from racereplay.record import record_execution
from racereplay.tracefile import SyncTrace


def _corpus(n, base_seed):
    for i in range(n):
        yield generate_program(
            seed=base_seed + i,
            threads=2 + i % 3,
            ops_per_thread=16 + (i * 13) % 70,
            lock_density=(0.0, 0.3, 0.7, 1.0)[i % 4],
            shared_addresses=1 + i % 5)


def test_shared_counter_race_report():
    prog = parse_program(workloads.shared_counter())
    for seed in range(20):
        rec = record_execution(prog, seed)
        result = detect(prog, rec.trace)
        assert result.status == RACE
        report = result.report
        assert report.witnesses == (0x1000,)
        assert (report.side1.tid, report.side2.tid) == (1, 2)
        assert {report.side1.kind, report.side2.kind} <= {"load", "store"}
        assert "store" in (report.side1.kind, report.side2.kind)
        assert vc_compare(report.side1.clock, report.side2.clock) \
            is Ordering.CONCURRENT


def test_locked_variant_clean_many_seeds():
    prog = parse_program(workloads.shared_counter(locked=True))
    for seed in range(50):
        rec = record_execution(prog, seed)
        assert detect(prog, rec.trace).status == CLEAN


def test_single_thread_clean():
    prog = parse_program(
        "thread 0:\n  SET r0 1\n  STORE r0 0x00000010\n  LOAD r1 0x00000010\n  EXIT\n")
    rec = record_execution(prog, 0)
    result = detect(prog, rec.trace)
    assert result.status == CLEAN
    assert result.stats.segments_created == 1


def test_oracle_equivalence_on_corpus():
    mismatches = []
    for i, text in enumerate(_corpus(80, 40_000)):
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        result = detect(prog, rec.trace)
        events, _ = replay_events(prog, rec.trace)
        oracle = brute_force_detect(events, prog.n_threads)
        if result.status == RACE:
            if oracle is None or oracle.pair_key() != result.report.pair_key():
                mismatches.append(i)
        elif oracle is not None:
            mismatches.append(i)
    assert mismatches == []


def test_gc_never_changes_first_race():
    for i, text in enumerate(_corpus(60, 50_000)):
        prog = parse_program(text)
        rec = record_execution(prog, seed=1000 + i)
        with_gc = detect(prog, rec.trace, gc=True)
        without = detect(prog, rec.trace, gc=False)
        assert with_gc.status == without.status
        if with_gc.status == RACE:
            assert with_gc.report.pair_key() == without.report.pair_key()


class _CountingListener(DetectorListener):
    def __init__(self):
        self.closes = self.discarded = self.syncs = 0

    def on_close(self, state, seg):
        self.closes += 1

    def on_discard(self, state, segments):
        self.discarded += len(segments)

    def on_sync(self, state, tid, obj, acquire):
        self.syncs += 1


def test_listener_sees_every_close_discard_and_sync():
    races = discards = 0
    for i, text in enumerate(_corpus(40, 70_000)):
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        bare = detect(prog, rec.trace, all_races=True)
        counts = _CountingListener()
        heard = detect(prog, rec.trace, all_races=True, listener=counts)
        st = heard.stats
        assert counts.closes == st.segments_created
        assert counts.discarded == st.segments_discarded
        assert counts.syncs == st.sync_events
        assert (heard.status, st, heard.reports) == \
            (bare.status, bare.stats, bare.reports)
        races += heard.status == RACE
        discards += counts.discarded
    assert 0 < races < 40 and discards > 0  # the corpus is mixed


def test_discarded_segments_never_concurrent_with_later():
    # Ghost check: anything discarded must be ordered (BEFORE) against
    # every segment closed after the discard point.
    for text, seed in ((workloads.contended_counter(4, 60), 3),
                       (workloads.ping_pong(80, slack=2), 1)):
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        log = SegmentLog()
        result = detect(prog, rec.trace, listener=log)
        assert result.stats.segments_discarded > 0
        assert len(log.discarded) == result.stats.segments_discarded
        for drop_point, dead in log.discarded:
            for closed_at, seg in log.closed:
                if closed_at > drop_point:
                    assert vc_compare(dead.clock, seg.clock) \
                        is Ordering.BEFORE, (dead.key, seg.key)


def _probe_rows(prog, trace, **kwargs):
    probe = LiveSegmentProbe(prog)
    detect(prog, trace, listener=probe, **kwargs)
    return probe.rows


def test_snooped_horizon_dominates_logical():
    for text, seed in ((workloads.ping_pong(100, slack=2), 0),
                       (workloads.contended_counter(4, 50), 2),
                       (workloads.producer_consumer(120, 4), 1)):
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        probe = LiveSegmentProbe(prog)
        result = detect(prog, rec.trace, listener=probe)
        assert result.status == CLEAN
        assert probe.rows
        for _, snooped, logical in probe.rows:
            assert snooped <= logical


def test_overlapping_ping_pong_shows_strict_gain():
    prog = parse_program(workloads.ping_pong(100, slack=2))
    rec = record_execution(prog, 0)
    assert any(snooped < logical
               for _, snooped, logical in _probe_rows(prog, rec.trace))


class _JoinEveryRow(MatrixClockTracker):
    """The matrix join as the componentwise ``vc_join`` of every row."""

    def apply_sync(self, tid, obj, acquire, own_clock):
        mine, theirs = self.threads[tid], self.objects[obj]
        if acquire:
            self.threads[tid] = mine = [vc_join(a, b) for a, b in zip(mine, theirs)]
        mine[tid] = tuple(own_clock)
        if not acquire:
            self.objects[obj] = [vc_join(a, b) for a, b in zip(theirs, mine)]


def test_probe_rows_match_the_full_join(monkeypatch):
    # The tracker joins a row by taking the one with the larger own
    # component; the probe must count exactly what the full join gives.
    texts = list(_corpus(24, 900))
    texts += [generate_program(950 + i, threads=12, ops_per_thread=24,
                               lock_density=density)
              for i, density in enumerate((0.5, 1.0))]
    texts += [workloads.ping_pong(30, slack=3), workloads.producer_consumer(40, 3)]
    fast = []
    for text in texts:
        prog = parse_program(text)
        rec = record_execution(prog, 1)
        fast.append((prog, rec.trace,
                     _probe_rows(prog, rec.trace, all_races=True)))
    monkeypatch.setattr(detector_mod, "MatrixClockTracker", _JoinEveryRow)
    for prog, trace, rows in fast:
        assert rows
        assert _probe_rows(prog, trace, all_races=True) == rows


def test_probe_needs_gc():
    prog = parse_program(workloads.ping_pong(5, slack=2))
    rec = record_execution(prog, 0)
    with pytest.raises(ValueError, match="needs gc=True"):
        detect(prog, rec.trace, gc=False, listener=LiveSegmentProbe(prog))


def test_single_thread_probe_counts_bounded():
    prog = parse_program(
        "thread 0:\n  SET r0 1\n  STORE r0 0x00000010\n  EXIT\n")
    rec = record_execution(prog, 0)
    for _, snooped, logical in _probe_rows(prog, rec.trace):
        assert snooped <= 1 and logical <= 1


def test_producer_consumer_live_segments_bounded():
    prog = parse_program(workloads.producer_consumer(150, 4))
    rec = record_execution(prog, 6)
    probe = LiveSegmentProbe(prog)
    result = detect(prog, rec.trace, listener=probe)
    live = [row[1] for row in probe.rows]
    assert result.stats.segments_created > 250
    assert max(live) < 25  # no growth with execution length


def test_all_races_flag_collects_more():
    # Two independent racy address pairs; first-race mode stops at one.
    text = ("thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
            "thread 1:\n  SET r0 1\n  STORE r0 0x00000100\n"
            "  LOCK_FREE\n  EXIT\n"
            "thread 2:\n  SET r0 2\n  STORE r0 0x00000100\n"
            "  SET r1 3\n  STORE r1 0x00000200\n  EXIT\n")
    text = text.replace("  LOCK_FREE\n", "  SET r1 4\n  STORE r1 0x00000200\n")
    prog = parse_program(text)
    rec = record_execution(prog, 2)
    first_only = detect(prog, rec.trace)
    everything = detect(prog, rec.trace, all_races=True)
    assert first_only.status == everything.status == RACE
    assert len(first_only.reports) == 1
    assert len(everything.reports) >= 1
    assert everything.reports[0].pair_key() == first_only.reports[0].pair_key()
    witnesses = set()
    for rep in everything.reports:
        witnesses |= set(rep.witnesses)
    assert witnesses == {0x100, 0x200}


def test_divergence_without_race_diagnostic():
    prog = parse_program(
        "thread 0:\n  CREATE 1\n  JOIN 1\n  EXIT\nthread 1:\n  EXIT\n")
    trace = SyncTrace(seed=0, digest=prog.digest(), stamps=[[1, 2], [3, 4]])
    result = detect(prog, trace)
    assert result.status == DIVERGED_NO_RACE
    assert result.report is None


def test_final_open_segments_compared_at_exit():
    # The race is between code after each worker's last sync op.
    text = ("mutex m\n"
            "thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
            "thread 1:\n  LOCK m\n  UNLOCK m\n  SET r0 1\n  STORE r0 0x00000300\n  EXIT\n"
            "thread 2:\n  LOCK m\n  UNLOCK m\n  SET r0 2\n  STORE r0 0x00000300\n  EXIT\n")
    prog = parse_program(text)
    hits = 0
    for seed in range(10):
        rec = record_execution(prog, seed)
        result = detect(prog, rec.trace)
        assert result.status == RACE
        assert result.report.witnesses == (0x300,)
        hits += 1
    assert hits == 10


def test_stats_track_table_shape():
    prog = parse_program(workloads.contended_counter(4, 100))
    rec = record_execution(prog, 5)
    result = detect(prog, rec.trace)
    st = result.stats
    assert st.segments_created > 300
    assert 0 < st.segments_max_live < st.segments_created
    assert st.segments_discarded > 0
    assert st.mem_events == sum(1 for e in rec.events
                                if e.kind.name in ("LOAD", "STORE"))


def _epoch_programs():
    for i, text in enumerate(_corpus(40, 60_000)):
        yield text, i
    yield workloads.contended_counter(4, 60), 3
    yield workloads.ping_pong(80, slack=2), 1
    yield workloads.producer_consumer(120, 4), 1
    yield generate_program(7, threads=16, ops_per_thread=60,
                           lock_density=1.0), 7
    # With one thread the horizon is its own clock, so every release
    # raises it; with more, a release never does, since no other thread
    # has yet seen the syncing thread's own component.
    yield ("mutex m\nthread 0:\n"
           + "  LOAD r0 0x1000\n  LOCK m\n  STORE r0 0x1000\n  UNLOCK m\n" * 3
           + "  EXIT\n"), 1
    # Main's first segment has own component 0, which every clock has
    # seen, so it can drop although the horizon does not rise. Main's
    # first sync op is a release in the first program, an acquire in the
    # second.
    workers = ("thread 1:\n  LOAD r0 0x1000\n  EXIT\n"
               "thread 2:\n  LOAD r0 0x1000\n  EXIT\n")
    yield ("thread 0:\n  STORE r0 0x1000\n  CREATE 1\n  STORE r0 0x1004\n"
           "  CREATE 2\n  LOAD r1 0x1008\n  JOIN 2\n  EXIT\n" + workers), 2
    yield ("mutex m\nthread 0:\n  STORE r0 0x1000\n  LOCK m\n"
           "  STORE r0 0x1004\n  UNLOCK m\n  CREATE 1\n  CREATE 2\n"
           "  LOAD r1 0x1008\n  JOIN 2\n  EXIT\n" + workers), 2


def test_epoch_lemma_and_per_thread_prefix_order():
    # The scan skips, per other thread u, the stored segments whose own
    # component is at most the closing segment's view of u; the discard
    # pops prefixes. Both rest on the facts checked here.
    checked = 0
    for text, seed in _epoch_programs():
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        log = SegmentLog()
        detect(prog, rec.trace, listener=log, all_races=True)
        segments = log.segments
        for a, b in combinations(segments, 2):  # a closed before b
            if a.tid == b.tid:
                assert all(x <= y for x, y in zip(a.clock, b.clock))
                assert a.clock[a.tid] < b.clock[a.tid]
                continue
            order = vc_compare(a.clock, b.clock)
            assert order in (Ordering.BEFORE, Ordering.CONCURRENT)
            assert (order is Ordering.CONCURRENT) == \
                (a.clock[a.tid] > b.clock[a.tid]), (a.key, b.key)
            checked += 1
    assert checked > 10_000


def _counting(monkeypatch, name):
    calls = [0]
    real = getattr(detector_mod, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(detector_mod, name, counted)
    return calls


def test_scan_and_discard_work_bound(monkeypatch):
    # Only concurrent segments are compared, each compared pair gets
    # exactly one race test, and each thread's discard stops at the first
    # segment that stays.
    compares = _counting(monkeypatch, "vc_compare")
    tests = _counting(monkeypatch, "race_witnesses")
    below = _counting(monkeypatch, "vc_strictly_below")
    prog = parse_program(generate_program(3, threads=16, ops_per_thread=200))
    rec = record_execution(prog, 1)
    st = detect(prog, rec.trace, all_races=True).stats
    assert st.segments_compared > 0
    assert compares[0] == st.segments_compared
    assert tests[0] == st.segments_compared
    assert below[0] <= st.sync_events * prog.n_threads + st.segments_discarded


def test_scan_visits_only_threads_with_a_concurrent_segment(monkeypatch):
    # The scan bisects a thread's list only when the thread's newest
    # stored segment is concurrent with the closing one, so every bisect
    # yields at least one compared segment. The discard bisects a list
    # only when its head drops, so each of its bisects drops a segment.
    real_bisect = detector_mod.bisect_right
    real_scan = detector_mod._DetectorState._scan_for_races
    bisects = {True: 0, False: 0}  # made in a scan, made elsewhere
    scanning = [False]

    def counted(*args):
        bisects[scanning[0]] += 1
        return real_bisect(*args)

    def scan(state, seg, stubs):
        scanning[0] = True
        try:
            return real_scan(state, seg, stubs)
        finally:
            scanning[0] = False

    monkeypatch.setattr(detector_mod, "bisect_right", counted)
    monkeypatch.setattr(detector_mod._DetectorState, "_scan_for_races", scan)
    cases = [(generate_program(3, threads=16, ops_per_thread=200), 1)]
    cases += list(_epoch_programs())
    for text, seed in cases:
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        for gc in (True, False):
            bisects[True] = bisects[False] = 0
            st = detect(prog, rec.trace, all_races=True, gc=gc).stats
            assert bisects[True] <= st.segments_compared, (seed, gc)
            assert bisects[False] <= st.segments_discarded, (seed, gc)


def _last_accesses(prog):
    """Per thread, the index of its last LOAD or STORE, or -1."""
    return tuple(max((i for i, ins in enumerate(body)
                      if ins.op in (Op.LOAD, Op.STORE)), default=-1)
                 for body in prog.threads)


class _HeadCheck(DetectorListener):
    """Fails a run whose discard drops a segment its own thread's column
    of the horizon has not reached."""

    def __init__(self, inner):
        self.inner = inner
        self.discarded = 0

    def on_close(self, state, seg):
        self.inner.on_close(state, seg)

    def on_discard(self, state, segments):
        for seg in segments:
            assert seg.clock[seg.tid] <= state.horizon[seg.tid], seg.key
        self.discarded += len(segments)
        self.inner.on_discard(state, segments)

    def on_sync(self, state, tid, obj, acquire):
        self.inner.on_sync(state, tid, obj, acquire)


def test_kept_horizon_is_exact_and_no_head_is_below_it(monkeypatch):
    # After every event the horizon is the componentwise minimum of the
    # clocks of the threads that still have a LOAD or STORE to make, and
    # no list head has an own component at or below its column of it. The
    # horizon is recomputed only when the syncing thread held a column's
    # minimum alone, or a thread made its last access, and heads are
    # re-tested only when it rises; neither shortcut may lose a discard.
    real = detector_mod._DetectorState.on_event
    past = {}  # the threads that made their last access, this run
    events = [0]

    def checked(state, machine, event):
        stop = real(state, machine, event)
        events[0] += 1
        prog = state.program
        lasts = _last_accesses(prog)
        assert prog.last_access == lasts
        done = past.setdefault(id(state), set())
        if event.kind is not EventKind.SYNC \
                and event.ordinal == lasts[event.tid]:
            done.add(event.tid)
        threads = state.clocks.threads
        rows = [threads[t] for t, last in enumerate(lasts)
                if last >= 0 and t not in done]
        if rows:
            assert state.horizon == column_min(rows)
        else:
            top = max(max(clock) for clock in threads)
            assert min(state.horizon) > top
        for v, epochs in enumerate(state.epochs):
            assert not epochs or epochs[0] > state.horizon[v], v
        # The scan bisects epochs[u]; it must track stored[u] exactly.
        assert state.epochs == [[seg.clock[u] for seg in stored]
                                for u, stored in enumerate(state.stored)]
        assert state.heads == [epochs[0] if epochs else float("inf")
                               for epochs in state.epochs]
        return stop

    monkeypatch.setattr(detector_mod._DetectorState, "on_event", checked)
    discards = 0
    for text, seed in _epoch_programs():
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        for inner in (SegmentLog(), LiveSegmentProbe(prog)):
            events[0] = 0
            past.clear()
            log = _HeadCheck(inner)
            result = detect(prog, rec.trace, gc=True, listener=log,
                            all_races=True)
            st = result.stats
            assert events[0] == st.mem_events + st.sync_events
            assert log.discarded == st.segments_discarded
            discards += log.discarded
    assert discards > 100


def _soundness_programs():
    for i in range(300):
        yield generate_program(
            seed=80_000 + i, threads=2 + i % 5,
            ops_per_thread=12 + (i * 11) % 50,
            lock_density=(0.0, 0.25, 0.5, 0.75, 1.0)[i % 5],
            shared_addresses=1 + i % 8), i
    yield workloads.shared_counter(), 1
    yield workloads.shared_counter(locked=True), 2
    yield workloads.ping_pong(40, slack=2), 3
    yield workloads.contended_counter(4, 30), 4
    yield workloads.producer_consumer(40, 3), 5


def test_dropped_segments_precede_every_later_segment_but_frozen_ones(
        monkeypatch):
    # A dropped segment is ordered before every segment that closes after
    # the drop, except a segment that was frozen at the drop and got a
    # stub of it; the stub gives that pair the same report and count as
    # the stored segment would, so all-races runs match a run without
    # discard.
    real = detector_mod._DetectorState._scan_for_races
    stubbed = {}  # key of a closing segment -> (tid, index) of its stubs

    def scan(state, seg, stubs):
        stubbed[seg.key] = {(stub.tid, stub.index)
                            for kept in (stubs or {}).values()
                            for stub in kept}
        return real(state, seg, stubs)

    monkeypatch.setattr(detector_mod._DetectorState, "_scan_for_races", scan)
    excepted = 0
    for text, seed in _soundness_programs():
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        without = detect(prog, rec.trace, all_races=True, gc=False)
        stubbed.clear()
        log = _OrderLog()
        with_gc = detect(prog, rec.trace, all_races=True, listener=log)
        assert (with_gc.status, with_gc.reports) == \
            (without.status, without.reports)
        assert with_gc.stats.segments_compared == \
            without.stats.segments_compared
        for at, dead in log.discarded:
            for closed_at, seg in log.closed:
                if closed_at <= at or vc_compare(dead.clock, seg.clock) \
                        is Ordering.BEFORE:
                    continue
                assert (dead.tid, dead.index) in stubbed[seg.key], \
                    (dead.key, seg.key)
                excepted += 1
    assert excepted > 0


class _OrderLog(DetectorListener):
    """Closed and discarded segments, each with its place in one sequence
    of callbacks."""

    def __init__(self):
        self.closed = []
        self.discarded = []
        self.calls = 0

    def on_close(self, state, seg):
        self.calls += 1
        self.closed.append((self.calls, seg))

    def on_discard(self, state, segments):
        self.calls += 1
        self.discarded.extend((self.calls, seg) for seg in segments)


def test_discard_work_bound(monkeypatch):
    # A sync op calls column_min only when the syncing thread held a
    # column's minimum and its value there rose, and tests list heads only
    # when the horizon rose: each thread's head once, plus one test per
    # dropped segment.
    below = _counting(monkeypatch, "vc_strictly_below")
    minima = _counting(monkeypatch, "column_min")
    prog = parse_program(generate_program(3, threads=16, ops_per_thread=200))
    rec = record_execution(prog, 1)
    st = detect(prog, rec.trace, all_races=True).stats
    assert st.segments_discarded > 0
    assert below[0] + minima[0] <= st.segments_created
    for text, seed in _epoch_programs():
        prog = parse_program(text)
        rec = record_execution(prog, seed)
        below[0] = minima[0] = 0
        st = detect(prog, rec.trace, all_races=True).stats
        assert below[0] <= prog.n_threads * minima[0] + st.segments_discarded


def _oracle_racy_pairs(prog, trace):
    """pair_key() of every racy pair of segments, from the brute-force
    references over all segment pairs."""
    events, _ = replay_events(prog, trace)
    hb = HbOracle(events)
    pairs = set()
    for a, b in combinations(build_segments(events, prog.n_threads), 2):
        if segments_ordered(hb, a, b):
            continue
        witnesses = race_formula(a.loads, a.stores, b.loads, b.stores)
        if witnesses:
            pairs.add((frozenset((a.key, b.key)), frozenset(witnesses)))
    return pairs


@pytest.mark.parametrize("seed, lock_density", [(1, 0.0), (1, 0.5), (2, 0.5)])
def test_all_races_match_oracle_at_64_threads(seed, lock_density):
    prog = parse_program(generate_program(seed, threads=64, ops_per_thread=40,
                                          lock_density=lock_density))
    rec = record_execution(prog, 1)
    with_gc = detect(prog, rec.trace, all_races=True)
    without = detect(prog, rec.trace, all_races=True, gc=False)
    pairs = {report.pair_key() for report in with_gc.reports}
    assert len(pairs) == len(with_gc.reports)
    assert pairs == _oracle_racy_pairs(prog, rec.trace)
    assert pairs  # the differential saw races
    assert (without.status, without.reports) == (with_gc.status,
                                                 with_gc.reports)


def test_detect_memory_stays_bounded():
    # 16 004 events pass through replay and none is kept; keeping them
    # alone would take the peak to about 3 MiB.
    program = parse_program(workloads.ping_pong(2000, slack=2))
    trace = record_execution(program, 1).trace
    tracemalloc.start()
    try:
        result = detect(program, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == CLEAN
    assert peak < 1 << 20
