"""Clock primitives against direct-definition oracles."""

import random

from racereplay.clocks import (MatrixClockTracker, Ordering, VectorClockTracker,
                               column_min, lamport_advance, vc_compare,
                               vc_join, vc_strictly_below, vc_zero)

import pytest


def test_lamport_first_op():
    assert lamport_advance(0, 0) == 1


def test_lamport_max_plus_one():
    assert lamport_advance(5, 9) == 10
    assert lamport_advance(9, 5) == 10


def test_lamport_chains_strictly_increase():
    # Ten sync ops across three threads and two objects, checked exhaustively:
    # every per-thread chain and every per-object chain must strictly increase.
    ops = [(0, "m"), (1, "m"), (2, "n"), (0, "n"), (1, "n"),
           (2, "m"), (0, "m"), (2, "n"), (1, "m"), (0, "n")]
    threads = {0: 0, 1: 0, 2: 0}
    objects = {"m": 0, "n": 0}
    thread_hist = {t: [] for t in threads}
    object_hist = {o: [] for o in objects}
    for tid, obj in ops:
        ts = lamport_advance(threads[tid], objects[obj])
        threads[tid] = objects[obj] = ts
        thread_hist[tid].append(ts)
        object_hist[obj].append(ts)
    for hist in list(thread_hist.values()) + list(object_hist.values()):
        assert hist == sorted(set(hist))


def test_vc_compare_basics():
    assert vc_compare((1, 0), (1, 1)) is Ordering.BEFORE
    assert vc_compare((1, 1), (1, 0)) is Ordering.AFTER
    assert vc_compare((1, 0), (0, 1)) is Ordering.CONCURRENT
    assert vc_compare((2, 3), (2, 3)) is Ordering.EQUAL


def test_vc_compare_length_mismatch():
    with pytest.raises(ValueError):
        vc_compare((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        vc_join((1,), (1, 2))


def _oracle_compare(a, b):
    le = all(x <= y for x, y in zip(a, b))
    ge = all(x >= y for x, y in zip(a, b))
    if le and ge:
        return Ordering.EQUAL
    if le:
        return Ordering.BEFORE
    if ge:
        return Ordering.AFTER
    return Ordering.CONCURRENT


def test_vc_compare_random_against_definition():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randrange(1, 6)
        a = tuple(rng.randrange(4) for _ in range(n))
        b = tuple(rng.randrange(4) for _ in range(n))
        assert vc_compare(a, b) is _oracle_compare(a, b)


def test_vc_join():
    assert vc_join((1, 0), (0, 1)) == (1, 1)
    a = (3, 1, 4)
    assert vc_join(a, a) == a


def test_vc_join_random_against_max():
    rng = random.Random(9)
    for _ in range(200):
        clocks = [tuple(rng.randrange(10) for _ in range(4)) for _ in range(5)]
        joined = vc_zero(4)
        for c in clocks:
            joined = vc_join(joined, c)
        assert joined == tuple(max(c[i] for c in clocks) for i in range(4))


def test_column_min():
    assert column_min([(2, 3), (2, 3)]) == (2, 3)
    assert column_min([(2, 0), (1, 3)]) == (1, 0)
    assert column_min([(5, 7, 1)]) == (5, 7, 1)


def test_column_min_random():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(20) for _ in range(n))
                for _ in range(rng.randrange(1, 6))]
        expect = tuple(min(r[i] for r in rows) for i in range(n))
        assert column_min(rows) == expect


def test_snoop_horizon():
    # The snooped horizon is the column minimum over all live thread clocks.
    assert column_min([(3, 1), (2, 4)]) == (2, 1)


def test_snoop_pinned_by_idle_thread():
    # An idle thread that never synced pins the horizon at zero.
    assert column_min([(9, 9, 9), (0, 0, 0), (4, 4, 4)]) == (0, 0, 0)


def test_strictly_below():
    assert vc_strictly_below((1, 1), (2, 2))
    assert not vc_strictly_below((1, 2), (2, 2))
    assert not vc_strictly_below((3, 1), (2, 2))


def test_vector_tracker_release_then_acquire_orders():
    vt = VectorClockTracker(2, 1)
    vt.apply_sync(0, 0, acquire=False)  # thread 0 releases
    before = vt.apply_sync(1, 0, acquire=True)  # thread 1 acquires
    assert before == (0, 0)
    # Thread 1 now knows thread 0's pre-release state and its own bump.
    assert vt.threads[1] == (0, 1)
    assert vt.threads[0] == (1, 0)
    assert vc_compare((0, 0), vt.threads[1]) is Ordering.BEFORE


def test_matrix_tracker_rows_never_exceed_actual():
    rng = random.Random(17)
    n_threads, n_objects = 3, 2
    vt = VectorClockTracker(n_threads, n_objects)
    mt = MatrixClockTracker(n_threads, n_objects)
    for _ in range(300):
        tid = rng.randrange(n_threads)
        obj = rng.randrange(n_objects)
        acq = rng.random() < 0.5
        vt.apply_sync(tid, obj, acq)
        mt.apply_sync(tid, obj, acq, vt.threads[tid])
        for i in range(n_threads):
            horizon = mt.horizon(i)
            snooped = column_min(vt.threads)
            assert all(h <= s for h, s in zip(horizon, snooped))
            for j in range(n_threads):
                assert all(a <= b for a, b in zip(mt.threads[i][j], vt.threads[j]))
