"""Logical clocks: scalar (record/replay ordering), vector (concurrency
tests between segments), and matrix horizons (segment discard).

Vector clocks are plain tuples of per-thread counters; all operations are
pure functions. The update discipline ties clocks to synchronisation
operations only: a release-like op publishes the thread's clock into the
object's clock, an acquire-like op joins the object's clock into the
thread's, and every sync op then increments the thread's own component,
which is what delimits segments.

Two discard horizons are supported. The *snooped* horizon is the
columnwise minimum of live vector clocks read directly: the detector takes
it over the threads that still have a memory access to make. The *logical*
horizon is the columnwise minimum of a matrix clock propagated only along
synchronisation edges, i.e. what the ending thread can know causally; it
is never above the snooped horizon.
"""

from __future__ import annotations

from enum import IntEnum
from operator import gt, lt


class Ordering(IntEnum):
    EQUAL = 0
    BEFORE = 1
    AFTER = 2
    CONCURRENT = 3


_EQUAL, _BEFORE, _AFTER, _CONCURRENT = (
    Ordering.EQUAL, Ordering.BEFORE, Ordering.AFTER, Ordering.CONCURRENT)


def lamport_advance(thread_ts: int, object_ts: int) -> int:
    """Scalar clock value for a sync op: max of the two chains, plus one."""
    return max(thread_ts, object_ts) + 1


def vc_zero(n: int):
    return (0,) * n


def vc_join(a, b):
    if len(a) != len(b):
        raise ValueError("vector clock length mismatch")
    # Not map(max, a, b): a generic max call per component is slower.
    return tuple([x if x > y else y for x, y in zip(a, b)])


def vc_compare(a, b) -> Ordering:
    if len(a) != len(b):
        raise ValueError("vector clock length mismatch")
    if any(map(lt, a, b)):
        return _CONCURRENT if any(map(gt, a, b)) else _BEFORE
    return _AFTER if any(map(gt, a, b)) else _EQUAL


def vc_strictly_below(a, b) -> bool:
    """True when every component of a is strictly below b (discard test)."""
    return all(map(lt, a, b))


def column_min(rows):
    """Per-thread discard horizon: componentwise minimum over matrix rows."""
    return tuple(map(min, *rows)) if len(rows) > 1 else tuple(rows[0])


class VectorClockTracker:
    """Per-execution vector clock state for threads and sync objects."""

    def __init__(self, n_threads: int, n_objects: int):
        self.n = n_threads
        self.threads = [vc_zero(n_threads) for _ in range(n_threads)]
        self.objects = [vc_zero(n_threads) for _ in range(n_objects)]

    def apply_sync(self, tid: int, obj: int, acquire: bool):
        """Apply one sync op; returns the thread clock before the op
        (the ending segment's clock)."""
        before = self.threads[tid]
        if acquire:
            clock = vc_join(before, self.objects[obj])
        else:
            self.objects[obj] = vc_join(self.objects[obj], before)
            clock = before
        bumped = list(clock)
        bumped[tid] += 1
        self.threads[tid] = tuple(bumped)
        return before


class MatrixClockTracker:
    """Causally-propagated knowledge matrices, one per thread and object.

    Row j of thread i's matrix is the latest clock of thread j that has
    causally reached thread i. ``horizon(i)`` is what thread i could
    safely discard by on its own knowledge alone.

    ``apply_sync`` is given ``own_clock``, the thread's vector clock after
    the op. Joining two matrices then costs O(n), not O(n^2). Row j of any
    matrix is either all zeros or a clock thread j held after one of its
    sync ops, since a row is only ever set to the syncing thread's
    ``own_clock`` or copied from another matrix's row j. Thread j's clocks
    never decrease, so any two of them are ordered, and each sync op bumps
    the own component, so two of them with the same ``[j]`` are identical;
    the zero row is below them all and is the only row with ``[j] == 0``.
    The componentwise join of two rows j is therefore the row with the
    larger ``[j]``.
    """

    def __init__(self, n_threads: int, n_objects: int):
        z = vc_zero(n_threads)
        self.threads = [[z] * n_threads for _ in range(n_threads)]
        self.objects = [[z] * n_threads for _ in range(n_objects)]

    @staticmethod
    def _join(mine, theirs):
        return [a if a[j] >= b[j] else b
                for j, (a, b) in enumerate(zip(mine, theirs))]

    def apply_sync(self, tid: int, obj: int, acquire: bool, own_clock):
        mine = self.threads[tid]
        if acquire:
            self.threads[tid] = mine = self._join(mine, self.objects[obj])
        mine[tid] = tuple(own_clock)
        if not acquire:
            self.objects[obj] = self._join(self.objects[obj], mine)

    def horizon(self, tid: int):
        return column_min(self.threads[tid])
