"""Replay & detect phase: on-the-fly segment comparison during replay.

A segment is the run of memory operations a thread performs between two
successive synchronisation operations; empty spans produce no segment.
While replaying, each thread's open segment collects load/store addresses
in two multilevel bitmaps. When a sync op closes a segment it is compared
against every stored segment whose vector clock is concurrent with it;
a non-empty conflict-witness set is a data race and, unless asked for all
races, ends the run. The closed segment is then stored and obsolete
segments are discarded.

Each thread's stored segments are kept in a list in index order. Every
sync op bumps the thread's own clock component, so along that list the
clocks are componentwise non-decreasing and the own components strictly
increase. That order does the work of both steps: the stored segments of
a thread that precede a closing segment form a prefix found by one bisect
on the own component (the epoch argument of FastTrack, Flanagan & Freund,
PLDI 2009), and the segments a discard drops form a prefix popped from the
head. A close costs one C-level pass over the n threads' newest own
components, which picks the threads holding a concurrent segment, and one
bisect for each of them. Then, per concurrent segment, it costs one exact
comparison and one race test. The race test is driven by the stores: every
witness is stored by one of the two sides, so it walks only the leaves of
the two store sets, masks each by the other side's accesses on that leaf,
and is O(1) unless the address signatures of a store set and the accesses
it is masked by meet.

Discard rests on the same epoch argument. The horizon is the
componentwise minimum of the snooped clocks of the threads *in the
horizon*: those that still have a memory access to make (by
``Program.last_access``), started or not; a thread not yet started holds
its zero clock. A stored segment ``s`` of thread ``v`` is dropped once
``s.clock[v] <= horizon[v]``, one integer compare per list head. It is
sound for two reasons:

- Every segment a thread in the horizon closes later has a clock at or
  above that thread's current clock, whose ``[v]`` is at least
  ``s.clock[v]``; by the epoch argument ``s`` is ordered before it.
- A thread leaves the horizon at its last memory access. It makes no
  segment after that one except its open segment ``f``, which is then
  final (*frozen*): its accesses and its clock cannot change before the
  next sync op of its thread closes it. A segment dropped while ``f`` is
  frozen is concurrent with ``f`` exactly when ``s.clock[v]`` is above
  ``f``'s clock there. For each such pair the race test runs at once,
  and ``f`` keeps the dropped segment trimmed to that test's witnesses.
  When ``f`` closes, its scan takes each visited thread's trimmed
  segments before its stored ones, with the same compare, count and
  report step, so reports, their order and the counts are those the
  dropped segments themselves would give.

The horizon is kept from one sync op to the next, with ``holders[c]``,
the number of its rows at column ``c``'s minimum. A sync op changes only
the syncing thread's clock, and clocks never decrease, so a row can leave
a column's minimum, where it held it and its value rose, but no row can
join one. The op takes one holder from each column its thread left, and
only a column left with no holder is recomputed, at O(n), with only its
own thread's list re-tested. A release raises only its thread's own
column, so it costs one compare. The only head an op can create is its
own thread's, so that head is tested once per op. The whole horizon is
recomputed only when a thread leaves it.

A ``DetectorListener`` passed to ``detect`` sees every segment close,
every discarded prefix and every sync op. ``LiveSegmentProbe`` is one: it
tracks a second, causally-propagated matrix-clock horizon side by side,
discards by the same epoch test against it, and samples the live segment
counts under both horizons at every sync op.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from operator import and_, eq, gt, le, lt
from typing import Optional

from .bitmap import MultilevelBitmap, race_witnesses
from .clocks import (MatrixClockTracker, Ordering, VectorClockTracker,
                     column_min, vc_compare, vc_strictly_below)
from .machine import ACQUIRE_KINDS, EventKind
from .program import Program
from .replay import DIVERGED, STOPPED, ReplayResult, replay_execution
from .tracefile import SyncTrace

RACE = "race"
CLEAN = "clean"
DIVERGED_NO_RACE = "diverged"

_SYNC_EVENT, _STORE_EVENT = EventKind.SYNC, EventKind.STORE
_CONCURRENT = Ordering.CONCURRENT


@dataclass(slots=True)
class Segment:
    tid: int
    index: int
    loads: MultilevelBitmap
    stores: MultilevelBitmap
    clock: tuple = ()

    @property
    def key(self):
        return (self.tid, self.index)


@dataclass(frozen=True)
class RaceSide:
    tid: int
    segment: int
    clock: tuple
    kind: str  # "load" or "store": access type on the smallest witness


@dataclass
class RaceReport:
    witnesses: tuple  # ascending witness addresses
    side1: RaceSide
    side2: RaceSide
    instructions: Optional[tuple] = None  # filled by the identification phase

    @property
    def witness(self) -> int:
        return self.witnesses[0]

    def pair_key(self):
        """Unordered identity used for oracle equivalence checks."""
        segs = frozenset(((self.side1.tid, self.side1.segment),
                          (self.side2.tid, self.side2.segment)))
        return segs, frozenset(self.witnesses)


@dataclass
class DetectStats:
    segments_created: int = 0
    segments_max_live: int = 0
    segments_compared: int = 0
    segments_discarded: int = 0
    mem_events: int = 0
    sync_events: int = 0


@dataclass
class DetectResult:
    status: str
    reports: list
    stats: DetectStats
    replay: ReplayResult

    @property
    def report(self) -> Optional[RaceReport]:
        return self.reports[0] if self.reports else None


# The accesses of a trimmed segment with no witness; never written.
_NO_ACCESSES = MultilevelBitmap()


def _side(seg: Segment, addr: int) -> RaceSide:
    kind = "store" if addr in seg.stores else "load"
    return RaceSide(seg.tid, seg.index, seg.clock, kind)


def _make_report(other: Segment, seg: Segment, witnesses) -> RaceReport:
    """``other``, a stored or trimmed segment, is of another thread."""
    w = witnesses[0]
    a, b = _side(other, w), _side(seg, w)
    first, second = (a, b) if a.tid < b.tid else (b, a)
    return RaceReport(witnesses=tuple(witnesses), side1=first, side2=second)


def _trimmed(seg: Segment, witnesses) -> Segment:
    """``seg`` with only ``witnesses`` in its bitmaps: each in ``stores``
    if ``seg`` stored it, else in ``loads``."""
    if not witnesses:
        return Segment(seg.tid, seg.index, _NO_ACCESSES, _NO_ACCESSES,
                       seg.clock)
    loads, stores = MultilevelBitmap(), MultilevelBitmap()
    for w in witnesses:
        (stores if w in seg.stores else loads).insert(w)
    return Segment(seg.tid, seg.index, loads, stores, seg.clock)


class DetectorListener:
    """Observer of the detector's segments; the default does nothing.

    Each callback gets the detector's state first, to read and not to
    change.
    """

    def on_close(self, state: "_DetectorState", seg: Segment):
        """A segment closed; called after it is stored."""

    def on_discard(self, state: "_DetectorState", segments: list):
        """A thread's dropped prefix, in index order, before it is deleted."""

    def on_sync(self, state: "_DetectorState", tid: int, obj: int,
                acquire: bool):
        """A sync op ran; called after its clock update and snooped discard."""


# The horizon's columns when no thread is in the horizon, above every clock
# component a run can reach; and the head of an empty list, above that.
_PAST_EVERY_CLOCK = sys.maxsize
_NO_HEAD = float("inf")


class _DetectorState:
    def __init__(self, program: Program, *, all_races: bool, gc: bool,
                 listener: Optional[DetectorListener]):
        n = program.n_threads
        self.program = program
        self.all_races = all_races
        self.gc = gc
        self.listener = listener
        self.clocks = VectorClockTracker(n, program.n_objects)
        self.open: list[Optional[Segment]] = [None] * n
        self.closed_count = [0] * n
        # stored[tid] lists the thread's live segments in index order, and
        # epochs[tid] their own clock components, for the scan's bisect;
        # heads[tid] is epochs[tid][0], or _NO_HEAD when it is empty.
        # newest[tid] is the own component of the newest segment the thread
        # stored, kept when discard empties the list; the scan's filter.
        self.stored = [[] for _ in range(n)]
        self.epochs = [[] for _ in range(n)]
        self.heads = [_NO_HEAD] * n
        self.newest = [0] * n
        # A memory event at last_access[tid] takes the thread out of the
        # horizon; without discard no event does.
        self.last_access = program.last_access if gc else (-1,) * n
        self.in_horizon = [last >= 0 for last in program.last_access]
        # frozen[tid]: the trimmed segments a frozen open segment holds,
        # by thread.
        self.frozen: dict[int, dict[int, list]] = {}
        # The snooped horizon and holders[c], the number of its rows at
        # column c's minimum, both kept exact. Every clock starts at zero.
        rows = sum(self.in_horizon)
        self.horizon = [0 if rows else _PAST_EVERY_CLOCK] * n
        self.holders = [rows] * n
        self.reports: list[RaceReport] = []
        self.stats = DetectStats()

    # -- events ---------------------------------------------------------------

    def on_event(self, machine, event) -> bool:
        kind, tid = event.kind, event.tid
        seg = self.open[tid]
        if kind is _SYNC_EVENT:
            self.stats.sync_events += 1
            found = seg is not None and self._close(seg)
            # Clock updates happen at the sync op itself, after the segment
            # ends.
            acquire = event.sync in ACQUIRE_KINDS
            before = self.clocks.apply_sync(tid, event.obj, acquire)
            if self.gc:
                self._collect_garbage(tid, before, acquire)
            if self.listener is not None:
                self.listener.on_sync(self, tid, event.obj, acquire)
            return found and not self.all_races
        self.stats.mem_events += 1
        if seg is None:
            seg = self.open[tid] = Segment(
                tid, self.closed_count[tid],
                MultilevelBitmap(), MultilevelBitmap())
        (seg.stores if kind is _STORE_EVENT else seg.loads).insert(event.addr)
        if event.ordinal == self.last_access[tid]:
            self._freeze(seg)
        return False

    def _close(self, seg: Segment) -> bool:
        """Close ``seg``, its thread's open segment: scan, then store it."""
        tid = seg.tid
        self.open[tid] = None
        seg.clock = clock = self.clocks.threads[tid]
        self.closed_count[tid] += 1
        stubs = self.frozen.pop(tid, {})
        found = self._scan_for_races(seg, stubs)
        epochs = self.epochs[tid]
        if not epochs:
            self.heads[tid] = clock[tid]
        self.stored[tid].append(seg)
        epochs.append(clock[tid])
        self.newest[tid] = clock[tid]
        stats = self.stats
        stats.segments_created += 1
        live = stats.segments_created - stats.segments_discarded
        if live > stats.segments_max_live:
            stats.segments_max_live = live
        if self.listener is not None:
            self.listener.on_close(self, seg)
        return found

    def _scan_for_races(self, seg: Segment, stubs: dict) -> bool:
        """Compare against the concurrent stored segments in ascending
        (tid, index) order, taking each thread's trimmed segments in
        ``stubs``, if ``seg`` was frozen, before its stored ones.

        Let ``other`` be a stored segment of thread ``u``; it closed before
        ``seg``, and ``other.clock`` is ``u``'s clock at the sync op that
        closed it. Every sync op bumps ``u``'s own component, so a clock
        of ``u`` with own component ``k = other.clock[u]`` or more is
        only released at or after that op, and it dominates
        ``other.clock``. If ``k <= seg.clock[u]``, ``seg``'s thread has
        joined such a clock, so ``other.clock <= seg.clock``: the two are
        ordered and cannot race. (An own component of 0 occurs only in the
        main thread's first segment, and every other thread starts by
        acquiring a clock its creator released after that segment.) Own
        components strictly increase along ``stored[u]``, so the ordered
        segments found this way are the prefix that ``bisect_right`` on
        ``epochs[u]`` skips. The suffix gets the exact concurrency test
        before its bitmaps are intersected.

        The converse holds too: if ``k > seg.clock[u]``, ``other`` is
        concurrent with ``seg``. Then ``other.clock`` is not below
        ``seg.clock``, and it is not above it either. ``seg``'s thread
        ``t`` first releases a clock with own component ``seg.clock[t]``
        at the sync op that closes ``seg``, after ``other`` closed, so
        ``other.clock[t] < seg.clock[t]`` (again, ``seg.clock[t] == 0``
        only for the main thread's first segment, when nothing is
        stored).

        The scan visits only the threads ``u`` with ``newest[u] >
        seg.clock[u]``, picked by one C-level pass over the n entries of
        ``newest``, in ascending tid:

        - By the converse, the newest stored segment of a visited thread
          is concurrent with ``seg``, so each visited thread yields at
          least one compared segment.
        - A skipped thread with stored segments yields none: its newest
          segment, and so every earlier one, is ordered before ``seg``.
        - The closing thread never qualifies: each of its sync ops bumps
          its own component, so ``newest[t] < seg.clock[t]``.
        - A thread whose newest segment was dropped is visited only if
          ``seg`` holds it trimmed. At the drop its own component was at
          most the horizon's. If ``seg``'s thread was in the horizon, its
          clock was at least that high there, and ``seg.clock`` is above
          that clock. Otherwise ``seg`` was frozen, and it was given the
          trimmed segment exactly when the two were concurrent. A trimmed
          segment is compared, counted and race-tested like the segment
          it stands for, and gives back the same witnesses and kinds.
        """
        clock, loads, stores = seg.clock, seg.loads, seg.stores
        stored_by, epochs = self.stored, self.epochs
        compared = 0
        for tid in compress(count(), map(gt, self.newest, clock)):
            others = stored_by[tid][bisect_right(epochs[tid], clock[tid]):]
            if tid in stubs:
                others = stubs[tid] + others
            for other in others:
                if vc_compare(other.clock, clock) is not _CONCURRENT:
                    continue
                compared += 1
                witnesses = race_witnesses(loads, stores,
                                           other.loads, other.stores)
                if witnesses:
                    self.reports.append(_make_report(other, seg, witnesses))
                    if not self.all_races:
                        self.stats.segments_compared += compared
                        return True
        self.stats.segments_compared += compared
        return False

    # -- discard ----------------------------------------------------------------

    def _freeze(self, seg: Segment):
        """``seg``'s thread made its last memory access: take it out of the
        horizon and freeze ``seg``.

        The thread's clock cannot change before its next sync op, which
        closes ``seg``, so ``seg.clock`` is set now. The horizon and its
        holder counts are then recomputed from the remaining rows, the one
        full recompute, and every list head is tested against it;
        ``vc_strictly_below`` is one C-level test that none can drop.
        Taking a row out of a minimum never lowers it, so the horizon can
        only rise.
        """
        tid = seg.tid
        seg.clock = self.clocks.threads[tid]
        self.in_horizon[tid] = False
        self.frozen[tid] = {}
        rows = list(compress(self.clocks.threads, self.in_horizon))
        if rows:
            self.horizon = list(column_min(rows))
            self.holders = list(map(tuple.count, zip(*rows), self.horizon))
        else:
            self.horizon = [_PAST_EVERY_CLOCK] * len(self.heads)
            self.holders = [0] * len(self.heads)
        heads, horizon = self.heads, self.horizon
        if vc_strictly_below(horizon, heads):
            return
        for v in compress(count(), map(le, heads, horizon)):
            self._drop(v)

    def _collect_garbage(self, tid: int, before: tuple, acquire: bool):
        """Advance the snooped horizon past a sync op of ``tid`` and
        discard the stored segments it passes.

        ``before`` is the thread's clock before the op, the only clock the
        op changed. A thread in the horizon left column ``c``'s minimum
        where ``before[c]`` held it and the op raised it; each such column
        loses a holder, and one left with none is recomputed from the rows
        and its own thread's head re-tested. A release (``UNLOCK``,
        ``SEM_POST``, ``CREATE``, ``EXIT``) only bumps the own component,
        so it can leave no other column. A thread out of the horizon has
        no row. Apart from those heads, the op can change only its own
        thread's, by storing the segment it closed, so that head is tested
        once. Every other head stays above the horizon, as it was.
        """
        horizon, holders = self.horizon, self.holders
        if self.in_horizon[tid]:
            if acquire:
                after = self.clocks.threads[tid]
                left = list(compress(count(), map(
                    and_, map(eq, before, horizon), map(lt, before, after))))
            else:
                left = (tid,) if before[tid] == horizon[tid] else ()
            for c in left:
                holders[c] -= 1
                if not holders[c]:
                    column = [clock[c] for clock in
                              compress(self.clocks.threads, self.in_horizon)]
                    horizon[c] = low = min(column)
                    holders[c] = column.count(low)
                    if self.heads[c] <= low:
                        self._drop(c)
        if self.heads[tid] <= horizon[tid]:
            self._drop(tid)

    def _drop(self, tid: int):
        """Pop thread ``tid``'s stored segments whose own component is at
        most ``horizon[tid]``, with their entries in ``epochs``.

        Own components increase along the list, so these are a prefix.
        """
        epochs = self.epochs[tid]
        dead = bisect_right(epochs, self.horizon[tid])
        stored = self.stored[tid]
        if self.listener is not None:
            self.listener.on_discard(self, stored[:dead])
        if self.frozen:
            self._leave_stubs(stored[:dead])
        del stored[:dead]
        del epochs[:dead]
        self.heads[tid] = epochs[0] if epochs else _NO_HEAD
        self.stats.segments_discarded += dead

    def _leave_stubs(self, dropped: list):
        """Race-test the dropped segments of one thread against each frozen
        segment they are concurrent with, and keep each such segment,
        trimmed to that test's witnesses, for the frozen segment's scan.

        A dropped segment closed before the frozen segment ``f`` will, so
        by the scan's epoch argument and its converse it is concurrent
        with ``f`` exactly when its own component is above ``f.clock``'s.
        Own components increase along ``dropped``, so those are a suffix.

        The race formula on ``f`` and the trimmed segment gives back
        exactly the witnesses, with the same access kinds: a witness the
        dropped segment stored is one ``f`` accessed, and one it only
        loaded is one ``f`` stored. With no witness both bitmaps are the
        empty ``_NO_ACCESSES``, and the scan's race test is O(1).
        """
        tid = dropped[0].tid
        for frozen_tid, stubs in self.frozen.items():
            f = self.open[frozen_tid]
            bound = f.clock[tid]
            if dropped[-1].clock[tid] <= bound:
                continue
            kept = stubs.setdefault(tid, [])
            loads, stores = f.loads, f.stores
            for seg in dropped:
                if seg.clock[tid] > bound:
                    kept.append(_trimmed(seg, race_witnesses(
                        loads, stores, seg.loads, seg.stores)))

    # -- end of stream ------------------------------------------------------------

    def finish(self):
        """Close remaining open segments at thread exit, in thread order."""
        for seg in self.open:
            if seg is not None and self._close(seg) and not self.all_races:
                return


class LiveSegmentProbe(DetectorListener):
    """Live segment counts under the snooped discard and a logical one.

    The logical horizon is the syncing thread's own matrix minimum: what
    that thread could discard by its causally-propagated knowledge alone.
    ``rows`` holds one ``(sync events seen, live under the snooped
    discard, live under the logical discard)`` row per sync op, kept as
    three int arrays, since a tuple per op would outweigh the rest of the
    probe. The snooped count is what the detector's own discard leaves
    live, read from ``state.stats``, so the probe needs ``gc=True``.

    Both discards use the detector's epoch test: a segment of thread ``v``
    goes once its own component is at most the horizon's column ``v``. The
    probe keeps only those own components, ``ghosts[v]`` for the segments
    of ``v`` in close order, and holds no segment. The logical horizon
    differs from one op to the next, so at every op one ``bisect_right``
    per thread drops the prefix at or below ``logical[v]``.

    Row ``u`` of the syncing thread's matrix is zero or a clock thread
    ``u`` held, so it is at most ``u``'s current clock, and the logical
    horizon is at most every thread's current clock. The epoch argument of
    ``_DetectorState._scan_for_races`` then makes the logical discard
    sound: every segment any thread closes later has a clock at or above
    that thread's current one. The snooped horizon is a minimum over some
    of the current clocks, which never fall, so it is at least every
    logical horizon seen so far: every segment the logical discard has
    dropped the detector has dropped too, and the snooped count is never
    above the logical one.
    """

    def __init__(self, program: Program):
        n = program.n_threads
        self.matrix = MatrixClockTracker(n, program.n_objects)
        self.ghosts = [[] for _ in range(n)]
        self._columns = (array("q"), array("q"), array("q"))

    @property
    def rows(self) -> list:
        return list(zip(*self._columns))

    def on_close(self, state, seg):
        self.ghosts[seg.tid].append(seg.clock[seg.tid])

    def on_sync(self, state, tid, obj, acquire):
        if not state.gc:
            raise ValueError(
                "probe mode compares the discard horizons and needs gc=True")
        self.matrix.apply_sync(tid, obj, acquire, state.clocks.threads[tid])
        logical = self.matrix.horizon(tid)
        for ghosts, bound in zip(self.ghosts, logical):
            del ghosts[:bisect_right(ghosts, bound)]
        stats = state.stats
        seen, snooped, logical = self._columns
        seen.append(stats.sync_events)
        snooped.append(stats.segments_created - stats.segments_discarded)
        logical.append(sum(map(len, self.ghosts)))


def detect(program: Program, trace: SyncTrace, *, all_races: bool = False,
           gc: bool = True,
           listener: Optional[DetectorListener] = None) -> DetectResult:
    """Replay under the trace and report the first data race, if any.

    ``listener`` sees the detector's segment closes, discards and sync
    ops; it changes nothing the detector finds.
    """
    state = _DetectorState(program, all_races=all_races, gc=gc,
                           listener=listener)
    replay = replay_execution(program, trace, observer=state.on_event)
    if replay.verdict != STOPPED:
        state.finish()
    if state.reports:
        status = RACE
    elif replay.verdict == DIVERGED:
        status = DIVERGED_NO_RACE
    else:
        status = CLEAN
    return DetectResult(status=status, reports=state.reports, stats=state.stats,
                        replay=replay)
