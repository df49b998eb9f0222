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
  ``f``'s clock there. For each such pair the race test runs at once, and
  a stub keeps its result with the dropped segment's thread, index, clock
  and access kind. When ``f`` closes, its scan takes each visited
  thread's stubs before its stored segments, and gives each the same
  comparison, count and report step as a stored segment, so reports,
  their order and the counts are those the segment itself would give.

The horizon is kept from one sync op to the next. A sync op changes only
the syncing thread's clock, and clocks never decrease, so a column's
minimum can move only where that thread held it and its value rose, or
when a thread leaves the horizon. An acquire therefore costs one O(n)
check, and a release, which raises only the thread's own column, one
compare; the horizon is recomputed only when the check fires or a thread
leaves, and the list heads are re-tested only when it is recomputed, at
one C-level test plus one bisect per thread whose head drops.

A ``DetectorListener`` passed to ``detect`` sees every segment close,
every discarded prefix and every sync op. ``LiveSegmentProbe`` is one: it
tracks a second, causally-propagated matrix-clock horizon side by side and
samples the live segment counts under both discard policies at every sync
op.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from operator import and_, eq, gt, le, lt, sub
from typing import NamedTuple, Optional

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


class _Stub(NamedTuple):
    """A dropped segment, kept for a frozen segment it is concurrent with:
    its race test against that segment is already run."""
    tid: int
    index: int
    clock: tuple
    witnesses: list
    kind: str  # the dropped segment's access kind on the first witness


# Builds a _Stub from a 5-tuple without the NamedTuple's Python-level __new__.
_new_tuple = tuple.__new__


def _side(seg, addr: int) -> RaceSide:
    if seg.__class__ is _Stub:
        return RaceSide(seg.tid, seg.index, seg.clock, seg.kind)
    kind = "store" if addr in seg.stores else "load"
    return RaceSide(seg.tid, seg.index, seg.clock, kind)


def _make_report(other, seg: Segment, witnesses) -> RaceReport:
    """``other``, a stored segment or a stub, is of another thread."""
    w = witnesses[0]
    a, b = _side(other, w), _side(seg, w)
    first, second = (a, b) if a.tid < b.tid else (b, a)
    return RaceReport(witnesses=tuple(witnesses), side1=first, side2=second)


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
        # frozen[tid]: the stubs a frozen open segment holds, by thread.
        self.frozen: dict[int, dict[int, list]] = {}
        # The snooped horizon, kept exact, and the count of its holders in
        # each column when known. Every clock starts at zero.
        self.horizon = ((0,) * n if any(self.in_horizon)
                        else (_PAST_EVERY_CLOCK,) * n)
        self.holders = None
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
        stubs = self.frozen.pop(tid, None) if self.frozen else None
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

    def _scan_for_races(self, seg: Segment, stubs) -> bool:
        """Compare against the concurrent stored segments in ascending
        (tid, index) order, taking each thread's stubs, if ``seg`` holds
        any, before its stored segments.

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
        - A list emptied by discard is visited only by a frozen segment
          that holds a stub of its newest segment. That segment was
          dropped with its own component at most the horizon. A thread
          in the horizon then held a clock at least as high there, and
          ``seg.clock`` is above that clock if ``seg``'s thread was in the
          horizon; otherwise ``seg`` was frozen, and the segment left it a
          stub exactly when it was concurrent with ``seg``. The stub's
          thread is therefore visited, and its stubs are its segments
          that come before the stored ones.
        """
        clock, loads, stores = seg.clock, seg.loads, seg.stores
        stored_by, epochs = self.stored, self.epochs
        compared = 0
        for tid in compress(count(), map(gt, self.newest, clock)):
            for stub in stubs.get(tid, ()) if stubs else ():
                if vc_compare(stub.clock, clock) is not _CONCURRENT:
                    continue
                compared += 1
                if stub.witnesses:
                    self.reports.append(
                        _make_report(stub, seg, stub.witnesses))
                    if not self.all_races:
                        self.stats.segments_compared += compared
                        return True
            start = bisect_right(epochs[tid], clock[tid])
            for other in stored_by[tid][start:]:
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

    def _raise_horizon(self):
        """Recompute the horizon, the componentwise minimum of the clocks
        of the threads in the horizon, and drop what it passes.

        A recompute that finds the horizon where it was met a tie: another
        row holds the minimum the syncing thread left. Then ``holders[c]``
        is set to the number of rows at column ``c``'s minimum, so that the
        next syncs that only take a holder away need no recompute; after a
        rise it is ``None`` again.
        """
        rows = list(compress(self.clocks.threads, self.in_horizon))
        horizon = (column_min(rows) if rows
                   else (_PAST_EVERY_CLOCK,) * len(self.heads))
        if horizon == self.horizon:
            if rows:
                self.holders = list(map(tuple.count, zip(*rows), horizon))
        else:
            self.horizon = horizon
            self.holders = None
        self._drop_below(horizon)

    def _freeze(self, seg: Segment):
        """``seg``'s thread made its last memory access: take it out of the
        horizon and freeze ``seg``.

        The thread's clock cannot change before its next sync op, which
        closes ``seg``, so ``seg.clock`` is set now. Taking a row out of a
        minimum never lowers it, so the horizon can only rise.
        """
        tid = seg.tid
        seg.clock = self.clocks.threads[tid]
        self.in_horizon[tid] = False
        self.frozen[tid] = {}
        self._raise_horizon()

    def _collect_garbage(self, closing_tid: int, before: tuple,
                         acquire: bool):
        """Advance the snooped horizon past a sync op of ``closing_tid``
        and discard the stored segments it passes.

        ``before`` is the thread's clock before the op. The op changed
        only that thread's clock, and clocks never decrease.
        So a clock leaves a column's minimum only where it held it and its
        value rose, and no clock joins the minimum. Unless a column passes
        both tests, the horizon stays exactly as it was. When one does,
        ``column_min`` is called, unless ``holders`` is known and shows
        that every such column keeps another holder. A thread out of the
        horizon has no row in it, so its ops never move the horizon.

        Only an acquire can raise a column other than the thread's own: a
        release (``UNLOCK``, ``SEM_POST``, ``CREATE``, ``EXIT``) publishes
        ``before`` and leaves the thread at ``before`` with its own
        component bumped by one. So after a release the own column is the
        only one that rose, and the O(n) column check reduces to one
        compare: did ``before`` hold that column's minimum. That holds
        only when the thread is alone in the horizon, or at main's first
        sync op: no other thread has seen the own component that a release
        is about to publish, unless it is 0.

        If the horizon is not recomputed, no head can be at or below it.
        The only segment the op can have stored is the one it closed, with
        own component ``before[t]``. If the thread is in the horizon, its
        column's minimum is at most ``before[t]``, and when it is equal the
        check above fires. (No other thread has seen ``before[t]``, which
        only this op releases, unless it is 0, at main's first sync op. So
        the thread is alone in the horizon, and the op raises the column,
        or every clock's column 0 is 0 and the head can drop although the
        horizon stays; ``holders`` is still unknown then, as no other
        thread has run and nothing has recomputed the horizon, so the
        recompute runs.) If the thread is out of the horizon, every thread
        in it has seen less of the thread than ``before[t]``, except in
        that column 0, and the column is above every clock when no thread
        is left in the horizon: so the head of the thread's list is tested
        once. Every other head stayed at the last recompute or was stored
        since then, by this same argument. Heads are thus re-tested only
        when the horizon is recomputed.
        """
        horizon = self.horizon
        if not self.in_horizon[closing_tid]:
            if self.heads[closing_tid] <= horizon[closing_tid]:
                self._drop_below(horizon)
            return
        if acquire:
            after = self.clocks.threads[closing_tid]
            if not any(map(and_, map(eq, before, horizon),
                           map(lt, before, after))):
                return
            holders = self.holders
            if holders is not None:
                self.holders = holders = list(map(
                    sub, holders, map(and_, map(eq, before, horizon),
                                      map(lt, before, after))))
                if 0 not in holders:
                    return
        elif before[closing_tid] != horizon[closing_tid]:
            return
        self._raise_horizon()

    def _drop_below(self, horizon):
        """Pop each thread ``v``'s stored segments whose own component is
        at most ``horizon[v]``, with their entries in ``epochs``.

        Own components increase along each list, so these are a prefix.
        ``vc_strictly_below(horizon, heads)`` is one C-level test that no
        head can drop.
        """
        heads = self.heads
        if vc_strictly_below(horizon, heads):
            return
        for tid in compress(count(), map(le, heads, horizon)):
            epochs = self.epochs[tid]
            dead = bisect_right(epochs, horizon[tid])
            stored = self.stored[tid]
            if self.listener is not None:
                self.listener.on_discard(self, stored[:dead])
            if self.frozen:
                self._leave_stubs(stored[:dead])
            del stored[:dead]
            del epochs[:dead]
            heads[tid] = epochs[0] if epochs else _NO_HEAD
            self.stats.segments_discarded += dead

    def _leave_stubs(self, dropped: list):
        """Race-test the dropped segments of one thread against each frozen
        segment they are concurrent with, and keep a stub of each pair.

        A dropped segment closed before the frozen segment ``f`` will, so
        by the scan's epoch argument and its converse it is concurrent
        with ``f`` exactly when its own component is above ``f.clock``'s.
        Own components increase along ``dropped``, so those are a suffix.
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
                clock = seg.clock
                if clock[tid] > bound:
                    witnesses = race_witnesses(loads, stores,
                                               seg.loads, seg.stores)
                    kind = ("" if not witnesses else "store"
                            if witnesses[0] in seg.stores else "load")
                    kept.append(_new_tuple(_Stub, (tid, seg.index, clock,
                                                   witnesses, kind)))

    def _live_stored(self) -> int:
        return self.stats.segments_created - self.stats.segments_discarded

    # -- end of stream ------------------------------------------------------------

    def finish(self):
        """Close remaining open segments at thread exit, in thread order."""
        for seg in self.open:
            if seg is not None and self._close(seg) and not self.all_races:
                return


def _prefix_below(segments: list, horizon) -> int:
    """How many leading ``segments`` of one thread are strictly below
    ``horizon``.

    A thread's clocks never decrease from one segment to the next, so if a
    segment is strictly below the horizon, so is every earlier segment of
    that thread: the segments below it are always a prefix of the list,
    and the count stops at the first segment that is not.
    """
    dead = 0
    while dead < len(segments) and \
            vc_strictly_below(segments[dead].clock, horizon):
        dead += 1
    return dead


class LiveSegmentProbe(DetectorListener):
    """Live segment counts under the snooped discard and a logical one.

    The logical horizon is the syncing thread's own matrix minimum: what
    that thread could discard by its causally-propagated knowledge alone.
    ``rows`` gets one ``(sync events seen, live under the snooped
    discard, live under the logical discard)`` row at every sync op. The
    logical horizon differs from one op to the next, so every thread's
    list is re-tested at every op. The snooped count is what the
    detector's own discard leaves live, so the probe needs ``gc=True``.

    The logical discard drops a segment only once its whole clock is
    strictly below the logical horizon. The snooped count is never above
    the logical one: each matrix row is at most the clock of its thread,
    so the snooped horizon, a minimum over some of those clocks, is at
    least the logical one, and a clock strictly below a horizon is below
    it in its own component.
    """

    def __init__(self, program: Program):
        n = program.n_threads
        self.matrix = MatrixClockTracker(n, program.n_objects)
        self.ghosts = [[] for _ in range(n)]
        self.rows: list[tuple] = []

    def on_close(self, state, seg):
        self.ghosts[seg.tid].append(seg)

    def on_sync(self, state, tid, obj, acquire):
        if not state.gc:
            raise ValueError(
                "probe mode compares the discard policies and needs gc=True")
        self.matrix.apply_sync(tid, obj, acquire, state.clocks.threads[tid])
        logical = self.matrix.horizon(tid)
        for ghosts in self.ghosts:
            del ghosts[:_prefix_below(ghosts, logical)]
        self.rows.append((state.stats.sync_events, state._live_stored(),
                          sum(map(len, self.ghosts))))


def detect(program: Program, trace: SyncTrace, *, all_races: bool = False,
           gc: bool = True, listener: Optional[DetectorListener] = None,
           replay_seed: int = 0) -> DetectResult:
    """Replay under the trace and report the first data race, if any.

    ``listener`` sees the detector's segment closes, discards and sync
    ops; it changes nothing the detector finds.
    """
    state = _DetectorState(program, all_races=all_races, gc=gc,
                           listener=listener)
    replay = replay_execution(program, trace, observer=state.on_event,
                              replay_seed=replay_seed)
    if replay.verdict != STOPPED or all_races:
        state.finish()
    if state.reports:
        status = RACE
    elif replay.verdict == DIVERGED:
        status = DIVERGED_NO_RACE
    else:
        status = CLEAN
    return DetectResult(status=status, reports=state.reports, stats=state.stats,
                        replay=replay)
