"""Replay & detect phase: on-the-fly segment comparison during replay.

A segment is the run of memory operations a thread performs between two
successive synchronisation operations; empty spans produce no segment.
While replaying, each thread's open segment collects load/store addresses
in two multilevel bitmaps. When a sync op closes a segment it is compared
against every stored segment whose vector clock is concurrent with it;
a non-empty conflict-witness set is a data race and, unless asked for all
races, ends the run. The closed segment is then stored and obsolete
segments are discarded: the horizon is the componentwise minimum over all
threads' live clocks, and any stored segment whose clock is strictly below
it in every component can never be concurrent with anything later.

Each thread's stored segments are kept in a list in index order. Every
sync op bumps the thread's own clock component, so along that list the
clocks are componentwise non-decreasing and the own components strictly
increase. That order does the work of both steps: the stored segments of
a thread that precede a closing segment form a prefix found by one bisect
on the own component (the epoch argument of FastTrack, Flanagan & Freund,
PLDI 2009), and the segments below a horizon form a prefix popped from the
head. A close costs one C-level pass over the n threads' newest own
components, which picks the threads holding a concurrent segment, and one
bisect for each of them. Then, per concurrent segment, it costs one exact
comparison and one race test. The race test is driven by the stores: every
witness is stored by one of the two sides, so it walks only the leaves of
the two store sets, masks each by the other side's accesses on that leaf,
and is O(1) unless the address signatures of a store set and the accesses
it is masked by meet.

The horizon is kept from one sync op to the next. A sync op changes only
the syncing thread's clock, and clocks never decrease, so a column's
minimum can move only where that thread held it and its value rose. An
acquire therefore costs one O(n) check, and a release, which raises only
the thread's own column, one compare; the horizon is recomputed only
when the check fires, and the list heads are re-tested only when the
horizon rises, at one test per dropped segment plus one per thread.

A ``DetectorListener`` passed to ``detect`` sees every segment close,
every discarded prefix and every sync op. ``LiveSegmentProbe`` is one: it
tracks a second, causally-propagated matrix-clock horizon side by side and
samples the live segment counts under both discard policies at every sync
op.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from operator import and_, eq, gt, lt
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


def _access_kind(seg: Segment, addr: int) -> str:
    return "store" if addr in seg.stores else "load"


def _make_report(a: Segment, b: Segment, witnesses) -> RaceReport:
    first, second = sorted((a, b), key=lambda s: s.key)
    w = witnesses[0]
    return RaceReport(
        witnesses=tuple(witnesses),
        side1=RaceSide(first.tid, first.index, first.clock, _access_kind(first, w)),
        side2=RaceSide(second.tid, second.index, second.clock, _access_kind(second, w)),
    )


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


class _DetectorState:
    def __init__(self, program: Program, *, all_races: bool, gc: bool,
                 listener: Optional[DetectorListener]):
        n = program.n_threads
        self.program = program
        self.all_races = all_races
        self.gc = gc
        self.listener = listener
        self.clocks = VectorClockTracker(n, program.n_objects)
        # The snooped horizon: column_min of self.clocks.threads, kept exact.
        self.horizon = (0,) * n
        self.open: list[Optional[Segment]] = [None] * n
        self.closed_count = [0] * n
        # stored[tid] lists the thread's live segments in index order, and
        # epochs[tid] their own clock components, for the scan's bisect.
        # newest[tid] is the own component of the newest segment the thread
        # stored, kept when discard empties the list; the scan's filter.
        self.stored = [[] for _ in range(n)]
        self.epochs = [[] for _ in range(n)]
        self.newest = [0] * n
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
        return False

    def _close(self, seg: Segment) -> bool:
        """Close ``seg``, its thread's open segment: scan, then store it."""
        tid = seg.tid
        self.open[tid] = None
        seg.clock = clock = self.clocks.threads[tid]
        self.closed_count[tid] += 1
        found = self._scan_for_races(seg)
        self.stored[tid].append(seg)
        self.epochs[tid].append(clock[tid])
        self.newest[tid] = clock[tid]
        stats = self.stats
        stats.segments_created += 1
        live = stats.segments_created - stats.segments_discarded
        if live > stats.segments_max_live:
            stats.segments_max_live = live
        if self.listener is not None:
            self.listener.on_close(self, seg)
        return found

    def _scan_for_races(self, seg: Segment) -> bool:
        """Compare against the concurrent stored segments in ascending
        (tid, index) order.

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
        - A list emptied by discard is never visited. Its newest segment
          was strictly below the horizon, horizons never fall, and the
          horizon, the minimum over every thread's clock, is at most
          ``seg.clock``.
        """
        clock, loads, stores = seg.clock, seg.loads, seg.stores
        stored_by, epochs = self.stored, self.epochs
        compared = 0
        for tid in compress(count(), map(gt, self.newest, clock)):
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

    def _collect_garbage(self, closing_tid: int, before: tuple,
                         acquire: bool):
        """Advance the snooped horizon past a sync op of ``closing_tid``
        and discard the stored segments strictly below it.

        ``before`` is the thread's clock before the op. The op changed
        only that thread's row of the snapshot, and rows never decrease.
        So a column whose minimum ``before`` did not hold, or whose value
        did not rise, keeps its minimum in some unchanged row: unless a
        column passes both tests, the horizon stays exactly as it was, and
        ``column_min`` is called only when one does.

        Only an acquire can raise a column other than the thread's own: a
        release (``UNLOCK``, ``SEM_POST``, ``CREATE``, ``EXIT``) publishes
        ``before`` and leaves the thread at ``before`` with its own
        component bumped by one. So after a release the own column is the
        only one that rose, and the O(n) column check reduces to one
        compare: did ``before`` hold that column's minimum. With one
        thread the horizon is that thread's clock and every release
        raises it. With more, the compare holds only at a thread's first
        sync op: no other thread has seen the own component that a
        release is about to publish.

        If the horizon did not rise, no head can be below it. The only
        segment the op can have stored is the one it closed, whose clock
        is ``before``; that was a row of the snapshot the horizon is the
        minimum of, so the horizon is at most ``before`` in every
        component. Every other head either stayed when the horizon last
        rose or was stored since then, by this same argument. Heads are
        thus re-tested only when the horizon rises.
        """
        if acquire:
            after = self.clocks.threads[closing_tid]
            moved = any(map(and_, map(eq, before, self.horizon),
                            map(lt, before, after)))
        else:
            moved = before[closing_tid] == self.horizon[closing_tid]
        if moved:
            horizon = column_min(self.clocks.snapshot())
            if horizon != self.horizon:
                self.horizon = horizon
                self._drop_below(horizon)

    def _drop_below(self, horizon):
        """Pop each thread's stored segments strictly below ``horizon``,
        with their entries in ``epochs``."""
        listener = self.listener
        for stored, epochs in zip(self.stored, self.epochs):
            dead = _prefix_below(stored, horizon)
            if dead:
                if listener is not None:
                    listener.on_discard(self, stored[:dead])
                del stored[:dead]
                del epochs[:dead]
                self.stats.segments_discarded += dead

    def _live_stored(self) -> int:
        return self.stats.segments_created - self.stats.segments_discarded

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
    ``rows`` gets one ``(sync events seen, live under the snooped
    discard, live under the logical discard)`` row at every sync op. The
    logical horizon differs from one op to the next, so every thread's
    list is re-tested at every op. The snooped count is what the
    detector's own discard leaves live, so the probe needs ``gc=True``.
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
