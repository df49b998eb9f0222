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
head. A close costs one bisect per other thread plus one exact comparison
per concurrent segment.

The horizon is kept from one sync op to the next. A sync op changes only
the syncing thread's clock, and clocks never decrease, so a column's
minimum can move only where that thread held it and its value rose. A
sync op therefore costs one O(n) check; the horizon is recomputed only
when the check fires, and the list heads are re-tested only when the
horizon rises, at one test per dropped segment plus one per thread.

With ``probe=True`` a second, causally-propagated matrix-clock horizon is
tracked side by side and the live segment counts under both discard
policies are sampled at every segment close.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
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


@dataclass
class Segment:
    tid: int
    index: int
    loads: MultilevelBitmap
    stores: MultilevelBitmap
    clock: tuple = ()
    closed_at: int = -1  # value of the sync-event counter at close time

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
    probe_rows: list = field(default_factory=list)
    discarded: list = field(default_factory=list)
    segments: Optional[list] = None  # every closed segment, when requested

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


class _DetectorState:
    def __init__(self, program: Program, *, all_races: bool, gc: bool,
                 probe: bool, keep_discarded: bool, keep_segments: bool = False):
        n = program.n_threads
        self.program = program
        self.all_races = all_races
        self.gc = gc
        self.probe = probe
        self.keep_discarded = keep_discarded
        self.all_segments: Optional[list] = [] if keep_segments else None
        self.clocks = VectorClockTracker(n, program.n_objects)
        # The snooped horizon: column_min of self.clocks.threads, kept exact.
        self.horizon = (0,) * n
        self.matrix = MatrixClockTracker(n, program.n_objects) if probe else None
        self.open: list[Optional[Segment]] = [None] * n
        self.closed_count = [0] * n
        # stored[tid] lists the thread's live segments in index order, and
        # epochs[tid] their own clock components, for the scan's bisect.
        self.stored = [[] for _ in range(n)]
        self.epochs = [[] for _ in range(n)]
        self.ghosts = [[] for _ in range(n)] if probe else None
        self.reports: list[RaceReport] = []
        self.stats = DetectStats()
        self.probe_rows: list[tuple] = []
        self.discarded: list = []

    # -- events ---------------------------------------------------------------

    def on_event(self, machine, event) -> bool:
        kind = event.kind
        if kind is _SYNC_EVENT:
            self.stats.sync_events += 1
            return self._on_sync(event)
        self.stats.mem_events += 1
        seg = self.open[event.tid]
        if seg is None:
            seg = self.open[event.tid] = Segment(
                event.tid, self.closed_count[event.tid],
                MultilevelBitmap(), MultilevelBitmap())
        (seg.stores if kind is _STORE_EVENT else seg.loads).insert(event.addr)
        return False

    def _on_sync(self, event) -> bool:
        tid = event.tid
        race_found = self._close_open_segment(tid)
        # Clock updates happen at the sync op itself, after the segment ends.
        acquire = event.sync in ACQUIRE_KINDS
        before = self.clocks.apply_sync(tid, event.obj, acquire)
        if self.matrix is not None:
            self.matrix.apply_sync(tid, event.obj, acquire,
                                   self.clocks.threads[tid])
        if self.gc or self.probe:
            self._collect_garbage(tid, before)
        return race_found and not self.all_races

    def _close_open_segment(self, tid: int) -> bool:
        seg = self.open[tid]
        self.open[tid] = None
        if seg is None:
            return False
        seg.clock = self.clocks.threads[tid]
        seg.closed_at = self.stats.sync_events
        self.closed_count[tid] += 1
        if self.all_segments is not None:
            self.all_segments.append(seg)
        found = self._scan_for_races(seg)
        self.stored[tid].append(seg)
        self.epochs[tid].append(seg.clock[tid])
        if self.ghosts is not None:
            self.ghosts[tid].append(seg)
        self.stats.segments_created += 1
        self._note_live()
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
        """
        clock = seg.clock
        for tid, (stored, epochs) in enumerate(zip(self.stored, self.epochs)):
            if tid == seg.tid:
                continue  # same-thread segments are always ordered
            start = bisect_right(epochs, clock[tid])
            for other in stored[start:]:
                if vc_compare(other.clock, clock) is not Ordering.CONCURRENT:
                    continue
                self.stats.segments_compared += 1
                witnesses = race_witnesses(seg.loads, seg.stores,
                                           other.loads, other.stores)
                if witnesses:
                    self.reports.append(_make_report(other, seg, witnesses))
                    if not self.all_races:
                        return True
        return False

    # -- discard ----------------------------------------------------------------

    def _collect_garbage(self, closing_tid: int, before: tuple):
        """Advance the snooped horizon past a sync op of ``closing_tid``
        and discard the stored segments strictly below it.

        ``before`` is the thread's clock before the op. The op changed
        only that thread's row of the snapshot, and rows never decrease.
        So a column whose minimum ``before`` did not hold, or whose value
        did not rise, keeps its minimum in some unchanged row: unless a
        column passes both tests, the horizon stays exactly as it was, and
        ``column_min`` is called only when one does.

        If the horizon did not rise, no head can be below it. The only
        segment the op can have stored is the one it closed, whose clock
        is ``before``; that was a row of the snapshot the horizon is the
        minimum of, so the horizon is at most ``before`` in every
        component. Every other head either stayed when the horizon last
        rose or was stored since then, by this same argument. Heads are
        thus re-tested only when the horizon rises.

        The probe's logical horizon is the closing thread's own matrix
        minimum, a different horizon from one op to the next, so it keeps
        its pass over every thread's list at every sync op.
        """
        if self.gc:
            after = self.clocks.threads[closing_tid]
            if any(b == h and a > b
                   for a, b, h in zip(after, before, self.horizon)):
                horizon = column_min(self.clocks.snapshot())
                if horizon != self.horizon:
                    self.horizon = horizon
                    self.stats.segments_discarded += self._drop_below(
                        self.stored, horizon)
        if self.probe:
            logical = self.matrix.horizon(closing_tid)
            self._drop_below(self.ghosts, logical)
            self.probe_rows.append((self.stats.sync_events,
                                    self._live_stored(),
                                    self._live(self.ghosts)))

    def _drop_below(self, store, horizon) -> int:
        """Pop each thread's stored segments strictly below ``horizon``.

        A thread's clocks never decrease from one segment to the next, so
        if a segment is strictly below the horizon, so is every earlier
        segment of that thread: the segments to drop are always a prefix
        of the list, and the scan of each thread stops at the first
        segment that stays. The same prefix leaves ``epochs`` with the
        stored lists.
        """
        dropped = 0
        for tid, per_thread in enumerate(store):
            dead = 0
            while dead < len(per_thread) and \
                    vc_strictly_below(per_thread[dead].clock, horizon):
                dead += 1
            if store is self.stored:
                del self.epochs[tid][:dead]
                if self.keep_discarded:
                    self.discarded.extend((self.stats.sync_events, seg)
                                          for seg in per_thread[:dead])
            del per_thread[:dead]
            dropped += dead
        return dropped

    @staticmethod
    def _live(store) -> int:
        return sum(len(per_thread) for per_thread in store)

    def _live_stored(self) -> int:
        return self.stats.segments_created - self.stats.segments_discarded

    def _note_live(self):
        live = self._live_stored()
        if live > self.stats.segments_max_live:
            self.stats.segments_max_live = live

    # -- end of stream ------------------------------------------------------------

    def finish(self):
        """Close remaining open segments at thread exit, in thread order."""
        for tid in range(self.program.n_threads):
            if self.open[tid] is not None:
                if self._close_open_segment(tid) and not self.all_races:
                    return


def detect(program: Program, trace: SyncTrace, *, all_races: bool = False,
           gc: bool = True, probe: bool = False, keep_discarded: bool = False,
           keep_segments: bool = False, replay_seed: int = 0) -> DetectResult:
    """Replay under the trace and report the first data race, if any."""
    if probe and not gc:
        raise ValueError("probe mode compares the discard policies and needs gc=True")
    state = _DetectorState(program, all_races=all_races, gc=gc, probe=probe,
                           keep_discarded=keep_discarded,
                           keep_segments=keep_segments)
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
                        replay=replay, probe_rows=state.probe_rows,
                        discarded=state.discarded, segments=state.all_segments)
