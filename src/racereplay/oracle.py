"""Independent brute-force references used by the test suite.

Everything here is deliberately naive: plain Python sets for address
collections, an explicit happened-before graph with reachability bitmasks
instead of vector clocks, no discarding, quadratic scans. These references
share no code with the optimized detection path so the two can check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .machine import ACQUIRE_KINDS, EventKind


class HbOracle:
    """Happened-before over an event stream: program order plus, per sync
    object, an edge from every release to every later acquire."""

    def __init__(self, events):
        self.events = events
        n = len(events)
        successors = [[] for _ in range(n)]
        last_of_thread: dict[int, int] = {}
        releases_of_obj: dict[int, list[int]] = {}
        for ev in events:
            prev = last_of_thread.get(ev.tid)
            if prev is not None:
                successors[prev].append(ev.seq)
            last_of_thread[ev.tid] = ev.seq
            if ev.kind is EventKind.SYNC:
                if ev.sync in ACQUIRE_KINDS:
                    for rel in releases_of_obj.get(ev.obj, ()):
                        successors[rel].append(ev.seq)
                else:  # release-like
                    releases_of_obj.setdefault(ev.obj, []).append(ev.seq)
        # Events are emitted in global order, so seq order is topological.
        reach = [0] * n
        for seq in range(n - 1, -1, -1):
            mask = 1 << seq
            for succ in successors[seq]:
                mask |= reach[succ]
            reach[seq] = mask
        self._reach = reach

    def happened_before(self, e1: int, e2: int) -> bool:
        """Reflexive-transitive reachability from event seq e1 to seq e2."""
        return bool(self._reach[e1] >> e2 & 1)


@dataclass
class RefSegment:
    """Reference segment with plain set storage."""

    tid: int
    index: int
    loads: set = field(default_factory=set)
    stores: set = field(default_factory=set)
    open_sync: Optional[int] = None   # seq of the sync event that opened it
    close_sync: Optional[int] = None  # seq of the sync event that closed it

    @property
    def key(self):
        return (self.tid, self.index)

    def is_empty(self) -> bool:
        return not self.loads and not self.stores


def build_segments(events, n_threads: int) -> list:
    """Segments in close order, mirroring the detector's lazy-span rule:
    a segment exists only for spans that contain at least one memory event."""
    closed: list[RefSegment] = []
    open_seg: list[Optional[RefSegment]] = [None] * n_threads
    counts = [0] * n_threads
    last_sync: list[Optional[int]] = [None] * n_threads
    for ev in events:
        if ev.kind is EventKind.SYNC:
            seg = open_seg[ev.tid]
            if seg is not None:
                seg.close_sync = ev.seq
                closed.append(seg)
                open_seg[ev.tid] = None
                counts[ev.tid] += 1
            last_sync[ev.tid] = ev.seq
            continue
        seg = open_seg[ev.tid]
        if seg is None:
            seg = open_seg[ev.tid] = RefSegment(ev.tid, counts[ev.tid],
                                                open_sync=last_sync[ev.tid])
        (seg.stores if ev.kind is EventKind.STORE else seg.loads).add(ev.addr)
    for tid in range(n_threads):
        if open_seg[tid] is not None:
            closed.append(open_seg[tid])
    return closed


def segments_ordered(hb: HbOracle, a: RefSegment, b: RefSegment) -> bool:
    """True when one segment happened before the other (either direction)."""
    if a.tid == b.tid:
        return True
    def before(x, y):
        return (x.close_sync is not None and y.open_sync is not None
                and hb.happened_before(x.close_sync, y.open_sync))
    return before(a, b) or before(b, a)


def race_formula(loads_a, stores_a, loads_b, stores_b) -> set:
    """((La ∪ Sa) ∩ Sb) ∪ ((Lb ∪ Sb) ∩ Sa) on plain sets."""
    return ((loads_a | stores_a) & stores_b) | ((loads_b | stores_b) & stores_a)


@dataclass(frozen=True)
class OracleRace:
    segment_a: tuple  # (tid, index), the smaller key
    segment_b: tuple
    witnesses: frozenset

    def pair_key(self):
        return frozenset((self.segment_a, self.segment_b)), self.witnesses


def brute_force_detect(events, n_threads: int) -> Optional[OracleRace]:
    """First race over all concurrent segment pairs in close order, storing
    everything and never discarding."""
    hb = HbOracle(events)
    stored: list[RefSegment] = []
    for seg in build_segments(events, n_threads):
        for other in sorted(stored, key=lambda s: s.key):
            if segments_ordered(hb, other, seg):
                continue
            witnesses = race_formula(seg.loads, seg.stores,
                                     other.loads, other.stores)
            if witnesses:
                a, b = sorted((other.key, seg.key))
                return OracleRace(a, b, frozenset(witnesses))
        stored.append(seg)
    return None


def full_access_log(events, n_threads: int) -> dict:
    """(tid, segment index) -> [(ordinal, 'load'|'store', addr), ...] for
    every memory access, in program order. Reference for the identification
    phase, which records accesses only inside the reported segments."""
    log: dict[tuple, list] = {}
    open_seg: list[Optional[tuple]] = [None] * n_threads
    counts = [0] * n_threads
    for ev in events:
        if ev.kind is EventKind.SYNC:
            if open_seg[ev.tid] is not None:
                open_seg[ev.tid] = None
                counts[ev.tid] += 1
            continue
        key = (ev.tid, counts[ev.tid])
        open_seg[ev.tid] = key
        kind = "store" if ev.kind is EventKind.STORE else "load"
        log.setdefault(key, []).append((ev.ordinal, kind, ev.addr))
    return log


def expected_instruction_pair(log: dict, report) -> tuple:
    """Reference answer for identification: on the smallest witness, the
    first access matching each side's reported kind, in program order."""
    w = min(report.witnesses)
    out = []
    for side in (report.side1, report.side2):
        accesses = log[(side.tid, side.segment)]
        ordinal, kind = next((o, k) for o, k, a in accesses
                             if a == w and k == side.kind)
        out.append((side.tid, ordinal, kind, w))
    return tuple(out)
