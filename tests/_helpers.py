"""Shared helpers for the test suite."""

from racereplay.detector import DetectorListener
from racereplay.machine import EventKind, Machine
from racereplay.program import Op
from racereplay.replay import replay_execution


# Two racy address pairs, one on each side of a common mutex round: every
# schedule races on 0x100 in the workers' first segments and on 0x200 in
# their second, so first-race mode reports one race and all-races two.
TWO_RACES = ("mutex m\n"
             "thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
             "thread 1:\n  SET r0 1\n  STORE r0 0x00000100\n"
             "  LOCK m\n  UNLOCK m\n  SET r1 4\n  STORE r1 0x00000200\n  EXIT\n"
             "thread 2:\n  SET r0 2\n  STORE r0 0x00000100\n"
             "  LOCK m\n  UNLOCK m\n  SET r1 3\n  STORE r1 0x00000200\n  EXIT\n")


def wide_fork_join(n):
    """Main CREATEs n threads that each store once, then JOINs them all."""
    lines = ["thread 0:"] + [f"  CREATE {t}" for t in range(1, n + 1)]
    lines += [f"  JOIN {t}" for t in range(1, n + 1)] + ["  EXIT"]
    for t in range(1, n + 1):
        lines += [f"thread {t}:", f"  STORE r0 0x{16 * t:08X}", "  EXIT"]
    return "\n".join(lines) + "\n"


class MaskLog(Machine):
    """A machine that logs, in ``masks``, the runnable mask at each point
    where ``run`` compares it with the last one: at the start, after every
    arrival at a next op, and after an EXIT, which no arrival follows."""

    def __init__(self, program, seed, observer=None):
        super().__init__(program, seed, observer)
        self.masks = []

    def _arrive(self, tid):
        super()._arrive(tid)
        self.masks.append(self.live & ~self.blocked)

    def _step(self, tid, ins, seq):
        event = super()._step(tid, ins, seq)
        if ins[0] is Op.EXIT:
            self.masks.append(self.live & ~self.blocked)
        return event

    def changes(self):
        """How many times the runnable mask changed."""
        return sum(a != b for a, b in zip(self.masks, self.masks[1:]))


def replay_events(program, trace):
    """Replay collecting the full event stream; returns (events, result)."""
    events = []

    def keep(machine, event):
        events.append(event)
        return False

    result = replay_execution(program, trace, observer=keep)
    return events, result


def per_object_sync_sequences(events):
    """obj id -> [(tid, sync kind), ...] in stream order."""
    out = {}
    for ev in events:
        if ev.kind is EventKind.SYNC:
            out.setdefault(ev.obj, []).append((ev.tid, ev.sync))
    return out


class SegmentLog(DetectorListener):
    """Every closed and every discarded segment, in order, each paired with
    the number of sync events the detector had seen at that point."""

    def __init__(self):
        self.closed = []
        self.discarded = []

    def on_close(self, state, seg):
        self.closed.append((state.stats.sync_events, seg))

    def on_discard(self, state, segments):
        at = state.stats.sync_events
        self.discarded.extend((at, seg) for seg in segments)

    @property
    def segments(self):
        return [seg for _, seg in self.closed]
