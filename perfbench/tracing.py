"""Spans and counts for the traced run, recorded from outside the package.

``traced(tracer)`` rebinds, for the duration of a ``with`` block, the names
through which the pipeline's layers call each other: the functions the
detector binds from ``clocks`` and ``bitmap``, the ``replay_execution``
that detect and identify bind, the machine that replay and record drive,
the replay gate, and the observers detect and identify pass to replay.
Every call through a rebound name is one span. Spans are folded into
per-name totals as they close, so memory stays flat however many there
are: a span's duration goes to its own total and to its parent's child
time, and its self time is its duration minus that child time.

No profiler is involved; the cost of tracing is two ``perf_counter`` reads
and a few list operations per span, reported by the traced run as its own
overhead on detect.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

import racereplay.detector as detector_mod
import racereplay.program as program_mod
import racereplay.record as record_mod
import racereplay.replay as replay_mod

# The package re-exports the function ``identify`` under the module's name.
identify_mod = import_module("racereplay.identify")


class Tracer:
    """Per-name span totals, self times, call counts and plain counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # child time accumulated by each open span

    def wrap(self, name: str, fn):
        total, self_time, calls = self.total, self.self_time, self.calls
        stack = self._stack

        def span(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - child
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return span


@contextmanager
def traced(tracer: Tracer):
    """Rebind the package's inter-layer names to traced wrappers."""
    wrap, counts = tracer.wrap, tracer.counts
    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    base_machine = replay_mod.Machine
    machine_run = wrap("machine", base_machine.run)

    class TracedMachine(base_machine):
        def next_sync(self, tid):
            counts["machine.next_sync_calls"] += 1
            return base_machine.next_sync(self, tid)

        def run(self):
            result = machine_run(self)
            counts["machine.steps"] += result.steps
            return result

    base_hooks = replay_mod._ReplayHooks

    class TracedHooks(base_hooks):
        permits = wrap("replay.gate", base_hooks.permits)
        on_event = wrap("replay.on_event", base_hooks.on_event)

    class TracedClocks(detector_mod.VectorClockTracker):
        apply_sync = wrap("clocks.apply_sync",
                          detector_mod.VectorClockTracker.apply_sync)

    class TracedBitmap(detector_mod.MultilevelBitmap):
        __slots__ = ()
        insert = wrap("bitmap.insert", detector_mod.MultilevelBitmap.insert)

    record_run = wrap("machine", record_mod.run)

    def traced_record_run(program, seed, hooks=None):
        result = record_run(program, seed, hooks)
        counts["machine.steps"] += result.steps
        return result

    def traced_replay(caller: str, replay_execution):
        span = wrap("replay", replay_execution)

        def replay(program, trace, observer=None, replay_seed=0):
            if observer is not None:
                observer = wrap(f"{caller}.observer", observer)
            result = span(program, trace, observer=observer,
                          replay_seed=replay_seed)
            counts[f"{caller}.steps"] += result.steps
            return result

        return replay

    rebind(program_mod.Program, "digest",
           wrap("program.digest", program_mod.Program.digest))
    rebind(record_mod, "run", traced_record_run)
    rebind(record_mod, "assign_timestamps",
           wrap("record.assign_timestamps", record_mod.assign_timestamps))
    rebind(replay_mod, "Machine", TracedMachine)
    rebind(replay_mod, "_ReplayHooks", TracedHooks)
    rebind(detector_mod, "replay_execution",
           traced_replay("detector", detector_mod.replay_execution))
    rebind(identify_mod, "replay_execution",
           traced_replay("identify", identify_mod.replay_execution))
    rebind(detector_mod, "VectorClockTracker", TracedClocks)
    rebind(detector_mod, "MultilevelBitmap", TracedBitmap)
    for attr, name in (("vc_compare", "clocks.vc_compare"),
                       ("vc_strictly_below", "clocks.vc_strictly_below"),
                       ("column_min", "clocks.column_min"),
                       ("race_witnesses", "bitmap.race_test")):
        rebind(detector_mod, attr, wrap(name, getattr(detector_mod, attr)))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
