"""Scaling contract: work and memory counts as programs grow.

Counts do not drift from run to run the way timings do, so the bounds here
are on counts. Each bound is set where the method puts it, not loosened
to pass.
"""

import tracemalloc

import pytest
from _helpers import MaskLog, wide_fork_join

import racereplay.machine as machine_mod
import racereplay.program as program_mod
from racereplay import workloads
from racereplay.detector import CLEAN, detect
from racereplay.generator import generate_program
from racereplay.machine import run
from racereplay.program import parse_program
from racereplay.record import record_execution

OPS = (250, 500, 1000, 2000)
THREADS = (2, 4, 8, 16, 32, 64)


def _peak_live(seed, ops, threads=16):
    prog = parse_program(generate_program(seed, threads=threads,
                                          ops_per_thread=ops,
                                          lock_density=1.0))
    result = detect(prog, record_execution(prog, 1).trace)
    assert result.status == CLEAN
    return result.stats.segments_max_live, result.stats.segments_created


@pytest.mark.parametrize("seed", [5, 6])
def test_live_segments_stay_flat_in_ops_per_thread(seed):
    # 16 lock-synchronised workers: the segments created grow with the ops
    # per thread, eightfold over the sweep, but the discard keeps the live
    # peak within twice its value at the shortest run.
    peaks = {}
    for ops in OPS:
        peaks[ops], created = _peak_live(seed, ops)
        assert created > 3 * ops  # the run does grow with ops
    assert max(peaks.values()) <= 2 * peaks[OPS[0]], peaks


@pytest.mark.parametrize("seed", [5, 6])
def test_live_segments_grow_at_most_linearly_in_threads(seed):
    # 6400 lock-synchronised ops split over 2 to 64 threads: the live peak
    # per thread stays within twice its value at 4 threads. At 2 threads the
    # one worker holds the horizon alone once main is done with memory, so
    # its segments drop at once and that point gives no per-thread rate.
    peaks = {n: _peak_live(seed, 6400 // n, threads=n)[0] for n in THREADS}
    rate = peaks[4] / 4
    assert all(peaks[n] <= 2 * rate * n for n in THREADS), peaks


def test_parse_work_stays_flat_in_repeated_lines(monkeypatch):
    # A ping-pong body repeats a dozen lines for every turn, and each
    # distinct line is parsed once, so the parses do not grow with turns.
    calls = 0
    parse_instruction = program_mod._parse_instruction

    def counted(*args):
        nonlocal calls
        calls += 1
        return parse_instruction(*args)

    monkeypatch.setattr(program_mod, "_parse_instruction", counted)
    parses = {}
    for turns in (500, 1000, 2000, 4000):
        calls = 0
        parse_program(workloads.ping_pong(turns))
        parses[turns] = calls
    assert len(set(parses.values())) == 1, parses


def test_record_builds_each_runnable_list_once(monkeypatch):
    # 25 600 lock-synchronised ops over 2 to 64 threads. With one contended
    # mutex the runnable mask changes at nearly every LOCK and UNLOCK, yet
    # it keeps returning to a few masks: a run builds each one's id list
    # once, since every list the run holds fits within its step count.
    # At 64 threads that is 2 206 builds for 12 384 changes.
    builds = []
    bit_ids = machine_mod._bit_ids
    monkeypatch.setattr(machine_mod, "_bit_ids",
                        lambda mask: builds.append(mask) or bit_ids(mask))
    for n in THREADS:
        builds.clear()
        prog = parse_program(generate_program(5, threads=n,
                                              ops_per_thread=25600 // n,
                                              lock_density=1.0))
        machine = MaskLog(prog, 1)
        steps = machine.run().steps
        masks = set(machine.masks)
        held = sum(bin(m).count("1") + (m.bit_length() >> 6) for m in masks)
        assert held <= steps  # the memo never reaches its bound
        assert sorted(builds) == sorted(masks), n  # each mask built once
        if n >= 4:
            assert 4 * len(builds) <= machine.changes(), n


def test_record_memory_on_a_wide_fork_join():
    # 2 000 threads pass through about 3 800 runnable masks, nearly all
    # distinct and up to 2 000 bits wide. Record's run kept 10 000 events
    # and peaked at 2.32 MiB with no id-list memo; with the memo bounded by
    # the run's step count in ids and mask words it peaks at 2.40 MiB
    # (CPython 3.11.7). A memo bounded in ids alone peaked at 3.06-3.17
    # MiB, as its keys went uncounted.
    prog = parse_program(wide_fork_join(2000))
    tracemalloc.start()
    try:
        res = run(prog, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.events) == 5 * 2000
    assert peak <= 2.6 * 2**20, peak / 2**20
