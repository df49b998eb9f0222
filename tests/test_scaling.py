"""Scaling contract: work and memory counts as programs grow.

Counts do not drift from run to run the way timings do, so the bounds here
are on counts. Each bound is set where the method puts it, not loosened
to pass.
"""

import pytest

import racereplay.program as program_mod
from racereplay import workloads
from racereplay.detector import CLEAN, detect
from racereplay.generator import generate_program
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
