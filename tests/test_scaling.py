"""Scaling contract: work and memory counts as programs grow.

Counts do not drift from run to run the way timings do, so the bounds here
are on counts. Each bound is set where the method puts it, not loosened
to pass.
"""

import pytest

from racereplay.detector import CLEAN, detect
from racereplay.generator import generate_program
from racereplay.program import parse_program
from racereplay.record import record_execution

OPS = (250, 500, 1000, 2000)


def _peak_live(seed, ops):
    prog = parse_program(generate_program(seed, threads=16,
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
