"""One program through the phase sequence of ``racereplay pipeline``.

The sequence is: record, encode the trace, decode it again, detect on the
decoded trace, and when a race is found identify its instructions and
round-trip the report through its key=value record. Every program ends
with the summary lines the CLI prints. Each phase is timed on its own with
``time.perf_counter``; nothing else runs inside the timed calls.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from time import perf_counter
from typing import Optional

from racereplay.detector import RACE, DetectResult, RaceReport, detect
from racereplay.identify import identify
from racereplay.program import Program
from racereplay.record import RecordResult, record_execution
from racereplay.reporting import (parse_report_record, report_human_text,
                                  report_record_lines, summary_lines)
from racereplay.tracefile import SyncTrace


@dataclass
class Outcome:
    """What one pass of a program through the pipeline produced."""

    program: Program
    record: RecordResult
    blob: bytes
    trace: SyncTrace  # decoded from ``blob``; detect and identify use it
    result: DetectResult
    report_lines: tuple
    parsed_report: Optional[RaceReport]
    record_s: float
    encode_s: float
    decode_s: float
    detect_s: float
    identify_s: float
    reporting_s: float

    @property
    def pipeline_s(self) -> float:
        return (self.record_s + self.encode_s + self.decode_s + self.detect_s
                + self.identify_s + self.reporting_s)

    def fingerprint(self) -> tuple:
        """Everything a repetition must reproduce bit for bit."""
        return (self.blob, self.result.status, astuple(self.result.stats),
                self.report_lines)


def run_pipeline(program: Program, record_seed: int) -> Outcome:
    t0 = perf_counter()
    rec = record_execution(program, record_seed)
    t1 = perf_counter()
    blob = rec.trace.to_bytes()
    t2 = perf_counter()
    trace = SyncTrace.from_bytes(blob)
    t3 = perf_counter()
    result = detect(program, trace)
    t4 = perf_counter()
    if result.status == RACE:
        result.report.instructions = identify(program, trace, result.report)
    t5 = perf_counter()
    report_lines, parsed = (), None
    if result.status == RACE:
        report_lines = tuple(report_record_lines(result.report))
        parsed = parse_report_record("\n".join(report_lines))
        report_human_text(parsed, program)
    stats = result.stats
    summary_lines([("status", result.status),
                   ("sync ops", str(rec.sync_ops)),
                   ("trace bytes", str(len(blob))),
                   ("segments created", str(stats.segments_created)),
                   ("segments max stored", str(stats.segments_max_live)),
                   ("segments compared", str(stats.segments_compared)),
                   ("segments discarded", str(stats.segments_discarded))])
    t6 = perf_counter()
    return Outcome(program=program, record=rec, blob=blob, trace=trace,
                   result=result, report_lines=report_lines,
                   parsed_report=parsed, record_s=t1 - t0, encode_s=t2 - t1,
                   decode_s=t3 - t2, detect_s=t4 - t3, identify_s=t5 - t4,
                   reporting_s=t6 - t5)


@dataclass
class RoundTotals:
    """Sums over one round, i.e. one pass over every program of a workload."""

    generate_s: float = 0.0
    parse_s: float = 0.0
    record_s: float = 0.0
    encode_s: float = 0.0
    decode_s: float = 0.0
    detect_s: float = 0.0
    identify_s: float = 0.0
    reporting_s: float = 0.0
    pipeline_s: float = 0.0
    recorded_events: int = 0
    detected_events: int = 0
    trace_bytes: int = 0
    sync_ops: int = 0
    live_peaks: list = field(default_factory=list)  # per-program max live
    segments_created: int = 0
    segments_compared: int = 0
    segments_discarded: int = 0

    def add(self, out: Outcome) -> None:
        stats = out.result.stats
        self.record_s += out.record_s
        self.encode_s += out.encode_s
        self.decode_s += out.decode_s
        self.detect_s += out.detect_s
        self.identify_s += out.identify_s
        self.reporting_s += out.reporting_s
        self.pipeline_s += out.pipeline_s
        self.recorded_events += len(out.record.events)
        self.detected_events += stats.mem_events + stats.sync_events
        self.trace_bytes += len(out.blob)
        self.sync_ops += out.record.sync_ops
        self.live_peaks.append(stats.segments_max_live)
        self.segments_created += stats.segments_created
        self.segments_compared += stats.segments_compared
        self.segments_discarded += stats.segments_discarded

    @property
    def peak_live_segments(self) -> float:
        """Mean of the largest fifth (at least one) of the programs' peaks.

        With up to five programs this is the largest peak. Over a corpus the
        largest peak is set by a single outlier and swings by half with the
        seed; the mean of the top fifth moves by less than a tenth.
        """
        top = sorted(self.live_peaks)[-math.ceil(len(self.live_peaks) / 5):]
        return sum(top) / len(top)
