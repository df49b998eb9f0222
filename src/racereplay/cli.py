"""Command line front door.

Subcommands: record, replay, detect, identify, pipeline (all three
phases) and gen (random program generator). Timing lives outside the
package, in ``perfbench/``.

Exit codes: 0 clean/success, 10 race found, 20 divergence without a
detected race, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .detector import DIVERGED_NO_RACE, RACE, LiveSegmentProbe, detect
from .errors import RaceReplayError
from .generator import generate_program
from .identify import identify
from .program import Program, load_program
from .record import record_execution
from .replay import OK, replay_execution
from .reporting import (parse_report_record, report_human_text,
                        report_record_lines, summary_lines)
from .tracefile import SyncTrace

EXIT_CLEAN = 0
EXIT_RACE = 10
EXIT_DIVERGED = 20
EXIT_USAGE = 1


def _u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _density(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("lock density must be in [0, 1]")
    return value


def _memory_dump(memory: dict) -> list:
    return [f"0x{addr:08X} = {value}" for addr, value in sorted(memory.items())]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _record_summary(rec, trace_bytes: int) -> list:
    bits = (trace_bytes * 8 / rec.sync_ops) if rec.sync_ops else 0.0
    return [("sync ops", str(rec.sync_ops)),
            ("trace bytes", str(trace_bytes)),
            ("bits per sync op", f"{bits:.2f}")]


def _detect_summary(result) -> list:
    st = result.stats
    created = st.segments_created
    ratio = (st.segments_max_live / created * 100) if created else 0.0
    return [("mem events", str(st.mem_events)),
            ("segments created", str(created)),
            ("segments max stored", f"{st.segments_max_live} ({ratio:.1f}%)"),
            ("segments compared", str(st.segments_compared)),
            ("segments discarded", str(st.segments_discarded))]


def _read_trace(path: str, program: Program) -> SyncTrace:
    """Read a trace whose per-thread counts the program can produce."""
    return SyncTrace.read(path, max_ops=program.static_sync_counts())


def cmd_record(args) -> int:
    program = load_program(args.program)
    rec = record_execution(program, args.seed)
    out = args.output or args.program + ".trace"
    size = rec.trace.write(out)
    print(f"trace written to {out}")
    for line in summary_lines(_record_summary(rec, size)):
        print(line)
    return EXIT_CLEAN


def cmd_replay(args) -> int:
    program = load_program(args.program)
    trace = _read_trace(args.trace, program)
    result = replay_execution(program, trace, replay_seed=args.replay_seed)
    print(f"replay verdict: {result.verdict}"
          + (f" ({result.detail})" if result.detail else ""))
    if args.show_memory:
        for line in _memory_dump(result.memory):
            print(line)
    return EXIT_CLEAN if result.verdict == OK else EXIT_DIVERGED


def _run_detect(program: Program, trace: SyncTrace, args):
    probe = LiveSegmentProbe(program) if args.probe_live_segments else None
    result = detect(program, trace, all_races=args.all_races, listener=probe,
                    replay_seed=args.replay_seed)
    if probe is not None:
        rows = ["snoop_point,live_snooped,live_logical"]
        rows += [f"{p},{s},{l}" for p, s, l in probe.rows]
        _write_lines(args.probe_live_segments, rows)
    return result


def _print_detect_outcome(result, program, report_path) -> int:
    if result.status == RACE:
        for report in result.reports:
            print(report_human_text(report, program))
        if report_path:
            _write_lines(report_path, report_record_lines(result.report))
            print(f"report written to {report_path}")
        for line in report_record_lines(result.report):
            print(line)
        return EXIT_RACE
    if result.status == DIVERGED_NO_RACE:
        print(f"divergence without detected race: {result.replay.detail}")
        return EXIT_DIVERGED
    print("no race")
    return EXIT_CLEAN


def cmd_detect(args) -> int:
    program = load_program(args.program)
    trace = _read_trace(args.trace, program)
    result = _run_detect(program, trace, args)
    code = _print_detect_outcome(result, program, args.report)
    for line in summary_lines(_detect_summary(result)):
        print(line)
    return code


def cmd_identify(args) -> int:
    program = load_program(args.program)
    trace = _read_trace(args.trace, program)
    with open(args.report, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RaceReplayError(
            f"{args.report}: not UTF-8 text (byte {exc.start})")
    report = parse_report_record(text)
    sites = identify(program, trace, report, replay_seed=args.replay_seed)
    report.instructions = sites
    _write_lines(args.report, report_record_lines(report))
    print(report_human_text(report, program))
    for line in report_record_lines(report):
        print(line)
    return EXIT_RACE


def cmd_pipeline(args) -> int:
    program = load_program(args.program)
    rec = record_execution(program, args.seed)
    prefix = args.out_prefix or args.program
    trace_path = prefix + ".trace"
    size = rec.trace.write(trace_path)

    result = _run_detect(program, rec.trace, args)
    entries = ([("status", result.status)] + _record_summary(rec, size)
               + _detect_summary(result))

    code = EXIT_CLEAN
    if result.status == RACE:
        report = result.report
        try:
            report.instructions = identify(program, rec.trace, report,
                                           replay_seed=args.replay_seed)
        except RaceReplayError as exc:
            print(f"identification failed: {exc}", file=sys.stderr)
        _write_lines(prefix + ".report", report_record_lines(report))
        print(report_human_text(report, program))
        for line in report_record_lines(report):
            print(line)
        code = EXIT_RACE
    elif result.status == DIVERGED_NO_RACE:
        print(f"divergence without detected race: {result.replay.detail}")
        code = EXIT_DIVERGED
    else:
        print("no race")

    print(f"trace written to {trace_path}")
    for line in summary_lines(entries):
        print(line)
    return code


def cmd_gen(args) -> int:
    try:
        text = generate_program(args.seed, threads=args.threads,
                                ops_per_thread=args.ops,
                                lock_density=args.lock_density,
                                shared_addresses=args.shared)
    except ValueError as exc:
        raise RaceReplayError(f"gen: {exc}") from None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"program written to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_CLEAN


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ``main`` reports every other input error,
    with exit code 1 rather than argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise RaceReplayError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="racereplay",
        description="record/replay data race detection on simulated programs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("record", cmd_record, help="run once and write the sync trace")
    p.add_argument("program")
    p.add_argument("--seed", type=_u64, default=0, help="schedule seed (u64)")
    p.add_argument("-o", "--output", help="trace path (default <program>.trace)")

    p = add("replay", cmd_replay, help="re-execute under a recorded trace")
    p.add_argument("program")
    p.add_argument("--trace", required=True)
    p.add_argument("--replay-seed", type=_u64, default=0,
                   help="tie-break seed for concurrent sync ops")
    p.add_argument("--show-memory", action="store_true")

    p = add("detect", cmd_detect, help="replay and search for a data race")
    p.add_argument("program")
    p.add_argument("--trace", required=True)
    p.add_argument("--all-races", action="store_true",
                   help="keep scanning past the first race")
    p.add_argument("--probe-live-segments", metavar="CSV",
                   help="write live-segment counts under both discard policies")
    p.add_argument("--report", help="write the machine-readable report here")
    p.add_argument("--replay-seed", type=_u64, default=0)

    p = add("identify", cmd_identify, help="locate the racing instructions")
    p.add_argument("program")
    p.add_argument("--trace", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--replay-seed", type=_u64, default=0)

    p = add("pipeline", cmd_pipeline,
            help="record, detect, and identify in one run")
    p.add_argument("program")
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--out-prefix", help="artifact prefix (default <program>)")
    p.add_argument("--all-races", action="store_true")
    p.add_argument("--probe-live-segments", metavar="CSV")
    p.add_argument("--replay-seed", type=_u64, default=0)

    p = add("gen", cmd_gen, help="generate a random workload program")
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--threads", type=int, default=3)
    p.add_argument("--ops", type=int, default=40, help="instructions per thread")
    p.add_argument("--lock-density", type=_density, default=1.0)
    p.add_argument("--shared", type=int, default=4, help="shared address count")
    p.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (OSError, RaceReplayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
