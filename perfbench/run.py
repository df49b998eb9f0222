"""End-to-end and per-layer benchmark of racereplay's record/detect/identify.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy. The run works in whole rounds until ``--seconds`` have
passed. A round generates and parses the workload's inputs from the seed
(set-up), then takes every program through the pipeline. After the last
round the run checks what the first round produced, and that every later
round reproduced it bit for bit. With ``--trace 1`` the first third of the
run is untraced and the rest traced; the traced rounds give the per-layer
figures, and the ratio of the two detect times gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 means
the run completed, whatever the checks found; 2 means the package could not
be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    """Import racereplay from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import racereplay
    except ImportError:
        return None
    if not Path(racereplay.__file__).resolve().is_relative_to(src):
        return None
    return racereplay


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _round(programs, seeds, baseline, observed, failed):
    """One pass over every program; compares each with the first pass."""
    from cases import observe
    from pipeline import RoundTotals, run_pipeline

    totals = RoundTotals()
    for i, program in enumerate(programs):
        try:
            out = run_pipeline(program, seeds[i])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed[i] += 1
            continue
        totals.add(out)
        fingerprint = out.fingerprint()
        if baseline[i] is None:
            baseline[i] = fingerprint
            observed[i] = observe(out)
        elif fingerprint != baseline[i]:
            print(f"program {i}: output differs from its first run",
                  file=sys.stderr)
            failed[i] += 1
    return totals


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds for ``seconds``, check; returns a summary."""
    from racereplay.program import parse_program
    from tracing import Tracer, traced

    n = len(workload.inputs(seed))
    baseline, observed, failed = [None] * n, [None] * n, [0] * n
    plain, traced_rounds = [], []
    tracer = Tracer()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if (traced_rounds if trace else plain) and elapsed >= seconds:
            break
        tracing_now = trace and bool(plain) and elapsed >= seconds / 3
        with traced(tracer) if tracing_now else nullcontext():
            # Set-up is repeated every round so that its samples, like the
            # pipeline's, are spread over the whole run.
            t0 = perf_counter()
            inputs = workload.inputs(seed)
            t1 = perf_counter()
            programs = [parse_program(text) for text, _ in inputs]
            t2 = perf_counter()
            totals = _round(programs, [s for _, s in inputs], baseline,
                            observed, failed)
        totals.generate_s, totals.parse_s = t1 - t0, t2 - t1
        (traced_rounds if tracing_now else plain).append(totals)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = len(plain) + len(traced_rounds)
    seen = [i for i in range(n) if observed[i] is not None]
    problems = workload.check([observed[i] for i in seen])
    correct = len(seen) == n
    for i, bad in zip(seen, problems):
        for line in bad:
            print(f"check failed: program {i}: {line}", file=sys.stderr)
        if bad:
            correct = False
            failed[i] = rounds
    for i in range(n):
        if observed[i] is None:
            failed[i] = rounds

    return {"plain": plain, "traced": traced_rounds, "tracer": tracer,
            "peak_rss_mib": peak_rss_mib, "correct": correct,
            "attempted": rounds * n, "failed": sum(failed)}


def end_to_end_metrics(run: dict) -> dict:
    rounds = run["plain"]
    med = statistics.median
    first = rounds[0]
    return {
        "setup_s": (med(r.generate_s + r.parse_s for r in rounds), "s"),
        "record_s": (med(r.record_s for r in rounds), "s"),
        "detect_s": (med(r.detect_s for r in rounds), "s"),
        "pipeline_s": (med(r.pipeline_s for r in rounds), "s"),
        "record_events_per_s": (
            med(r.recorded_events / r.record_s for r in rounds), "events/s"),
        "detect_events_per_s": (
            med(r.detected_events / r.detect_s for r in rounds), "events/s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "peak_live_segments": (first.peak_live_segments, "count"),
        "trace_bits_per_sync_op": (8 * first.trace_bytes / first.sync_ops,
                                   "bits"),
    }


def per_layer_metrics(run: dict) -> dict:
    """Per-round figures from the traced rounds."""
    rounds, tracer = run["traced"], run["tracer"]
    n = len(rounds)
    total, own, calls, counts = (tracer.total, tracer.self_time, tracer.calls,
                                 tracer.counts)
    med = statistics.median
    first = rounds[0]

    def secs(value):
        return (value / n, "s")

    def count(value):
        return (value // n, "count")

    compared = sum(r.segments_compared for r in rounds)
    discarded = sum(r.segments_discarded for r in rounds)
    untraced_detect = med(r.detect_s for r in run["plain"])
    return {
        "generator.generate_s": secs(sum(r.generate_s for r in rounds)),
        "program.parse_s": secs(sum(r.parse_s for r in rounds)),
        "program.digest_calls": count(calls["program.digest"]),
        "program.digest_s": secs(total["program.digest"]),
        "machine.steps": count(counts["machine.steps"]),
        "machine.self_s": secs(own["machine"]),
        "machine.next_sync_calls": count(counts["machine.next_sync_calls"]),
        "record.assign_timestamps_s": secs(total["record.assign_timestamps"]),
        "tracefile.encode_s": secs(sum(r.encode_s for r in rounds)),
        "tracefile.decode_s": secs(sum(r.decode_s for r in rounds)),
        "tracefile.bytes": (first.trace_bytes, "bytes"),
        "replay.s": secs(own["replay"] + own["replay.gate"]
                         + own["replay.on_event"]),
        "clocks.vc_compare_calls": count(calls["clocks.vc_compare"]),
        "clocks.vc_compare_s": secs(total["clocks.vc_compare"]),
        "clocks.vc_strictly_below_calls": count(
            calls["clocks.vc_strictly_below"]),
        "clocks.vc_strictly_below_s": secs(total["clocks.vc_strictly_below"]),
        "clocks.apply_sync_s": secs(total["clocks.apply_sync"]),
        "clocks.column_min_s": secs(total["clocks.column_min"]),
        "detector.observer_s": secs(own["detector.observer"]),
        "detector.segments_created": (first.segments_created, "count"),
        "detector.segments_compared": (first.segments_compared, "count"),
        "detector.segments_discarded": (first.segments_discarded, "count"),
        "detector.scan_useful_ratio": (
            compared / max(1, calls["clocks.vc_compare"]), "ratio"),
        "detector.discard_useful_ratio": (
            discarded / max(1, calls["clocks.vc_strictly_below"]), "ratio"),
        "bitmap.inserts": count(calls["bitmap.insert"]),
        "bitmap.insert_s": secs(total["bitmap.insert"]),
        "bitmap.race_tests": count(calls["bitmap.race_test"]),
        "bitmap.race_test_s": secs(total["bitmap.race_test"]),
        "identify.s": secs(sum(r.identify_s for r in rounds)),
        "identify.steps": count(counts["identify.steps"]),
        "reporting.s": secs(sum(r.reporting_s for r in rounds)),
        "tracing.detect_overhead": (
            med(r.detect_s for r in rounds) / untraced_detect, "ratio"),
    }


def span_table(run: dict) -> list:
    """Per-round calls, total and self time of every traced span name."""
    tracer, n = run["tracer"], len(run["traced"])
    lines = [f"  {'span':<26} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
    for name in sorted(tracer.total, key=tracer.self_time.get, reverse=True):
        lines.append(f"  {name:<26} {tracer.calls[name] // n:>10} "
                     f"{tracer.total[name] / n:>10.4f} "
                     f"{tracer.self_time[name] / n:>10.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_package()
    if package is None:
        print(f"error: racereplay is not importable from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from cases import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "bitmap_backend": package.bitmap_backend, "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "rounds_untraced": len(run["plain"]),
        "rounds_traced": len(run["traced"]),
        "attempted": run["attempted"], "failed": run["failed"],
    }
    print("provenance " + json.dumps(provenance))
    metrics = (per_layer_metrics(run) if args.trace
               else end_to_end_metrics(run))
    if args.trace:
        print("spans per round:")
        for line in span_table(run):
            print(line)
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {unit}")
    print(f"attempted={run['attempted']} failed={run['failed']} "
          f"correct={str(run['correct']).lower()}")
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
