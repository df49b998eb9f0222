"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Corpus programs are generated deterministically so every
run checks the same inputs.
"""

import random
import time
from contextlib import contextmanager

from _helpers import SegmentLog, per_object_sync_sequences, replay_events

from racereplay import workloads
from racereplay.bitmap import MultilevelBitmap
from racereplay.clocks import Ordering, vc_compare
from racereplay.cli import main
from racereplay.detector import CLEAN, RACE, LiveSegmentProbe, detect
from racereplay.generator import generate_program
from racereplay.identify import identify
from racereplay.oracle import (HbOracle, brute_force_detect, build_segments,
                               segments_ordered)
from racereplay.program import parse_program
from racereplay.record import record_execution
from racereplay.tracefile import compress_stamps, decompress_stamps


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number}: FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {number}: PASS — {description} "
          f"({elapsed:.1f}s)")


def _corpus_params(count, base_seed):
    """Deterministic mixed corpus: ≤4 threads, ≤200 instructions/thread."""
    params = []
    for i in range(count):
        params.append(dict(
            seed=base_seed + i,
            threads=2 + i % 3,
            ops_per_thread=16 + (i * 29) % 185,
            lock_density=(0.0, 0.25, 0.5, 0.75, 1.0)[i % 5],
            shared_addresses=1 + i % 6,
        ))
    return params


def test_criterion_1_shared_counter_reproduction():
    with criterion(1, "unsynchronised finals in {11,12,18}; race + both "
                      "stores identified and locked variant clean over "
                      "1000 seeds in under 30s"):
        start = time.perf_counter()
        racy = parse_program(workloads.shared_counter())
        locked = parse_program(workloads.shared_counter(locked=True))
        finals = set()
        for seed in range(1000):
            rec = record_execution(racy, seed)
            finals.add(rec.memory[0x1000])
            result = detect(racy, rec.trace)
            assert result.status == RACE
            assert result.report.witnesses == (0x1000,)
            one, two = identify(racy, rec.trace, result.report)
            assert (one.tid, one.ordinal, one.kind) == (1, 2, "store")
            assert (two.tid, two.ordinal, two.kind) == (2, 2, "store")

            lrec = record_execution(locked, seed)
            assert lrec.memory[0x1000] == 18
            assert detect(locked, lrec.trace).status == CLEAN
        assert finals <= {11, 12, 18}
        assert finals == {11, 12, 18}  # all outcomes actually observed
        assert time.perf_counter() - start < 30.0


def test_criterion_2_oracle_equivalence_500_programs():
    with criterion(2, "first race equals brute-force oracle on 500 mixed "
                      "programs, zero mismatches, under 5 minutes"):
        start = time.perf_counter()
        mismatches = 0
        races = 0
        for i, params in enumerate(_corpus_params(500, 900_000)):
            prog = parse_program(generate_program(**params))
            rec = record_execution(prog, seed=i)
            result = detect(prog, rec.trace)
            events, _ = replay_events(prog, rec.trace)
            oracle = brute_force_detect(events, prog.n_threads)
            if result.status == RACE:
                races += 1
                if oracle is None or oracle.pair_key() != result.report.pair_key():
                    mismatches += 1
            elif oracle is not None:
                mismatches += 1
        assert mismatches == 0
        assert races > 100  # the corpus is genuinely mixed
        assert time.perf_counter() - start < 300.0


def test_criterion_3_gc_safety_and_dominance():
    with criterion(3, "discard never changes the reported race; snooped "
                      "live counts ≤ logical everywhere, strictly less "
                      "somewhere on the overlapped ping-pong"):
        for i, params in enumerate(_corpus_params(500, 900_000)):
            prog = parse_program(generate_program(**params))
            rec = record_execution(prog, seed=i)
            probe = LiveSegmentProbe(prog)
            with_gc = detect(prog, rec.trace, gc=True, listener=probe)
            without = detect(prog, rec.trace, gc=False)
            assert with_gc.status == without.status
            if with_gc.status == RACE:
                assert with_gc.report.pair_key() == without.report.pair_key()
            for _, snooped, logical in probe.rows:
                assert snooped <= logical
        pong = parse_program(workloads.ping_pong(100, slack=2))
        rec = record_execution(pong, 0)
        probe = LiveSegmentProbe(pong)
        assert detect(pong, rec.trace, listener=probe).status == CLEAN
        assert any(s < l for _, s, l in probe.rows)


def test_criterion_4_replay_fidelity():
    with criterion(4, "per-object sync sequences and final memory equal "
                      "between record and replay on 100 race-free programs "
                      "x 3 seeds"):
        for i in range(100):
            text = generate_program(seed=800_000 + i, threads=2 + i % 3,
                                    ops_per_thread=16 + (i * 17) % 120,
                                    lock_density=1.0,
                                    shared_addresses=1 + i % 5)
            prog = parse_program(text)
            for record_seed in (3 * i, 3 * i + 1, 3 * i + 2):
                rec = record_execution(prog, record_seed)
                events, result = replay_events(prog, rec.trace)
                assert result.verdict == "OK"
                assert result.memory == rec.memory
                assert (per_object_sync_sequences(events)
                        == per_object_sync_sequences(rec.events))


def test_criterion_5_vector_clock_strong_consistency():
    with criterion(5, "CONCURRENT vector clocks iff no happened-before "
                      "path, all segment pairs of 200 executions"):
        mismatches = 0
        for i in range(200):
            text = generate_program(seed=700_000 + i, threads=2 + i % 3,
                                    ops_per_thread=12 + (i * 13) % 70,
                                    lock_density=(0.0, 0.5, 1.0)[i % 3],
                                    shared_addresses=1 + i % 4)
            prog = parse_program(text)
            rec = record_execution(prog, seed=i)
            events, _ = replay_events(prog, rec.trace)
            log = SegmentLog()
            detect(prog, rec.trace, all_races=True, gc=False, listener=log)
            ref = {s.key: s for s in build_segments(events, prog.n_threads)}
            hb = HbOracle(events)
            segs = log.segments
            for x in range(len(segs)):
                for y in range(x + 1, len(segs)):
                    a, b = segs[x], segs[y]
                    by_clock = vc_compare(a.clock, b.clock) is Ordering.CONCURRENT
                    by_graph = not segments_ordered(hb, ref[a.key], ref[b.key])
                    if by_clock != by_graph:
                        mismatches += 1
        assert mismatches == 0


def test_criterion_6_bitmap_correctness_and_bounds():
    with criterion(6, "100k random bitmap ops agree with a reference set; "
                      "one 16 KiB region costs exactly 1+1+1 nodes"):
        rng = random.Random(4242)
        bm = MultilevelBitmap()
        reference = set()
        other = MultilevelBitmap()
        other_ref = set()
        for _ in range(100_000):
            op = rng.randrange(3)
            a = rng.getrandbits(32)
            if op == 0:
                bm.insert(a)
                reference.add(a)
            elif op == 1:
                assert bm.contains(a) == (a in reference)
            else:
                other.insert(a)
                other_ref.add(a)
        common = reference & other_ref
        expected = min(common) if common else None
        assert bm.first_common(other) == expected
        assert bm.addresses() == sorted(reference)

        dense = MultilevelBitmap()
        base = 0x7FFF0000 & ~0x3FFF  # 16 KiB aligned
        for _ in range(10_000):
            dense.insert(base + rng.randrange(1 << 14))
        assert dense.node_counts() == (1, 1, 1)


def test_criterion_7_trace_compression(tmp_path, capsys):
    with criterion(7, "compression roundtrip on 10k random monotone "
                      "sequences; ping-pong trace ≤ 64 bits/sync-op, "
                      "reported in the CLI summary"):
        rng = random.Random(11)
        for _ in range(10_000):
            stamps = []
            total = 0
            for _ in range(rng.randrange(0, 28)):
                total += rng.choice((1, 1, 1, 2, 5, 40))
                stamps.append(total)
            assert decompress_stamps(len(stamps),
                                     compress_stamps(stamps)) == stamps

        prog_path = tmp_path / "pong.prog"
        prog_path.write_text(workloads.ping_pong(10_000))
        assert main(["record", str(prog_path), "--seed", "0",
                     "-o", str(tmp_path / "pong.trace")]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("bits_per_sync_op="))
        bits = float(line.split("=")[1])
        assert 0 < bits <= 64.0


def test_criterion_8_segment_discard_analog(capsys):
    with criterion(8, "max stored / created below 25% on the 4-thread "
                      "contended workload"):
        prog = parse_program(workloads.contended_counter(4, 200))
        rec = record_execution(prog, 1)
        result = detect(prog, rec.trace)
        assert result.status == CLEAN
        st = result.stats
        assert st.segments_created >= 800
        assert st.segments_discarded > 0
        ratio = st.segments_max_live / st.segments_created
        assert ratio < 0.25, f"ratio {ratio:.1%}"
        print(f"\n    created={st.segments_created} "
              f"max stored={st.segments_max_live} ({ratio:.1%})")
