"""Record phase: sync tracing without schedule perturbation."""

from racereplay import workloads
from racereplay.generator import generate_program
from racereplay.machine import EventKind, run
from racereplay.program import parse_program
from racereplay.record import record_execution


def test_shared_counter_records_eight_sync_events():
    # Hand count: 2 CREATE + 2 START + 2 EXIT + 2 JOIN; main's own exit is
    # untraced because nothing joins it.
    prog = parse_program(workloads.shared_counter())
    for seed in range(10):
        rec = record_execution(prog, seed)
        assert rec.sync_ops == 8
        assert len(rec.trace.stamps) == 3
        assert len(rec.trace.stamps[0]) == 4  # both creates, both joins


def test_static_sync_counts_are_exact_for_complete_runs():
    texts = [workloads.shared_counter(), workloads.ping_pong(7, slack=2),
             workloads.producer_consumer(12, 3), workloads.contended_counter(3, 4)]
    texts += [generate_program(40 + i, threads=2 + i, ops_per_thread=30,
                               lock_density=0.5) for i in range(4)]
    for text in texts:
        prog = parse_program(text)
        rec = record_execution(prog, 2)
        assert tuple(len(s) for s in rec.trace.stamps) == prog.static_sync_counts()


def test_sync_free_program_records_empty_trace():
    prog = parse_program("thread 0:\n  SET r0 3\n  STORE r0 0x00000010\n  EXIT\n")
    rec = record_execution(prog, 5)
    assert rec.trace.stamps == [[]]
    assert rec.trace.total_ops == 0
    assert rec.trace.to_bytes()[:5] == b"ROLT1"


def test_same_seed_identical_trace_bytes():
    prog = parse_program(workloads.ping_pong(10))
    a = record_execution(prog, 77).trace.to_bytes()
    b = record_execution(prog, 77).trace.to_bytes()
    assert a == b


def test_recording_does_not_perturb_schedule():
    # The recorded run's event stream must equal a plain run with the seed.
    prog = parse_program(workloads.shared_counter())
    for seed in (0, 3, 9):
        rec = record_execution(prog, seed)
        plain = run(prog, seed)
        assert rec.events == plain.events
        assert rec.memory == plain.memory


def test_stamps_strictly_increase_per_thread():
    prog = parse_program(workloads.producer_consumer(30, 2))
    rec = record_execution(prog, 8)
    for stamps in rec.trace.stamps:
        assert stamps == sorted(set(stamps))


def test_stamps_strictly_increase_per_object():
    prog = parse_program(workloads.contended_counter(3, 20))
    rec = record_execution(prog, 2)
    # Walk the stream pairing each sync event with its recorded stamp.
    per_thread = [list(s) for s in rec.trace.stamps]
    per_object = {}
    for ev in rec.events:
        if ev.kind is EventKind.SYNC:
            ts = per_thread[ev.tid].pop(0)
            per_object.setdefault(ev.obj, []).append(ts)
    for series in per_object.values():
        assert series == sorted(set(series))


def test_trace_digest_binds_program():
    prog = parse_program(workloads.shared_counter())
    rec = record_execution(prog, 0)
    assert rec.trace.digest == prog.digest()


def test_compression_effective_on_alternation():
    prog = parse_program(workloads.ping_pong(500))
    rec = record_execution(prog, 0)
    bits = len(rec.trace.to_bytes()) * 8 / rec.sync_ops
    assert 0 < bits <= 64
