"""Seeded scheduler and execution semantics."""

import pytest

from racereplay import machine as machine_mod
from racereplay import workloads
from racereplay.errors import DeadlockError, MachineError
from racereplay.generator import generate_program
from racereplay.machine import _GOLDEN, MASK64, EventKind, Machine, run, splitmix64
from racereplay.program import Op, parse_program


def test_splitmix64_reference_sequence():
    # First outputs for state 0, cross-checked against the published
    # constants with an independent transcription of the algorithm.
    def reference(state):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return state, z ^ (z >> 31)

    state_a = state_b = 0
    for _ in range(100):
        state_a, va = splitmix64(state_a)
        state_b, vb = reference(state_b)
        assert va == vb
    state, first = splitmix64(0)
    assert first == 0xE220A8397B1DCDAF  # widely published first output


def _ends_with(text, seed, observer=None):
    machine = Machine(parse_program(text), seed, observer)
    try:
        assert machine.run().steps == machine.steps
    except (DeadlockError, MachineError):
        pass
    return machine


def test_rng_state_is_exact_after_run():
    # Main runs alone (one runnable thread, so the draw's output is not
    # mixed), then beside its worker (two runnable), then alone again. The
    # state must advance once per step either way.
    text = ("thread 0:\n  SET r0 1\n  ADDI r0 2\n  CREATE 1\n"
            + "  STORE r0 0x00000010\n" * 8 + "  JOIN 1\n  LOAD r0 0x00000014\n"
            "  EXIT\nthread 1:\n" + "  STORE r0 0x00000014\n" * 8 + "  EXIT\n")
    interleaved = False
    for seed in (0, 5, 2**63 + 3, MASK64):
        machine = _ends_with(text, seed)
        tids = [e.tid for e in machine.events]
        first, last = tids.index(1), len(tids) - 1 - tids[::-1].index(1)
        interleaved |= 0 in tids[first:last]
        assert machine.steps == 3 + 8 + 1 + 1 + 1 + 8 + 1 + 1
        assert machine._rng == (seed + machine.steps * _GOLDEN) & MASK64
    assert interleaved


def _stop_at_memory(machine, event):
    return event.kind is not EventKind.SYNC


@pytest.mark.parametrize("text, observer, steps", [
    ("mutex m\nthread 0:\n  SET r0 1\n  UNLOCK m\n  EXIT\n", None, 2),
    ("mutex m\nthread 0:\n  LOCK m\n  ADDI r0 1\n  LOCK m\n  EXIT\n", None, 2),
    ("thread 0:\n  SET r0 1\n  STORE r0 0x00000010\n  SET r0 2\n  EXIT\n",
     _stop_at_memory, 2),
    ("thread 0:\n  SET r0 1\n  LOAD r0 0x00000010\n  SET r0 2\n  EXIT\n",
     _stop_at_memory, 2),
])
def test_steps_and_rng_exact_when_run_ends_early(text, observer, steps):
    # A MachineError, a deadlock and an observer's stop request at each kind
    # of memory step.
    machine = _ends_with(text, 11, observer)
    assert machine.steps == steps
    assert machine._rng == (11 + steps * _GOLDEN) & MASK64


def test_single_thread_store():
    prog = parse_program("thread 0:\n  SET r1 7\n  STORE r1 0x00000020\n  EXIT\n")
    res = run(prog, 0)
    assert res.memory[0x20] == 7
    assert [(e.kind, e.addr) for e in res.events] == [(EventKind.STORE, 0x20)]


def test_load_default_zero_and_wraparound():
    prog = parse_program(
        "thread 0:\n  LOAD r0 0x00000040\n  ADDI r0 -1\n"
        "  STORE r0 0x00000044\n  EXIT\n")
    res = run(prog, 1)
    assert res.memory[0x44] == 0xFFFFFFFF


def test_determinism_same_seed():
    prog = parse_program(workloads.shared_counter())
    a = run(prog, 1234)
    b = run(prog, 1234)
    assert a.events == b.events
    assert a.memory == b.memory


def test_seeds_vary_schedules():
    prog = parse_program(workloads.shared_counter())
    streams = {tuple(run(prog, seed).events) for seed in range(20)}
    assert len(streams) > 1


def test_shared_counter_final_values():
    prog = parse_program(workloads.shared_counter())
    finals = {run(prog, seed).memory[0x1000] for seed in range(200)}
    assert finals <= {11, 12, 18}
    assert len(finals) > 1  # schedule variety reaches multiple outcomes


def test_locked_counter_always_18():
    prog = parse_program(workloads.shared_counter(locked=True))
    for seed in range(50):
        assert run(prog, seed).memory[0x1000] == 18


def test_mutual_join_deadlock():
    text = ("mutex m\n"
            "thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  JOIN 2\n  EXIT\n"
            "thread 1:\n  LOCK m\n  JOIN 2\n  UNLOCK m\n  EXIT\n"
            "thread 2:\n  JOIN 1\n  EXIT\n")
    prog = parse_program(text)
    with pytest.raises(DeadlockError) as err:
        run(prog, 0)
    reasons = dict(err.value.blocked)
    assert "joining thread 2" in reasons[1]
    assert "joining thread 1" in reasons[2]
    assert 0 in reasons  # main still waits on a child


def test_self_lock_deadlock_reported():
    text = "mutex m\nthread 0:\n  LOCK m\n  LOCK m\n  UNLOCK m\n  UNLOCK m\n  EXIT\n"
    with pytest.raises(DeadlockError) as err:
        run(parse_program(text), 0)
    assert "held by itself" in dict(err.value.blocked)[0]


def test_unlock_not_held_is_machine_error():
    text = "mutex m\nthread 0:\n  UNLOCK m\n  EXIT\n"
    with pytest.raises(MachineError, match="does not hold"):
        run(parse_program(text), 0)


def test_unlock_held_by_another_thread_is_machine_error():
    # Main holds m and joins thread 1, which unlocks m. The error leaves
    # the mutex with main and thread 1 at its UNLOCK.
    text = ("mutex m\nthread 0:\n  LOCK m\n  CREATE 1\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  UNLOCK m\n  EXIT\n")
    for seed in (0, 1, 2):
        machine = Machine(parse_program(text), seed, None)
        with pytest.raises(MachineError,
                           match="thread 1 unlocks mutex:m it does not hold"):
            machine.run()
        assert machine.mutex_owner == {0: 0}
        assert machine.pc[1] == 0
        assert machine.steps == 4  # LOCK, CREATE, START, UNLOCK


@pytest.mark.parametrize("text, blocked", [
    ("mutex m\nthread 0:\n  LOCK m\n  CREATE 1\n  JOIN 1\n  EXIT\n"
     "thread 1:\n  LOCK m\n  EXIT\n",
     [(0, "joining thread 1 (not exited)"),
      (1, "waiting for mutex:m held by thread 0")]),
    ("mutex m\nthread 0:\n  LOCK m\n  LOCK m\n  EXIT\n",
     [(0, "waiting for mutex:m held by itself")]),
    ("sem s 0\nthread 0:\n  SEM_WAIT s\n  EXIT\n",
     [(0, "waiting on sem:s (count 0)")]),
    ("sem s 0\nthread 0:\n  CREATE 1\n  JOIN 1\n  EXIT\n"
     "thread 1:\n  SEM_WAIT s\n  EXIT\n",
     [(0, "joining thread 1 (not exited)"), (1, "waiting on sem:s (count 0)")]),
    ("sem s 0\nthread 0:\n  SEM_WAIT s\n  CREATE 1\n  EXIT\n"
     "thread 1:\n  EXIT\n",
     [(0, "waiting on sem:s (count 0)"), (1, "never created")]),
])
def test_deadlock_reasons(text, blocked):
    # One minimal program per reason a thread can be reported blocked.
    for seed in (0, 1, 2):
        with pytest.raises(DeadlockError) as err:
            run(parse_program(text), seed)
        assert err.value.blocked == blocked


def test_lock_blocking_semantics_respected():
    # No LOCK event may appear while another thread holds the mutex.
    prog = parse_program(workloads.contended_counter(3, 10))
    for seed in (0, 1, 2):
        held = None
        for ev in run(prog, seed).events:
            if ev.kind is not EventKind.SYNC:
                continue
            if ev.sync == Op.LOCK:
                assert held is None
                held = ev.tid
            elif ev.sync == Op.UNLOCK:
                assert held == ev.tid
                held = None


def test_semaphore_count_never_negative():
    prog = parse_program(workloads.producer_consumer(40, 3))
    for seed in (0, 5):
        counts = {oid: init for oid, init in prog.semaphores.values()}
        for ev in run(prog, seed).events:
            if ev.kind is not EventKind.SYNC:
                continue
            if ev.sync == Op.SEM_WAIT:
                counts[ev.obj] -= 1
                assert counts[ev.obj] >= 0
            elif ev.sync == Op.SEM_POST:
                counts[ev.obj] += 1


def test_event_stream_invariants():
    prog = parse_program(workloads.ping_pong(20))
    res = run(prog, 3)
    seqs = [e.seq for e in res.events]
    assert seqs == sorted(set(seqs))
    per_thread_last = {}
    for ev in res.events:
        prev = per_thread_last.get(ev.tid, -1)
        assert ev.ordinal >= prev or ev.ordinal == -1
        if ev.ordinal >= 0:
            per_thread_last[ev.tid] = ev.ordinal


def test_run_with_an_observer_passes_events_on_and_keeps_none():
    seqs = []

    def observer(machine, event):
        seqs.append(event.seq)

    prog = parse_program(workloads.ping_pong(20, slack=2))
    res = run(prog, 3, observer)
    assert seqs == list(range(len(run(prog, 3).events)))
    assert res.events == []


def test_start_events_precede_thread_activity():
    prog = parse_program(workloads.shared_counter())
    res = run(prog, 9)
    seen_start = set()
    for ev in res.events:
        if ev.tid == 0:
            continue
        if ev.kind is EventKind.SYNC and ev.sync == Op.START:
            seen_start.add(ev.tid)
        else:
            assert ev.tid in seen_start


def test_exit_event_only_for_join_targets():
    # Worker 1 is joined; worker 2 is created but never joined.
    text = ("thread 0:\n  CREATE 1\n  CREATE 2\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  SET r0 1\n  EXIT\n"
            "thread 2:\n  SET r0 2\n  EXIT\n")
    prog = parse_program(text)
    res = run(prog, 4)
    exits = [e.tid for e in res.events
             if e.kind is EventKind.SYNC and e.sync == Op.EXIT]
    assert exits == [1]


def test_scheduler_rechecks_threads_only_at_sync_points(monkeypatch):
    # Main forks 8 workers that each make 500 memory ops, then joins them.
    # The scheduler files a thread's runnable state (``_arrive``) only at
    # gate ops, never between the memory steps: once for main at the start,
    # once after each gate step that leaves its thread live (every SYNC
    # event but the 8 joined EXITs), and once when a worker's last memory
    # step brings it to its EXIT.
    workers = 8
    lines = ["thread 0:"]
    lines += [f"  CREATE {t}" for t in range(1, workers + 1)]
    lines += [f"  JOIN {t}" for t in range(1, workers + 1)]
    lines += ["  EXIT"]
    for t in range(1, workers + 1):
        addr = f"0x{0x1000 + 4 * t:08X}"
        lines.append(f"thread {t}:")
        lines += [f"  LOAD r0 {addr}\n  STORE r0 {addr}"] * 250
        lines.append("  EXIT")
    prog = parse_program("\n".join(lines) + "\n")
    arrivals = 0
    arrive = Machine._arrive

    def counted(self, tid):
        nonlocal arrivals
        arrivals += 1
        return arrive(self, tid)

    monkeypatch.setattr(Machine, "_arrive", counted)
    res = run(prog, 5)
    syncs = sum(ev.kind is EventKind.SYNC for ev in res.events)
    assert res.steps == workers * 500 + syncs + 1  # main's EXIT emits no event
    assert arrivals == 1 + (syncs - workers) + workers


def test_draw_list_is_rebuilt_only_at_gate_ops(monkeypatch):
    # 64 threads with no locks: nearly every step is a memory step with many
    # threads runnable. The draw indexes a list of runnable ids that is built
    # again only after a gate step or when a memory step reaches a gate op,
    # so building it costs nothing per memory step.
    builds = []
    bit_ids = machine_mod._bit_ids
    monkeypatch.setattr(machine_mod, "_bit_ids",
                        lambda mask: builds.append(mask) or bit_ids(mask))
    prog = parse_program(generate_program(3, threads=64, ops_per_thread=100,
                                          lock_density=0.0))
    res = run(prog, 1)
    gate_steps = sum(1 for e in res.events if e.kind is EventKind.SYNC) + prog.n_threads
    assert res.steps > 4 * gate_steps
    assert len(builds) <= 2 * gate_steps + 1
    assert max(bin(m).count("1") for m in builds) > 32
