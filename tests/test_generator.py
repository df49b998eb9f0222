"""Random workload generation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from racereplay.detector import CLEAN, RACE, detect
from racereplay.generator import _BLOCK, Rng, generate_program
from racereplay.machine import MASK64, splitmix64
from racereplay.program import parse_program
from racereplay.record import record_execution


def test_deterministic_output():
    a = generate_program(seed=5, threads=3, ops_per_thread=30)
    b = generate_program(seed=5, threads=3, ops_per_thread=30)
    assert a == b
    c = generate_program(seed=6, threads=3, ops_per_thread=30)
    assert a != c


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.one_of(st.sampled_from([0, MASK64]), st.integers(0, MASK64)))
def test_rng_draws_the_chained_reference_across_blocks(seed):
    rng, state = Rng(seed), seed
    for _ in range(4 * _BLOCK + 1):  # past four block boundaries
        state, value = splitmix64(state)
        assert rng.u64() == value


def test_generated_programs_parse_and_run():
    for i in range(30):
        text = generate_program(seed=i, threads=1 + i % 4,
                                ops_per_thread=10 + i,
                                lock_density=(i % 5) / 4,
                                shared_addresses=1 + i % 6)
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)  # must not deadlock
        assert rec.steps > 0


def test_full_density_always_clean():
    for i in range(25):
        text = generate_program(seed=100 + i, threads=2 + i % 3,
                                ops_per_thread=24 + i, lock_density=1.0)
        prog = parse_program(text)
        for seed in (0, 1):
            rec = record_execution(prog, seed)
            assert detect(prog, rec.trace).status == CLEAN


def test_zero_density_races_when_sharing_with_stores():
    # Unprotected programs race unless the schedule and generated bodies
    # conspire; across a small corpus the detector must find plenty.
    races = 0
    for i in range(25):
        text = generate_program(seed=200 + i, threads=3,
                                ops_per_thread=40, lock_density=0.0,
                                shared_addresses=2)
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        if detect(prog, rec.trace).status == RACE:
            races += 1
    assert races >= 20


def test_single_thread_always_clean():
    for i in range(10):
        text = generate_program(seed=300 + i, threads=1, ops_per_thread=20,
                                lock_density=0.0)
        prog = parse_program(text)
        rec = record_execution(prog, seed=i)
        assert detect(prog, rec.trace).status == CLEAN


def test_instruction_budget_respected():
    for i in range(10):
        ops = 20 + i * 15
        text = generate_program(seed=400 + i, threads=4, ops_per_thread=ops)
        prog = parse_program(text)
        for body in prog.threads:
            assert len(body) <= ops
