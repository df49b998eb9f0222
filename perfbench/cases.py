"""The benchmark's workloads: how each builds its inputs and checks them.

Each workload turns the benchmark seed into a list of (program text, record
seed) pairs and checks what the pipeline produced on them. The checks run
outside the timed region and compare against references that share no code
with the detector: closed-form values, the brute-force oracle in
``racereplay.oracle``, or properties of the method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from racereplay import workloads
from racereplay.detector import CLEAN, RaceReport
from racereplay.generator import Rng, generate_program
from racereplay.machine import MASK64
from racereplay.oracle import (brute_force_detect, expected_instruction_pair,
                               full_access_log)
from racereplay.program import Program
from racereplay.replay import OK, replay_execution
from racereplay.tracefile import SyncTrace

from pipeline import Outcome


@dataclass
class Observed:
    """The part of an Outcome the checks read, kept after the timed loop."""

    program: Program
    status: str
    replay_verdict: str
    sync_ops: int
    recorded_memory: dict
    replayed_memory: dict
    recorded_trace: SyncTrace
    decoded_trace: SyncTrace
    report: Optional[RaceReport]  # with the identified instructions
    parsed_report: Optional[RaceReport]


def observe(out: Outcome) -> Observed:
    return Observed(
        program=out.program, status=out.result.status,
        replay_verdict=out.result.replay.verdict,
        sync_ops=out.record.sync_ops, recorded_memory=out.record.memory,
        replayed_memory=out.result.replay.memory,
        recorded_trace=out.record.trace, decoded_trace=out.trace,
        report=out.result.report, parsed_report=out.parsed_report)


def _replayed_events(obs: Observed) -> list:
    """A full replay of the decoded trace, with no detector attached."""
    events = []
    replay_execution(obs.program, obs.decoded_trace,
                     observer=lambda machine, event: events.append(event))
    return events


def check_trace(obs: Observed) -> list:
    """The trace codec gives back the recorded stamps, seed and digest."""
    rec, dec = obs.recorded_trace, obs.decoded_trace
    if (dec.stamps, dec.seed, dec.digest) != (rec.stamps, rec.seed, rec.digest):
        return ["decoded trace differs from the recorded one"]
    return []


def check_report(obs: Observed) -> list:
    """The key=value report parses back to the report it was written from."""
    if obs.report is None:
        return []
    got, want = obs.parsed_report, obs.report
    if got is None or (got.witnesses, got.side1, got.side2) != (
            want.witnesses, want.side1, want.side2):
        return ["report record does not parse back to the report"]
    sites = [(s.tid, s.ordinal, s.kind) for s in want.instructions or ()]
    if [(s.tid, s.ordinal, s.kind) for s in got.instructions or ()] != sites:
        return ["report record does not parse back to the same instructions"]
    return []


@dataclass
class PingPong:
    """Two threads trade semaphore tokens; race-free, discard always fires."""

    turns: int = 5_000
    name: str = "pingpong"

    def inputs(self, seed: int) -> list:
        return [(workloads.ping_pong(self.turns, slack=2), seed & MASK64)]

    def check(self, observed: list) -> list:
        problems = []
        for obs in observed:
            bad = check_trace(obs) + check_report(obs)
            if obs.status != CLEAN:
                bad.append(f"verdict {obs.status}, expected {CLEAN}")
            if obs.replay_verdict != OK:
                bad.append(f"replay verdict {obs.replay_verdict}, expected {OK}")
            for addr in (0x2000, 0x2100):  # the two private counters
                for where, memory in (("recorded", obs.recorded_memory),
                                      ("replayed", obs.replayed_memory)):
                    if memory.get(addr) != self.turns:
                        bad.append(f"{where} counter 0x{addr:08X} is "
                                   f"{memory.get(addr)}, expected {self.turns}")
            if obs.sync_ops != 4 * self.turns + 4:
                bad.append(f"{obs.sync_ops} sync ops, expected "
                           f"{4 * self.turns + 4}")
            problems.append(bad)
        return problems


@dataclass
class ForkJoin:
    """Main forks many lock-synchronised workers and joins them; race-free.

    Detect time grows with the square of the live segment count, which
    varies by a few percent from program to program; two programs per round
    halve the seed-to-seed spread that this gives.
    """

    threads: int = 16
    ops_per_thread: int = 200
    programs: int = 2
    name: str = "forkjoin"

    def inputs(self, seed: int) -> list:
        rng = Rng(seed)
        return [(generate_program(rng.u64(), threads=self.threads,
                                  ops_per_thread=self.ops_per_thread,
                                  lock_density=1.0), rng.u64())
                for _ in range(self.programs)]

    def check(self, observed: list) -> list:
        problems = []
        for obs in observed:
            bad = check_trace(obs) + check_report(obs)
            if obs.status != CLEAN:
                bad.append(f"verdict {obs.status}, expected {CLEAN}")
            race = brute_force_detect(_replayed_events(obs),
                                      obs.program.n_threads)
            if race is not None:
                bad.append(f"oracle finds a race on {sorted(race.witnesses)}")
            if obs.replayed_memory != obs.recorded_memory:
                bad.append("replayed memory differs from recorded memory")
            problems.append(bad)
        return problems


@dataclass
class RacyCorpus:
    """Many small generated programs with mixed locking; most race early."""

    programs: int = 300
    name: str = "racy-corpus"

    def inputs(self, seed: int) -> list:
        rng = Rng(seed)
        out = []
        for i in range(self.programs):
            text = generate_program(
                rng.u64(), threads=2 + i % 3,
                ops_per_thread=12 + (i * 7) % 40,
                lock_density=(0.0, 0.25, 0.5, 0.75)[i % 4],
                shared_addresses=(1, 2, 4, 8)[(i // 4) % 4])
            out.append((text, rng.u64()))
        return out

    def check(self, observed: list) -> list:
        problems = []
        for obs in observed:
            bad = check_trace(obs) + check_report(obs)
            events = _replayed_events(obs)
            race = brute_force_detect(events, obs.program.n_threads)
            if obs.report is None or race is None:
                if obs.report is not None or race is not None:
                    bad.append(f"detector says {obs.status}, oracle says "
                               f"{'race' if race else 'clean'}")
            elif race.pair_key() != obs.report.pair_key():
                bad.append("first race differs from the oracle's")
            else:
                log = full_access_log(events, obs.program.n_threads)
                expected = expected_instruction_pair(log, obs.report)
                got = tuple((s.tid, s.ordinal, s.kind, s.address)
                            for s in obs.report.instructions or ())
                if got != expected:
                    bad.append(f"identified {got}, expected {expected}")
            problems.append(bad)
        racy = sum(obs.report is not None for obs in observed)
        if not 0 < racy < len(observed):
            problems = [bad + [f"corpus has {racy} racy programs of "
                               f"{len(observed)}; it needs both kinds"]
                        for bad in problems]
        return problems


WORKLOADS = {w.name: w for w in (PingPong(), ForkJoin(), RacyCorpus())}
