"""Program parsing and validation."""

import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racereplay import workloads
from racereplay.errors import ParseError
from racereplay.generator import generate_program
from racereplay.program import Op, parse_program


def test_parse_shared_counter():
    prog = parse_program(workloads.shared_counter())
    assert prog.n_threads == 3
    assert prog.initial_memory == {0x1000: 5}
    assert [ins.op for ins in prog.threads[0]] == [
        Op.CREATE, Op.CREATE, Op.JOIN, Op.JOIN, Op.EXIT]
    assert set(prog.exit_obj) == {1, 2}
    assert set(prog.create_obj) == {1, 2}


def test_trivial_exit_only_program():
    prog = parse_program("thread 0:\n  EXIT\n")
    assert prog.n_threads == 1
    assert prog.threads[0] == ((Op.EXIT, 0, 0),)
    assert prog.initial_memory == {}


def test_undeclared_mutex():
    text = "thread 0:\n  LOCK m\n  EXIT\n"
    with pytest.raises(ParseError, match="undeclared sync object 'm'"):
        parse_program(text)


def test_undeclared_semaphore_wrong_kind():
    text = "mutex m\nthread 0:\n  SEM_WAIT m\n  EXIT\n"
    with pytest.raises(ParseError, match="undeclared sync object"):
        parse_program(text)


def test_semaphore_count_held_to_32_bits():
    # Like addresses and constants, an initial count is a 32-bit word.
    top = parse_program("sem s 4294967295\nthread 0:\n  EXIT\n")
    assert top.semaphores["s"][1] == 0xFFFFFFFF
    with pytest.raises(ParseError, match="line 1: semaphore count "
                                         "4294967296 outside 32-bit range"):
        parse_program("sem s 4294967296\nthread 0:\n  EXIT\n")
    with pytest.raises(ParseError, match="outside 32-bit range"):
        parse_program("sem s 99999999999999999999999\nthread 0:\n  EXIT\n")


def test_last_access_per_thread():
    prog = parse_program(
        "mutex m\n"
        "thread 0:\n  CREATE 1\n  LOAD r0 0x10\n  LOCK m\n  STORE r0 0x14\n"
        "  UNLOCK m\n  JOIN 1\n  EXIT\n"
        "thread 1:\n  SET r0 1\n  LOCK m\n  UNLOCK m\n  EXIT\n")
    assert prog.last_access == (3, -1)


def test_error_carries_line_number():
    text = "mutex m\nthread 0:\n  LOCK m\n  BOGUS r1 2\n  EXIT\n"
    with pytest.raises(ParseError, match="line 4"):
        parse_program(text)


def test_undeclared_register():
    with pytest.raises(ParseError, match="undeclared register"):
        parse_program("thread 0:\n  SET r16 1\n  EXIT\n")
    with pytest.raises(ParseError, match="undeclared register"):
        parse_program("thread 0:\n  SET x1 1\n  EXIT\n")


@pytest.mark.parametrize("template", ["LOAD {} 0x10", "STORE {} 0x10",
                                      "ADDI {} 1", "SET {} 1"])
def test_register_spellings_outside_the_lookup_keep_their_meaning(template):
    # r0..r15 resolve by one dict lookup; every other spelling goes through
    # the full register parse, which accepts leading zeros and keeps its
    # error texts.
    def parse(tok):
        return parse_program(f"thread 0:\n  {template.format(tok)}\n  EXIT\n")

    for tok, reg in (("r01", 1), ("r007", 7), ("r0", 0), ("r15", 15)):
        assert parse(tok).threads[0][0].a == reg
    for tok, message in (
            ("R1", "line 2: undeclared register 'R1' (registers are r0..r15)"),
            ("r16", "line 2: undeclared register 'r16' (registers are r0..r15)"),
            ("r-1", "line 2: undeclared register 'r-1' (registers are r0..r15)"),
            ("r", "line 2: undeclared register 'r'")):
        with pytest.raises(ParseError) as err:
            parse(tok)
        assert str(err.value) == message


def test_sync_object_declarations_parse_in_linear_time():
    # Checking each name against a list of the earlier ones took 6.6 s of
    # CPU on this input (CPython 3.11); dict lookups make it linear.
    n = 20_000
    decls = ("".join(f"mutex m{i}\n" for i in range(n))
             + "".join(f"sem s{i} 1\n" for i in range(n)))
    start = time.process_time()
    prog = parse_program(decls + "thread 0:\n  EXIT\n")
    assert time.process_time() - start < 1.0
    assert prog.mutexes["m0"] == 0 and prog.semaphores["s0"] == (n, 1)
    assert prog.n_objects == 2 * n
    for dup in (f"mutex s{n - 1}\n", f"sem m{n - 1} 1\n", "sem s7 2\n"):
        with pytest.raises(ParseError, match="duplicate sync object") as err:
            parse_program(decls + dup + "thread 0:\n  EXIT\n")
        assert err.value.line == 2 * n + 1


def test_undeclared_thread_target():
    with pytest.raises(ParseError, match="undeclared thread 3"):
        parse_program("thread 0:\n  CREATE 3\n  EXIT\n")


def test_duplicate_thread_section():
    text = "thread 0:\n  EXIT\nthread 0:\n  EXIT\n"
    with pytest.raises(ParseError, match="duplicate thread 0"):
        parse_program(text)


def test_duplicate_create():
    # Repeated lines share one parse, but each CREATE is checked on its own.
    text = ("thread 0:\n  CREATE 1\n  CREATE 1\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  EXIT\n")
    with pytest.raises(ParseError, match="created more than once") as err:
        parse_program(text)
    assert err.value.line == 3


def test_never_created_thread():
    text = "thread 0:\n  EXIT\nthread 1:\n  EXIT\n"
    with pytest.raises(ParseError, match="never created"):
        parse_program(text)


def test_body_must_end_with_exit():
    with pytest.raises(ParseError, match="must end with EXIT"):
        parse_program("thread 0:\n  SET r0 1\n")
    with pytest.raises(ParseError, match="after EXIT"):
        parse_program("thread 0:\n  EXIT\n  SET r0 1\n")
    # A line already parsed before the EXIT is rejected at its own line.
    with pytest.raises(ParseError, match="after EXIT") as err:
        parse_program("thread 0:\n  SET r0 1\n  EXIT\n  SET r0 1\n")
    assert err.value.line == 4


def test_thread_ids_contiguous():
    text = "thread 0:\n  CREATE 2\n  EXIT\nthread 2:\n  EXIT\n"
    with pytest.raises(ParseError, match="contiguous"):
        parse_program(text)


def test_thread_id_gap_is_named():
    # The message names the lowest missing id, not every declared one.
    sections = "".join(f"thread {t}:\n  EXIT\n" for t in (0, 2, 3, 10**6))
    with pytest.raises(ParseError) as err:
        parse_program(sections)
    assert str(err.value) == ("thread ids must be contiguous 0..3, "
                              "but thread 1 is missing")
    with pytest.raises(ParseError, match="0..1, but thread 1 is missing"):
        parse_program("thread -5:\n  EXIT\nthread 0:\n  EXIT\n")


@pytest.mark.parametrize("text, message", [
    # 40 characters are shown whole, 41 by their head and length.
    ("mutex " + "a" * 40 + "\nsem " + "a" * 40 + " 1\nthread 0:\n  EXIT\n",
     "line 2: duplicate sync object '" + "a" * 40 + "'"),
    ("mutex " + "a" * 41 + "\nmutex " + "a" * 41 + "\nthread 0:\n  EXIT\n",
     "line 2: duplicate sync object '" + "a" * 40 + "...' (41 characters)"),
    ("thread 0:\n  " + "Z" * 50 + "\n  EXIT\n",
     "line 2: unknown instruction '" + "Z" * 40 + "...' (50 characters)"),
    ("q" * 45 + "\nthread 0:\n  EXIT\n",
     "line 1: unknown directive '" + "q" * 40 + "...' (45 characters)"),
    ("thread 0:\n  SET r" + "1" * 60 + " 1\n  EXIT\n",
     "line 2: undeclared register 'r" + "1" * 39 + "...' (61 characters) "
     "(registers are r0..r15)"),
    ("thread 0:\n  LOAD r0 0x" + "F" * 60 + "\n  EXIT\n",
     "line 2: address 0x" + "F" * 38 + "... (62 characters) outside 32-bit range"),
    ("sem s " + "7" * 50 + "\nthread 0:\n  EXIT\n",
     "line 1: semaphore count " + "7" * 40 + "... (50 characters) "
     "outside 32-bit range"),
    ("thread 0:\n  JOIN " + "4" * 50 + "\n  EXIT\n",
     "line 2: undeclared thread " + "4" * 40 + "... (50 characters)"),
])
def test_error_text_shows_a_long_token_by_its_head_and_length(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message


def test_missing_main():
    with pytest.raises(ParseError, match="thread 0"):
        parse_program("mutex m\n")


def test_create_main_rejected():
    text = "thread 0:\n  CREATE 0\n  EXIT\n"
    with pytest.raises(ParseError, match="cannot be created"):
        parse_program(text)


def test_repeated_lines_share_one_instruction():
    text = workloads.ping_pong(1000)
    body = text[text.index("thread 0:"):].splitlines()
    distinct = {line.strip() for line in body if not line.startswith("thread")}
    prog = parse_program(text)
    thread_ops = sum(ins.op in (Op.CREATE, Op.JOIN)
                     for ins in prog.threads[0] + prog.threads[1])
    objects = {id(ins) for body in prog.threads for ins in body}
    assert len(objects) <= len(distinct) + thread_ops


def test_comments_and_blank_lines_ignored():
    text = ("# header comment\n\nmem 0x10 3  # trailing\n"
            "thread 0:\n\n  # inner\n  LOAD r0 0x10\n  EXIT\n")
    prog = parse_program(text)
    assert prog.initial_memory == {0x10: 3}
    assert len(prog.threads[0]) == 2


def test_canonical_text_stable_under_formatting():
    a = parse_program(workloads.shared_counter())
    spaced = workloads.shared_counter().replace("  LOAD", "    LOAD")
    commented = "# a comment\n" + spaced
    b = parse_program(commented)
    assert a.canonical_text() == b.canonical_text()
    assert a.digest() == b.digest()


INDENTS = ("", " ", "    ", "\t", " \t ")
TRAILERS = ("", " ", "\t", "  # note", "\t# thread 1:", " #")
FILLERS = ("", "   ", "# comment", "\t# thread 9: reads 0x10")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), threads=st.integers(1, 6),
       ops=st.integers(4, 30), lock_density=st.sampled_from((0.0, 0.5, 1.0)),
       rnd=st.randoms(use_true_random=False), crlf=st.booleans())
def test_formatting_does_not_change_the_program(seed, threads, ops,
                                                lock_density, rnd, crlf):
    # Indentation, trailing comments, blank and comment-only lines and CRLF
    # endings change raw lines but not the program they spell. Repeated
    # lines get new spellings, so cached and freshly parsed lines mix.
    text = generate_program(seed, threads=threads, ops_per_thread=ops,
                            lock_density=lock_density)
    lines = []
    for line in text.splitlines():
        if rnd.random() < 0.2:
            lines.append(rnd.choice(FILLERS))
        lines.append(rnd.choice(INDENTS) + line.strip() + rnd.choice(TRAILERS))
    reformatted = ("\r\n" if crlf else "\n").join(lines)
    a, b = parse_program(text), parse_program(reformatted)
    assert b.canonical_text() == a.canonical_text()
    assert b.digest() == a.digest()
    assert b.last_access == a.last_access
    assert b.static_sync_counts() == a.static_sync_counts()


def test_static_sync_counts_are_computed_once():
    prog = parse_program(workloads.ping_pong(3))
    counts = prog.static_sync_counts()
    assert isinstance(counts, tuple)
    assert prog.static_sync_counts() is counts


def test_canonical_text_pinned_byte_for_byte():
    # Every op, two mutexes declared out of order, a semaphore's initial
    # count and a mem line; constants are stored as 32-bit words.
    text = ("mutex zed\nmutex a\nsem s 2\nmem 0x20 -1\n"
            "thread 0:\n  SET r1 -5\n  ADDI r15 3\n  STORE r1 0x20\n"
            "  CREATE 1\n  LOCK zed\n  LOAD r2 0xABCDEF\n  UNLOCK zed\n"
            "  SEM_POST s\n  JOIN 1\n  EXIT\n"
            "thread 1:\n  SEM_WAIT s\n  LOCK a\n  UNLOCK a\n  EXIT\n")
    assert parse_program(text).canonical_text() == (
        "mutex a\n"
        "mutex zed\n"
        "sem s 2\n"
        "mem 0x00000020 4294967295\n"
        "thread 0:\n"
        "  SET r1 4294967291\n"
        "  ADDI r15 3\n"
        "  STORE r1 0x00000020\n"
        "  CREATE 1\n"
        "  LOCK zed\n"
        "  LOAD r2 0x00ABCDEF\n"
        "  UNLOCK zed\n"
        "  SEM_POST s\n"
        "  JOIN 1\n"
        "  EXIT\n"
        "thread 1:\n"
        "  SEM_WAIT s\n"
        "  LOCK a\n"
        "  UNLOCK a\n"
        "  EXIT\n")


# The builders' raw text, spacing included; the golden digests hash
# canonical text, which does not see it.
BUILDER_TEXT_SHA256 = [
    ("ping_pong", (5000,), {"slack": 2},
     "a3aa9b18fe8d138160061689ab9423b4cda19635c7c3df048cd8e8902eea39fd"),
    ("ping_pong", (0,), {},
     "fcf67a00c4adfbb24771557fbccd23465649173bccca7eac52016df9f75ca939"),
    ("ping_pong", (10,), {"slack": 3},
     "b4a0fb2f162b2bb684d3a61c94f29ab930c9db3bbb4c2a49d69b4ebb151f2138"),
    ("contended_counter", (8, 20), {},
     "91f4f2a808615186e22612759817eae7d9fbb9e0408b57cbe1b17e1a089028c9"),
    ("contended_counter", (2, 0), {},
     "8b458bf6a0b624763703ab504fafdec96537e8f819cecc556adc3ef809ad1822"),
    ("producer_consumer", (30, 3), {},
     "cc0881670327b44234d42bb09b355ee9079b3188a6784db1aaef2a5075b8700a"),
    ("producer_consumer", (8, 2), {},
     "5f4d49476acef0191b30ebe061f2477d9117cecc02b5e8e75a77d55b6cd6e9b4"),
    ("shared_counter", (), {},
     "ae06d02c00129e304a114153c07b46b22066ef07c47bcc533302933880681959"),
    ("shared_counter", (), {"locked": True},
     "5d870f909101c7df9342af4d5c36ab2a5b6ed8294e9a05b968cf4fbc9ebcd162"),
]


@pytest.mark.parametrize("builder, args, kwargs, sha256", BUILDER_TEXT_SHA256)
def test_builder_text_pinned_byte_for_byte(builder, args, kwargs, sha256):
    text = getattr(workloads, builder)(*args, **kwargs)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_digest_differs_between_programs():
    a = parse_program(workloads.shared_counter())
    b = parse_program(workloads.shared_counter(locked=True))
    assert a.digest() != b.digest()


def test_canonical_text_reparses_to_same_digest():
    prog = parse_program(workloads.ping_pong(3))
    again = parse_program(prog.canonical_text())
    assert again.digest() == prog.digest()


# Malformed programs, each with the message and line the parser gives.
# Which error is reported first is part of the contract: the header pass
# runs before any body, bodies are parsed in thread-id order, and a line
# already seen elsewhere is checked like any other.
PINNED_ERRORS = [
    # A line cached before EXIT, repeated after it with other spacing.
    ("thread 0:\n  SET r0 1\n  EXIT\n\tSET  r0   1\n",
     "instruction after EXIT", 4),
    # A raw line's third occurrence is a cache hit, still refused after EXIT.
    ("thread 0:\n  SET r0 1\n  SET r0 1\n  EXIT\n  SET r0 1\n",
     "instruction after EXIT", 5),
    ("thread 0:\n  CREATE 1\n  JOIN 1\n  EXIT\nthread 1:\n  EXIT\n  EXIT\n",
     "instruction after EXIT", 7),
    # The same JOIN line in two bodies; thread 0's copy is parsed first.
    ("thread 1:\n  JOIN 7\n  EXIT\n"
     "thread 0:\n  CREATE 1\n  JOIN 7\n  EXIT\n",
     "undeclared thread 7", 6),
    ("thread 0:\n  CREATE 1\n  JOIN 1\n  JOIN 1\n  JOIN 2\n  EXIT\n"
     "thread 1:\n  EXIT\n",
     "undeclared thread 2", 5),
    ("thread 0:\n  CREATE 1\n\tCREATE   1  # again\n  JOIN 1\n  EXIT\n"
     "thread 1:\n  EXIT\n",
     "thread 1 created more than once (first at line 2)", 3),
    ("thread 0:\r\n  CREATE 1\r\n  CREATE 1\r\n  EXIT\r\n"
     "thread 1:\r\n  EXIT\r\n",
     "thread 1 created more than once (first at line 2)", 3),
    # Body lines that mention 'thread' but are no header.
    ("thread 0:\n  LOAD r0 0x10  # thread 2 reads this\n"
     "  LOAD r0 0x10  # thread 2 reads this\n  BOGUS r0\n  EXIT\n",
     "unknown instruction 'BOGUS'", 4),
    ("thread 0:\n  SET r0 1\n  threadx 1\n  EXIT\n",
     "unknown instruction 'threadx'", 3),
    # START is an op, but only the machine writes one.
    ("thread 0:\n  SET r0 1\n  START\n  EXIT\n",
     "unknown instruction 'START'", 3),
    ("thread 0:\n  SET r0 1\n  thread 1\n  EXIT\n",
     "expected 'thread <id>:'", 3),
    ("thread 0:\n  SET r0 1\n  SET r0 1\n  SET r16 1\n  EXIT\n",
     "undeclared register 'r16' (registers are r0..r15)", 4),
    # Two errors in one file: the one pinned is the one reported.
    ("thread 0:\n  BOGUS r0\n  EXIT\nthread x:\n  EXIT\n",
     "bad thread id 'x'", 4),
    ("thread 1:\n  BOGUS r0\n  EXIT\n"
     "thread 0:\n  CREATE 1\n  LOCK m\n  EXIT\n",
     "undeclared sync object 'm'", 6),
    ("thread 0:\n  EXIT\n  SET r99 1\n", "instruction after EXIT", 3),
    # A mutex op takes one mutex and a semaphore op one semaphore.
    ("mutex m\nsem s 1\nthread 0:\n  LOCK\n  EXIT\n",
     "LOCK takes a mutex name", 4),
    ("mutex m\nsem s 1\nthread 0:\n  SEM_POST s m\n  EXIT\n",
     "SEM_POST takes a semaphore name", 4),
    ("mutex m\nsem s 1\nthread 0:\n  UNLOCK s\n  EXIT\n",
     "undeclared sync object 's'", 4),
    ("mutex m\nsem s 1\nthread 0:\n  SEM_WAIT m\n  EXIT\n",
     "undeclared sync object 'm'", 4),
    ("thread 0:\n  CREATE 1\n  SET r0 1\nthread 1:\n  BOGUS\n",
     "thread 0 body must end with EXIT", 1),
    ("thread 0:\n  EXIT\nthread 1:\n  EXIT\nthread 2:\n  EXIT\n",
     "thread 1 is declared but never created", 3),
    # One initial value per address, however the address is spelled.
    ("mem 0x10 1\nmutex m\nmem 0x0010 2\nthread 0:\n  EXIT\n",
     "duplicate mem address 0x00000010 (first at line 1)", 3),
]


@pytest.mark.parametrize("text, message, line", PINNED_ERRORS)
def test_pinned_parse_errors(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line
