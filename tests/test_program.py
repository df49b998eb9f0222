"""Program parsing and validation."""

import pytest

from racereplay import workloads
from racereplay.errors import ParseError
from racereplay.program import Op, parse_program


def test_parse_shared_counter():
    prog = parse_program(workloads.shared_counter())
    assert prog.n_threads == 3
    assert prog.initial_memory == {0x1000: 5}
    assert [ins.op for ins in prog.threads[0]] == [
        Op.CREATE, Op.CREATE, Op.JOIN, Op.JOIN, Op.EXIT]
    assert prog.join_targets == {1, 2}
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


def test_digest_differs_between_programs():
    a = parse_program(workloads.shared_counter())
    b = parse_program(workloads.shared_counter(locked=True))
    assert a.digest() != b.digest()


def test_canonical_text_reparses_to_same_digest():
    prog = parse_program(workloads.ping_pong(3))
    again = parse_program(prog.canonical_text())
    assert again.digest() == prog.digest()
