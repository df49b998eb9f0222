"""Trace compression and file format."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racereplay.cli import _record_summary
from racereplay.errors import TraceFormatError
from racereplay.tracefile import (MAGIC, SyncTrace, compress_stamps,
                                  decode_varint, decompress_stamps,
                                  encode_varint)


def test_varint_examples():
    assert encode_varint(0) == b"\x00"
    assert encode_varint(127) == b"\x7f"
    assert encode_varint(128) == b"\x80\x01"
    assert encode_varint(300) == b"\xac\x02"  # classic LEB128 example


def test_varint_roundtrip_large():
    for value in (0, 1, 2**32, 2**64 - 1, 1234567890123):
        blob = encode_varint(value)
        got, pos = decode_varint(blob, 0)
        assert (got, pos) == (value, len(blob))


def test_varint_truncation_detected():
    with pytest.raises(TraceFormatError):
        decode_varint(b"\x80", 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_varint_roundtrip_property(value):
    blob = encode_varint(value)
    assert decode_varint(blob, 0) == (value, len(blob))


def test_fully_predicted_run_has_no_exceptions():
    assert compress_stamps([1, 2, 3, 4, 5]) == []


def test_exception_records_gap_from_previous():
    # At ordinal 2 the stamp jumps from 2 to 7: one exception, gap 5.
    assert compress_stamps([1, 2, 7, 8]) == [(2, 5)]


def test_first_stamp_predicted_from_zero():
    assert compress_stamps([1]) == []
    assert compress_stamps([3]) == [(0, 3)]


def test_decompress_inverse():
    stamps = [1, 2, 7, 8, 20]
    assert decompress_stamps(5, compress_stamps(stamps)) == stamps


def test_non_monotonic_rejected():
    with pytest.raises(ValueError):
        compress_stamps([1, 1])
    with pytest.raises(TraceFormatError):
        decompress_stamps(2, [(1, 0)])
    with pytest.raises(TraceFormatError):
        decompress_stamps(2, [(1, 2), (1, 2)])
    with pytest.raises(TraceFormatError):
        decompress_stamps(2, [(5, 2)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), max_size=80))
def test_compression_roundtrip_property(gaps):
    stamps = []
    total = 0
    for g in gaps:
        total += g
        stamps.append(total)
    assert decompress_stamps(len(stamps), compress_stamps(stamps)) == stamps


def _sample_trace():
    return SyncTrace(seed=42, digest=bytes(range(32)),
                     stamps=[[1, 2, 4, 5], [2, 3], [3, 4]])


def test_trace_bytes_roundtrip(tmp_path):
    trace = _sample_trace()
    again = SyncTrace.from_bytes(trace.to_bytes())
    assert again.seed == trace.seed
    assert again.digest == trace.digest
    assert again.stamps == trace.stamps
    path = tmp_path / "t.trace"
    trace.write(str(path))
    assert SyncTrace.read(str(path)).stamps == trace.stamps


def test_trace_magic_enforced():
    blob = _sample_trace().to_bytes()
    with pytest.raises(TraceFormatError, match="magic"):
        SyncTrace.from_bytes(b"JUNK" + blob[4:])
    assert blob[:5] == MAGIC


def test_trace_trailing_bytes_rejected():
    blob = _sample_trace().to_bytes()
    with pytest.raises(TraceFormatError, match="trailing"):
        SyncTrace.from_bytes(blob + b"\x00")


def test_trace_truncation_rejected():
    blob = _sample_trace().to_bytes()
    with pytest.raises(TraceFormatError):
        SyncTrace.from_bytes(blob[:-1])


def test_trace_counts_capped_before_decoding():
    blob = _sample_trace().to_bytes()
    assert SyncTrace.from_bytes(blob, max_ops=[4, 2, 2]).stamps == \
        _sample_trace().stamps
    with pytest.raises(TraceFormatError, match="thread 0 claims 4 sync ops"):
        SyncTrace.from_bytes(blob, max_ops=[3, 2, 2])
    with pytest.raises(TraceFormatError, match="thread 2 claims 2"):
        SyncTrace.from_bytes(blob, max_ops=[4, 2])


def test_empty_trace_valid():
    trace = SyncTrace(seed=0, digest=bytes(32), stamps=[[]])
    blob = trace.to_bytes()
    again = SyncTrace.from_bytes(blob)
    assert again.stamps == [[]]
    # The CLI's bits-per-sync-op figure reads 0 for a trace with no ops.
    summary = dict(_record_summary(SimpleNamespace(sync_ops=again.total_ops),
                                   len(blob)))
    assert summary["bits per sync op"] == "0.00"


def test_compressed_never_larger_than_raw_varints():
    # Compressed body stores only exception pairs, so it is bounded by the
    # cost of storing every stamp as a varint.
    trace = _sample_trace()
    body = len(trace.to_bytes())
    raw = len(MAGIC) + 32 + sum(len(encode_varint(s))
                                for ts in trace.stamps for s in ts) + 16
    assert body <= raw
