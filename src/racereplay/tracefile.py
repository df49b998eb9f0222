"""Per-thread timestamp traces and their compressed on-disk format.

A trace holds, for every thread, the strictly increasing scalar timestamps
of its synchronisation operations. Consecutive operations usually satisfy
``next == previous + 1``, so only exceptions to that prediction are
stored, as (ordinal, gap) pairs with the gap measured from the previous
timestamp. Integers are unsigned LEB128 varints.

File layout: magic ``ROLT1``; varint thread count; varint recording seed;
32-byte program digest; then per thread: varint thread id, varint sync-op
count, varint exception count, exception pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TraceFormatError

MAGIC = b"ROLT1"


def encode_varint(value: int) -> bytes:
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Returns (value, next position); raises TraceFormatError on truncation."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TraceFormatError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise TraceFormatError("varint too long")


def compress_stamps(stamps) -> list[tuple[int, int]]:
    """Exceptions to the previous+1 prediction as (ordinal, gap) pairs."""
    exceptions = []
    prev = 0
    for ordinal, ts in enumerate(stamps):
        gap = ts - prev
        if gap < 1:
            raise ValueError("timestamps must be strictly increasing")
        if gap != 1:
            exceptions.append((ordinal, gap))
        prev = ts
    return exceptions


def decompress_stamps(count: int, exceptions) -> list[int]:
    """Inverse of compress_stamps; validates monotonic reconstruction."""
    gaps = {}
    last = -1
    for ordinal, gap in exceptions:
        if ordinal <= last:
            raise TraceFormatError("exception ordinals must be increasing")
        if not 0 <= ordinal < count:
            raise TraceFormatError("exception ordinal out of range")
        if gap < 1:
            raise TraceFormatError("non-monotonic timestamp reconstruction")
        gaps[ordinal] = gap
        last = ordinal
    stamps = []
    prev = 0
    for ordinal in range(count):
        prev += gaps.get(ordinal, 1)
        stamps.append(prev)
    return stamps


@dataclass
class SyncTrace:
    """Recorded sync-op timestamps, one strictly increasing run per thread."""

    seed: int
    digest: bytes
    stamps: list  # stamps[tid] = [timestamp, ...]

    @property
    def n_threads(self) -> int:
        return len(self.stamps)

    @property
    def total_ops(self) -> int:
        return sum(len(s) for s in self.stamps)

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        out += encode_varint(self.n_threads)
        out += encode_varint(self.seed)
        if len(self.digest) != 32:
            raise ValueError("digest must be 32 bytes")
        out += self.digest
        for tid, stamps in enumerate(self.stamps):
            exceptions = compress_stamps(stamps)
            out += encode_varint(tid)
            out += encode_varint(len(stamps))
            out += encode_varint(len(exceptions))
            for ordinal, gap in exceptions:
                out += encode_varint(ordinal)
                out += encode_varint(gap)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, max_ops=None) -> "SyncTrace":
        """Decode a trace file's bytes.

        ``max_ops[tid]``, when given, caps each thread's sync-op count (a
        thread past the list gets 0); a larger claim is rejected before any
        list of stamps is built, so a short file cannot ask for unbounded
        memory.
        """
        if data[:5] != MAGIC:
            raise TraceFormatError("bad magic (not a trace file)")
        pos = 5
        n_threads, pos = decode_varint(data, pos)
        seed, pos = decode_varint(data, pos)
        if seed > 0xFFFFFFFFFFFFFFFF:
            raise TraceFormatError("seed exceeds 64 bits")
        if pos + 32 > len(data):
            raise TraceFormatError("truncated digest")
        digest = data[pos:pos + 32]
        pos += 32
        stamps = []
        for expect_tid in range(n_threads):
            tid, pos = decode_varint(data, pos)
            if tid != expect_tid:
                raise TraceFormatError(f"thread sections out of order at {tid}")
            count, pos = decode_varint(data, pos)
            if max_ops is not None:
                cap = max_ops[tid] if tid < len(max_ops) else 0
                if count > cap:
                    raise TraceFormatError(
                        f"thread {tid} claims {count} sync ops; "
                        f"the program has at most {cap}")
            n_exc, pos = decode_varint(data, pos)
            exceptions = []
            for _ in range(n_exc):
                ordinal, pos = decode_varint(data, pos)
                gap, pos = decode_varint(data, pos)
                exceptions.append((ordinal, gap))
            stamps.append(decompress_stamps(count, exceptions))
        if pos != len(data):
            raise TraceFormatError("trailing bytes after trace body")
        return cls(seed=seed, digest=digest, stamps=stamps)

    def write(self, path: str) -> int:
        blob = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(blob)
        return len(blob)

    @classmethod
    def read(cls, path: str, max_ops=None) -> "SyncTrace":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), max_ops)
