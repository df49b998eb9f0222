"""Multilevel bitmap against reference sets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racereplay
from racereplay import bitmap


@pytest.fixture(params=[racereplay.bitmap_backend])
def impl(request):
    """The bitmap module. Parametrised once, by ``bitmap_backend``, so the
    case ids stay ``name[py]``."""
    return bitmap


def filled(impl, addresses):
    bm = impl.MultilevelBitmap()
    for a in addresses:
        bm.insert(a)
    return bm


def test_zero_address(impl):
    bm = filled(impl, [0x00000000])
    assert bm.contains(0)
    assert bm.node_counts() == (1, 1, 1)
    assert bm.addresses() == [0]


def test_max_address(impl):
    # 0xFFFFFFFF splits to root 511, mid 511, leaf bit 16383 under 9/9/14.
    bm = filled(impl, [0xFFFFFFFF])
    assert bm.contains(0xFFFFFFFF)
    assert not bm.contains(0xFFFFFFFE)
    assert bm.addresses() == [0xFFFFFFFF]


def test_level_split_arithmetic(impl):
    # Independently derived: 0x00804001 = bits {23, 14, 0}, so it shares no
    # mid table with 0x00800000 (root 1, mid 0) and no leaf with 0x00804000.
    bm = filled(impl, [0x00804001])
    assert bm.contains(0x00804001)
    for near in (0x00804000, 0x00804002, 0x00800001, 0x00004001):
        assert not bm.contains(near)
    assert bm.node_counts() == (1, 1, 1)
    bm.insert(0x00800000)  # same root, different mid
    assert bm.node_counts() == (1, 1, 2)
    bm.insert(0x00004001)  # different root
    assert bm.node_counts() == (1, 2, 3)


def test_insert_idempotent(impl):
    bm = impl.MultilevelBitmap()
    for _ in range(5):
        bm.insert(0x1234)
    assert len(bm) == 1


def test_out_of_range_rejected(impl):
    bm = impl.MultilevelBitmap()
    with pytest.raises(ValueError):
        bm.insert(1 << 32)
    with pytest.raises(ValueError):
        bm.insert(-1)


def test_fresh_bitmap_contains_nothing(impl):
    bm = impl.MultilevelBitmap()
    assert not bm.contains(0)
    assert not bm.contains(0x5000)
    assert bm.is_empty()
    assert bm.first_common(impl.MultilevelBitmap()) is None


def test_membership_against_reference_set(impl):
    rng = random.Random(20260101)
    reference = set()
    bm = impl.MultilevelBitmap()
    for _ in range(100_000):
        a = rng.getrandbits(32)
        reference.add(a)
        bm.insert(a)
    assert len(bm) == len(reference)
    for a in list(reference)[:2000]:
        assert bm.contains(a)
    misses = 0
    for _ in range(2000):
        a = rng.getrandbits(32)
        assert bm.contains(a) == (a in reference)
        misses += a not in reference
    assert misses  # the probe actually exercised negatives
    assert bm.addresses() == sorted(reference)


def test_first_common_matches_reference(impl):
    rng = random.Random(7)
    xs = {rng.getrandbits(32) for _ in range(10_000)}
    ys = {rng.getrandbits(32) for _ in range(10_000)}
    ys |= set(list(xs)[:50])  # guarantee overlap
    bx, by = filled(impl, xs), filled(impl, ys)
    assert bx.first_common(by) == min(xs & ys)
    assert by.first_common(bx) == min(xs & ys)


def test_first_common_disjoint(impl):
    bx = filled(impl, [0x100])
    by = filled(impl, [0x104])
    assert bx.first_common(by) is None
    assert filled(impl, [0x100]).first_common(filled(impl, [0x100])) == 0x100


def test_race_witnesses_forced_cases(impl):
    empty = impl.MultilevelBitmap()
    # store vs load on the same address races
    assert impl.race_witnesses(empty, filled(impl, [0x100]),
                               filled(impl, [0x100]), empty) == [0x100]
    # read-read does not
    assert impl.race_witnesses(filled(impl, [0x100]), empty,
                               filled(impl, [0x100]), empty) == []
    leaf, root = 1 << 14, 1 << 23  # the next leaf of a root, the next root
    cases = [
        # one address, racing through each term of the signature reject:
        # a's store against b's load (and, swapped, b's store against a's
        # load), and a store on both sides
        (set(), {0xABCDEF}, {0xABCDEF}, set(), [0xABCDEF]),
        (set(), {0xABCDEF}, set(), {0xABCDEF}, [0xABCDEF]),
        # both sides load-only: no store set, so no witness
        ({0x100, leaf, root}, set(), {0x100, leaf, root}, set(), []),
        # one side store-only against nothing, and against loads
        (set(), {0x100, root}, set(), set(), []),
        (set(), {0x100, leaf + 4, root}, {0x100, root, 2 * root}, set(),
         [0x100, root]),
        # both sides store-only: write-write on the shared address
        (set(), {0x100, root}, set(), {0x104, root}, [root]),
        # witnesses on three leaves of one root, from both sides' stores;
        # 3 * leaf is loaded and stored by the same side only
        ({0x10, leaf + 0x10}, {2 * leaf + 8},
         {2 * leaf + 8, 3 * leaf}, {0x10, leaf + 0x10, 3 * leaf},
         [0x10, leaf + 0x10, 2 * leaf + 8]),
        # witnesses on four roots, up to the last one
        ({root + 1}, {0x20, 3 * root + 5, 511 * root + 7},
         {0x20, 511 * root + 7}, {root + 1, 3 * root + 5, 2 * root},
         [0x20, root + 1, 3 * root + 5, 511 * root + 7]),
    ]
    for la, sa, lb, sb, expected in cases:
        assert _reference_witnesses(la, sa, lb, sb) == expected
        bitmaps = [filled(impl, s) for s in (la, sa, lb, sb)]
        assert impl.race_witnesses(*bitmaps) == expected
        assert impl.race_witnesses(*bitmaps[2:], *bitmaps[:2]) == expected


def _reference_witnesses(la, sa, lb, sb):
    return sorted(((la | sa) & sb) | ((lb | sb) & sa))


def test_race_witnesses_against_brute_force(impl):
    rng = random.Random(99)
    # Addresses over many roots, and over four leaves of one root, where
    # witnesses share leaves.
    pools = ([rng.getrandbits(32) for _ in range(600)],
             [0x40000000 + rng.randrange(4 << 14) for _ in range(600)])
    for pool in pools:
        for trial in range(40):
            sizes = [rng.randrange(1, 120) for _ in range(4)]
            if trial % 4 == 1:  # both sides load-only
                sizes[1] = sizes[3] = 0
            elif trial % 4 == 2:  # side a store-only
                sizes[0] = 0
            elif trial % 4 == 3:  # side b stores nothing, side a only stores
                sizes[0] = sizes[3] = 0
            sets = [set(rng.choices(pool, k=k)) for k in sizes]
            la, sa, lb, sb = sets
            got = impl.race_witnesses(filled(impl, la), filled(impl, sa),
                                      filled(impl, lb), filled(impl, sb))
            assert got == _reference_witnesses(la, sa, lb, sb)


def test_race_witnesses_symmetric(impl):
    rng = random.Random(5)
    pool = list(range(0x1000, 0x1100, 4))
    for _ in range(30):
        sets = [filled(impl, rng.choices(pool, k=12)) for _ in range(4)]
        la, sa, lb, sb = sets
        assert (impl.race_witnesses(la, sa, lb, sb)
                == impl.race_witnesses(lb, sb, la, sa))


def test_node_accounting_dense_region(impl):
    # 10k addresses inside one 16 KiB-aligned span touch exactly one
    # mid table and one leaf.
    base = 0x40000000  # 16 KiB aligned (low 14 bits clear)
    rng = random.Random(3)
    bm = impl.MultilevelBitmap()
    for _ in range(10_000):
        bm.insert(base + rng.randrange(1 << 14))
    assert bm.node_counts() == (1, 1, 1)
    assert bm.payload_bytes() == 2048 * 3


def test_payload_grows_per_node(impl):
    bm = impl.MultilevelBitmap()
    assert bm.node_counts() == (1, 0, 0)
    bm.insert(0)
    one = bm.payload_bytes()
    bm.insert(1 << 14)  # same root, new leaf
    assert bm.payload_bytes() == one + 2048
    bm.insert(1 << 23)  # new mid and leaf
    assert bm.payload_bytes() == one + 3 * 2048


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=200))
def test_roundtrip_property(addresses):
    bm = filled(bitmap, addresses)
    assert bm.addresses() == sorted(addresses)
    assert len(bm) == len(addresses)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=0xFFFF), max_size=60),
       st.sets(st.integers(min_value=0, max_value=0xFFFF), max_size=60))
def test_first_common_property(xs, ys):
    expected = min(xs & ys) if xs & ys else None
    assert filled(bitmap, xs).first_common(filled(bitmap, ys)) == expected


# -- signatures -----------------------------------------------------------------


def _sig_bit(addr):
    """The signature bit the module docstring gives for ``addr``."""
    return ((addr * 0x9E3779B1) & 0xFFFFFFFF) >> 26


def test_signature_sets_one_hashed_bit_per_member():
    addrs = [0, 1, 0x1234, 1 << 14, 1 << 23, 0xFFFFFFFF]
    bm = filled(bitmap, addrs)
    expected = 0
    for a in addrs:
        expected |= 1 << _sig_bit(a)
    assert bm.sig == expected
    bm.insert(0x1234)  # a member again changes nothing
    assert bm.sig == expected
    assert bitmap.MultilevelBitmap().sig == 0


def _by_signature_bit(addresses):
    out = {}
    for a in addresses:
        out.setdefault(_sig_bit(a), []).append(a)
    return out


_rng = random.Random(64)
# Addresses grouped by the signature bit they set: many in one leaf, where
# the leaf walk does the work, and others spread over the 32-bit space.
_IN_LEAF = _by_signature_bit(range(0x40000000, 0x40004000, 7))
_SPREAD = _by_signature_bit(_rng.getrandbits(32) for _ in range(4000))


def _pool(bits, start, stop):
    return sorted(a for bit in bits for group in (_IN_LEAF, _SPREAD)
                  for a in group[bit][start:stop])


# (side a's pool, side b's pool): the same few signature bits for both
# sides with addresses shared; the same bits with no address shared; and
# disjoint bits.
_POOL_PAIRS = (
    (_pool(range(6), 0, 8), _pool(range(6), 0, 8)),
    (_pool(range(6), 0, 4), _pool(range(6), 4, 8)),
    (_pool(range(32), 0, 2), _pool(range(32, 64), 0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_race_witnesses_under_colliding_signatures(data):
    which = data.draw(st.sampled_from(range(len(_POOL_PAIRS))))
    pool_a, pool_b = _POOL_PAIRS[which]
    la, sa = (data.draw(st.sets(st.sampled_from(pool_a), max_size=12))
              for _ in range(2))
    lb, sb = (data.draw(st.sets(st.sampled_from(pool_b), max_size=12))
              for _ in range(2))
    expected = _reference_witnesses(la, sa, lb, sb)
    if which:
        assert expected == []  # the pools share no address
    bitmaps = [filled(bitmap, s) for s in (la, sa, lb, sb)]
    assert bitmap.race_witnesses(*bitmaps) == expected
    assert bitmap.race_witnesses(*bitmaps[2:], *bitmaps[:2]) == expected


def test_disjoint_signatures_walk_no_leaf(monkeypatch):
    walks = [0]
    real = bitmap._store_hits

    def counted(*args):
        walks[0] += 1
        return real(*args)

    monkeypatch.setattr(bitmap, "_store_hits", counted)
    # Every address in one leaf, so only the signatures tell the sides
    # apart: bits 0-31 for side a, bits 32-63 for side b.
    low = [a for bit in range(32) for a in _IN_LEAF[bit][:3]]
    high = [a for bit in range(32, 64) for a in _IN_LEAF[bit][:3]]
    la, sa = filled(bitmap, low[::2]), filled(bitmap, low[1::2])
    lb, sb = filled(bitmap, high[::2]), filled(bitmap, high[1::2])
    assert bitmap.race_witnesses(la, sa, lb, sb) == []
    assert bitmap.race_witnesses(lb, sb, la, sa) == []
    assert walks[0] == 0
    # Same bits, other addresses: the leaves are walked, and find nothing.
    near = [a for bit in range(32) for a in _IN_LEAF[bit][3:6]]
    lc, sc = filled(bitmap, near[::2]), filled(bitmap, near[1::2])
    assert bitmap.race_witnesses(la, sa, lc, sc) == []
    assert walks[0] > 0
