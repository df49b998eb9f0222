"""Multilevel address-set bitmaps (9/9/14 split), the detector's per-segment
load and store sets.

Each set covers the full 32-bit space. The top 9 address bits index a
root directory, the next 9 bits a second-level table, and the low 14 bits
a bit inside a 16384-bit leaf. Tables are materialised only for
populated subtrees, so dense local access patterns cost a handful of
nodes instead of the 512 MB a flat bitmap would need.

Lookup tables are Python dicts rather than 512-slot arrays, and each leaf
is a Python int used as a 16384-bit set, which takes only as many bytes
as its highest member needs. Storage is still accounted as 2 KiB per
materialised node (root, table or leaf): the size of a 16384-bit leaf,
or of a 512-slot table of 32-bit entries.

Each set also keeps a signature, ``sig``: a 64-bit int with one bit set
per member, at ``((addr * 0x9E3779B1) & 0xFFFFFFFF) >> 26`` (the top six
bits of a Fibonacci hash), after the signatures of Bulk (Ceze et al.,
ISCA 2006). An address in two sets sets the same bit in both, so two sets
whose signatures share no bit share no address, and ``race_witnesses``
answers such a pair without walking a leaf. The signature is one word per
bitmap, outside the 2 KiB-per-node accounting.
"""

from __future__ import annotations

NODE_PAYLOAD = 2048  # modeled bytes per node (root, table, or leaf)

_ADDR_MASK = 0xFFFFFFFF
_SIG_MUL = 0x9E3779B1  # 2**32 / golden ratio, odd


class MultilevelBitmap:
    """Mutable address set; insert/contains/first_common over 32-bit words."""

    __slots__ = ("_root", "_count", "sig")

    def __init__(self):
        self._root = {}  # root index -> {mid index -> int leaf bitset}
        self._count = 0
        self.sig = 0  # one bit per member's hash; see the module docstring

    # -- mutation / lookup ----------------------------------------------------

    def insert(self, addr: int) -> None:
        if not 0 <= addr <= _ADDR_MASK:
            raise ValueError(f"address {addr:#x} outside 32-bit range")
        mid = self._root.setdefault(addr >> 23, {})
        m = (addr >> 14) & 0x1FF
        leaf = mid.get(m, 0)
        bit = 1 << (addr & 0x3FFF)
        if not leaf & bit:
            mid[m] = leaf | bit
            self._count += 1
            self.sig |= 1 << (((addr * _SIG_MUL) & _ADDR_MASK) >> 26)

    def contains(self, addr: int) -> bool:
        mid = self._root.get(addr >> 23)
        if mid is None:
            return False
        return bool(mid.get((addr >> 14) & 0x1FF, 0) >> (addr & 0x3FFF) & 1)

    __contains__ = contains

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    # -- set queries -----------------------------------------------------------

    def first_common(self, other: "MultilevelBitmap"):
        """Smallest address present in both sets, or None."""
        for r in sorted(self._root.keys() & other._root.keys()):
            mine, theirs = self._root[r], other._root[r]
            for m in sorted(mine.keys() & theirs.keys()):
                both = mine[m] & theirs[m]
                if both:
                    bit = (both & -both).bit_length() - 1
                    return (r << 23) | (m << 14) | bit
        return None

    def addresses(self):
        """All members in ascending order."""
        out = []
        for r in sorted(self._root):
            for m in sorted(self._root[r]):
                base = (r << 23) | (m << 14)
                word = self._root[r][m]
                while word:
                    low = word & -word
                    out.append(base | (low.bit_length() - 1))
                    word ^= low
        return out

    # -- storage accounting ------------------------------------------------------

    def node_counts(self):
        """(root tables, mid tables, leaf bitmaps) materialised so far."""
        return 1, len(self._root), sum(len(m) for m in self._root.values())

    def payload_bytes(self) -> int:
        roots, mids, leaves = self.node_counts()
        return NODE_PAYLOAD * (roots + mids + leaves)


def race_witnesses(loads_a, stores_a, loads_b, stores_b):
    """Addresses witnessing a conflict between two sides of accesses.

    Evaluates ((La ∪ Sa) ∩ Sb) ∪ ((Lb ∪ Sb) ∩ Sa) and returns the members
    ascending; an empty result means the two sides cannot race.

    Every witness is stored by one side, so only the leaves of the two
    store sets are walked: each is masked by the other side's loads and
    stores on the same leaf. Only leaves that hold a witness are sorted.

    Each store set is walked only when its signature meets that of the
    accesses it is masked by: ``Sa`` against ``Lb | Sb``, and ``Sb``
    against ``La`` alone, since ``Sb ∩ Sa`` is in the first term. Sets
    that share an address share its signature bit, so a skipped walk
    could have found nothing, and a pair whose signatures meet nowhere is
    answered ``[]`` in O(1).
    """
    sig_sa, sig_sb = stores_a.sig, stores_b.sig
    walk_a = sig_sa & (loads_b.sig | sig_sb)
    walk_b = sig_sb & loads_a.sig
    if not (walk_a or walk_b):
        return []
    sa, sb = stores_a._root, stores_b._root
    hits = {}  # (root << 9 | mid) -> witness bits on that leaf
    if walk_a:
        _store_hits(sa, loads_b._root, sb, hits)
    if walk_b:
        _store_hits(sb, loads_a._root, sa, hits)
    out = []
    for leaf in sorted(hits):
        word = hits[leaf]
        base = leaf << 14
        while word:
            low = word & -word
            out.append(base | (low.bit_length() - 1))
            word ^= low
    return out


def _store_hits(stores, loads_other, stores_other, hits):
    """Or into ``hits`` each leaf of ``stores`` masked by the other side's
    accesses on the same leaf."""
    for r, mids in stores.items():
        lo = loads_other.get(r, _NO_LEAVES)
        so = stores_other.get(r, _NO_LEAVES)
        if lo is _NO_LEAVES and so is _NO_LEAVES:
            continue
        for m, word in mids.items():
            word &= lo.get(m, 0) | so.get(m, 0)
            if word:
                leaf = r << 9 | m
                hits[leaf] = hits.get(leaf, 0) | word


_NO_LEAVES: dict = {}  # stands in for an absent second-level table; never written
