"""Descent sets and the four statistics des, maj, neg, fmaj.

Descents use the type-B convention: position 0 counts as a descent exactly
when s(1) < 0, i.e. Des(s) = {i in {0,...,n-1} : s(i) > s(i+1)} with s(0)=0.
"""

from __future__ import annotations

from operator import index

from .permutations import Record, SignedPermutation, _ints


class DescentSet(Record):
    """Subset of {0,...,n-1} held as a bit mask (bit i set <=> i is a descent)."""

    __slots__ = ("n", "mask")

    def __init__(self, n, members=()):
        n = index(n)
        if n < 0:
            raise ValueError(f"negative degree {n}")
        try:
            mask = index(members)
        except TypeError:
            mask = 0
            for i in _ints(members, "member"):
                if i < 0 or i >= n:
                    raise ValueError(f"member {i} outside 0..{n - 1}")
                mask |= 1 << i
        if mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside 0..{n - 1}")
        Record.__init__(self, n, mask)

    @property
    def members(self):
        return frozenset(i for i in range(self.n) if self.mask >> i & 1)

    def __contains__(self, i):
        return 0 <= i < self.n and self.mask >> i & 1 == 1

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return bin(self.mask).count("1")

    def __repr__(self):
        return f"DescentSet({self.n}, {sorted(self.members)})"


class StatRecord(Record):
    __slots__ = ("des", "maj", "neg", "fmaj")

    def __init__(self, des: int, maj: int, neg: int, fmaj: int):
        Record.__init__(self, index(des), index(maj), index(neg), index(fmaj))


def _descent_mask(images):
    mask = 0
    prev = 0
    for i, v in enumerate(images):
        if prev > v:
            mask |= 1 << i
        prev = v
    return mask


def descent_set(sigma: SignedPermutation) -> DescentSet:
    return DescentSet(sigma.n, _descent_mask(sigma.images))


def _des_maj_neg(images):
    """(des, maj, neg) of a one-line image sequence in one pass."""
    des = maj = neg = 0
    prev = 0
    for i, v in enumerate(images):
        if prev > v:
            des += 1
            maj += i
        if v < 0:
            neg += 1
        prev = v
    return des, maj, neg


def stats(sigma: SignedPermutation) -> StatRecord:
    """des, maj, neg and fmaj = 2*maj + neg in one pass."""
    des, maj, neg = _des_maj_neg(sigma.images)
    return StatRecord(des=des, maj=maj, neg=neg, fmaj=2 * maj + neg)


def truncated_descent_set(pi: SignedPermutation, bound: int) -> DescentSet:
    """Des(pi) cut down to {0,...,bound-1} and re-homed at degree `bound`.

    `bound` must be one less than the degree of pi.
    """
    if bound != pi.n - 1:
        raise ValueError(f"bound {bound} does not match degree {pi.n} minus one")
    mask = _descent_mask(pi.images) & ((1 << bound) - 1)
    return DescentSet(bound, mask)
