"""Cycle notation for signed permutations.

A cycle (e1*a1, ..., el*al) with signs e_i and distinct magnitudes a_i
represents the assignments s(a_i) = e_{i+1}*a_{i+1}, indices mod l.  The
canonical notation rotates each cycle so its largest entry (compared as a
signed integer) comes first and lists cycles by increasing first entry.
"""

from __future__ import annotations

from operator import index

from .permutations import Record, SignedPermutation, _ints


class SignedCycle(Record):
    """One cycle: a nonempty tuple of nonzero entries with distinct magnitudes."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = _ints(entries, "entry")
        if not entries:
            raise ValueError("empty cycle")
        mags = set()
        for v in entries:
            if v == 0:
                raise ValueError("zero entry in cycle")
            if abs(v) in mags:
                raise ValueError(f"magnitude {abs(v)} repeated in cycle {entries}")
            mags.add(abs(v))
        Record.__init__(self, entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"SignedCycle({list(self.entries)})"

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.entries) + ")"


class CycleNotation(Record):
    """An ordered list of cycles whose magnitudes cover 1..n exactly once."""

    __slots__ = ("n", "cycles")

    def __init__(self, n, cycles):
        n = index(n)
        cycles = tuple(c if isinstance(c, SignedCycle) else SignedCycle(c) for c in cycles)
        seen = [False] * (n + 1)
        count = 0
        for c in cycles:
            for v in c.entries:
                a = abs(v)
                if a > n:
                    raise ValueError(f"magnitude {a} exceeds degree {n}")
                if seen[a]:
                    raise ValueError(f"magnitude {a} appears twice")
                seen[a] = True
                count += 1
        if count != n:
            raise ValueError(f"cycles cover {count} magnitudes, expected {n}")
        Record.__init__(self, n, cycles)

    def __iter__(self):
        return iter(self.cycles)

    def __repr__(self):
        return f"CycleNotation({self.n}, {[list(c.entries) for c in self.cycles]})"

    def __str__(self):
        return "".join(str(c) for c in self.cycles)


def _orbit(images, a):
    """The cycle of magnitude a under one-line images as a word: the entries
    met walking from a, ending at +-a."""
    w = []
    m = a
    while True:
        v = images[m - 1]
        w.append(v)
        m = -v if v < 0 else v
        if m == a:
            return w


def _canonical_cycles(images):
    """Cycles of a one-line image sequence as plain lists, each rotated so
    its largest entry comes first, sorted by first entry."""
    n = len(images)
    visited = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if visited[start]:
            continue
        c = _orbit(images, start)
        for v in c:
            visited[abs(v)] = True
        big = c.index(max(c))
        cycles.append(c[big:] + c[:big])
    cycles.sort(key=lambda c: c[0])
    return cycles


def to_canonical_cycles(sigma: SignedPermutation) -> CycleNotation:
    """Decompose into cycles, largest entry first in each, first entries increasing."""
    return CycleNotation(sigma.n, _canonical_cycles(sigma.images))


def _word_to_images(w):
    """One-line images of the permutation a full cycle word denotes: each
    entry maps to the next one, the last entry to the first."""
    img = [0] * len(w)
    a = w[-1] if w else 0
    for v in w:
        img[abs(a) - 1] = v
        a = v
    return img


def _images_to_word(images):
    """Cycle word of a cyclic permutation's one-line images, with the
    magnitude-n entry last."""
    n = len(images)
    if n < 1:
        raise ValueError("need degree >= 1")
    w = _orbit(images, n)
    if len(w) != n:
        raise ValueError(f"[{','.join(map(str, images))}] is not cyclic")
    return w


def from_cycles(c: CycleNotation) -> SignedPermutation:
    """Rebuild the signed permutation that the cycle notation represents."""
    images = [0] * c.n
    for cyc in c.cycles:
        ent = cyc.entries
        l = len(ent)
        for i in range(l):
            images[abs(ent[i]) - 1] = ent[(i + 1) % l]
    return SignedPermutation(images)


def is_cyclic(sigma: SignedPermutation) -> bool:
    """True when the cycle notation is a single cycle of length n (n >= 1)."""
    n = sigma.n
    if n < 1:
        raise ValueError("cyclicity needs degree >= 1")
    return len(_orbit(sigma.images, n)) == n
