"""Enumeration domains: exhaustive iterators, ranking, and uniform samplers.

Eight families are supported, named by short tags:

  B      signed permutations of degree n
  D      signed permutations with an even number of negative images
  CB     cyclic signed permutations
  CD     cyclic with even negative count
  CDbar  cyclic with odd negative count
  S      plain permutations (all images positive)
  CS     cyclic plain permutations
  CSnr   cyclic colored permutations, optionally restricted to one total color

Every domain has a bijective integer encoding.  Signed families use
(permutation lex rank) * 2^k + (sign bits); cyclic families encode the cycle
word (s1 b1, ..., s_{n-1} b_{n-1}, s_n n) whose magnitude-n entry is written
last, which makes the rotation canonical.  The parity-constrained families
spend one fewer sign bit and recover the final sign from the parity of the
rest.  iterate() yields elements in unrank order.

Randomness comes from a counter-based generator (Philox) keyed by
(worker_id << 64) | seed, so fixed (seed, worker) pairs give bit-reproducible
streams and distinct workers are independent.  The scalar sampler draws a
uniform index by rejection and unranks it; the batch sampler vectorizes cycle
words straight into statistic values for large degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .colored import ColoredPermutation
from .cycles import _images_to_word, _word_to_images
from .permutations import SignedPermutation

KINDS = ("B", "D", "CB", "CD", "CDbar", "S", "CS", "CSnr")
BUDGET_LIMIT = 2 ** 32
SAMPLE_CHUNK = 4096


class BudgetError(RuntimeError):
    """Raised when an exhaustive walk would exceed the element budget."""


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    n: int
    r: int | None = None
    color_filter: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        low = 0 if self.kind in ("B", "S") else 1
        if self.n < low:
            raise ValueError(f"{self.kind} needs degree >= {low}")
        if self.kind == "CSnr":
            if self.r is None or self.r < 1:
                raise ValueError("CSnr needs a color count r >= 1")
            if self.color_filter is not None and not 0 <= self.color_filter < self.r:
                raise ValueError(f"color filter must lie in 0..{self.r - 1}")
        elif self.r is not None or self.color_filter is not None:
            raise ValueError(f"{self.kind} takes no color parameters")

    def __str__(self):
        if self.kind == "CSnr":
            tail = f",r={self.r}"
            if self.color_filter is not None:
                tail += f",color={self.color_filter}"
            return f"CSnr(n={self.n}{tail})"
        return f"{self.kind}(n={self.n})"


def cardinality(d: DomainSpec) -> int:
    n = d.n
    if d.kind == "B":
        return 2 ** n * math.factorial(n)
    if d.kind == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if d.kind == "CB":
        return 2 ** n * math.factorial(n - 1)
    if d.kind in ("CD", "CDbar"):
        return 2 ** (n - 1) * math.factorial(n - 1)
    if d.kind == "S":
        return math.factorial(n)
    if d.kind == "CS":
        return math.factorial(n - 1)
    free = n if d.color_filter is None else n - 1
    return d.r ** free * math.factorial(n - 1)


# -- permutation ranking in lexicographic order ----------------------------

def _perm_unrank(q, items):
    """q-th permutation (lex) of the sorted sequence items."""
    pool = list(items)
    k = len(pool)
    out = []
    f = math.factorial(k)
    for i in range(k, 0, -1):
        f //= i
        idx, q = divmod(q, f)
        out.append(pool.pop(idx))
    return out


def _perm_rank(seq):
    """Lex rank of seq among permutations of its sorted elements."""
    pool = sorted(seq)
    k = len(pool)
    f = math.factorial(k)
    q = 0
    for i in range(k, 0, -1):
        f //= i
        idx = pool.index(seq[k - i])
        q += idx * f
        pool.pop(idx)
    return q


def unrank(d: DomainSpec, index: int):
    if not 0 <= index < cardinality(d):
        raise ValueError(f"index {index} out of range for {d}")
    n = d.n
    if d.kind == "B":
        q, s = divmod(index, 2 ** n)
        b = _perm_unrank(q, range(1, n + 1))
        return SignedPermutation(
            [-v if s >> i & 1 else v for i, v in enumerate(b)])
    if d.kind == "D":
        q, s = divmod(index, 2 ** (n - 1))
        b = _perm_unrank(q, range(1, n + 1))
        img = [-v if s >> i & 1 else v for i, v in enumerate(b[:-1])]
        img.append(-b[-1] if s.bit_count() % 2 else b[-1])
        return SignedPermutation(img)
    if d.kind in ("CB", "CD", "CDbar"):
        return SignedPermutation(_word_to_images(_unrank_word(d, index)))
    if d.kind == "S":
        return SignedPermutation(_perm_unrank(index, range(1, n + 1)))
    if d.kind == "CS":
        b = _perm_unrank(index, range(1, n))
        return SignedPermutation(_word_to_images(b + [n]))
    # CSnr
    free = n if d.color_filter is None else n - 1
    q, c = divmod(index, d.r ** free)
    b = _perm_unrank(q, range(1, n))
    img = _word_to_images(b + [n])
    tau = []
    for _ in range(free):
        c, digit = divmod(c, d.r)
        tau.append(digit)
    if d.color_filter is not None:
        tau.append((d.color_filter - sum(tau)) % d.r)
    return ColoredPermutation(n, d.r, tuple(img), tuple(tau))


def _unrank_word(d: DomainSpec, index):
    """Cycle word for the cyclic signed domains: the one iterate_words
    yields at `index`, so both follow one sign rule."""
    return list(next(iterate_words(d, index, index + 1)))


def rank(d: DomainSpec, element) -> int:
    """Inverse of unrank; implemented for the B and CB encodings."""
    n = d.n
    if d.kind == "B":
        if element.n != n:
            raise ValueError("degree mismatch")
        b = [abs(v) for v in element.images]
        s = 0
        for i, v in enumerate(element.images):
            if v < 0:
                s |= 1 << i
        return _perm_rank(b) * 2 ** n + s
    if d.kind == "CB":
        w = _images_to_word(element)
        s = 0
        for i, v in enumerate(w):
            if v < 0:
                s |= 1 << i
        return _perm_rank([abs(v) for v in w[:-1]]) * 2 ** n + s
    raise ValueError(f"rank is not implemented for {d.kind}")


def iterate_words(d: DomainSpec, start=0, stop=None):
    """Cycle words of a cyclic signed domain in unrank order, as tuples.

    The raw-word stream is what exhaustive verification consumes; iterate()
    wraps the same stream in permutation objects.
    """
    if d.kind not in ("CB", "CD", "CDbar"):
        raise ValueError(f"{d.kind} has no cycle-word stream")
    n = d.n
    if stop is None:
        stop = cardinality(d)
    sign_bits = n if d.kind == "CB" else n - 1
    block = 2 ** sign_bits
    q, s = divmod(start, block)
    remaining = stop - start
    if remaining <= 0:
        return
    base = _perm_unrank(q, range(1, n))
    while remaining > 0:
        for code in range(s, block):
            w = [-v if code >> i & 1 else v for i, v in enumerate(base)]
            if d.kind == "CB":
                w.append(-n if code >> (n - 1) & 1 else n)
            elif d.kind == "CD":
                w.append(-n if code.bit_count() % 2 else n)
            else:
                w.append(n if code.bit_count() % 2 else -n)
            yield tuple(w)
            remaining -= 1
            if remaining == 0:
                return
        s = 0
        q += 1
        base = _perm_unrank(q, range(1, n))


def iterate(d: DomainSpec, allow_big: bool = False, start=0, stop=None):
    """Stream every element exactly once, in unrank order.

    Refuses domains beyond BUDGET_LIMIT elements unless allow_big is set;
    start/stop restrict to an unrank index range for sharding.
    """
    total = cardinality(d)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start},{stop}) for {d}")
    if stop - start > BUDGET_LIMIT and not allow_big:
        raise BudgetError(
            f"{d} range holds {stop - start} elements, over the "
            f"{BUDGET_LIMIT} budget; pass allow_big to proceed")
    if d.kind in ("CB", "CD", "CDbar"):
        for w in iterate_words(d, start, stop):
            yield SignedPermutation(_word_to_images(w))
        return
    for i in range(start, stop):
        yield unrank(d, i)


# -- random sampling -------------------------------------------------------

def make_rng(seed: int, worker: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (worker << 64) | seed."""
    if seed < 0 or worker < 0:
        raise ValueError("seed and worker must be nonnegative")
    return np.random.Generator(np.random.Philox(key=(worker << 64) | seed))


def _uniform_index(rng, k):
    """Uniform integer in [0, k) by rejection on bit-blocks."""
    if k <= 1:
        return 0
    bits = (k - 1).bit_length()
    words = (bits + 63) // 64
    mask = (1 << bits) - 1
    while True:
        v = 0
        for _ in range(words):
            v = v << 64 | int(rng.integers(0, 1 << 64, dtype=np.uint64))
        v &= mask
        if v < k:
            return v


def sample(d: DomainSpec, rng) -> object:
    """One exactly uniform element.  rng is a Generator or an integer seed."""
    if isinstance(rng, (int, np.integer)):
        rng = make_rng(int(rng))
    return unrank(d, _uniform_index(rng, cardinality(d)))


def sample_stat_batch(d: DomainSpec, stat: str, count: int, seed: int,
                      worker: int = 0) -> np.ndarray:
    """Statistic values of `count` uniform elements of a cyclic signed
    domain, vectorized for large degree.

    Draws cycle words chunk by chunk: a permuted magnitude row, independent
    sign bits, and for the parity-constrained domains the final sign flipped
    to the required parity (an involution on the unconstrained words, so
    uniformity is preserved).  The stream depends only on (seed, worker).
    """
    if d.kind not in ("CB", "CD", "CDbar"):
        raise ValueError(f"batch sampling covers the cyclic signed domains, not {d.kind}")
    if stat not in ("des", "maj", "neg", "fmaj"):
        raise ValueError(f"unknown statistic {stat!r}")
    n = d.n
    rng = make_rng(seed, worker)
    out = np.empty(count, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    base = np.tile(np.arange(1, n, dtype=np.int64), (SAMPLE_CHUNK, 1))
    done = 0
    while done < count:
        c = min(SAMPLE_CHUNK, count - done)
        b = rng.permuted(base[:c], axis=1)
        signs = 1 - 2 * rng.integers(0, 2, size=(c, n), dtype=np.int64)
        if d.kind != "CB":
            odd = (signs[:, : n - 1] < 0).sum(axis=1) % 2
            if d.kind == "CD":
                signs[:, n - 1] = 1 - 2 * odd
            else:
                signs[:, n - 1] = 2 * odd - 1
        w = np.empty((c, n), dtype=np.int64)
        w[:, : n - 1] = b
        w[:, n - 1] = n
        w *= signs
        pol = np.empty_like(w)
        np.put_along_axis(pol, np.abs(w) - 1, np.roll(w, -1, axis=1), axis=1)
        prev = np.hstack([np.zeros((c, 1), dtype=np.int64), pol[:, : n - 1]])
        flags = prev > pol
        if stat == "des":
            vals = flags.sum(axis=1)
        elif stat == "maj":
            vals = flags @ positions
        elif stat == "neg":
            vals = (pol < 0).sum(axis=1)
        else:
            vals = 2 * (flags @ positions) + (pol < 0).sum(axis=1)
        out[done:done + c] = vals
        done += c
    return out
