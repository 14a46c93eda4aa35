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

iterate() is every family's one decoder: unrank() and sample() take the
first element it yields from an index, and rank() is its inverse.  The
elements of a signed or plain family are rows: the cycle word (s1 b1, ...,
s_{n-1} b_{n-1}, s_n n) of a cyclic family, and the one-line images of the
others.  Index = (lex rank of the magnitudes) * 2^bits + (sign code), where
bit i of the code negates row entry i, the cyclic rank covering only the
first n-1 magnitudes.  A parity family spends one fewer sign bit and gives
its last entry the sign that fixes the parity of the negative count.
iterate_words() is that row stream.  CSnr encodes (CS cycle-word rank) *
r^f + (color code), the code's base-r digits being the first f colors,
lowest first: all n, or n-1 when a color filter fixes the last one.

The lex rank of k magnitudes is their Lehmer code read in the factorial
number system (Knuth, TAOCP vol. 2, 3.3.2): the digit of position i counts
the later entries smaller than entry i, and has radix k - i.  Consecutive
radices are grouped into runs whose product stays below 2^30, one CPython
digit, and the run products into a product tree.  unrank splits the index
down the tree into one part per run, one divmod per node, and rank folds
the parts back up it, one multiply per node: divide-and-conquer radix
conversion (Brent and Zimmermann, Modern Computer Arithmetic, 1.7).  At
degree 1001 the 313 runs make a tree of depth 9, where peeling the runs off
one at a time would take 312 linear passes over the whole number.  rank
builds the code right to left, counting each entry's smaller later entries
in a bitset; unrank pops each digit's entry from a pool.  A row stream
unranks its first magnitudes only and steps to the lex successor.

Randomness comes from a counter-based generator, Philox4x64-10 (Salmon et
al., SC 2011), keyed by (worker_id << 64) | seed, each an integer below
2^64: fixed (seed, worker) pairs give reproducible streams, distinct pairs
distinct ones.  make_rng draws it through numpy; IntPhilox computes the
same raw words in Python integers, a batch of blocks per packed integer,
each batch sized to the draw.  The scalar sampler draws a uniform index by
rejection on raw 64-bit words from either source and unranks it; from an
integer seed it reads IntPhilox, so a scalar draw loads no numpy.  The
batch sampler vectorizes cycle words straight into statistic values for
large degrees.  Its stream is that of numpy's row-wise shuffle and of
numpy's bounded integer draws, and it makes exactly those draws more
cheaply: it shuffles pointer-sized rows, numpy's fast case, and reads each
sign bit from a raw word where numpy's bounded draw on a range of two would
read it.  A drawing thread shuffles the next chunk of rows while the caller
turns the chunk before into values, and it hands a chunk over as its
shuffled blocks, of at most 2^16 entries each, which the caller frees one
by one; it makes a block only while fewer than a chunk and a block are
alive, so that is the most alive however the threads are scheduled.
"""

from __future__ import annotations

import math
import operator
import os
from functools import lru_cache
from operator import index, mul
from typing import TYPE_CHECKING

from .catalog import KINDS
from .cycles import _images_to_word, _word_to_images
from .permutations import Record, SignedPermutation

if TYPE_CHECKING:
    import numpy as np

BUDGET_LIMIT = 2 ** 32
SAMPLE_CHUNK = 4096
# entries per block of the batch sampler (see _block_rows): at degree 800
# a block's 0.4 MB intp rows and its temporaries stay small beside a chunk,
# and at degree 50 a chunk is 4 blocks, not 16
BLOCK_ENTRIES = 1 << 16
# the streams tabulate at most 2^10 low sign or color codes, so that their
# memory stays bounded whatever the number of sign bits or colors
LOW_SIGN_BITS = 10
# a sweep of fewer rows, weighed by cost (see _over_range), runs in-process.
# A split costs about 3 ms, so in a warm process two parts of the descent
# sweep already win at 2048 rows (11 against 15 ms), and a cold `cycdes
# verify --claim phi-descents --n 5` (7680 rows) is about even (best of 7,
# 223 against 232 ms).  The bound stays higher because below it a split
# saves a few ms at most, while on a host with no free core it loses, and
# because that command's report, which reads threads=1, stays as it was
SERIAL_ROWS = 1 << 14


class BudgetError(RuntimeError):
    """Raised when an exhaustive walk would exceed the element budget."""


class DomainSpec(Record):
    __slots__ = ("kind", "n", "r", "color_filter")

    def __init__(self, kind: str, n: int, r: int | None = None,
                 color_filter: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown domain kind {kind!r}")
        # a numpy integer would carry its fixed width into the cardinality
        n = index(n)
        r = None if r is None else index(r)
        color_filter = None if color_filter is None else index(color_filter)
        low = 0 if kind in ("B", "S") else 1
        if n < low:
            raise ValueError(f"{kind} needs degree >= {low}")
        if kind == "CSnr":
            if r is None or r < 1:
                raise ValueError("CSnr needs a color count r >= 1")
            if color_filter is not None and not 0 <= color_filter < r:
                raise ValueError(f"color filter must lie in 0..{r - 1}")
        elif r is not None or color_filter is not None:
            raise ValueError(f"{kind} takes no color parameters")
        Record.__init__(self, kind, n, r, color_filter)

    def __str__(self):
        if self.kind == "CSnr":
            tail = f",r={self.r}"
            if self.color_filter is not None:
                tail += f",color={self.color_filter}"
            return f"CSnr(n={self.n}{tail})"
        return f"{self.kind}(n={self.n})"


# Each signed or plain family once: (cyclic, signed, parity of the negative
# count or None).  A parity family has n-1 sign bits, other signed ones n.
_FAMILIES = {
    "B": (False, True, None),
    "D": (False, True, 0),
    "CB": (True, True, None),
    "CD": (True, True, 0),
    "CDbar": (True, True, 1),
    "S": (False, False, None),
    "CS": (True, False, None),
}


def _layout(d: DomainSpec):
    """(cyclic, sign bits, parity) of a signed or plain family."""
    cyclic, signed, parity = _FAMILIES[d.kind]
    return cyclic, (d.n - (parity is not None) if signed else 0), parity


# sample and unrank check every index against the cardinality, and at
# degree 1001 math.factorial(1000) alone takes about 40 us
_factorial = lru_cache(maxsize=64)(math.factorial)


def cardinality(d: DomainSpec) -> int:
    if d.kind == "CSnr":
        free = d.n if d.color_filter is None else d.n - 1
        return d.r ** free * _factorial(d.n - 1)
    cyclic, bits, _ = _layout(d)
    return _factorial(d.n - cyclic) << bits


# -- permutation ranking in lexicographic order ----------------------------

# a run's radix product stays below one CPython digit, so that the digits
# of a run are split off and summed on one-digit numbers
_DIGIT = 1 << 30


@lru_cache(maxsize=64)
def _radix_runs(k):
    """Radices k, k-1, ..., 2 of the factorial number system, cut into runs
    whose product stays below _DIGIT, and the product tree of the runs.

    Returns (runs, levels).  runs holds each run's place values, top run
    first, each run's from its highest radix down: radix m of a run
    starting at radix r has place value r * (r + 1) * ... * (m - 1).  The
    tree pairs the run products level by level from the bottom run up, an
    odd one out rising unpaired; levels[j] holds, for each pair of level j
    (the leaves are level 0), the product of its lower member."""
    runs = []
    prods = []
    r = 2
    while r <= k:
        places = [1]
        m = r  # the next radix to join the run
        while m <= k and places[-1] * m < _DIGIT:
            places.append(places[-1] * m)
            m += 1
        prods.append(places.pop())
        runs.append(tuple(reversed(places)))
        r = m
    levels = []
    while len(prods) > 1:
        paired = len(prods) & ~1
        levels.append(tuple(prods[:paired:2]))
        prods = [a * b for a, b in zip(prods[::2], prods[1::2])] + prods[paired:]
    return tuple(reversed(runs)), tuple(levels)


def _perm_unrank(q, items):
    """q-th permutation (lex) of the sorted sequence items.

    The Lehmer code of the result is q in the factorial number system.  q
    is split into one part per radix run down the product tree, one divmod
    per pair, so that no step divides a long number by a short one; then
    each run, from the top down, yields its digits from the high end, and
    each digit pops its entry from the pool."""
    pool = list(items)
    runs, levels = _radix_runs(len(pool))
    parts = [q]  # low part first
    for lows in reversed(levels):
        split = []
        for q, p in zip(parts, lows):
            hi, lo = divmod(q, p)
            split += lo, hi
        parts = split + parts[len(lows):]
    out = []
    for places, q in zip(runs, reversed(parts)):
        for w in places:
            c, q = divmod(q, w)
            out.append(pool.pop(c))
    return out + pool


def _perm_rank(seq):
    """Lex rank of seq among permutations of its sorted elements, which may
    be any distinct nonnegative integers.

    Builds the Lehmer code right to left: an entry's digit counts the bits
    below it in a bitset of the entries after it.  Each run's digits are
    summed against its place values, and the run parts fold up the product
    tree, one multiply per pair."""
    later = 0
    code = []
    for v in reversed(seq):
        bit = 1 << v
        code.append((later & (bit - 1)).bit_count())
        later |= bit
    code.reverse()
    runs, levels = _radix_runs(len(code))
    digits = iter(code)
    # places comes first, so map stops without taking a digit too many
    parts = [sum(map(mul, places, digits)) for places in runs]
    parts.reverse()  # low part first
    for lows in levels:
        pairs = zip(parts[::2], parts[1::2], lows)
        parts = [hi * p + lo for lo, hi, p in pairs] + parts[2 * len(lows):]
    return parts[0] if parts else 0


def _next_perm(a):
    """Step the list a in place to its lex successor, which must exist."""
    i = len(a) - 2
    while a[i] > a[i + 1]:
        i -= 1
    j = len(a) - 1
    while a[j] < a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = a[:i:-1]


def _shown(x):
    """x in decimal, or as about 2^k past Python's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"about 2^{round(math.log2(x))}"


def _checked_range(d: DomainSpec, start, stop, allow_big):
    """Validate an unrank range and apply the BUDGET_LIMIT refusal;
    returns (start, stop) as ints, stop resolved."""
    total = cardinality(d)
    # a numpy integer bound would carry its fixed width into the rows
    start = index(start)
    stop = total if stop is None else index(stop)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{_shown(start)},{_shown(stop)}) for {d}")
    if stop - start > BUDGET_LIMIT and not allow_big:
        raise BudgetError(
            f"{d} range holds {_shown(stop - start)} elements, over the "
            f"{BUDGET_LIMIT} budget; pass allow_big to proceed")
    return start, stop


def _cores():
    """The number of cores this process may run on; one where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _over_range(fn, start, stop, *args, cost=1, processes=None):
    """[fn(lo, hi, *args) for each part [lo, hi) of [start, stop)], the
    parts consecutive and in rank order.

    processes sets the number of parts.  By default a range is one part
    unless its rows, weighed by cost (the time of one of fn's rows over
    that of one row of the descent sweep), reach SERIAL_ROWS; then it gets
    one part per usable core.  This process runs the first part itself,
    while one forked child per other part runs it and sends back its
    pickled result, or the exception it raised, through a pipe.  The
    results are read in rank order and a child's exception is re-raised
    here.  On every exit path each pipe is closed before each child is
    reaped, so a child still writing gets a broken pipe and none is left
    running.  The children see this process's state as it was, patches
    included; the fork copies no live thread, since the library joins
    every thread it starts.
    """
    if processes is None:
        processes = _cores() if (stop - start) * cost >= SERIAL_ROWS else 1
    if processes == 1:
        return [fn(start, stop, *args)]
    import pickle

    cuts = [start + (stop - start) * k // processes for k in range(processes + 1)]
    pids, ends = [], []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            ends.append(r)
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:
                _send_part(w, ends, fn, lo, hi, args)
            os.close(w)
            pids.append(pid)
        out = [fn(start, cuts[1], *args)]
        for r, lo, hi in zip(ends, cuts[1:], cuts[2:]):
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            if not data:
                raise ChildProcessError(f"the worker of rows [{lo}, {hi}) sent no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out.append(value)
        return out
    finally:
        for r in ends:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _send_part(w, ends, fn, lo, hi, args):
    """In a forked child of _over_range: write the pickled (True, fn(lo,
    hi, *args)), or (False, the exception it raised), to the pipe end w,
    then leave at once, without unwinding into the parent's frames or
    running its exit handlers."""
    try:
        for r in ends:
            os.close(r)
        try:
            out = True, fn(lo, hi, *args)
        except BaseException as e:  # re-raised by the parent
            out = False, e
        import pickle

        data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as f:
            f.write(data)
    finally:
        os._exit(0)


def _sign_table(row, k, parity):
    """The first k entries of row under every sign code c < 2^k, in code
    order (bit i of c negates entry i), with the parity of each code's bit
    count when a parity family needs it; built by doubling."""
    rows = [()]
    pars = [0]
    for v in row[:k]:
        rows = [t + (v,) for t in rows] + [t + (-v,) for t in rows]
        if parity is not None:
            pars += [p ^ 1 for p in pars]
    return rows, pars


def iterate_words(d: DomainSpec, start=0, stop=None):
    """Rows of a signed or plain family in index order, as tuples (see the
    module docstring): the raw stream that exhaustive verification and the
    exact tables read, and that iterate() turns into elements."""
    if d.kind not in _FAMILIES:
        raise ValueError(f"{d.kind} has no row stream")
    return _rows(d, *_checked_range(d, start, stop, allow_big=True))


def _rows(d: DomainSpec, start, stop):
    """iterate_words on a checked range.

    The magnitudes are unranked once, at the start, and stepped to their
    lex successor at each new block.  Within one block the rows are built
    from a table of the low sign bits (at most LOW_SIGN_BITS of them, and no
    more than the range needs), each table row joined to the signed high
    entries of its group.
    """
    cyclic, bits, parity = _layout(d)
    n = d.n
    block = 1 << bits
    q, s = start >> bits, start & (block - 1)
    remaining = stop - start
    if not remaining:
        return
    k = min(bits, LOW_SIGN_BITS, (remaining - 1).bit_length())
    size = 1 << k
    mags = _perm_unrank(q, range(1, n + 1 - cyclic))
    while True:
        row = mags + [n] if cyclic else mags
        high, tail = row[k:bits], tuple(row[bits:])
        low, pars = _sign_table(row, k, parity)
        end = min(block, s + remaining)
        # one group per value h of the high sign bits
        for h in range(s >> k, ((end - 1) >> k) + 1):
            if h:
                # bit i of h negates high[i]; read from a string, not by one
                # big-integer shift per entry
                code = f"{h:0{len(high)}b}"[::-1]
                hi = tuple([-v if c == "1" else v for v, c in zip(high, code)])
            else:
                hi = tuple(high)
            a = max(s - (h << k), 0)
            b = min(end - (h << k), size)
            if parity is None:
                rest = hi + tail
                yield from [t + rest for t in low[a:b]]
            else:
                # the last entry's sign fixes the parity of the negative count
                last = tail[0]
                rest = (hi + (last,), hi + (-last,))
                if (h.bit_count() ^ parity) & 1:
                    rest = rest[::-1]
                yield from [t + rest[p] for t, p in zip(low[a:b], pars[a:b])]
        remaining -= end - s
        if not remaining:
            return
        s = 0
        _next_perm(mags)


def unrank(d: DomainSpec, index: int):
    """The element at index: the first element iterate yields from it."""
    i = operator.index(index)
    if not 0 <= i < cardinality(d):
        raise ValueError(f"index {_shown(i)} out of range for {d}")
    return next(iterate(d, True, i, i + 1))


def rank(d: DomainSpec, element) -> int:
    """Inverse of unrank; raises ValueError for an element outside d."""
    n = d.n
    if d.kind == "CSnr":
        from .colored import ColoredPermutation, color_of

        if (not isinstance(element, ColoredPermutation)
                or (element.n, element.r) != (n, d.r)
                or d.color_filter not in (None, color_of(element))):
            raise ValueError(f"{element} is not an element of {d}")
        free = n if d.color_filter is None else n - 1
        c = 0
        for digit in reversed(element.tau[:free]):
            c = c * d.r + digit
        q = rank(DomainSpec("CS", n), SignedPermutation(element.omega))
        return q * d.r ** free + c
    if not isinstance(element, SignedPermutation) or element.n != n:
        raise ValueError(f"{element} is not an element of {d}")
    cyclic, bits, parity = _layout(d)
    row = _images_to_word(element.images) if cyclic else element.images
    signs = "".join("1" if v < 0 else "0" for v in reversed(row[:bits]))
    code = int(signs or "0", 2)
    negs = sum(v < 0 for v in row)
    # no negative entry past the sign bits, or the family's parity
    if (negs != code.bit_count()) if parity is None else (negs % 2 != parity):
        raise ValueError(f"{element} is not an element of {d}")
    return _perm_rank([abs(v) for v in row[:n - cyclic]]) << bits | code


def _image_rows(d: DomainSpec, start=0, stop=None, allow_big=False):
    """One-line images of a signed or plain family's elements, in unrank
    order, after the range and budget checks."""
    rows = _rows(d, *_checked_range(d, start, stop, allow_big))
    return map(_word_to_images, rows) if _layout(d)[0] else rows


def iterate(d: DomainSpec, allow_big: bool = False, start=0, stop=None):
    """The elements with index in [start, stop), stop defaulting to the end,
    in index order; refuses more than BUDGET_LIMIT of them unless allow_big
    is set.  A shard of a domain is such a range."""
    if d.kind != "CSnr":
        yield from map(SignedPermutation._trusted, _image_rows(d, start, stop, allow_big))
        return
    from .colored import ColoredPermutation

    make = ColoredPermutation._trusted
    # each cycle word once, then its color codes, tau[0] varying fastest: the
    # low digits from a table of at most 2^LOW_SIGN_BITS codes, the high ones
    # decoded once, then stepped per table pass (Algorithm M, TAOCP 7.2.1.1)
    n, r, fix = d.n, d.r, d.color_filter
    start, stop = _checked_range(d, start, stop, allow_big)
    remaining = stop - start
    free = n if fix is None else n - 1
    block = r ** free
    low = [()]
    while len(low) < min(remaining, block) and len(low) * r <= 1 << LOW_SIGN_BITS:
        low = [t + (c,) for c in range(r) for t in low]
    q, s = divmod(start, block)
    h, s = divmod(s, len(low))
    high = []
    for _ in range(free - len(low[0])):
        h, digit = divmod(h, r)
        high.append(digit)
    for w in _rows(DomainSpec("CS", n), q, -(-stop // block)):
        omega = tuple(_word_to_images(w))
        while True:
            hi = tuple(high)
            taus = [t + hi for t in low[s:s + remaining]]
            if fix is not None:
                taus = [tau + ((fix - sum(tau)) % r,) for tau in taus]
            yield from [make(n, r, omega, tau) for tau in taus]
            remaining -= len(taus)
            if not remaining:
                return
            s = i = 0
            while i < len(high) and high[i] == r - 1:
                i += 1
            high[:i] = [0] * i
            if i == len(high):
                break  # every high digit wrapped: on to the next cycle word
            high[i] += 1


# -- random sampling -------------------------------------------------------

_MASK64 = (1 << 64) - 1
# Philox4x64-10 (Salmon et al., SC 2011): the round multipliers and the
# key's Weyl increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _philox_key(seed, worker):
    """The Philox key (worker << 64) | seed of two integers in 0..2^64-1."""
    seed, worker = index(seed), index(worker)
    if not (0 <= seed < 1 << 64 and 0 <= worker < 1 << 64):
        raise ValueError("seed and worker must lie in 0..2^64-1")
    return worker << 64 | seed


def make_rng(seed: int, worker: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (worker << 64) | seed, both below 2^64."""
    key = _philox_key(seed, worker)
    import numpy as np

    return np.random.Generator(np.random.Philox(key=key))


# IntPhilox runs up to _LANES blocks at once, one packed integer per limb:
# lane j of a packed integer is its bits 128 j .. 128 j + 127, which hold a
# limb and its product by a round multiplier, and block b of a batch of L
# blocks sits in lane L - 1 - b, so the packed limbs print in stream order
_LANES = 128
_REP = int.from_bytes((b"\0" * 15 + b"\1") * _LANES, "big")  # 1 in each lane
_RAMP = int.from_bytes(b"".join(b.to_bytes(16, "big") for b in range(_LANES)),
                       "big")  # b in block b's lane
_LO = _MASK64 * _REP  # each lane's low limb
# a draw that still needs fewer blocks than this is short: its batch also
# covers as many blocks as the stream has made, which later draws will read
_SHORT_DRAW = 16


class IntPhilox:
    """The raw words of make_rng(seed, worker), computed in Python integers.

    raw_bytes(k) is the next k words, eight bytes each, most significant
    first: make_rng(seed, worker).bit_generator.random_raw(k) as big-endian
    bytes.  A block of four words is ten rounds on a 256-bit counter's
    64-bit limbs, lowest first, keyed by (k0, k1) = (seed, worker): a round
    maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)) and then adds the Weyl increments to
    the key, mod 2^64.  As in numpy, the counter steps before each block
    and wraps at 2^256.

    The rounds run on a batch of blocks at once, one lane each, so each
    multiply, shift and mask is one big-integer operation over all of them.
    A batch covers what a draw still needs, up to _LANES.  For a short draw,
    one that needs fewer than _SHORT_DRAW blocks, it is also at least as
    many blocks as the stream has made: a stream of short draws doubles its
    blocks at each batch and soon runs at the widest batch's cost per
    block.  A long draw's batch is already near that cost, and a retry of it
    may never come, so each try of a degree-1001 index (37.25 blocks)
    computes the 37 or 38 blocks it reads.  The round keys are packed for
    a batch's lane count when it changes.  On a 2-vCPU
    VM (CPython 3.11, numpy 2.4) in a quiet spell, which host load can
    double, construction took 3 us, and a batch of 1, 8, 38 and 128 blocks
    8, 1.2, 0.75 and 0.6 us a block.  A one-word index took 1.6 us against
    3.3 us through numpy.  The first degree-1001 index of a stream, 149
    words in 38 blocks, took 51 us, about a quarter of it packing the keys,
    against 17-18 us through a new numpy Generator.  Every scalar draw of
    the library reads this stream, which loads no numpy (85-90 ms in a
    cold process); only the batch sampler draws through make_rng."""

    __slots__ = ("_round_keys", "_keys", "_lanes", "_made", "_counter", "_buf", "_at")

    def __init__(self, seed: int, worker: int = 0):
        key = _philox_key(seed, worker)
        k0, k1 = key & _MASK64, key >> 64
        w0, w1 = _PHILOX_W
        # each round's key, and each packed in every lane of the last batch
        self._round_keys = [((k0 + i * w0) & _MASK64, (k1 + i * w1) & _MASK64)
                            for i in range(10)]
        self._keys = ()
        self._lanes = self._made = 0
        # the last block's counter, and the bytes made but not yet read
        self._counter = 0
        self._buf = b""
        self._at = 0

    def _batch(self, lanes):
        """The bytes of the next `lanes` blocks."""
        # the constants' low lanes, and the ramp's high ones
        cut = (1 << 128 * lanes) - 1
        rep, lo, ramp = _REP & cut, _LO & cut, _RAMP >> 128 * (_LANES - lanes)
        if lanes != self._lanes:
            self._lanes = lanes
            self._keys = [(k0 * rep, k1 * rep) for k0, k1 in self._round_keys]
        start = self._counter + 1
        self._counter = (self._counter + lanes) % (1 << 256)
        # each lane's counter, a limb at a time from the lowest: a lane's
        # bit 64 is its carry into the next limb, and the carry out of the
        # top limb is the wrap at 2^256
        v = (start & _MASK64) * rep + ramp
        c = [v & lo]
        for s in (64, 128, 192):
            v = (start >> s & _MASK64) * rep + (v >> 64 & lo)
            c.append(v & lo)
        c0, c1, c2, c3 = c
        m0, m1 = _PHILOX_M
        for k0, k1 in self._keys:
            p0, p1 = c0 * m0, c2 * m1
            # c1 and c3 hold whole products; the mask after the xor cuts them
            c0, c1, c2, c3 = ((p1 >> 64 ^ c1) & lo ^ k0, p1,
                              (p0 >> 64 ^ c3) & lo ^ k1, p0)
        # each block's words (c0, c1) and (c2, c3), interleaved as 8-byte
        # items, whose byte order the copy keeps
        out = bytearray(32 * lanes)
        items = memoryview(out).cast("Q")
        for i, pair in ((0, c0 << 64 | c1 & lo), (2, c2 << 64 | c3 & lo)):
            half = memoryview(pair.to_bytes(16 * lanes, "big")).cast("Q")
            items[i::4], items[i + 1::4] = half[::2], half[1::2]
        return bytes(out)

    def raw_bytes(self, k: int) -> bytes:
        if k < 0:  # refused as numpy's random_raw refuses it
            raise ValueError("negative dimensions are not allowed")
        end = self._at + 8 * k
        while end > len(self._buf):
            # the blocks the draw still needs, and for a short draw at least
            # the blocks made so far
            need = -(-(end - len(self._buf)) // 32)
            lanes = min(_LANES, need if need >= _SHORT_DRAW else max(need, self._made))
            self._made += lanes
            self._buf = self._buf[self._at:] + self._batch(lanes)
            end -= self._at
            self._at = 0
        out = self._buf[self._at:end]
        self._at = end
        return out


def _uniform_index(rng, k):
    """Uniform integer in [0, k) by rejection on bit-blocks.

    Each try reads the block's raw 64-bit words in one call, most
    significant first.  A raw word is what a full-range 64-bit integers()
    draw returns, so the stream is that of one such draw per word.  rng is
    a Generator or an IntPhilox; both give the same words, so the same
    index."""
    if k <= 1:
        return 0
    bits = (k - 1).bit_length()
    words = (bits + 63) // 64
    mask = (1 << bits) - 1
    if isinstance(rng, IntPhilox):
        def block():
            return rng.raw_bytes(words)
    else:
        def block():
            return rng.bit_generator.random_raw(words).astype(">u8").tobytes()
    while True:
        v = int.from_bytes(block(), "big") & mask
        if v < k:
            return v


def _sign_bits(rng, m):
    """m fair bits as a bool array, equal to
    rng.integers(0, 2, size=m, dtype=np.int64) and leaving rng in the same
    state.

    On a range of two, numpy's bounded draw (Lemire's method) keeps the top
    bit of one 32-bit draw and never rejects.  A 32-bit draw is the low half
    of a raw 64-bit word, then its high half, which waits in the state's
    has_uint32/uinteger until the next 32-bit draw; so a pending half comes
    first, and an odd count leaves the last word's high half pending."""
    import numpy as np

    bg = rng.bit_generator
    out = np.empty(m, dtype=bool)
    if not m:
        return out
    state = bg.state
    pending = state["has_uint32"]
    if pending:
        out[0] = state["uinteger"] >> 31
    fresh = m - pending
    # read as little-endian halves, a word is (low, high) on any machine
    halves = bg.random_raw((fresh + 1) // 2).astype("<u8", copy=False).view("<u4")
    np.greater_equal(halves[:fresh], 1 << 31, out=out[pending:])
    state = bg.state
    state["has_uint32"] = fresh & 1
    if fresh:
        state["uinteger"] = int(halves[-1])
    bg.state = state
    return out


def _skip_sign_bits(rng, m):
    """Leave rng in the state _sign_bits(rng, m) leaves it in, in O(1).

    Philox makes its raw words four at a time, one block per step of a
    256-bit counter, so skipping words only moves the counter: the state
    needs just the block that holds the last skipped word, made by moving
    the counter one step short of it (advance, which wraps mod 2^256 and
    drops the buffered block) and drawing the block."""
    if not m:
        return
    bg = rng.bit_generator
    state = bg.state
    fresh = m - state["has_uint32"]
    if fresh:
        # t: the last skipped word's index, counted from the buffered
        # block's first word
        t = state["buffer_pos"] + (fresh + 1) // 2 - 1
        if t >= 4:
            bg.advance(t // 4 - 1)
            bg.random_raw(4)
            state = bg.state
            t %= 4
        state["buffer_pos"] = t + 1
        state["uinteger"] = int(state["buffer"][t]) >> 32
    state["has_uint32"] = fresh & 1
    bg.state = state


def sample(d: DomainSpec, rng) -> object:
    """One exactly uniform element.  rng is a Generator, an IntPhilox, or an
    integer seed, which draws from IntPhilox(seed): the words of
    make_rng(seed), so the same element, without loading numpy.  At degree
    1001 a seed's first index costs about 35 us more that way than through
    make_rng once numpy is loaded, which takes 85-90 ms (see IntPhilox)."""
    if not isinstance(rng, IntPhilox) and not hasattr(rng, "bit_generator"):
        try:
            seed = index(rng)
        except TypeError:
            raise TypeError("sample takes an integer seed or a generator, not "
                            f"{type(rng).__name__}") from None
        rng = IntPhilox(seed)
    i = _uniform_index(rng, cardinality(d))
    return next(iterate(d, True, i, i + 1))


def _block_rows(n):
    """Rows per block of the batch sampler at degree n: the largest power of
    two whose rows fit BLOCK_ENTRIES entries, at least 1 and at most
    SAMPLE_CHUNK."""
    return min(1 << (max(BLOCK_ENTRIES // n, 1).bit_length() - 1), SAMPLE_CHUNK)


def sample_stat_batch(d: DomainSpec, stat: str, count: int, seed: int,
                      worker: int = 0) -> np.ndarray:
    """Statistic values of `count` uniform elements of a cyclic signed
    domain, vectorized for large degree.

    Draws cycle words chunk by chunk: a permuted magnitude row, independent
    sign bits, and for the parity-constrained domains the final sign flipped
    to the required parity (an involution on the unconstrained words, so
    uniformity is preserved).  The stream depends only on (seed, worker).

    A chunk of c rows draws exactly what rng.permuted(rows, axis=1) on its
    c magnitude rows and then rng.integers(0, 2, size=(c, n)) would draw,
    more cheaply: the shuffle runs on blocks of intp rows in order, which is
    one such call split up, and _sign_bits reads the signs from raw
    generator words, a block at a time, which is one such draw split up.
    A block is _block_rows(n) rows, the most rows within BLOCK_ENTRIES
    entries: 64 rows at n = 800, 256 at n = 200 and 1024 at n = 50.  So at
    large degree the drawer's intp block and the caller's block
    temporaries stay small beside the chunk of rows the stream holds, and
    at small degree a chunk is a few blocks, not many tiny ones.  A drawing
    thread shuffles the chunks in order while the caller turns the chunk
    before into values.  It hands over each chunk as its shuffled blocks,
    each its own int16 array, with the generator's state at the chunk's
    signs, and steps its own generator
    past them by counter arithmetic (_skip_sign_bits).  The caller sets its
    own generator to that state, draws each block's signs just before the
    block turns into values, and then drops the block.  The drawer makes a
    block only while fewer than a chunk and a block are made and not yet
    dropped, so at most that many are alive whatever the thread timing.
    The drawer's shuffles take most of the time (about 1.3 of 1.4 s per
    100k rows at n = 800), so the caller keeps ahead and the drawer does
    not wait: three chunks of CD(800) fmaj trace a peak of 7.5 MiB, and no
    more with the caller slowed by 4 ms a block, against 10.5 MiB with
    blocks of 256 rows and 16.7 MiB when the caller held each whole chunk
    of rows.  Each generator state is used by one thread only, so the
    stream does not depend on the threads or on the block size.
    """
    import threading

    import numpy as np

    if d.kind not in ("CB", "CD", "CDbar"):
        raise ValueError(f"batch sampling covers the cyclic signed domains, not {d.kind}")
    if stat not in ("des", "maj", "neg", "fmaj"):
        raise ValueError(f"unknown statistic {stat!r}")
    # a numpy integer count would reach the generator's advance in its
    # fixed width
    count = index(count)
    if count < 0:
        raise ValueError(f"bad sample count {count}")
    n = d.n
    parity = _FAMILIES[d.kind][2]
    rng = make_rng(seed, worker)
    # the caller's own generator, set to each chunk's sign state in turn;
    # only the drawing thread uses rng
    signs = make_rng(seed, worker)
    block = _block_rows(n)
    # entries lie in [-n, n] and flat slice indices below block * n, so the
    # degree picks the narrowest types that hold them
    dt, flat = (np.int16, np.int32) if n < 1 << 15 else (np.int32, np.int64)
    mags = np.arange(1, n, dtype=np.intp)

    def draw(c):
        # numpy's shuffle is fastest on pointer-sized items, and shuffling
        # the rows block by block, in order, makes the draws of one call;
        # each block is its own array, so the caller can free it on its own.
        # None when the caller has stopped
        blocks = []
        buf = np.empty((min(block, c), n - 1), dtype=np.intp)
        for r in range(0, c, block):
            room.acquire()
            if cancel:
                return None
            blk = buf[:min(block, c - r)]
            blk[...] = mags
            rng.permuted(blk, axis=1, out=blk)
            w = np.empty((len(blk), n), dtype=dt)
            w[:, : n - 1] = blk
            w[:, n - 1] = n
            blocks.append(w)
        # then the chunk's c * n signs, which the caller draws from the
        # state they start in while this generator steps past them
        start = rng.bit_generator.state
        _skip_sign_bits(rng, c * n)
        return blocks, start

    # one drawing thread shuffles the chunks in order, each handed over in
    # `box`.  It makes a block only while fewer than a chunk and a block are
    # made and not yet dropped by the caller, which releases `room` for
    # each block it drops; so however the threads run, at most a chunk and
    # a block are alive, and a caller that keeps ahead never makes the
    # drawer wait.  An error is handed over in place of the chunk, and
    # `cancel` stops the drawer when the caller leaves
    box, cancel = [], []
    ready = threading.Semaphore(0)
    room = threading.Semaphore(-(-SAMPLE_CHUNK // block) + 1)

    def work():
        for done in range(0, count, SAMPLE_CHUNK):
            try:
                got = draw(min(SAMPLE_CHUNK, count - done))
            except BaseException as e:  # re-raised by the caller
                got = e
            if got is None:
                return
            box.append(got)
            ready.release()
            if isinstance(got, BaseException):
                return

    out = np.empty(count, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    # flat index of each row's entry 0, less one for the 1-based magnitudes
    row_start = np.arange(-1, block * n - 1, n, dtype=flat)[:, None]
    drawer = threading.Thread(target=work)
    drawer.start()
    try:
        for done in range(0, count, SAMPLE_CHUNK):
            ready.acquire()
            got = box.pop(0)
            if isinstance(got, BaseException):
                raise got
            blocks, start = got
            signs.bit_generator.state = start
            # blocks small enough that their temporaries stay in cache, each
            # dropped from the list as it is taken, so it is freed once it
            # has turned into values; _sign_bits on consecutive blocks draws
            # what one call on the whole chunk would
            for r in range(done, min(done + SAMPLE_CHUNK, count), block):
                w = blocks.pop(0)
                s = len(w)
                neg = _sign_bits(signs, s * n).reshape(s, n)
                if parity is not None:
                    odd = np.count_nonzero(neg[:, : n - 1], axis=1) & 1
                    neg[:, n - 1] = odd != parity
                # the flat slot, in pol, of the magnitude of each entry j < n-1
                slot = w[:, : n - 1] + row_start[:s]
                # a masked np.negative runs about 20 times slower than this product
                w *= 1 - 2 * neg.view(np.int8)
                # the image of |w[j]| is w[j+1]: entry j < n-1 sends its
                # magnitude, at `slot`, to w[j+1], and the last entry, of
                # magnitude n, to w[0]
                pol = np.empty((s, n), dtype=dt)
                pol.reshape(-1)[slot] = w[:, 1:]
                pol[:, n - 1] = w[:, 0]
                # a descent at 0 is a negative first image
                flags = np.empty((s, n), dtype=bool)
                np.less(pol[:, 0], 0, out=flags[:, 0])
                np.greater(pol[:, : n - 1], pol[:, 1:], out=flags[:, 1:])
                if stat == "des":
                    vals = np.count_nonzero(flags, axis=1)
                elif stat == "neg":
                    vals = np.count_nonzero(pol < 0, axis=1)
                else:
                    vals = np.einsum("ij,j->i", flags, positions)
                    if stat == "fmaj":
                        vals = 2 * vals + np.count_nonzero(pol < 0, axis=1)
                out[r:r + s] = vals
                del w
                room.release()
    finally:
        cancel.append(True)
        room.release()
        drawer.join()
    return out
