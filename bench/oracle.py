"""Reference answers the benchmark checks the library against.

Nothing here imports the library: cycle words, descents, statistics,
cyclicity and the expected claim sizes are all recomputed from their
definitions or from closed forms, so a defect in a shared helper of the
library cannot hide in the check that is meant to catch it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations


def word_to_images(word):
    """One-line images of the cyclic permutation a cycle word denotes."""
    n = len(word)
    img = [0] * n
    for p, v in enumerate(word):
        img[abs(v) - 1] = word[(p + 1) % n]
    return img


def random_cyclic_word(rnd, n):
    """Uniform cycle word (magnitude n last) from a random.Random."""
    mags = list(range(1, n))
    rnd.shuffle(mags)
    return [-v if rnd.getrandbits(1) else v for v in mags + [n]]


def random_signed(rnd, n):
    mags = list(range(1, n + 1))
    rnd.shuffle(mags)
    return [-v if rnd.getrandbits(1) else v for v in mags]


def is_signed_permutation(images, n):
    return len(images) == n and sorted(abs(v) for v in images) == list(range(1, n + 1))


def is_cyclic(images):
    """One cycle through every magnitude."""
    n = len(images)
    if not is_signed_permutation(images, n):
        return False
    a, steps = n, 0
    while True:
        a = abs(images[a - 1])
        steps += 1
        if a == n:
            return steps == n


def negatives(images):
    return sum(1 for v in images if v < 0)


def descent_flags(images, upto):
    """Descent flags at positions 0..upto-1, with s(0) = 0."""
    flags = []
    prev = 0
    for v in images[:upto]:
        flags.append(prev > v)
        prev = v
    return flags


def stat_tuple(images):
    """(des, maj, neg, fmaj) straight from the definitions."""
    des = maj = 0
    prev = 0
    for i, v in enumerate(images):
        if prev > v:
            des += 1
            maj += i
        prev = v
    neg = negatives(images)
    return des, maj, neg, 2 * maj + neg


def parse_one_line(text):
    """Images of a `[v1,...,vn]` line, or None when the text is not one."""
    m = re.fullmatch(r"\[(-?\d+(?:,-?\d+)*)\]", text.strip())
    return [int(v) for v in m.group(1).split(",")] if m else None


def one_line(images):
    return "[" + ",".join(str(v) for v in images) + "]"


# -- closed forms ----------------------------------------------------------

def size_B(n):
    return 2 ** n * math.factorial(n)


def size_CB(n):
    return 2 ** n * math.factorial(n - 1)


def size_CD(n):
    """Each parity class of cyclic degree n."""
    return 2 ** (n - 1) * math.factorial(n - 1)


def claim_checks(claim, **p):
    """Number of elements each claim checker must visit."""
    n = p.get("n")
    if claim == "phi-descents":
        return size_CB(n + 1)
    if claim in ("bijection-D", "bijection-Dbar"):
        return size_CD(n + 1)
    if claim == "inverses":
        # three left laws on B_n, two right laws per parity class, one on
        # the positive class
        return 3 * size_B(n) + 2 * size_CD(n + 1) + size_CD(n + 1)
    if claim == "stat-gaps":
        return sum(size_CB(k) for k in range(1, p["n_hi"] + 1))
    if claim == "corollary-counts":
        return size_B(n) + 2 * size_CD(n + 1)
    if claim == "elizalde-equivalence":
        return math.factorial(n)
    if claim == "colored":
        return 2 * math.factorial(n) * p["r"] ** (n + 1)
    if claim == "order-swap-properties":
        return p["count"]
    raise ValueError(claim)


def bn_fmaj_counts(n):
    """fmaj law on B_n from its generating function prod_{i<=n} [2i]_q."""
    poly = [1]
    for i in range(1, n + 1):
        out = [0] * (len(poly) + 2 * i - 1)
        for k, c in enumerate(poly):
            for j in range(2 * i):
                out[k + j] += c
        poly = out
    return {k: c for k, c in enumerate(poly) if c}


def cyclic_fmaj_counts(n):
    """fmaj law on the cyclic signed permutations of degree n, by brute
    force over cycle words."""
    counts = {}
    for mags in permutations(range(1, n)):
        for signs in range(1 << n):
            word = [-v if signs >> i & 1 else v for i, v in enumerate(mags)]
            word.append(-n if signs >> (n - 1) & 1 else n)
            f = stat_tuple(word_to_images(word))[3]
            counts[f] = counts.get(f, 0) + 1
    return counts


def fmaj_moments(n):
    """Closed-form (mean, variance) of fmaj: n^2/2 and (4n^3+6n^2-n)/36."""
    return Fraction(n * n, 2), Fraction(4 * n ** 3 + 6 * n ** 2 - n, 36)


def table_moments(counts):
    total = sum(counts.values())
    mean = Fraction(sum(k * c for k, c in counts.items()), total)
    return total, mean, Fraction(sum(k * k * c for k, c in counts.items()), total) - mean * mean
