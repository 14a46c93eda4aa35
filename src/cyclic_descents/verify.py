"""Desk-scale checkers for every headline claim of the library.

Each checker exhaustively sweeps (or, where stated, randomly samples) its
domain and returns a ClaimResult; nothing is asserted so callers decide how
to report.  Each claim keys every failure by its rank or visit index and
reports the MAX_REPORTED failures of smallest key, in key order.  The
claims other than colored, and the exact tables behind the count and
moment claims, run through domains._over_range.  It splits a sweep whose
rows, weighed by their cost against a descent row, reach SERIAL_ROWS over
this process, which checks the first part, and one forked child per other
usable core; the order-swap claim draws every word first and splits the
list.  The costs are the measured times of a row at the benchmark's sizes
over that of a descent row: 2 for a bijection row, 6 and 4 for a left and
a right inverse row, 1.5 for a gap row, 5 for an Elizalde row and 27 for
an instrumented run at degree 10.  Each part keeps its first failures through _note and the parent
merges them through _note, so the processes never change what a claim
reports.  Only the descent sweep can also be sharded by unrank range, or
told its number of processes.
The classic, colored and lab modules are imported by the claims that use
them, when they run.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, product

from .cycles import _word_to_images
from .domains import (DomainSpec, _over_range, _sign_pairs, _uniform_index,
                      cardinality, iterate_words, make_rng, rank)
from .permutations import SignedPermutation
from .statistics import _des_maj_neg, _descent_mask
from .transfer import (TransferTrace, _capital_phi_pair, _capital_phi_word,
                       _capital_psi_word, _phi_fixup, _phi_plus_word,
                       _psi_plus_word)

MAX_REPORTED = 5


@dataclass
class ClaimResult:
    claim: str
    params: dict
    passed: bool
    checked: int
    elapsed: float
    details: str = ""
    failures: list = field(default_factory=list)

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        msg = f" - {self.details}" if self.details else ""
        return f"[{mark}] {self.claim}({ps}): {self.checked} checks in {self.elapsed:.2f}s{msg}"


def _note(bad, key, item):
    """Keep in bad the MAX_REPORTED (key, item) pairs of smallest key, so a
    sweep in any order reports the same first failures as a sweep in key
    order."""
    if len(bad) < MAX_REPORTED or key < bad[-1][0]:
        insort(bad, (key, item), key=lambda kv: kv[0])
        del bad[MAX_REPORTED:]


def _result(claim, params, t0, checked, bad, details="", ok=True):
    """The result of a run started at t0 that kept its failures in bad
    through _note; it passes when ok holds and nothing failed."""
    return ClaimResult(claim, params, ok and not bad, checked,
                       time.perf_counter() - t0, details, [x for _, x in bad])


def _merged(parts):
    """The (count, bad) results of consecutive parts of one sweep as one
    count and one list of the first failures of smallest key."""
    bad = []
    for _, b in parts:
        for key, item in b:
            _note(bad, key, item)
    return sum(c for c, _ in parts), bad


def _descents_range(start, stop, N):
    """Worker for the descent-preservation sweep over one unrank range;
    returns the count and the (rank, word) pairs of the first bad words."""
    cap = (1 << (N - 1)) - 1
    bad = []
    count = 0
    # a part's edge may split a +- pair; each half is then checked alone,
    # through the same rewriting of the positive word as a pair
    for i, w, partner in _sign_pairs(N, start, stop):
        pos = w if w[-1] > 0 else tuple(-v for v in w)
        # the input mask comes from the row itself, never from the map
        m = _descent_mask(_word_to_images(pos)) & cap
        _, res, neg = _capital_phi_pair(pos)
        if w[-1] > 0:
            if m != _descent_mask(res):
                _note(bad, i, w)
            count += 1
        if w[-1] < 0 or partner is not None:
            # negating every entry complements the input's descent set
            if m ^ cap != _descent_mask(neg):
                _note(bad, i if partner is None else partner, tuple(-v for v in pos))
            count += 1
    return count, bad


def check_phi_descents(n, shard=None, threads=None) -> ClaimResult:
    """Descents at 0..n-1 agree between each cyclic permutation of degree
    n+1 and its image in B_n; exhaustive over the (sharded) domain, on
    `threads` processes, by default as many as domains._over_range picks."""
    t0 = time.perf_counter()
    if threads is not None and threads < 1:
        raise ValueError(f"bad thread count {threads}")
    N = n + 1
    total = cardinality(DomainSpec("CB", N))
    if shard is None:
        lo, hi = 0, total
    else:
        i, t = shard
        if not 0 <= i < t:
            raise ValueError(f"bad shard {i}/{t}")
        lo, hi = total * i // t, total * (i + 1) // t
    parts = _over_range(_descents_range, lo, hi, N, processes=threads)
    checked, bad = _merged(parts)
    return _result("phi-descents", {"n": n, "shard": shard, "threads": len(parts)},
                   t0, checked, bad,
                   f"first bad words {[w for _, w in bad]}" if bad else "")


def _images_part(start, stop, kind, N):
    """Worker for the bijection claims over one unrank range.

    Returns the (rank, rank) pairs of the first repeated images within the
    range, the number of repeats, the distinct images as one byte string
    of N-1 bytes each (entry v as v + N - 1), and the rank of each one's
    first visit, as an array."""
    from array import array

    first = {}
    bad = []
    for i, w in enumerate(iterate_words(DomainSpec(kind, N), start, stop), start):
        if first.setdefault(tuple(_capital_phi_word(w)), i) != i:
            _note(bad, i, i)
    return (bad, stop - start - len(first),
            bytes(map((N - 1).__add__, chain.from_iterable(first))),
            array("q", first.values()))


def check_bijection(n, parity="D") -> ClaimResult:
    """The map restricted to one parity class of cyclic degree-(n+1)
    permutations hits every element of B_n exactly once."""
    t0 = time.perf_counter()
    d = DomainSpec("CD" if parity == "D" else "CDbar", n + 1)
    total = cardinality(d)
    # an image first seen in a part repeats one that an earlier part saw
    seen = set()
    dup = []
    repeats = 0
    parts = _over_range(_images_part, 0, total, d.kind, n + 1, cost=2)
    for k, (bad, part_repeats, blob, firsts) in enumerate(parts):
        repeats += part_repeats
        for key, item in bad:
            _note(dup, key, item)
        images = [blob[j * n:(j + 1) * n] for j in range(len(firsts))]
        if not seen.isdisjoint(images):
            for img, i in zip(images, firsts):
                if img in seen:
                    _note(dup, i, i)
                    repeats += 1
        if k + 1 < len(parts):
            seen.update(images)
    dup = [(i, next(iterate_words(d, i, i + 1))) for i, _ in dup]
    want = cardinality(DomainSpec("B", n))
    return _result("bijection-" + parity, {"n": n}, t0, total, dup,
                   f"{total - repeats}/{want} distinct images", total - repeats == want)


def _left_inverses_part(start, stop, n):
    """Worker for the three left inverse laws over one unrank range of
    B(n); returns the count of laws checked and the first failures."""
    N = n + 1
    checked = 0
    bad = []
    for k, row in enumerate(iterate_words(DomainSpec("B", n), start, stop), start):
        sigma = list(row)
        up = _psi_plus_word(row)
        raw = _phi_plus_word(up) if up[-1] == N else None
        # unless sigma(1) = -1, the parity-class inverse of sigma's own
        # parity is the plus-class word up, and Phi of it the fix-up of raw
        own = None if row[:1] == (-1,) else sum(v < 0 for v in row) % 2 == 0
        for t, (tag, even) in enumerate((("D-left", True), ("Dbar-left", False))):
            if even == own and raw is not None:
                w, back = up, _phi_fixup(up, raw[:])
            else:
                w = _capital_psi_word(row, even)
                # a faulty inverse may give a word Phi cannot rewrite
                back = _capital_phi_word(w) if abs(w[-1]) == N else None
            if (sum(v < 0 for v in w) % 2 == 0) != even or back != sigma:
                _note(bad, (0, k, t), (tag, SignedPermutation(row)))
        if raw is None or raw[1:] != sigma:
            _note(bad, (0, k, 2), ("plus-left", SignedPermutation(row)))
        checked += 3
    return checked, bad


def _right_inverses_part(start, stop, n):
    """Worker for the three right inverse laws over one unrank range of
    CB(n+1).  One raw rewriting per +- pair serves CD/CDbar-right for both
    words and plus-right for the positive one.  Failures are keyed by law,
    then by rank in the law's own domain, as a sweep of each in turn.  A
    part's edge may split a pair; each half is then checked alone."""
    N = n + 1
    checked = 0
    bad = []
    for i, w, partner in _sign_pairs(N, start, stop):
        x = list(w)
        raw, res, neg = _capital_phi_pair(x if x[-1] > 0 else [-v for v in x])
        rows = [(x, res if x[-1] > 0 else neg)]
        if partner is not None:
            rows.append(([-v for v in x], neg))
        for x, img in rows:
            if x[-1] > 0:
                if _psi_plus_word(raw[1:]) != x:
                    _note(bad, (3, i), ("plus-right", SignedPermutation(_word_to_images(x))))
                checked += 1
            odd = sum(v < 0 for v in x) % 2
            if _capital_psi_word(img, not odd) != x:
                kind = ("CD", "CDbar")[odd]
                p = SignedPermutation(_word_to_images(x))
                _note(bad, (1 + odd, rank(DomainSpec(kind, N), p)), (kind + "-right", p))
            checked += 1
    return checked, bad


def check_inverses(n) -> ClaimResult:
    """Six composition laws: the parity-class maps invert each other in both
    orders, and the raw positive-class maps do as well."""
    t0 = time.perf_counter()
    # one driver call per phase, so each splits evenly whatever its rows cost
    checked, bad = _merged(
        _over_range(_left_inverses_part, 0, cardinality(DomainSpec("B", n)), n, cost=6)
        + _over_range(_right_inverses_part, 0, cardinality(DomainSpec("CB", n + 1)),
                      n, cost=4))
    return _result("inverses", {"n": n}, t0, checked, bad)


def check_corollary_counts(n) -> ClaimResult:
    """Refined descent tables agree: B_n equals both parity classes of
    cyclic degree n+1 under descent-set truncation."""
    from .lab import refined_descent_table

    t0 = time.perf_counter()
    tb = refined_descent_table(DomainSpec("B", n))
    tc = refined_descent_table(DomainSpec("CD", n + 1))
    tcb = refined_descent_table(DomainSpec("CDbar", n + 1))
    ok = tb.counts == tc.counts == tcb.counts
    checked = sum(tb.counts.values()) + sum(tc.counts.values()) + sum(tcb.counts.values())
    return _result("corollary-counts", {"n": n}, t0, checked, [],
                   "" if ok else "tables differ", ok)


def _elizalde_part(start, stop, n):
    """Worker for the Elizalde equivalence over one unrank range of
    CS(n+1); returns the count and the first failures."""
    from .classic import _phi_classic_word

    checked = 0
    bad = []
    for k, w in enumerate(iterate_words(DomainSpec("CS", n + 1), start, stop), start):
        try:
            a = _phi_classic_word(list(w), check=True)[1:]
        except AssertionError as e:
            _note(bad, k, (w, f"cross-check: {e}"))
            continue
        c = _capital_phi_word(w)
        if a != c:
            _note(bad, k, (w, f"{SignedPermutation._trusted(a)} != "
                              f"{SignedPermutation._trusted(c)}"))
        checked += 1
    return checked, bad


def check_elizalde_equivalence(n) -> ClaimResult:
    """The unsigned rewriting agrees with the signed map on every cyclic
    plain permutation of degree n+1, with its internal cross-checks armed."""
    t0 = time.perf_counter()
    checked, bad = _merged(_over_range(
        _elizalde_part, 0, cardinality(DomainSpec("CS", n + 1)), n, cost=5))
    return _result("elizalde-equivalence", {"n": n}, t0, checked, bad)


def check_colored(n, r=2) -> ClaimResult:
    """Colored transfer: descents in [n-1] preserved, each fixed-color class
    of cyclic degree-(n+1) elements maps bijectively, and the lift with a
    target color inverts it.

    Both maps rewrite omega whatever the colors: colored_phi keeps the first
    n colors and colored_psi appends the one that brings the total to the
    target.  So each omega runs through the maps once, with all colors 0,
    and the colorings loop over raw tuples.
    """
    from .colored import (ColoredPermutation, _inner_descents, color_of,
                          colored_phi, colored_psi)

    t0 = time.perf_counter()
    checked = 0
    # failures are keyed (phase, visit index): descents, color classes and
    # round trips, in that order
    bad = []
    by_color = {c: set() for c in range(r)}
    keep = set(range(1, n))
    for w in iterate_words(DomainSpec("CS", n + 1)):
        img = tuple(_word_to_images(w))
        out = colored_phi(ColoredPermutation(n + 1, r, img, (0,) * (n + 1))).omega
        for tau in product(range(r), repeat=n + 1):
            low = tau[:-1]
            if _inner_descents(img, tau) & keep != _inner_descents(out, low):
                _note(bad, (0, checked),
                      ("descents", ColoredPermutation(n + 1, r, img, tau)))
            by_color[sum(tau) % r].add((out, low))
            checked += 1
    full = r ** n * math.factorial(n)
    for c, hit in by_color.items():
        if len(hit) != full:
            _note(bad, (1, c), ("color-class", (c, len(hit), full)))
    for ww in iterate_words(DomainSpec("S", n)):
        p = ColoredPermutation(n, r, ww, (0,) * n)
        up = colored_psi(p, 0)
        if color_of(up) != 0 or colored_phi(up) != p:
            lifts = product(product(range(r), repeat=n), range(r))
            for k, (tau, c) in enumerate(lifts, checked):
                _note(bad, (2, k), ("roundtrip", (ColoredPermutation(n, r, ww, tau), c)))
        checked += r ** (n + 1)
    return _result("colored", {"n": n, "r": r}, t0, checked, bad)


def check_moments(n_lo=5, n_hi=7) -> ClaimResult:
    """Exact des/fmaj moments on the three cyclic signed domains equal the
    closed forms, as rationals, for every degree in [n_lo, n_hi]."""
    from .lab import exact_distribution, exact_moments, theoretical_moments

    if n_lo > n_hi:
        raise ValueError(f"empty degree range {n_lo}..{n_hi}")
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(n_lo, n_hi + 1):
        for kind in ("CB", "CD", "CDbar"):
            for stat in ("des", "fmaj"):
                m = exact_moments(exact_distribution(DomainSpec(kind, n), stat))
                th = theoretical_moments(stat, n)
                if (m.mean, m.variance) != (th.mean, th.variance):
                    _note(bad, checked, (kind, n, stat, str(m.mean), str(m.variance)))
                checked += 1
    return _result("moments", {"n": f"{n_lo}..{n_hi}"}, t0, checked, bad)


def _gaps_part(start, stop, n):
    """Worker for the statistic-gap claim on CB(n) over one unrank range;
    returns the count and the first failures."""
    top = 2 * n + 1
    checked = 0
    bad = []

    def gaps(key, img, sign, des_i, maj_i, neg_i, out):
        des_o, maj_o, neg_o = _des_maj_neg(out)
        dd = des_i - des_o
        df = 2 * (maj_i - maj_o) + neg_i - neg_o
        if dd not in (0, 1) or not 0 <= df <= top:
            _note(bad, (n, key), (SignedPermutation([sign * v for v in img]), dd, df))

    # a part's edge may split a +- pair; each half is then checked alone
    for i, w, partner in _sign_pairs(n, start, stop):
        pos = w if w[-1] > 0 else tuple(-v for v in w)
        img = _word_to_images(pos)
        des_p, maj_p, neg_p = _des_maj_neg(img)
        _, res, neg = _capital_phi_pair(pos)
        if w[-1] > 0:
            gaps(i, img, 1, des_p, maj_p, neg_p, res)
            checked += 1
        if w[-1] < 0 or partner is not None:
            # negating every entry complements the descent set at 0..n-1
            # and the set of negative entries
            gaps(i if partner is None else partner, img, -1, n - des_p,
                 n * (n - 1) // 2 - maj_p, n - neg_p, neg)
            checked += 1
    return checked, bad


def check_stat_gaps(n_hi=7) -> ClaimResult:
    """Per-element statistic gaps across the map: descents drop by 0 or 1,
    the flag major index by 0 to 2n+1, over cyclic degree-n domains."""
    if n_hi < 1:
        raise ValueError(f"bad degree bound {n_hi}")
    t0 = time.perf_counter()
    parts = []
    for n in range(1, n_hi + 1):
        parts += _over_range(_gaps_part, 0, cardinality(DomainSpec("CB", n)), n, cost=1.5)
    checked, bad = _merged(parts)
    return _result("stat-gaps", {"n": f"1..{n_hi}"}, t0, checked, bad)


def _order_swap_part(start, stop, indices, degree):
    """Worker for the order-swap claim over the words of CB(degree) at
    indices[start:stop]; returns the count and the first failures."""
    d = DomainSpec("CB", degree)
    checked = 0
    bad = []
    for k, i in enumerate(indices[start:stop], start):
        w = list(next(iterate_words(d, i, i + 1)))
        try:
            with_trace = _phi_plus_word(w, TransferTrace())
        except AssertionError as e:
            _note(bad, k, (w, f"invariant: {e}"))
            continue
        if with_trace != _phi_plus_word(w):
            _note(bad, k, (w, "trace changed the output"))
        checked += 1
    return checked, bad


def check_order_swap_properties(count=10000, degree=10, seed=0) -> ClaimResult:
    """Instrumented runs on random positive-class cyclic words: all working
    order/swap invariants hold, and tracing never changes the output."""
    t0 = time.perf_counter()
    if count < 1:
        raise ValueError(f"bad sample count {count}")
    rng = make_rng(seed)
    perms = math.factorial(degree - 1)
    # every index is drawn here, in stream order, and the parts split the
    # list.  Sign bit degree-1 stays clear, so each word ends in +degree
    indices = []
    for _ in range(count):
        q = _uniform_index(rng, perms)
        indices.append(q << degree | _uniform_index(rng, 1 << (degree - 1)))
    checked, bad = _merged(_over_range(_order_swap_part, 0, count, indices, degree,
                                       cost=27))
    return _result("order-swap-properties",
                   {"count": count, "degree": degree, "seed": seed},
                   t0, checked, bad)


CLAIMS = {
    "phi-descents": check_phi_descents,
    "bijection-D": partial(check_bijection, parity="D"),
    "bijection-Dbar": partial(check_bijection, parity="Dbar"),
    "inverses": check_inverses,
    "corollary-counts": check_corollary_counts,
    "elizalde-equivalence": check_elizalde_equivalence,
    "colored": check_colored,
    "moments": check_moments,
    "stat-gaps": check_stat_gaps,
    "order-swap-properties": check_order_swap_properties,
}
