"""Desk-scale checkers for every headline claim of the library.

Each checker exhaustively sweeps (or, where stated, randomly samples) its
domain and returns a ClaimResult; nothing is asserted so callers decide how
to report.  Each claim keys every failure by its rank or visit index and
reports the MAX_REPORTED failures of smallest key, in key order.  Only the
descent-preservation sweep can be sharded by unrank range and spread over
processes, and the processes never change what a sweep reports.
The classic, colored and lab modules are imported by the claims that use
them, when they run.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .cycles import _word_to_images
from .domains import (DomainSpec, _sign_pairs, _uniform_index, cardinality,
                      iterate_words, make_rng, rank)
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


def _descents_range(N, start, stop):
    """Worker for the descent-preservation sweep over one unrank range;
    returns the count and the (rank, word) pairs of the first bad words."""
    cap = (1 << (N - 1)) - 1
    bad = []
    count = 0
    for i, w, partner in _sign_pairs(N, start, stop):
        # the input mask comes from the row itself, never from the map
        m = _descent_mask(_word_to_images(w)) & cap
        if partner is not None:
            _, res, neg = _capital_phi_pair(w)
            # negating every entry complements the input's descent set
            if m ^ cap != _descent_mask(neg):
                _note(bad, partner, tuple(-v for v in w))
            count += 1
        else:
            res = _capital_phi_word(w)
        if m != _descent_mask(res):
            _note(bad, i, w)
        count += 1
    return count, bad


def check_phi_descents(n, shard=None, threads=1) -> ClaimResult:
    """Descents at 0..n-1 agree between each cyclic permutation of degree
    n+1 and its image in B_n; exhaustive over the (sharded) domain."""
    t0 = time.perf_counter()
    if threads < 1:
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
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        cuts = [lo + (hi - lo) * k // threads for k in range(threads + 1)]
        with ProcessPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(_descents_range, [N] * threads, cuts, cuts[1:]))
    else:
        parts = [_descents_range(N, lo, hi)]
    # the parts cover consecutive ranks, each reported in rank order
    bad = [kw for _, b in parts for kw in b][:MAX_REPORTED]
    return _result("phi-descents", {"n": n, "shard": shard, "threads": threads},
                   t0, sum(c for c, _ in parts), bad,
                   f"first bad words {[w for _, w in bad]}" if bad else "")


def check_bijection(n, parity="D") -> ClaimResult:
    """The map restricted to one parity class of cyclic degree-(n+1)
    permutations hits every element of B_n exactly once."""
    t0 = time.perf_counter()
    kind = "CD" if parity == "D" else "CDbar"
    seen = set()
    checked = 0
    dup = []
    for w in iterate_words(DomainSpec(kind, n + 1)):
        out = tuple(_capital_phi_word(w))
        if out in seen:
            _note(dup, checked, w)
        seen.add(out)
        checked += 1
    want = cardinality(DomainSpec("B", n))
    return _result("bijection-" + parity, {"n": n}, t0, checked, dup,
                   f"{len(seen)}/{want} distinct images", len(seen) == want)


def check_inverses(n) -> ClaimResult:
    """Six composition laws: the parity-class maps invert each other in both
    orders, and the raw positive-class maps do as well."""
    t0 = time.perf_counter()
    checked = 0
    bad = []
    N = n + 1
    for k, row in enumerate(iterate_words(DomainSpec("B", n))):
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
    # the right-hand laws: one raw rewriting per +- pair of CB(N) serves
    # CD/CDbar-right for both words and plus-right for the positive one.
    # Failures are keyed by law, then by rank in the law's own domain, as a
    # sweep of each in turn
    for i, w, _ in _sign_pairs(N, 0, cardinality(DomainSpec("CB", N))):
        raw, res, neg = _capital_phi_pair(w)
        if _psi_plus_word(raw[1:]) != list(w):
            _note(bad, (3, i), ("plus-right", SignedPermutation(_word_to_images(w))))
        for x, img in ((list(w), res), ([-v for v in w], neg)):
            odd = sum(v < 0 for v in x) % 2
            if _capital_psi_word(img, not odd) != x:
                kind = ("CD", "CDbar")[odd]
                p = SignedPermutation(_word_to_images(x))
                _note(bad, (1 + odd, rank(DomainSpec(kind, N), p)), (kind + "-right", p))
        checked += 3
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


def check_elizalde_equivalence(n) -> ClaimResult:
    """The unsigned rewriting agrees with the signed map on every cyclic
    plain permutation of degree n+1, with its internal cross-checks armed."""
    from .classic import _phi_classic_word

    t0 = time.perf_counter()
    checked = 0
    bad = []
    for k, w in enumerate(iterate_words(DomainSpec("CS", n + 1))):
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


def check_stat_gaps(n_hi=7) -> ClaimResult:
    """Per-element statistic gaps across the map: descents drop by 0 or 1,
    the flag major index by 0 to 2n+1, over cyclic degree-n domains."""
    if n_hi < 1:
        raise ValueError(f"bad degree bound {n_hi}")
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(1, n_hi + 1):
        top = 2 * n + 1

        def gaps(key, img, sign, des_i, maj_i, neg_i, out):
            des_o, maj_o, neg_o = _des_maj_neg(out)
            dd = des_i - des_o
            df = 2 * (maj_i - maj_o) + neg_i - neg_o
            if dd not in (0, 1) or not 0 <= df <= top:
                _note(bad, (n, key), (SignedPermutation([sign * v for v in img]), dd, df))

        # the whole domain is swept, so every row comes paired
        for i, w, partner in _sign_pairs(n, 0, cardinality(DomainSpec("CB", n))):
            img = _word_to_images(w)
            des_p, maj_p, neg_p = _des_maj_neg(img)
            _, res, neg = _capital_phi_pair(w)
            gaps(i, img, 1, des_p, maj_p, neg_p, res)
            # negating every entry complements the descent set at 0..n-1 and
            # the set of negative entries
            gaps(partner, img, -1, n - des_p, n * (n - 1) // 2 - maj_p, n - neg_p, neg)
            checked += 2
    return _result("stat-gaps", {"n": f"1..{n_hi}"}, t0, checked, bad)


def check_order_swap_properties(count=10000, degree=10, seed=0) -> ClaimResult:
    """Instrumented runs on random positive-class cyclic words: all working
    order/swap invariants hold, and tracing never changes the output."""
    t0 = time.perf_counter()
    if count < 1:
        raise ValueError(f"bad sample count {count}")
    rng = make_rng(seed)
    perms = math.factorial(degree - 1)
    checked = 0
    bad = []
    for k in range(count):
        q = _uniform_index(rng, perms)
        s = _uniform_index(rng, 1 << (degree - 1))
        # sign bit degree-1 stays clear, so the word ends in +degree
        i = q << degree | s
        w = list(next(iterate_words(DomainSpec("CB", degree), i, i + 1)))
        try:
            with_trace = _phi_plus_word(w, TransferTrace())
        except AssertionError as e:
            _note(bad, k, (w, f"invariant: {e}"))
            continue
        if with_trace != _phi_plus_word(w):
            _note(bad, k, (w, "trace changed the output"))
        checked += 1
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
