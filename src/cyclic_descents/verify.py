"""Desk-scale checkers for every headline claim of the library.

Each checker exhaustively sweeps (or, where stated, randomly samples) its
domain and returns a ClaimResult; nothing is asserted so callers decide how
to report.  Integer arguments are read with operator.index, so a numpy
integer runs and reports as an int.  Each claim keys every failure by its rank or visit index and
reports the MAX_REPORTED failures of smallest key, in key order.
A swept claim checks its arguments and hands the runner, _swept, a list
of sweeps, each a rank range, a row source, which turns a rank range into
rows, a check, which notes a row's failures and returns how many checks
it made, and a cost.  The runner refuses a claim of more than
BUDGET_LIMIT rows in all before it walks one (the bijection and colored
claims refuse on their own counts, a descent shard on its own range),
then runs each sweep through domains._over_range, which runs the walker
_sweep over parts of the range.  It splits a sweep whose rows, weighed by
their cost against a descent row, reach SERIAL_ROWS over this process,
which walks the first part, and one forked child per other usable core;
the order-swap claim draws every word first and splits the list.  The
costs are the measured times of a row at the benchmark's sizes over that
of a descent row: 2 for a bijection row, 6 and 4 for a left and a right
inverse row, 1.5 for a gap row, 5 for an Elizalde row and 27 for an
instrumented run at degree 10.  The bijection claims, whose parts return
every row's image as bytes for the parent to sort, and the exact tables
behind the count and moment claims run their own workers; colored runs
serially.  Each part keeps its first failures through _note and the
runner merges them through _note, so the processes never change what a
claim reports.  Only the descent sweep can also be sharded by unrank
range, or told its number of processes.  The +- pair claims (descents,
gaps and the right inverse laws) read _pair_rows, the one walk that pairs
a row of CB(N) with its negation, one run of positive rows per block.
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
from operator import index

from .catalog import CLAIM_ROWS
from .cycles import _word_to_images
from .domains import (BUDGET_LIMIT, BudgetError, DomainSpec, IntPhilox,
                      _over_range, _shown, _uniform_index, cardinality,
                      iterate_words, rank)
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


def _within_budget(claim, rows):
    """Refuse a claim of more than BUDGET_LIMIT rows before it walks one."""
    if rows > BUDGET_LIMIT:
        raise BudgetError(f"{claim} holds {_shown(rows)} rows, over the {BUDGET_LIMIT} budget")


def _swept(claim, params, sweeps, processes=None):
    """Run each sweep (start, stop, rows, check, cost) in order through
    _over_range(_sweep, ...), on `processes` processes (by default as many
    as it picks), and merge every part's first failures through _note.
    A params key threads is set to the number of parts of the last sweep."""
    _within_budget(claim, sum(stop - start for start, stop, *_ in sweeps))
    t0 = time.perf_counter()
    checked, bad = 0, []
    for start, stop, rows, check, cost in sweeps:
        parts = _over_range(_sweep, start, stop, rows, check, cost=cost,
                            processes=processes)
        for count, part in parts:
            checked += count
            for key, item in part:
                _note(bad, key, item)
    if "threads" in params:
        params["threads"] = len(parts)
    return _result(claim, params, t0, checked, bad)


def _sweep(start, stop, rows, check):
    """Feed each row of rows(start, stop) to check(row, note); returns the
    sum of the counts the checks return and the first failures they note,
    kept through _note."""
    bad = []
    note = partial(_note, bad)
    return sum(check(row, note) for row in rows(start, stop)), bad


def _ranked(d, start, stop):
    """Row source: the (rank, word) rows of d in [start, stop)."""
    return enumerate(iterate_words(d, start, stop), start)


def _pair_rows(N, start, stop):
    """Row source: each +- pair of CB(N) with a row in [start, stop), once.

    Yields (pos, key, neg_key, (raw, Phi(pos), Phi(-pos))): pos is the
    pair's positive word, key and neg_key the ranks of pos and of -pos when
    they lie in the range, else None, and the triple one _capital_phi_pair
    run.  Negating every entry of a row flips all N sign bits, so in a
    magnitude block [base, base + 2^N), whose first half holds its positive
    rows, the partner of rank j is j ^ (2^N - 1) = c - 1 - j, c = 2 base +
    2^N.  The pairs meeting the block's part [s, t) of the range then have
    the positive ranks [min(s, c - t), min(t, c - s, base + 2^(N-1))):
    the part's positive rows joined to the mirror of its negative ones."""
    d = DomainSpec("CB", N)
    block = 1 << N
    mask = block - 1
    for base in range(start - start % block, stop, block):
        s, t, c = max(start, base), min(stop, base + block), 2 * base + block
        lo = min(s, c - t)
        for j, w in enumerate(iterate_words(d, lo, min(t, c - s, base + block // 2)), lo):
            p = j ^ mask
            yield (w, j if s <= j < t else None, p if s <= p < t else None,
                   _capital_phi_pair(w))


def _descent_row(cap, row, note):
    """Descent preservation at one +- pair; cap keeps the descents at
    0..N-2."""
    pos, key, neg_key, (_, res, neg) = row
    # the input mask comes from the row itself, never from the map
    m = _descent_mask(_word_to_images(pos)) & cap
    if key is not None and m != _descent_mask(res):
        note(key, pos)
    # negating every entry complements the input's descent set
    if neg_key is not None and m ^ cap != _descent_mask(neg):
        note(neg_key, tuple(-v for v in pos))
    return (key is not None) + (neg_key is not None)


def check_phi_descents(n, shard=None, threads=None) -> ClaimResult:
    """Descents at 0..n-1 agree between each cyclic permutation of degree
    n+1 and its image in B_n; exhaustive over the (sharded) domain, on
    `threads` processes, by default as many as domains._over_range picks."""
    n = index(n)
    threads = None if threads is None else index(threads)
    if threads is not None and threads < 1:
        raise ValueError(f"bad thread count {threads}")
    N = n + 1
    total = cardinality(DomainSpec("CB", N))
    if shard is None:
        lo, hi = 0, total
    else:
        i, t = shard = tuple(map(index, shard))
        if not 0 <= i < t:
            raise ValueError(f"bad shard {i}/{t}")
        lo, hi = total * i // t, total * (i + 1) // t
    res = _swept("phi-descents", {"n": n, "shard": shard, "threads": threads},
                 [(lo, hi, partial(_pair_rows, N), partial(_descent_row, (1 << n) - 1), 1)],
                 threads)
    if res.failures:
        res.details = f"first bad words {res.failures}"
    return res


def _images_part(start, stop, kind, N):
    """Worker for the bijection claims over one unrank range: the image of
    each row, in rank order, as one byte string of N-1 bytes per row,
    entry v stored as v + N - 1."""
    images = map(_capital_phi_word, iterate_words(DomainSpec(kind, N), start, stop))
    return bytes(map((N - 1).__add__, chain.from_iterable(images)))


def _image_keys(np, blob, rows, n):
    """One key per n-byte row of blob: the row zero-padded to 8 bytes as
    an unsigned 64-bit int (no copy at n = 8), or a raw n-byte key."""
    if n > 8:
        return np.frombuffer(blob, f"V{n}")
    if n < 8:
        padded = np.zeros((rows, 8), np.uint8)
        padded[:, :n] = np.frombuffer(blob, np.uint8).reshape(rows, n)
        blob = padded
    return np.frombuffer(blob, np.uint64)


def check_bijection(n, parity="D") -> ClaimResult:
    """The map restricted to one parity class of cyclic degree-(n+1)
    permutations hits every element of B_n exactly once.  A sorted image
    key equal to its neighbour is a repeat; only then does a stable
    argsort give the ranks that are not their image's first visit."""
    if parity not in ("D", "Dbar"):
        raise ValueError(f"bad parity {parity!r}")
    n = index(n)
    t0 = time.perf_counter()
    d = DomainSpec("CD" if parity == "D" else "CDbar", n + 1)
    total = cardinality(d)
    _within_budget("bijection-" + parity, total)
    blob = b"".join(_over_range(_images_part, 0, total, d.kind, n + 1, cost=2))
    import numpy as np

    keys = _image_keys(np, blob, total, n)
    del blob
    s = np.sort(keys)
    repeats = int(np.count_nonzero(s[1:] == s[:-1]))
    dup = []
    if repeats:
        order = np.argsort(keys, kind="stable")
        s = keys[order]
        later = np.sort(order[1:][s[1:] == s[:-1]])[:MAX_REPORTED]
        dup = [(i, next(iterate_words(d, i, i + 1))) for i in later.tolist()]
    want = cardinality(DomainSpec("B", n))
    return _result("bijection-" + parity, {"n": n}, t0, total, dup,
                   f"{total - repeats}/{want} distinct images", total - repeats == want)


def _left_inverse_row(N, row, note):
    """The three left inverse laws at one (rank, images) row of B(N-1)."""
    k, images = row
    sigma = list(images)
    up = _psi_plus_word(images)
    raw = _phi_plus_word(up) if up[-1] == N else None
    # unless sigma(1) = -1, the parity-class inverse of sigma's own
    # parity is the plus-class word up, and Phi of it the fix-up of raw
    own = None if images[:1] == (-1,) else sum(v < 0 for v in images) % 2 == 0
    for t, (tag, even) in enumerate((("D-left", True), ("Dbar-left", False))):
        if even == own and raw is not None:
            w, back = up, _phi_fixup(up, raw[:])
        else:
            w = _capital_psi_word(images, even)
            # a faulty inverse may give a word Phi cannot rewrite
            back = _capital_phi_word(w) if abs(w[-1]) == N else None
        if (sum(v < 0 for v in w) % 2 == 0) != even or back != sigma:
            note((0, k, t), (tag, SignedPermutation(images)))
    if raw is None or raw[1:] != sigma:
        note((0, k, 2), ("plus-left", SignedPermutation(images)))
    return 3


def _right_inverse_row(N, row, note):
    """The three right inverse laws at one +- pair of CB(N).  The pair's one
    raw rewriting serves CD/CDbar-right for both words and plus-right for
    the positive one.  Failures are keyed by law, then by rank in the law's
    own domain, as a sweep of each in turn."""
    pos, key, neg_key, (raw, res, neg) = row
    x = list(pos)
    if key is not None and _psi_plus_word(raw[1:]) != x:
        note((3, key), ("plus-right", SignedPermutation(_word_to_images(x))))
    for k, w, img in ((key, x, res), (neg_key, [-v for v in x], neg)):
        odd = sum(v < 0 for v in w) % 2
        if k is not None and _capital_psi_word(img, not odd) != w:
            kind = ("CD", "CDbar")[odd]
            p = SignedPermutation(_word_to_images(w))
            note((1 + odd, rank(DomainSpec(kind, N), p)), (kind + "-right", p))
    return 2 * (key is not None) + (neg_key is not None)


def check_inverses(n) -> ClaimResult:
    """Six composition laws: the parity-class maps invert each other in both
    orders, and the raw positive-class maps do as well."""
    n = index(n)
    # one sweep per phase, so each splits evenly whatever its rows cost
    B, CB = DomainSpec("B", n), DomainSpec("CB", n + 1)
    return _swept("inverses", {"n": n}, [
        (0, cardinality(B), partial(_ranked, B), partial(_left_inverse_row, n + 1), 6),
        (0, cardinality(CB), partial(_pair_rows, n + 1),
         partial(_right_inverse_row, n + 1), 4)])


def check_corollary_counts(n) -> ClaimResult:
    """Refined descent tables agree: B_n equals both parity classes of
    cyclic degree n+1 under descent-set truncation."""
    from .lab import refined_descent_table

    n = index(n)
    t0 = time.perf_counter()
    tb = refined_descent_table(DomainSpec("B", n))
    tc = refined_descent_table(DomainSpec("CD", n + 1))
    tcb = refined_descent_table(DomainSpec("CDbar", n + 1))
    ok = tb.counts == tc.counts == tcb.counts
    checked = sum(tb.counts.values()) + sum(tc.counts.values()) + sum(tcb.counts.values())
    return _result("corollary-counts", {"n": n}, t0, checked, [],
                   "" if ok else "tables differ", ok)


def _elizalde_row(phi_classic, row, note):
    """The unsigned rewriting phi_classic, its cross-checks armed, against
    the signed map at one (rank, word) row of CS(N)."""
    k, w = row
    try:
        a = phi_classic(list(w), check=True)[1:]
    except AssertionError as e:
        note(k, (w, f"cross-check: {e}"))
        return 0
    c = _capital_phi_word(w)
    if a != c:
        note(k, (w, f"{SignedPermutation._trusted(a)} != "
                    f"{SignedPermutation._trusted(c)}"))
    return 1


def check_elizalde_equivalence(n) -> ClaimResult:
    """The unsigned rewriting agrees with the signed map on every cyclic
    plain permutation of degree n+1, with its internal cross-checks armed."""
    from .classic import _phi_classic_word

    n = index(n)
    d = DomainSpec("CS", n + 1)
    return _swept("elizalde-equivalence", {"n": n}, [
        (0, cardinality(d), partial(_ranked, d), partial(_elizalde_row, _phi_classic_word), 5)])


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

    n, r = index(n), index(r)
    if n < 0:
        raise ValueError(f"bad degree {n}")
    _within_budget("colored", r ** (n + 1) * math.factorial(n))
    t0 = time.perf_counter()
    checked = 0
    # failures are keyed (phase, visit index): descents, color classes and
    # round trips, in that order
    bad = []
    images = set()
    keep = set(range(1, n))
    for w in iterate_words(DomainSpec("CS", n + 1)):
        img = tuple(_word_to_images(w))
        out = colored_phi(ColoredPermutation(n + 1, r, img, (0,) * (n + 1))).omega
        images.add(out)
        for tau in product(range(r), repeat=n + 1):
            if _inner_descents(img, tau) & keep != _inner_descents(out, tau[:-1]):
                _note(bad, (0, checked),
                      ("descents", ColoredPermutation(n + 1, r, img, tau)))
            checked += 1
    # each color class is hit by every image under each of the r^n kept
    # colorings, its last color set by the class
    hit, full = len(images) * r ** n, r ** n * math.factorial(n)
    if hit != full:
        for c in range(r):
            _note(bad, (1, c), ("color-class", (c, hit, full)))
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
    closed forms, as rationals, for every degree in [n_lo, n_hi]; the forms
    hold from n = 4 on, so a lower degree is refused."""
    from .lab import exact_distribution, exact_moments, theoretical_moments

    n_lo, n_hi = index(n_lo), index(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty degree range {n_lo}..{n_hi}")
    if n_lo < 4:
        raise ValueError("closed-form moments require n >= 4")
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


def _gap_row(n, row, note):
    """The statistic gaps at one +- pair of CB(n)."""
    pos, key, neg_key, (_, res, neg) = row
    img = _word_to_images(pos)
    des, maj, negs = _des_maj_neg(img)
    # negating every entry complements the descent set at 0..n-1 and the
    # set of negative entries
    halves = ((key, 1, res, des, maj, negs),
              (neg_key, -1, neg, n - des, n * (n - 1) // 2 - maj, n - negs))
    for k, sign, out, des_i, maj_i, neg_i in halves:
        if k is None:
            continue
        des_o, maj_o, neg_o = _des_maj_neg(out)
        dd = des_i - des_o
        df = 2 * (maj_i - maj_o) + neg_i - neg_o
        if dd not in (0, 1) or not 0 <= df <= 2 * n + 1:
            note((n, k), (SignedPermutation([sign * v for v in img]), dd, df))
    return (key is not None) + (neg_key is not None)


def check_stat_gaps(n_hi=7) -> ClaimResult:
    """Per-element statistic gaps across the map: descents drop by 0 or 1,
    the flag major index by 0 to 2n+1, over cyclic degree-n domains."""
    n_hi = index(n_hi)
    if n_hi < 1:
        raise ValueError(f"bad degree bound {n_hi}")
    return _swept("stat-gaps", {"n": f"1..{n_hi}"}, [
        (0, cardinality(DomainSpec("CB", n)), partial(_pair_rows, n), partial(_gap_row, n), 1.5)
        for n in range(1, n_hi + 1)])


def _order_swap_row(d, row, note):
    """One instrumented run at a (visit index, rank) row of d."""
    k, i = row
    w = list(next(iterate_words(d, i, i + 1)))
    try:
        with_trace = _phi_plus_word(w, TransferTrace())
    except AssertionError as e:
        note(k, (w, f"invariant: {e}"))
        return 0
    if with_trace != _phi_plus_word(w):
        note(k, (w, "trace changed the output"))
    return 1


def check_order_swap_properties(count=10000, degree=10, seed=0) -> ClaimResult:
    """Instrumented runs on random positive-class cyclic words: all working
    order/swap invariants hold, and tracing never changes the output."""
    count, degree, seed = index(count), index(degree), index(seed)
    if count < 1:
        raise ValueError(f"bad sample count {count}")
    if degree < 1:
        raise ValueError(f"bad degree {degree}")
    rng = IntPhilox(seed)
    perms = math.factorial(degree - 1)
    # every index is drawn here, in stream order, and the parts split the
    # list.  Sign bit degree-1 stays clear, so each word ends in +degree
    indices = []
    for _ in range(count):
        q = _uniform_index(rng, perms)
        indices.append(q << degree | _uniform_index(rng, 1 << (degree - 1)))
    return _swept("order-swap-properties", {"count": count, "degree": degree, "seed": seed},
                  [(0, count, lambda start, stop: enumerate(indices[start:stop], start),
                    partial(_order_swap_row, DomainSpec("CB", degree)), 27)])


# each claim's checker over the keywords it fixes
CLAIMS = {name: partial(globals()[checker], **fixed)
          for name, (checker, fixed, _) in CLAIM_ROWS.items()}
