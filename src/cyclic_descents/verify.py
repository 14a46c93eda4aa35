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
BUDGET_LIMIT rows in all before it walks one (the bijection claims
refuse on their own counts, a descent shard on its own range),
then runs each sweep through domains._over_range, which runs the walker
_sweep over parts of the range.  It splits a sweep whose rows, weighed by
their cost against a descent row, reach SERIAL_ROWS over this process,
which walks the first part, and one forked child per other usable core;
the order-swap claim draws every word first and splits the list.  The
costs are the measured times of a row at the benchmark's sizes over that
of a descent row: 2 for a bijection row, 10 and 4 for a left and a right
inverse row, 1.5 for a gap row, 4 for a colored row, 5 for an Elizalde
row and 27 for an instrumented run at degree 10.  The bijection claims
run their own worker, whose parts return every row's image as bytes for
the parent to sort and the first rows outside the claim's parity class;
the count and moment claims read lab's exact tables, which run lab's one
tally worker.  Each part keeps its first failures through _note and the
runner merges them through _note, so the processes never change what a
claim reports.  Only the descent sweep can also be sharded by unrank
range, or told its number of processes.  The +- pair claims (descents,
gaps and the right inverse laws) read _pair_rows, the one walk that pairs
a row of CB(N) with its negation, one run of positive rows per block.
Each pair runs Phi once, on its positive word, since Phi is odd; the
descent and gap rows read the negative row's figures off the positive
image and make one statistics pass on each side of the map.  The left
inverse laws run each parity-class map through transfer's own
_capital_psi_word and _capital_phi_word, so the class rule has one home.
The classic, colored and lab modules are imported by the claims that use
them, when they run.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from operator import index

from .catalog import CLAIM_ROWS
from .cycles import _word_to_images
from .domains import (BUDGET_LIMIT, MAX_THREADS, BudgetError, DomainSpec,
                      IntPhilox, _over_range, _shown, _uniform_index,
                      cardinality, iterate, iterate_words, rank)
from .permutations import SignedPermutation
from .statistics import _des_maj_neg, _descent_mask
from .transfer import (TransferTrace, _capital_phi_word, _capital_psi_word,
                       _phi_plus_word, _psi_plus_word, _raw_and_capital_phi)

MAX_REPORTED = 5


@dataclass(frozen=True)
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

    Yields (pos, rows, (raw, Phi(pos))): pos is the pair's positive word,
    rows the pair's (rank, sign) rows in the range, (rank of pos, 1) before
    (rank of -pos, -1), and the pair one _raw_and_capital_phi run.
    Negating every entry of a row flips all N sign bits, so in a
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
            # j < p = j ^ mask, and the stops keep j < t and p >= s
            p = j ^ mask
            yield w, ((j, 1), (p, -1))[j < s:1 + (p < t)], _raw_and_capital_phi(w)


def _descent_row(cap, row, note):
    """Descent preservation at one +- pair; cap keeps the descents at
    0..N-2.  Negating a word and its image complements both descent sets
    there, so the pair's two rows fail together."""
    pos, rows, (_, res) = row
    # the input mask comes from the row itself, never from the map
    if _descent_mask(_word_to_images(pos)) & cap != _descent_mask(res):
        for k, sign in rows:
            note(k, pos if sign > 0 else tuple(-v for v in pos))
    return len(rows)


def check_phi_descents(n, shard=None, threads=None) -> ClaimResult:
    """Descents at 0..n-1 agree between each cyclic permutation of degree
    n+1 and its image in B_n; exhaustive over the (sharded) domain, on
    `threads` processes, at most MAX_THREADS, by default as many as
    domains._over_range picks."""
    n = index(n)
    threads = None if threads is None else index(threads)
    if threads is not None and not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"bad thread count {threads}, not in 1..{MAX_THREADS}")
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
    return replace(res, details=f"first bad words {res.failures}") if res.failures else res


def _images_part(start, stop, kind, N):
    """Worker for the bijection claims over one unrank range: the image of
    each row, in rank order, as one byte string of N-1 bytes per row,
    entry v stored as v + N - 1; then the number of rows whose count of
    negative entries lacks the class's parity, and the first of them, kept
    through _note as (rank, word)."""
    odd = kind == "CDbar"
    strays, bad = 0, []

    def rows():
        nonlocal strays
        for k, w in enumerate(iterate_words(DomainSpec(kind, N), start, stop), start):
            if sum(map((0).__gt__, w)) % 2 != odd:
                strays += 1
                _note(bad, k, w)
            yield w

    images = map(_capital_phi_word, rows())
    return bytes(map((N - 1).__add__, chain.from_iterable(images))), strays, bad


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
    permutations hits every element of B_n exactly once, and every row
    walked lies in that class.  A sorted image key equal to its neighbour
    is a repeat; only then does a stable argsort give the ranks that are
    not their image's first visit.  Repeats and rows outside the class are
    reported alike, as the words of their smallest ranks."""
    if parity not in ("D", "Dbar"):
        raise ValueError(f"bad parity {parity!r}")
    n = index(n)
    t0 = time.perf_counter()
    d = DomainSpec("CD" if parity == "D" else "CDbar", n + 1)
    total = cardinality(d)
    _within_budget("bijection-" + parity, total)
    parts = _over_range(_images_part, 0, total, d.kind, n + 1, cost=2)
    strays, bad = 0, []
    for _, count, part in parts:
        strays += count
        for key, word in part:
            _note(bad, key, word)
    blob = b"".join(b for b, _, _ in parts)
    del parts
    import numpy as np

    keys = _image_keys(np, blob, total, n)
    del blob
    s = np.sort(keys)
    repeats = int(np.count_nonzero(s[1:] == s[:-1]))
    if repeats:
        order = np.argsort(keys, kind="stable")
        s = keys[order]
        for i in np.sort(order[1:][s[1:] == s[:-1]])[:MAX_REPORTED].tolist():
            _note(bad, i, next(iterate_words(d, i, i + 1)))
    want = cardinality(DomainSpec("B", n))
    details = f"{total - repeats}/{want} distinct images"
    if strays:
        details += f", {strays} rows outside the class"
    return _result("bijection-" + parity, {"n": n}, t0, total, bad, details,
                   total - repeats == want)


def _left_inverse_row(N, row, note):
    """The three left inverse laws at one (rank, images) row of B(N-1):
    each parity-class inverse through _capital_psi_word and back through
    _capital_phi_word, and the raw plus-class pair."""
    k, images = row
    sigma = list(images)
    for t, (tag, even) in enumerate((("D-left", True), ("Dbar-left", False))):
        w = _capital_psi_word(images, even)
        # a faulty inverse may give a word Phi cannot rewrite
        back = _capital_phi_word(w) if abs(w[-1]) == N else None
        if (sum(v < 0 for v in w) % 2 == 0) != even or back != sigma:
            note((0, k, t), (tag, SignedPermutation(images)))
    up = _psi_plus_word(images)
    raw = _phi_plus_word(up) if up[-1] == N else None
    if raw is None or raw[1:] != sigma:
        note((0, k, 2), ("plus-left", SignedPermutation(images)))
    return 3


def _right_inverse_row(N, row, note):
    """The three right inverse laws at one +- pair of CB(N).  The pair's one
    raw rewriting serves CD/CDbar-right for both words and plus-right for
    the positive one.  Psi is not odd by construction, so it runs on the
    negated image too.  Failures are keyed by law, then by rank in the
    law's own domain, as a sweep of each in turn."""
    pos, rows, (raw, res) = row
    for k, sign in rows:
        w = [sign * v for v in pos]
        if sign > 0 and _psi_plus_word(raw[1:]) != w:
            note((3, k), ("plus-right", SignedPermutation(_word_to_images(w))))
        odd = sum(v < 0 for v in w) % 2
        if _capital_psi_word(res if sign > 0 else [-v for v in res], not odd) != w:
            kind = ("CD", "CDbar")[odd]
            p = SignedPermutation(_word_to_images(w))
            note((1 + odd, rank(DomainSpec(kind, N), p)), (kind + "-right", p))
    # the + row, first when in the range, checks plus-right too
    return len(rows) + (rows[0][1] > 0)


def check_inverses(n) -> ClaimResult:
    """Six composition laws: the parity-class maps invert each other in both
    orders, and the raw positive-class maps do as well."""
    n = index(n)
    # one sweep per phase, so each splits evenly whatever its rows cost
    B, CB = DomainSpec("B", n), DomainSpec("CB", n + 1)
    return _swept("inverses", {"n": n}, [
        (0, cardinality(B), partial(_ranked, B), partial(_left_inverse_row, n + 1), 10),
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


def _colored_row(colored, row, note):
    """One (rank, element) row of CSnr(n+1, r): colored_phi keeps the
    descents at 1..n-1, and colored_psi lifts the image back to the row."""
    k, p = row
    q = colored.colored_phi(p)
    inner = colored._inner_descents
    if inner(p.omega[:-1], p.tau[:-1]) != inner(q.omega, q.tau):
        note((0, k), ("descents", p))
    if colored.colored_psi(q, colored.color_of(p)) != p:
        note((1, k), ("roundtrip", p))
    return 2


def check_colored(n, r=2) -> ClaimResult:
    """Colored transfer on every cyclic colored permutation of degree n+1:
    descents in [n-1] preserved, and the lift to its own total color
    inverts the map.  So each color class maps one-to-one, and being of the
    same size, onto the r^n n! colored permutations of degree n."""
    from . import colored

    n, r = index(n), index(r)
    if n < 0:
        raise ValueError(f"bad degree {n}")
    d = DomainSpec("CSnr", n + 1, r=r)
    return _swept("colored", {"n": n, "r": r}, [
        (0, cardinality(d), lambda start, stop: enumerate(iterate(d, True, start, stop), start),
         partial(_colored_row, colored), 4)])


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
    """The statistic gaps at one +- pair of CB(n), from one statistics pass
    on each side of the map."""
    pos, rows, (_, res) = row
    img = _word_to_images(pos)
    des, maj, negs = _des_maj_neg(img)
    des_o, maj_o, neg_o = _des_maj_neg(res)
    dd, df = des - des_o, 2 * (maj - maj_o) + negs - neg_o
    for k, sign in rows:
        # negating a word and its image complements their descent sets and
        # their sets of negative entries, so the - row's gaps are 1 - dd and
        # 2n - 1 - df.  Its bounds are no repeat: they hold df in [-2, 2n - 1]
        d, f = (dd, df) if sign > 0 else (1 - dd, 2 * n - 1 - df)
        if d not in (0, 1) or not 0 <= f <= 2 * n + 1:
            note((n, k), (SignedPermutation([sign * v for v in img]), d, f))
    return len(rows)


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
