import hashlib
import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings

from cyclic_descents import transfer
from cyclic_descents.cycles import (_canonical_cycles, _images_to_word,
                                    _word_to_images, is_cyclic,
                                    to_canonical_cycles)
from cyclic_descents.domains import DomainSpec, iterate, make_rng, sample, unrank
from cyclic_descents.permutations import SignedPermutation
from cyclic_descents.statistics import descent_set, truncated_descent_set
from cyclic_descents.transfer import (
    TransferTrace, _capital_phi_word, _chunk_tables, _phi_fixup,
    _phi_plus_word, _psi_plus_word, _raw_and_capital_phi, _setup, capital_phi,
    capital_psi_D, capital_psi_Dbar, p_flag, phi_plus, preimage_quadruple,
    psi_plus, stress_word,
)

from conftest import all_cyclic_words, all_signed, word_to_perm, signed_perms


# -- frozen worked examples ------------------------------------------------

def test_forward_seven():
    # (-4,-1,2,5,-3,-6,7): one swap moves 5 next to 4
    pi = SignedPermutation([2, 5, -6, -1, -3, 7, -4])
    assert sorted(descent_set(pi).members) == [2, 4, 6]
    t = TransferTrace()
    s = phi_plus(pi, trace=t)
    assert s.images == (-1, 2, -6, -3, -5, 4)
    assert sorted(descent_set(s).members) == [0, 2, 4]
    assert str(to_canonical_cycles(s)) == "(-5)(-1)(2)(4,-3,-6)"
    assert t.swap_count() == 1
    assert capital_phi(pi).images == (1, 2, -6, -3, -5, 4)
    assert psi_plus(s) == pi


def test_forward_thirteen():
    # (1,-4,8,-6,11,2,-3,7,-5,10,12,9,13): two batches in the first round,
    # three single-swap batches in the second, five swaps total
    pi = SignedPermutation([-4, -3, 7, 8, 10, 11, -5, -6, 13, 12, 2, 9, 1])
    assert sorted(descent_set(pi).members) == [0, 6, 7, 9, 10, 12]
    t = TransferTrace()
    s = phi_plus(pi, trace=t)
    assert s.images == (-5, -3, 2, 7, 8, 10, -4, -6, 12, 11, 1, 9)
    assert sorted(descent_set(s).members) == [0, 6, 7, 9, 10]
    assert str(to_canonical_cycles(s)) == "(2,-3)(7,-4)(11,1,-5,8,-6,10)(12,9)"
    assert t.swap_count() == 5
    assert psi_plus(s) == pi


def test_forward_negative_class():
    # (3,4,8,-1,5,7,2,-6,-9) carries -9, so the map factors through negation
    pi = SignedPermutation([5, -6, 4, 8, 7, -9, 2, -1, 3])
    assert sorted(descent_set(pi).members) == [1, 4, 5, 7]
    out = capital_phi(pi)
    assert out.images == (4, -1, 5, 8, 7, -6, 3, 2)
    assert sorted(descent_set(out).members) == [1, 4, 5, 7]
    with pytest.raises(ValueError):
        phi_plus(pi)


def test_degree_one():
    assert phi_plus(SignedPermutation([1])).images == ()
    assert capital_phi(SignedPermutation([-1])).images == ()
    assert psi_plus(SignedPermutation([])).images == (1,)
    assert capital_psi_D(SignedPermutation([])).images == (1,)
    assert capital_psi_Dbar(SignedPermutation([])).images == (-1,)


def test_non_cyclic_rejected():
    with pytest.raises(ValueError):
        phi_plus(SignedPermutation([1, 2]))
    with pytest.raises(ValueError):
        capital_phi(SignedPermutation([-1, 2, 3]))


# -- the trigger predicate -------------------------------------------------

def test_p_flag():
    pi = SignedPermutation([2, 5, -6, -1, -3, 7, -4])
    s = SignedPermutation([-1, 2, -6, -4, -3, 5])
    # Des(pi) = {2,4,6}, Des(s) = {0,2}; difference window is {4}
    assert p_flag(pi, s, 4, 5)
    assert p_flag(pi, s, 5, 4)
    assert not p_flag(pi, s, 3, 4)
    assert not p_flag(pi, s, 2, 3)
    assert not p_flag(pi, s, 2, 4)  # not adjacent
    assert not p_flag(pi, s, 0, 1)  # 0 outside the window
    assert not p_flag(pi, s, 6, 7)  # 6 outside the window
    with pytest.raises(ValueError):
        p_flag(s, s, 1, 2)
    with pytest.raises(ValueError):
        p_flag(pi, s, -1, 0)


def test_left_to_right_maxima():
    # phi_plus cuts the cycle word (1,-4,8,-6,11,2,-3,7,-5,10,12,9,13) at its
    # left-to-right maxima, 1-based positions 1, 3, 5, 11 and the dropped
    # final 13, into the working cycles of its first traced snapshot
    pi = SignedPermutation([-4, -3, 7, 8, 10, 11, -5, -6, 13, 12, 2, 9, 1])
    t = TransferTrace()
    phi_plus(pi, trace=t)
    assert str(t.iterations[0][1]) == "(1,-4)(8,-6)(11,2,-3,7,-5,10)(12,9)"


# -- exhaustive structure at small degree ---------------------------------

def test_bijection_small_degrees():
    for N in range(1, 6):
        n = N - 1
        Bn = 2 ** n * math.factorial(n)
        hit_D, hit_Db = set(), set()
        for w in all_cyclic_words(N):
            pi = word_to_perm(w)
            out = capital_phi(pi)
            assert truncated_descent_set(pi, n) == descent_set(out)
            neg = sum(1 for v in w if v < 0)
            (hit_D if neg % 2 == 0 else hit_Db).add(out.images)
        assert len(hit_D) == Bn
        assert len(hit_Db) == Bn


def test_inverses_small_degrees():
    for N in range(1, 6):
        for w in all_cyclic_words(N):
            pi = word_to_perm(w)
            out = capital_phi(pi)
            neg = sum(1 for v in w if v < 0)
            back = capital_psi_D(out) if neg % 2 == 0 else capital_psi_Dbar(out)
            assert back == pi


def test_psi_lands_in_positive_class():
    for n in range(0, 4):
        for b in permutations(range(1, n + 1)):
            for signs in product((1, -1), repeat=n):
                s = SignedPermutation([e * v for e, v in zip(signs, b)])
                up = psi_plus(s)
                assert is_cyclic(up)
                assert up.n == n + 1
                assert (n + 1) in up.images  # positive class
                assert phi_plus(up) == s


def test_preimage_quadruple_classes():
    for s in (SignedPermutation([2, -3, 1]), SignedPermutation([-1, -2, 3, 4])):
        quad = preimage_quadruple(s)
        n1 = s.n + 1
        classes = set()
        for q in quad:
            assert is_cyclic(q)
            pos = n1 in q.images
            even = q.negative_count() % 2 == 0
            classes.add((pos, even))
            out = capital_phi(q)
            assert out in (s, s.times_neg1())
        assert len(classes) == 4


def test_preimage_quadruple_needs_degree_one():
    with pytest.raises(ValueError):
        preimage_quadruple(SignedPermutation([]))
    quad = preimage_quadruple(SignedPermutation([-1]))
    assert len(set(quad)) == 4


def test_capital_phi_pair_matches_single_words():
    # one raw rewriting and one fix-up serve a positive word, and the
    # negated image its negation
    for N in range(1, 8):
        for w in all_cyclic_words(N):
            if w[-1] > 0:
                res = _capital_phi_word(w)
                assert _raw_and_capital_phi(w) == (_phi_plus_word(w), res)
                assert _capital_phi_word(tuple(-v for v in w)) == [-v for v in res]


def _two_branch_phi(word):
    """Phi with a branch per sign class: the raw rewriting of the word, or
    of its negation negated back, then the fix-up in place, comparing the
    sign of the first image with that of the image of 1 under the word."""
    N = len(word)
    if word[-1] == N:
        res = _phi_plus_word(word)
    else:
        res = [-v for v in _phi_plus_word([-v for v in word])]
    if N == 1:
        return []
    p = word.index(1) if 1 in word else word.index(-1)
    if (word[p + 1 - N] < 0) != (res[1] < 0):
        i = res.index(1) if 1 in res else res.index(-1)
        res[i] = -res[i]
    return res[1:]


def _phi_words():
    """Every word of CB(N) for N <= 7, both signs of the stress words W_N at
    N = 101 and 1001 with their negations, and 20 seeded words of CB(1001)."""
    for N in range(1, 8):
        yield from all_cyclic_words(N)
    for N, one in product((101, 1001), (1, -1)):
        w = stress_word(N, one)
        yield w
        yield [-v for v in w]
    for seed in range(20):
        yield _images_to_word(sample(DomainSpec("CB", 1001), seed).images)


def test_negative_class_is_the_negated_image():
    # Phi(w) = -Phi(-w) for w ending in -N gives the output of the
    # two-branch form: negating both of the fix-up's arguments flips both
    # signs it compares, so it flips the same entry
    for w in _phi_words():
        assert _capital_phi_word(w) == _two_branch_phi(list(w))


def test_phi_fixup_leaves_its_arguments():
    for w in map(list, all_cyclic_words(6)):
        if w[-1] > 0:
            raw = _phi_plus_word(w)
            word, kept = w[:], raw[:]
            assert _phi_fixup(w, raw) == _capital_phi_word(w)
            assert (w, raw) == (word, kept)


def test_setup_cuts_canonical_word_into_the_cycles():
    # the inverse direction's set-up: the canonical cycles laid end to end
    # are cut at their left-to-right maxima exactly into sigma's cycles
    for n in range(7):
        for s in all_signed(n):
            cycles = _canonical_cycles(s.images)
            word = [v for c in cycles for v in c] + [n + 1]
            _, sig, _, _, _, starts = _setup(word, n)
            ends, _, _ = _chunk_tables(n, starts)
            assert tuple(sig[1:]) == s.images
            bounds = [0]
            for c in cycles:
                bounds.append(bounds[-1] + len(c))
            assert starts == bounds[:-1]
            assert ends == [b - 1 for b in bounds[1:]]


# -- the early exit --------------------------------------------------------

def _exits(monkeypatch):
    """Record, per untraced call, whether the rewriting left after the
    first set-up pass (the chunk tables were never built)."""
    built = []
    real = transfer._chunk_tables

    def spy(n, starts):
        built.append(True)
        return real(n, starts)

    monkeypatch.setattr(transfer, "_chunk_tables", spy)

    def exited(run, x):
        del built[:]
        out = run(x)
        return out, not built

    return exited


def test_forward_early_exit_equals_the_full_loop(monkeypatch):
    # taken exactly when the traced run, which always walks every chunk,
    # records no swap, and then with the traced run's output
    exited = _exits(monkeypatch)
    for N in range(1, 7):
        for w in all_cyclic_words(N):
            if w[-1] < 0:
                continue
            t = TransferTrace()
            traced = _phi_plus_word(w, t)
            out, took = exited(_phi_plus_word, w)
            assert out == traced
            assert took == (t.swap_count() == 0)


def test_inverse_early_exit_equals_the_full_loop(monkeypatch):
    exited = _exits(monkeypatch)
    for n in range(6):
        for s in all_signed(n):
            t = TransferTrace()
            traced = psi_plus(s, trace=t)
            out, took = exited(_psi_plus_word, s.images)
            assert SignedPermutation(_word_to_images(out)) == traced
            assert took == (t.swap_count() == 0)


@pytest.mark.parametrize("one", (1, -1))
def test_stress_words_swap_most_and_round_trip(one):
    assert stress_word(8, 1) == [-4, -2, 7, -6, -5, -3, 1, 8]
    for N in (8, 12, 101, 1001):
        x = SignedPermutation(_word_to_images(stress_word(N, one)))
        # the traced run checks every invariant of the rewriting as it goes
        t = TransferTrace()
        y = phi_plus(x, t)
        assert y == phi_plus(x) and t.swap_count() == 2 * N - 9
        assert psi_plus(y) == x
        psi = capital_psi_D if x.negative_count() % 2 == 0 else capital_psi_Dbar
        assert psi(capital_phi(x)) == x


def test_order_check_catches_two_entries_swapped_in_one_chunk():
    from cyclic_descents.tracing import _PhiContext

    w = stress_word(12, 1)
    n = len(w) - 1
    pi_img, sig, desP, desS, pos_of, starts = _setup(w, n)
    ends, _, _ = _chunk_tables(n, starts)
    ent = list(w[:n])
    ctx = _PhiContext(TransferTrace(), ent, starts, ends, pos_of, sig, desS,
                      desP, pi_img)
    ctx.check_order(0)
    k = max(k for k, (lo, hi) in enumerate(zip(starts, ends)) if hi > lo)
    lo = starts[k]
    ent[lo], ent[lo + 1] = ent[lo + 1], ent[lo]
    with pytest.raises(AssertionError, match=f"relative order broken in cycle {k}$"):
        ctx.check_order(0)


# -- trace bookkeeping -----------------------------------------------------

def test_trace_swaps_adjacent_magnitudes():
    pi = SignedPermutation([-4, -3, 7, 8, 10, 11, -5, -6, 13, 12, 2, 9, 1])
    t = TransferTrace()
    phi_plus(pi, trace=t)
    for _, snap, swaps in t.iterations:
        assert snap.n == 12
        for xv, yv, (xp, yp) in swaps:
            assert abs(abs(xv) - abs(yv)) == 1
            assert xp != yp


def test_psi_trace_records_iterations():
    s = SignedPermutation([-5, -3, 2, 7, 8, 10, -4, -6, 12, 11, 1, 9])
    t = TransferTrace()
    psi_plus(s, trace=t)
    assert t.swap_count() == 5
    for _, snap, _ in t.iterations:
        assert snap.n == 13


# -- randomized round trips ------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(signed_perms(max_n=8, min_n=0))
def test_phi_psi_roundtrip(s):
    assert phi_plus(psi_plus(s)) == s


@settings(deadline=None, max_examples=200)
@given(signed_perms(max_n=8))
def test_capital_roundtrips(s):
    up = capital_psi_D(s)
    assert is_cyclic(up) and up.negative_count() % 2 == 0
    assert capital_phi(up) == s
    up2 = capital_psi_Dbar(s)
    assert is_cyclic(up2) and up2.negative_count() % 2 == 1
    assert capital_phi(up2) == s


@settings(deadline=None, max_examples=150)
@given(signed_perms(max_n=8))
def test_capital_preserves_descents(s):
    for up in (capital_psi_D(s), capital_psi_Dbar(s)):
        assert truncated_descent_set(up, s.n) == descent_set(s)


# -- golden traces ---------------------------------------------------------

def _trace_digest(run, perms):
    """sha256 over (iteration, str(snapshot), swaps) of every traced run."""
    h = hashlib.sha256()
    for p in perms:
        t = TransferTrace()
        run(p, trace=t)
        for it, snap, swaps in t.iterations:
            h.update(repr((it, str(snap), swaps)).encode())
        h.update(b"|")
    return h.hexdigest()


def test_golden_traces():
    # 400 seeded positive-class cyclic words of degree <= 13 for phi_plus and
    # 400 seeded signed permutations of degree <= 12 for psi_plus
    rng = random.Random(20251)
    cyclic, perms = [], []
    for _ in range(400):
        N = rng.randint(1, 13)
        mags = rng.sample(range(1, N), N - 1)
        cyclic.append(word_to_perm([rng.choice((1, -1)) * v for v in mags] + [N]))
        n = rng.randint(0, 12)
        perms.append(SignedPermutation(
            [rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), n)]))
    assert _trace_digest(phi_plus, cyclic) == (
        "2f4896e1b9424896c35dd687592300012cc275f61981a1e6dbbde8a92b40af14")
    assert _trace_digest(psi_plus, perms) == (
        "b34cef2a8af3f544d23fb1825688738a63db4f42ef9af6c0d7d35d053bd39b6a")


def test_exhaustive_traces():
    # every swap event, in order: phi_plus on the 4283 positive words of
    # CB(<=6), psi_plus on the 4283 elements of B(<=5)
    positive = [x for N in range(1, 7) for x in iterate(DomainSpec("CB", N))
                if x.images.count(-N) == 0]
    signed = [x for n in range(6) for x in iterate(DomainSpec("B", n))]
    assert _trace_digest(phi_plus, positive) == (
        "45caa065db76ab9ef4e2ea95c7cfe5ef6ebabdf135a28ced203e26f922850d5f")
    assert _trace_digest(psi_plus, signed) == (
        "7671cd40fafa2c2bdb6183122a637406c85c12cf70d560025878be6cee0de660")


def checked_copy(x):
    """x rebuilt through the validating constructor, which raises if the
    library built an invalid element without checks."""
    assert isinstance(x.images, tuple) and x.n == len(x.images)
    return SignedPermutation(list(x.images))


def test_unchecked_outputs_are_valid():
    for n in range(1, 7):
        for x in iterate(DomainSpec("CB", n)):
            for y in [x, capital_phi(x)] + ([phi_plus(x)] if x.images.count(-n) == 0 else []):
                assert checked_copy(y) == y
        for x in iterate(DomainSpec("B", n - 1)):
            ys = [psi_plus(x), capital_psi_D(x), capital_psi_Dbar(x)]
            if n > 1:
                ys += preimage_quadruple(x)
            for y in ys:
                assert checked_copy(y) == y


def test_unchecked_outputs_are_valid_at_degree_1001():
    rng = make_rng(1001)
    for kind in ("CB", "CD", "CDbar", "B"):
        d = DomainSpec(kind, 1001)
        for _ in range(3):
            x = sample(d, rng)
            ys = [x, unrank(d, 12345)]
            if kind == "B":
                ys += [psi_plus(x), capital_psi_D(x), capital_psi_Dbar(x),
                       *preimage_quadruple(x)]
            else:
                ys += [capital_phi(x)]
                if x.images.count(-1001) == 0:
                    ys += [phi_plus(x)]
            for y in ys:
                assert checked_copy(y) == y
