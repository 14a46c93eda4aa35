"""The claim checkers themselves, at desk sizes."""

import multiprocessing
import os
import signal
import time
from collections import Counter
from functools import partial

import pytest

from cyclic_descents import classic, colored, domains, lab, transfer, verify
from cyclic_descents.colored import ColoredPermutation
from cyclic_descents.domains import DomainSpec, cardinality, iterate, iterate_words
from cyclic_descents.lab import MomentReport
from cyclic_descents.verify import (CLAIMS, MAX_REPORTED, check_bijection,
                                    check_colored, check_corollary_counts,
                                    check_elizalde_equivalence,
                                    check_inverses, check_moments,
                                    check_order_swap_properties,
                                    check_phi_descents, check_stat_gaps)


def test_claim_registry_is_complete():
    assert set(CLAIMS) == {
        "phi-descents", "bijection-D", "bijection-Dbar", "inverses",
        "corollary-counts", "elizalde-equivalence", "colored", "moments",
        "stat-gaps", "order-swap-properties"}


def test_phi_descents_exhaustive_small():
    r = check_phi_descents(5)
    assert r.passed and r.checked == 2**6 * 120
    assert "PASS" in r.line()


def test_phi_descents_shards_partition():
    total = 0
    for i in range(4):
        r = check_phi_descents(4, shard=(i, 4))
        assert r.passed
        total += r.checked
    assert total == 2**5 * 24
    with pytest.raises(ValueError):
        check_phi_descents(4, shard=(4, 4))
    for threads in (0, -1):
        with pytest.raises(ValueError):
            check_phi_descents(4, threads=threads)


def test_phi_descents_threads_agree():
    a = check_phi_descents(5)
    b = check_phi_descents(5, threads=3)
    assert b.passed and b.checked == a.checked


def test_bijections():
    for parity in ("D", "Dbar"):
        r = check_bijection(4, parity)
        assert r.passed and r.checked == 2**4 * 24


def test_inverses():
    r = check_inverses(3)
    assert r.passed
    # three left laws per group element plus one per element of each of the
    # three cyclic classes one degree up
    assert r.checked == 3 * 48 + 48 + 48 + 48


def test_corollary_counts():
    assert check_corollary_counts(4).passed


def test_elizalde_equivalence():
    r = check_elizalde_equivalence(6)
    assert r.passed and r.checked == 720


def test_colored():
    r = check_colored(3, 2)
    assert r.passed


def test_moments():
    assert check_moments(5, 6).passed


def test_moments_refuses_an_empty_range():
    # a sweep over no degree would pass with 0 checks
    with pytest.raises(ValueError, match="empty degree range 5..4$"):
        check_moments(5, 4)


def test_stat_gaps():
    r = check_stat_gaps(6)
    assert r.passed


@pytest.mark.parametrize("n_hi", [0, -3])
def test_stat_gaps_refuses_an_empty_range(n_hi):
    # a sweep over no degree would pass with 0 checks
    with pytest.raises(ValueError, match=f"bad degree bound {n_hi}$"):
        check_stat_gaps(n_hi)


def test_order_swap_properties_sampled():
    r = check_order_swap_properties(count=500, degree=9, seed=4)
    assert r.passed and r.checked == 500


@pytest.mark.parametrize("degree", [0, -1])
def test_order_swap_properties_refuses_a_bad_degree(degree):
    # there is no cyclic word of degree below 1 to draw
    with pytest.raises(ValueError, match=f"bad degree {degree}$"):
        check_order_swap_properties(10, degree)


def test_bijection_refuses_an_unknown_parity(monkeypatch):
    # refused before any sweep: the range driver is never reached
    monkeypatch.setattr(verify, "_over_range", None)
    with pytest.raises(ValueError, match="bad parity 'X'$"):
        check_bijection(2, "X")


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_pair_rows_key_each_rank_of_the_range_once(N):
    # every range at N < 4; at N = 4 (blocks of 16, pairs i and i ^ 15) cuts
    # on block edges, inside blocks, inside +- pairs and of one row
    d = DomainSpec("CB", N)
    total = cardinality(d)
    edges = range(total + 1) if N < 4 else (0, 1, 7, 8, 9, 12, 16, 40, 95, 96)
    for lo in edges:
        for hi in (e for e in edges if e > lo):
            keys = []
            for pos, key, neg_key, phi in verify._pair_rows(N, lo, hi):
                assert phi == transfer._capital_phi_pair(pos)
                for k, w in ((key, pos), (neg_key, tuple(-v for v in pos))):
                    if k is not None:
                        assert w == next(iterate_words(d, k, k + 1))
                        keys.append(k)
            assert sorted(keys) == list(range(lo, hi))


@pytest.mark.parametrize("t", [3, 7])
def test_phi_descents_shards_split_sign_pairs(t):
    # shard edges at total*i/t fall inside magnitude blocks, so some +- pairs
    # straddle two shards and each half is checked alone
    total = 2**5 * 24
    whole = check_phi_descents(4)
    assert whole.passed and whole.checked == total
    parts = [check_phi_descents(4, shard=(i, t)) for i in range(t)]
    assert all(r.passed for r in parts)
    # each shard checks exactly the elements of its own rank range
    assert [r.checked for r in parts] == [total * (i + 1) // t - total * i // t
                                          for i in range(t)]
    two = check_phi_descents(4, threads=2)
    assert two.passed and two.checked == whole.checked


def test_negative_class_faults_are_caught(monkeypatch):
    real = transfer._phi_fixup

    def corrupt(word, res):
        out = real(word, res)
        # negate the images of the negative class only
        return [-v for v in out] if word[-1] < 0 else out

    monkeypatch.setattr(transfer, "_phi_fixup", corrupt)
    r = check_phi_descents(4)
    assert not r.passed and r.failures
    assert all(w[-1] == -5 for w in r.failures)
    two = check_phi_descents(4, threads=2)
    assert (two.failures, two.details) == (r.failures, r.details)
    for i in range(7):
        r = check_phi_descents(4, shard=(i, 7))
        assert not r.passed and all(w[-1] == -5 for w in r.failures)
    g = check_stat_gaps(4)
    assert not g.passed and g.failures
    assert all(-p.n in p.images for p, _, _ in g.failures)


def test_inverse_faults_are_reported_under_every_tag(monkeypatch):
    # a psi rewrite that swaps the first two word entries breaks every law
    # on every element, so each of the six laws must report every element
    _psi_first_two_swapped(monkeypatch)
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    r = check_inverses(3)
    assert r.checked == 288 and not r.passed
    assert Counter(tag for tag, _ in r.failures) == dict.fromkeys(
        ("D-left", "Dbar-left", "plus-left", "CD-right", "CDbar-right",
         "plus-right"), 48)
    # each left law reports the row itself, in row order
    rows = [p for tag, p in r.failures if tag == "plus-left"]
    assert rows == list(iterate(DomainSpec("B", 3)))


# each fault patches the library and returns the claim run that reports it

def _inverted_trigger(monkeypatch):
    # a trigger oracle that always disagrees trips the cross-check on every word
    real = classic._descent_trigger
    monkeypatch.setattr(classic, "_descent_trigger", lambda *args: not real(*args))

    def run():
        r = check_elizalde_equivalence(4)
        assert all(msg.startswith("cross-check: ") for _, msg in r.failures)
        return r

    return run


def _constant_colored_phi(monkeypatch):
    # every element mapped to one output fails descents and every color class
    monkeypatch.setattr(colored, "colored_phi", lambda p: ColoredPermutation(
        p.n - 1, p.r, tuple(range(1, p.n)), (0,) * (p.n - 1)))
    return lambda: check_colored(3, 2)


def _wrong_moments(monkeypatch):
    monkeypatch.setattr(lab, "theoretical_moments",
                        lambda stat, n: MomentReport(-1, 0))
    return lambda: check_moments(2, 4)


def _many_to_one(monkeypatch):
    # dropping the sign of the first image merges the images in pairs
    real = transfer._capital_phi_word

    def merged(w):
        out = real(w)
        return [abs(out[0]), *out[1:]]

    monkeypatch.setattr(verify, "_capital_phi_word", merged)

    def run():
        r = check_bijection(3)
        assert r.details == "24/48 distinct images"
        return r

    return run


def _trace_changes_output(monkeypatch):
    real = transfer._phi_plus_word

    def traced_differs(word, trace=None):
        out = real(word, trace)
        if trace is not None:
            out[1] = -out[1]
        return out

    monkeypatch.setattr(verify, "_phi_plus_word", traced_differs)

    def run():
        r = check_order_swap_properties(count=50, degree=8, seed=1)
        assert all(msg == "trace changed the output" for _, msg in r.failures)
        return r

    return run


def _psi_first_two_swapped(monkeypatch):
    # at degree 2 the swapped word no longer ends in +-N, so Phi cannot
    # rewrite it and the law must fail without calling it
    real = transfer._psi_plus_word

    def faulty(images, trace=None):
        w = real(images, trace)
        return w[1::-1] + w[2:]

    monkeypatch.setattr(transfer, "_psi_plus_word", faulty)
    monkeypatch.setattr(verify, "_psi_plus_word", faulty)
    return lambda: check_inverses(1)


@pytest.mark.parametrize("fault", [_inverted_trigger, _constant_colored_phi,
                                   _wrong_moments, _many_to_one,
                                   _trace_changes_output, _psi_first_two_swapped],
                         ids=["cross-check", "color-class", "moments",
                              "bijection", "order-swap", "inverses"])
def test_failures_are_capped(monkeypatch, fault):
    # the report is the first MAX_REPORTED failures of the full list
    run = fault(monkeypatch)
    r = run()
    assert not r.passed and len(r.failures) == MAX_REPORTED
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    every = run()
    assert len(every.failures) > MAX_REPORTED
    assert every.failures[:MAX_REPORTED] == r.failures
    assert (every.checked, every.details) == (r.checked, r.details)


def test_elapsed_ignores_the_wall_clock(monkeypatch):
    # a wall clock stepped back mid-run must not give a negative time
    readings = iter(range(10 ** 6, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(readings)))
    for r in (check_phi_descents(2), check_bijection(2), check_inverses(2),
              check_elizalde_equivalence(3)):
        assert r.passed and r.elapsed >= 0


def test_bijection_claims_reject_unknown_keywords():
    assert CLAIMS["bijection-D"](n=2).passed
    assert CLAIMS["bijection-Dbar"](2).claim == "bijection-Dbar"
    for name in ("bijection-D", "bijection-Dbar"):
        with pytest.raises(TypeError):
            CLAIMS[name](n=2, r=3)


# -- the range driver --------------------------------------------------------

def _on_workers(monkeypatch, k):
    # every sweep, however small, splits over k processes
    monkeypatch.setattr(domains, "SERIAL_ROWS", 0)
    monkeypatch.setattr(domains, "_cores", lambda: k)


def _negative_class_fixup(monkeypatch):
    real = transfer._phi_fixup
    monkeypatch.setattr(transfer, "_phi_fixup", lambda word, res: (
        [-v for v in real(word, res)] if word[-1] < 0 else real(word, res)))


def _first_sign_dropped(monkeypatch):
    # merges the images in pairs.  Every rewriting path of a sweep, paired
    # or lone row, ends in the fix-up, so each split sees the same fault
    real = transfer._phi_fixup

    def merged(word, res):
        out = real(word, res)
        return [abs(v) for v in out[:1]] + out[1:]

    monkeypatch.setattr(transfer, "_phi_fixup", merged)
    monkeypatch.setattr(verify, "_phi_fixup", merged)


def _last_image_repeats_the_first(monkeypatch):
    # the last word of each parity class of degree 5 takes the image of the
    # first: one repeat, in the last part whatever the number of parts
    real = transfer._capital_phi_word
    swap = {}
    for kind in ("CD", "CDbar"):
        d = DomainSpec(kind, 5)
        swap[next(iterate_words(d, cardinality(d) - 1))] = next(iterate_words(d))
    monkeypatch.setattr(verify, "_capital_phi_word",
                        lambda w: real(swap.get(tuple(w), w)))


def _negated_image_damaged(monkeypatch):
    # only the image of the negated word is wrong, so only the negative
    # rows fail, whether their + partner lies in their part or not
    real = transfer._capital_phi_pair

    def damaged(word):
        raw, res, neg = real(word)
        return raw, res, [-v for v in neg[:1]] + neg[1:]

    monkeypatch.setattr(verify, "_capital_phi_pair", damaged)


DRIVEN = [partial(check_phi_descents, 4), partial(check_phi_descents, 4, shard=(1, 7)),
          partial(check_bijection, 4, "D"), partial(check_bijection, 4, "Dbar"),
          partial(check_inverses, 3), partial(check_stat_gaps, 5),
          partial(check_inverses, 2), partial(check_elizalde_equivalence, 4),
          partial(check_order_swap_properties, 300, 7, 5)]
# the claims on exact tables, which no fault of the maps reaches
TABLES = [partial(check_corollary_counts, 4), partial(check_moments, 5, 5)]


@pytest.mark.parametrize("fault", [None, _negative_class_fixup, _first_sign_dropped,
                                   _psi_first_two_swapped,
                                   _last_image_repeats_the_first,
                                   _negated_image_damaged, _inverted_trigger,
                                   _trace_changes_output],
                         ids=["none", "fixup", "many-to-one", "inverses",
                              "repeat-across-parts", "negated-image",
                              "cross-check", "order-swap"])
def test_claims_agree_on_any_number_of_workers(monkeypatch, fault):
    # the parts' edges fall inside magnitude blocks and +- pairs (in the
    # shard, in the right inverse laws at degree 2 and 3 workers, and in
    # the gaps at small degree)
    if fault is not None:
        fault(monkeypatch)
    for cap in (MAX_REPORTED, 10 ** 6):
        monkeypatch.setattr(verify, "MAX_REPORTED", cap)
        reports = {}
        for k in (1, 2, 3):
            _on_workers(monkeypatch, k)
            runs = [call() for call in DRIVEN + (TABLES if fault is None else [])]
            assert runs[0].params["threads"] == k
            reports[k] = [(r.passed, r.checked, r.details, r.failures) for r in runs]
        assert reports[2] == reports[1] and reports[3] == reports[1]
    if fault is _last_image_repeats_the_first:
        for (passed, _, details, failures), kind in zip(reports[1][2:4], ("CD", "CDbar")):
            d = DomainSpec(kind, 5)
            assert not passed and details == "383/384 distinct images"
            assert failures == [next(iterate_words(d, cardinality(d) - 1))]
    if fault is _psi_first_two_swapped:
        tags = {tag for tag, _ in reports[1][4][3]}
        assert {"D-left", "plus-right", "CDbar-right"} <= tags
    if fault is _negated_image_damaged:
        # the shard's lone negative rows fail as its paired ones do
        passed, _, _, failures = reports[1][1]
        assert not passed and all(w[-1] < 0 for w in failures)
    if fault is _inverted_trigger:
        assert not reports[1][7][0]
    if fault is _trace_changes_output:
        assert not reports[1][8][0]


def _no_child_left():
    assert not multiprocessing.active_children()
    # nor any raw fork: this process has no child left to reap
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_claims_leave_no_process(monkeypatch):
    _on_workers(monkeypatch, 2)
    assert check_bijection(4).passed
    _no_child_left()
    # a worker's error reaches the caller, and every worker is joined
    real = transfer._capital_phi_word
    last = next(iterate_words(DomainSpec("CD", 5), 383))

    def failing(w):
        if tuple(w) == last:
            raise RuntimeError("rewrite failed")
        return real(w)

    monkeypatch.setattr(verify, "_capital_phi_word", failing)
    with pytest.raises(RuntimeError, match="rewrite failed"):
        check_bijection(4)
    _no_child_left()


def test_failing_parent_part_leaves_no_process(monkeypatch):
    # this process's own part fails at its first row while the child's
    # result, 23040 distinct images and their ranks (about 320 kB pickled),
    # is more than a pipe holds: the child must not be left blocked on it
    _on_workers(monkeypatch, 2)
    real = transfer._capital_phi_word
    first = next(iterate_words(DomainSpec("CD", 7)))

    def failing(w):
        if tuple(w) == first:
            raise RuntimeError("first part failed")
        return real(w)

    def hung(signum, frame):
        raise TimeoutError("the driver hung")

    monkeypatch.setattr(verify, "_capital_phi_word", failing)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="first part failed"):
            check_bijection(6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _no_child_left()


def test_small_sweeps_stay_in_process(monkeypatch):
    # below SERIAL_ROWS rows, weighed by their cost, a sweep is one part in
    # this process, whatever the cores
    monkeypatch.setattr(domains, "_cores", lambda: 4)

    def no_fork():
        raise AssertionError("a small sweep forked")

    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        assert check_phi_descents(5).params["threads"] == 1
        # CB(6) has as many rows as that sweep, each of them cheaper
        assert sum(lab.count_range(DomainSpec("CB", 6), "fmaj").values()) == 7680
    assert check_phi_descents(5, threads=2).params["threads"] == 2
    monkeypatch.setattr(domains, "SERIAL_ROWS", 2 ** 6 * 120)
    assert check_phi_descents(5).params["threads"] == 4
