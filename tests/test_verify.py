"""The claim checkers themselves, at desk sizes."""

import multiprocessing
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


DRIVEN = [partial(check_phi_descents, 4), partial(check_phi_descents, 4, shard=(1, 7)),
          partial(check_bijection, 4, "D"), partial(check_bijection, 4, "Dbar"),
          partial(check_inverses, 3), partial(check_stat_gaps, 5)]
# the claims on exact tables, which no fault of the maps reaches
TABLES = [partial(check_corollary_counts, 4), partial(check_moments, 5, 5)]


@pytest.mark.parametrize("fault", [None, _negative_class_fixup, _first_sign_dropped,
                                   _psi_first_two_swapped,
                                   _last_image_repeats_the_first],
                         ids=["none", "fixup", "many-to-one", "inverses",
                              "repeat-across-parts"])
def test_claims_agree_on_any_number_of_workers(monkeypatch, fault):
    # the parts' edges fall inside magnitude blocks and +- pairs (in the
    # shard and at small degrees), and between the inverse laws' two phases
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


def test_parallel_claims_leave_no_process(monkeypatch):
    _on_workers(monkeypatch, 2)
    assert check_bijection(4).passed
    assert not multiprocessing.active_children()
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
    assert not multiprocessing.active_children()


def test_small_sweeps_stay_in_process(monkeypatch):
    # below SERIAL_ROWS rows a sweep is one part, whatever the cores
    monkeypatch.setattr(domains, "_cores", lambda: 4)
    assert check_phi_descents(5).params["threads"] == 1
    assert check_phi_descents(5, threads=2).params["threads"] == 2
    monkeypatch.setattr(domains, "SERIAL_ROWS", 2 ** 6 * 120)
    assert check_phi_descents(5).params["threads"] == 4
