"""The claim checkers themselves, at desk sizes."""

import multiprocessing
import os
import pickle
import runpy
import signal
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from cyclic_descents import domains, lab, transfer, verify
from cyclic_descents.catalog import CLAIM_ROWS
from cyclic_descents.cycles import _images_to_word, _word_to_images
from cyclic_descents.domains import DomainSpec, cardinality, iterate, iterate_words
from cyclic_descents.statistics import _des_maj_neg, _descent_mask
from cyclic_descents.transfer import stress_word
from cyclic_descents.verify import (CLAIMS, MAX_REPORTED, check_bijection,
                                    check_colored, check_corollary_counts,
                                    check_elizalde_equivalence,
                                    check_inverses, check_moments,
                                    check_order_swap_properties,
                                    check_phi_descents, check_stat_gaps)
from conftest import all_cyclic_words
from faults import FAULTS, SEED, patches


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


def test_thread_counts_past_the_ceiling_fork_nothing(no_fork):
    # refused before any row is walked or any child is forked
    for threads in (domains.MAX_THREADS + 1, 100000):
        with pytest.raises(ValueError, match=rf"^bad thread count {threads}, not in 1\.\.64$"):
            check_phi_descents(7, threads=threads)
    # the ceiling itself is taken, on a one-row shard that needs no fork
    r = check_phi_descents(2, shard=(0, 16), threads=domains.MAX_THREADS)
    assert r.passed and (r.checked, r.params["threads"]) == (1, 1)


def test_phi_descents_threads_agree():
    a = check_phi_descents(5)
    b = check_phi_descents(5, threads=3)
    assert b.passed and b.checked == a.checked


def test_bijections():
    for parity in ("D", "Dbar"):
        r = check_bijection(4, parity)
        assert r.passed and r.checked == 2**4 * 24


@pytest.mark.parametrize("k", [1, 2])
def test_bijections_at_the_edge_degrees(monkeypatch, k):
    # at n = 0 every image is a row of zero bytes, and on two processes one
    # part is empty
    _on_workers(monkeypatch, k)
    for n, want in ((0, "1/1"), (1, "2/2")):
        for parity in ("D", "Dbar"):
            r = check_bijection(n, parity)
            assert r.passed and r.details == f"{want} distinct images"


@pytest.mark.parametrize("n", [0, 3, 8, 10])
def test_image_keys_are_equal_exactly_when_rows_are(n):
    import numpy as np

    rows = [bytes(n), bytes(range(1, n + 1)), bytes(range(n, 0, -1)), bytes(n)]
    keys = verify._image_keys(np, b"".join(rows), len(rows), n)
    assert len(keys) == len(rows)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert (keys[i] == keys[j]) == (a == b)


def test_bijection_memory_stays_bounded(monkeypatch):
    # a passing run keeps n bytes and two 8-byte keys a row, and builds no
    # index array
    import tracemalloc

    import numpy  # noqa: F401 -- its import is not the claim's memory

    monkeypatch.setattr(domains, "_cores", lambda: 1)
    assert check_bijection(2).passed
    tracemalloc.start()
    try:
        assert check_bijection(6, "D").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


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
    # the lowest degree the closed forms hold at
    assert check_moments(4, 4).passed


def test_moments_refuses_an_empty_range():
    # a sweep over no degree would pass with 0 checks
    with pytest.raises(ValueError, match="empty degree range 5..4$"):
        check_moments(5, 4)


@pytest.mark.parametrize("n_lo, n_hi", [(3, 3), (1, 5)])
def test_moments_refuses_degrees_below_4(n_lo, n_hi):
    # the closed forms hold from n = 4 on; below it a mismatch is no violation
    with pytest.raises(ValueError, match="closed-form moments require n >= 4$"):
        check_moments(n_lo, n_hi)


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


def test_claims_past_the_budget_are_refused_before_any_row(monkeypatch):
    # the budget is read when a claim runs; a refused claim reaches no
    # range driver and walks no row
    monkeypatch.setattr(verify, "BUDGET_LIMIT", 100)
    with monkeypatch.context() as m:
        m.setattr(verify, "_over_range", None)
        m.setattr(verify, "iterate_words", None)
        for call, rows in ((partial(check_phi_descents, 4), 768),
                           (partial(check_bijection, 4, "D"), 384),
                           (partial(check_colored, 3, 3), 486)):
            with pytest.raises(domains.BudgetError,
                               match=f"holds {rows} rows, over the 100 budget$"):
                call()
    # a shard is counted by its own range, and the inverse laws by both
    # their sweeps: B(2) and CB(3), 8 + 16 rows
    r = check_phi_descents(4, shard=(0, 8))
    assert r.passed and r.checked == 96
    assert check_inverses(2).passed
    assert check_colored(3, 2).passed


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
            for pos, rows, phi in verify._pair_rows(N, lo, hi):
                # no pair outside the range is rewritten; its + row is first
                assert [sign for _, sign in rows] in ([1], [-1], [1, -1])
                assert phi == transfer._raw_and_capital_phi(pos)
                for k, sign in rows:
                    assert tuple(sign * v for v in pos) == next(iterate_words(d, k, k + 1))
                    keys.append(k)
            assert sorted(keys) == list(range(lo, hi))


def test_negative_row_is_read_off_the_positive_image():
    # the negative row's figures as the pair rows derive them, against a
    # reference that builds the negated image and recounts it
    words = [w for N in range(1, 8) for w in all_cyclic_words(N) if w[-1] > 0]
    for w in words + [stress_word(101, 1), stress_word(101, -1)]:
        N = len(w)
        cap = (1 << (N - 1)) - 1
        img = _word_to_images(w)
        _, res = transfer._raw_and_capital_phi(w)
        neg_img, neg = [-v for v in img], [-v for v in res]
        # the input masks and the image masks are complements at 0..N-2
        assert _descent_mask(neg_img) & cap == _descent_mask(img) & cap ^ cap
        assert _descent_mask(neg) == _descent_mask(res) ^ cap
        des, maj, negs = _des_maj_neg(img)
        des_o, maj_o, neg_o = _des_maj_neg(res)
        dd, df = des - des_o, 2 * (maj - maj_o) + negs - neg_o
        des, maj, negs = _des_maj_neg(neg_img)
        des_o, maj_o, neg_o = _des_maj_neg(neg)
        assert (1 - dd, 2 * N - 1 - df) == (des - des_o, 2 * (maj - maj_o) + negs - neg_o)


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


def _inject(monkeypatch, label):
    """Patch the fault of FAULTS[label] in for the rest of the test."""
    for mod, name, fake in patches(label):
        monkeypatch.setattr(mod, name, fake)


def test_negative_class_faults_are_caught(monkeypatch):
    # a fix-up fault reaches the negative rows through the positive image
    # alone, whether their + partner lies in their shard or not
    _inject(monkeypatch, "fixup first sign dropped")
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    r = check_phi_descents(4)
    assert not r.passed and len(r.failures) == 288
    two = check_phi_descents(4, threads=2)
    assert (two.failures, two.details) == (r.failures, r.details)
    shards = [check_phi_descents(4, shard=(i, 7)).failures for i in range(7)]
    assert sum(shards, []) == r.failures
    assert all(any(w[-1] == -5 for w in failures) for failures in shards)
    g = check_stat_gaps(4)
    assert not g.passed
    assert {-p.n in p.images for p, _, _ in g.failures} == {False, True}
    # each row reports its own gaps, recounted here on both sides
    for p, dd, df in g.failures:
        des, maj, negs = _des_maj_neg(p.images)
        out = transfer._capital_phi_word(_images_to_word(p.images))
        des_o, maj_o, neg_o = _des_maj_neg(out)
        assert (dd, df) == (des - des_o, 2 * (maj - maj_o) + negs - neg_o)


def test_colored_reports_alike_on_one_and_two_processes(monkeypatch):
    # 5832 rows at cost 4 reach SERIAL_ROWS, so the sweep splits by itself
    _inject(monkeypatch, "colored_phi constant")
    monkeypatch.setattr(domains, "_cores", lambda: 2)
    parts = []

    def counted(*args, **kw):
        out = domains._over_range(*args, **kw)
        parts.append(len(out))
        return out

    monkeypatch.setattr(verify, "_over_range", counted)
    two = check_colored(4, 3)
    monkeypatch.setattr(verify, "_over_range",
                        lambda *args, **kw: counted(*args, **{**kw, "processes": 1}))
    one = check_colored(4, 3)
    assert parts == [2, 1]
    assert not two.passed and two.checked == 2 * 24 * 3 ** 5
    assert (one.passed, one.checked, one.failures) == (two.passed, two.checked, two.failures)


def test_inverse_faults_are_reported_under_every_tag(monkeypatch):
    # a psi rewrite that swaps the first two word entries breaks every law
    # on every element, so each of the six laws must report every element
    _inject(monkeypatch, "psi_plus first two swapped")
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    r = check_inverses(3)
    assert r.checked == 288 and not r.passed
    assert Counter(tag for tag, _ in r.failures) == dict.fromkeys(
        ("D-left", "Dbar-left", "plus-left", "CD-right", "CDbar-right",
         "plus-right"), 48)
    # each left law reports the row itself, in row order
    rows = [p for tag, p in r.failures if tag == "plus-left"]
    assert rows == list(iterate(DomainSpec("B", 3)))


def test_left_laws_run_both_class_maps(monkeypatch):
    # a Phi that drops the sign of the first image breaks both left laws at
    # exactly the rows with sigma(1) < 0, each law through Phi itself
    _inject(monkeypatch, "capital_phi many-to-one")
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    r = check_inverses(3)
    assert not r.passed
    rows = {tag: [p for t, p in r.failures if t == tag]
            for tag in ("D-left", "Dbar-left", "plus-left")}
    want = [p for p in iterate(DomainSpec("B", 3)) if p.images[0] < 0]
    assert rows == {"D-left": want, "Dbar-left": want, "plus-left": []}
    assert len(r.failures) == 2 * len(want) == 48


def test_bijection_reports_rows_outside_the_class(monkeypatch):
    # with each row's last sign flipped, every CD row has an odd negative
    # count; Phi is one-to-one on it all the same, so only the class check
    # fails, at the smallest ranks
    _inject(monkeypatch, "parity sign flipped")
    r = check_bijection(3, "D")
    rows = list(enumerate(iterate_words(DomainSpec("CD", 4))))
    assert all(sum(v < 0 for v in w) % 2 for _, w in rows)
    assert not r.passed and r.checked == len(rows) == 48
    assert r.details == "48/48 distinct images, 48 rows outside the class"
    assert r.failures == [w for _, w in rows[:MAX_REPORTED]]
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    _on_workers(monkeypatch, 2)
    assert check_bijection(3, "D").failures == [w for _, w in rows]


@pytest.mark.parametrize("label, run, shows", [
    # a trigger oracle that always disagrees trips the cross-check on every word
    ("descent trigger inverted", partial(check_elizalde_equivalence, 4),
     lambda r: all(msg.startswith("cross-check: ") for _, msg in r.failures)),
    # every element mapped to one output fails its round trip, but for the
    # one lift of that output in each color class
    ("colored_phi constant", partial(check_colored, 3, 2), None),
    ("theoretical_moments wrong", partial(check_moments, 4, 6), None),
    ("capital_phi many-to-one", partial(check_bijection, 3),
     lambda r: r.details == "24/48 distinct images"),
    ("phi_plus traced output",
     partial(check_order_swap_properties, count=50, degree=8, seed=1),
     lambda r: all(msg == "trace changed the output" for _, msg in r.failures)),
    ("psi_plus first two swapped", partial(check_inverses, 1), None),
], ids=["cross-check", "color-class", "moments", "bijection", "order-swap", "inverses"])
def test_failures_are_capped(monkeypatch, label, run, shows):
    # the report is the first MAX_REPORTED failures of the full list
    _inject(monkeypatch, label)
    r = run()
    assert shows is None or shows(r)
    assert not r.passed and len(r.failures) == MAX_REPORTED
    monkeypatch.setattr(verify, "MAX_REPORTED", 10 ** 6)
    every = run()
    assert shows is None or shows(every)
    assert len(every.failures) > MAX_REPORTED
    assert every.failures[:MAX_REPORTED] == r.failures
    assert (every.checked, every.details) == (r.checked, r.details)


SUITE = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts"
                           / "verify_all.py"))["suite"]


@pytest.mark.parametrize("label", FAULTS)
def test_each_fault_fails_exactly_its_claims(monkeypatch, label):
    _inject(monkeypatch, label)
    failing = {r.claim for r in (call() for call in SUITE(True, SEED)) if not r.passed}
    claims = FAULTS[label][2]
    assert failing == claims, (f"failed but not listed: {sorted(failing - claims)}, "
                               f"listed but passed: {sorted(claims - failing)}")


def test_every_claim_fails_under_some_fault():
    missing = set(CLAIM_ROWS).difference(*(claims for _, _, claims in FAULTS.values()))
    assert not missing, f"no fault fails {sorted(missing)}"



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


DRIVEN = [partial(check_phi_descents, 4), partial(check_phi_descents, 4, shard=(1, 7)),
          partial(check_bijection, 4, "D"), partial(check_bijection, 4, "Dbar"),
          partial(check_inverses, 3), partial(check_stat_gaps, 5),
          partial(check_inverses, 2), partial(check_elizalde_equivalence, 4),
          partial(check_order_swap_properties, 300, 7, 5), partial(check_colored, 3, 3)]
# the claims on exact tables, which no fault of the maps reaches
TABLES = [partial(check_corollary_counts, 4), partial(check_moments, 5, 5)]


@pytest.mark.parametrize("label", [None, "negative class negated", "fixup first sign dropped",
                                   "psi_plus first two swapped",
                                   "last image repeats the first",
                                   "descent trigger inverted", "phi_plus traced output"],
                         ids=["none", "negative-class", "many-to-one", "inverses",
                              "repeat-across-parts", "cross-check", "order-swap"])
def test_claims_agree_on_any_number_of_workers(monkeypatch, label):
    # the parts' edges fall inside magnitude blocks and +- pairs (in the
    # shard, in the right inverse laws at degree 2 and 3 workers, and in
    # the gaps at small degree)
    if label is not None:
        _inject(monkeypatch, label)
    for cap in (MAX_REPORTED, 10 ** 6):
        monkeypatch.setattr(verify, "MAX_REPORTED", cap)
        reports = {}
        for k in (1, 2, 3):
            _on_workers(monkeypatch, k)
            runs = [call() for call in DRIVEN + (TABLES if label is None else [])]
            assert runs[0].params["threads"] == k
            reports[k] = [(r.passed, r.checked, r.details, r.failures) for r in runs]
        assert reports[2] == reports[1] and reports[3] == reports[1]
    if label == "last image repeats the first":
        for (passed, _, details, failures), kind in zip(reports[1][2:4], ("CD", "CDbar")):
            d = DomainSpec(kind, 5)
            assert not passed and details == "383/384 distinct images"
            assert failures == [next(iterate_words(d, cardinality(d) - 1))]
    if label == "psi_plus first two swapped":
        tags = {tag for tag, _ in reports[1][4][3]}
        assert {"D-left", "plus-right", "CDbar-right"} <= tags
    if label == "fixup first sign dropped":
        # the shard (1, 7) of CB(5) reports the whole run's failures in its
        # ranks, its lone negative rows (partner k ^ 31 outside) among them
        (_, _, _, whole), (passed, _, _, failures) = reports[1][:2]
        lo, hi = 768 // 7, 2 * 768 // 7
        inside = list(enumerate(iterate_words(DomainSpec("CB", 5), lo, hi), lo))
        assert not passed and failures == [w for _, w in inside if w in whole]
        assert any(w[-1] < 0 and not lo <= k ^ 31 < hi for k, w in inside if w in failures)
    if label == "descent trigger inverted":
        assert not reports[1][7][0]
    if label == "phi_plus traced output":
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
    # result, 23040 images of 6 bytes each (138 kB), is more than a pipe
    # holds: the child must not be left blocked on it
    _on_workers(monkeypatch, 2)
    child_part = verify._images_part(23040, 46080, "CD", 7)
    assert len(pickle.dumps((True, child_part), pickle.HIGHEST_PROTOCOL)) > 64 * 1024
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


def test_a_sweep_has_no_more_parts_than_rows(monkeypatch):
    # CB(1) has 2 rows, so 3 processes asked for run as 2: one fork
    real, forks = os.fork, []

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    r = check_phi_descents(0, threads=3)
    assert r.passed and r.checked == 2
    assert (len(forks), r.params["threads"]) == (1, 2)
    _no_child_left()
