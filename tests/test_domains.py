"""Enumeration, ranking and sampling over the eight element families."""

import ast
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import islice, permutations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from cyclic_descents import domains
from cyclic_descents.colored import ColoredPermutation, color_of
from cyclic_descents.cycles import is_cyclic
from cyclic_descents.domains import (KINDS, SAMPLE_CHUNK, BudgetError,
                                     DomainSpec, IntPhilox, _perm_rank,
                                     _perm_unrank, _radix_runs, _sign_bits,
                                     _skip_sign_bits, _uniform_index,
                                     cardinality, iterate, iterate_words,
                                     make_rng, rank, sample,
                                     sample_stat_batch, unrank)
from cyclic_descents.permutations import SignedPermutation


def test_cardinalities():
    assert cardinality(DomainSpec("B", 4)) == 2**4 * 24
    assert cardinality(DomainSpec("D", 4)) == 2**3 * 24
    assert cardinality(DomainSpec("CB", 5)) == 2**5 * 24
    assert cardinality(DomainSpec("CD", 5)) == 2**4 * 24
    assert cardinality(DomainSpec("CDbar", 5)) == 2**4 * 24
    assert cardinality(DomainSpec("S", 5)) == 120
    assert cardinality(DomainSpec("CS", 5)) == 24
    assert cardinality(DomainSpec("CSnr", 4, r=3)) == 3**4 * 6
    assert cardinality(DomainSpec("CSnr", 4, r=3, color_filter=1)) == 3**3 * 6
    assert cardinality(DomainSpec("CD", 1001)) == math.factorial(1000) << 1000
    assert cardinality(DomainSpec("CSnr", 1001, r=3, color_filter=2)) == \
        3**1000 * math.factorial(1000)


@pytest.mark.parametrize("to", [np.int64, np.int32, np.uint64])
def test_domain_spec_reads_numpy_integers_as_ints(to):
    # a numpy degree once sized CB(18) at 1007604782250065920 in int64, a
    # negative number at 20 and an OverflowError at 30, and sample and
    # exact_distribution raised AttributeError on it
    from cyclic_descents.lab import exact_distribution

    for n in (5, 18, 20, 30):
        d = DomainSpec("CB", to(n))
        assert type(d.n) is int and d == DomainSpec("CB", n)
        assert cardinality(d) == cardinality(DomainSpec("CB", n))
    assert sample(DomainSpec("CB", to(18)), 7) == sample(DomainSpec("CB", 18), 7)
    assert exact_distribution(DomainSpec("CB", to(5)), "des") == \
        exact_distribution(DomainSpec("CB", 5), "des")
    d = DomainSpec("CSnr", to(4), r=to(3), color_filter=to(1))
    assert [type(v) for v in (d.n, d.r, d.color_filter)] == [int] * 3
    assert cardinality(d) == cardinality(DomainSpec("CSnr", 4, r=3, color_filter=1))
    for args, kw in ((("CB", 5.0), {}), (("CSnr", 4), {"r": 3.0}),
                     (("CSnr", 4), {"r": 3, "color_filter": 1.0})):
        with pytest.raises(TypeError):
            DomainSpec(*args, **kw)


def test_domain_validation():
    for args, kw, msg in [
            (("Q", 3), {}, "unknown domain kind 'Q'"),
            (("CB", 0), {}, "CB needs degree >= 1"),
            (("B", -1), {}, "B needs degree >= 0"),
            (("CSnr", 3), {}, "CSnr needs a color count r >= 1"),
            (("CSnr", 3), {"r": 0}, "CSnr needs a color count r >= 1"),
            (("CSnr", 3), {"r": 2, "color_filter": 2}, "color filter must lie in 0..1"),
            (("B", 3), {"r": 2}, "B takes no color parameters"),
            (("CB", 3), {"color_filter": 0}, "CB takes no color parameters")]:
        with pytest.raises(ValueError) as e:
            DomainSpec(*args, **kw)
        assert str(e.value) == msg


@pytest.mark.parametrize("kind,n", [("B", 3), ("D", 3), ("CB", 4), ("CD", 4),
                                    ("CDbar", 4), ("S", 4), ("CS", 4)])
def test_unrank_covers_exactly(kind, n):
    d = DomainSpec(kind, n)
    seen = {unrank(d, i) for i in range(cardinality(d))}
    assert len(seen) == cardinality(d)
    for x in seen:
        assert isinstance(x, SignedPermutation)
        if kind in ("D",):
            assert x.negative_count() % 2 == 0
        if kind == "CD":
            assert is_cyclic(x) and x.negative_count() % 2 == 0
        if kind == "CDbar":
            assert is_cyclic(x) and x.negative_count() % 2 == 1
        if kind in ("CB", "CS"):
            assert is_cyclic(x)
        if kind in ("S", "CS"):
            assert all(v > 0 for v in x.images)


def test_unrank_colored_filter():
    d = DomainSpec("CSnr", 4, r=3, color_filter=2)
    seen = set()
    for i in range(cardinality(d)):
        p = unrank(d, i)
        assert isinstance(p, ColoredPermutation)
        assert color_of(p) == 2
        seen.add((p.omega, p.tau))
    assert len(seen) == cardinality(d)


def _spec_id(d):
    tail = f"-r{d.r}" if d.r else ""
    if d.color_filter is not None:
        tail += f"-color{d.color_filter}"
    return f"{d.kind}-{d.n}{tail}"


@pytest.mark.parametrize("d", [
    DomainSpec("B", 3), DomainSpec("CB", 4), DomainSpec("B", 0),
    DomainSpec("D", 3), DomainSpec("CD", 4), DomainSpec("CDbar", 4),
    DomainSpec("S", 4), DomainSpec("CS", 4), DomainSpec("CSnr", 4, r=3),
    DomainSpec("CSnr", 4, r=3, color_filter=1),
], ids=_spec_id)
def test_rank_inverts_unrank(d):
    for i in range(cardinality(d)):
        assert rank(d, unrank(d, i)) == i


@pytest.mark.parametrize("kind", ["B", "D", "CB", "CD", "CDbar", "S", "CS", "CSnr"])
def test_rank_round_trips_at_large_degree(kind):
    d = DomainSpec(kind, 60, r=3 if kind == "CSnr" else None)
    rng = make_rng(8)
    for _ in range(5):
        x = sample(d, rng)
        i = rank(d, x)
        assert 0 <= i < cardinality(d) and unrank(d, i) == x


@pytest.mark.parametrize("d", [
    *(DomainSpec(kind, 1001, r=3 if kind == "CSnr" else None) for kind in KINDS),
    DomainSpec("CSnr", 1001, r=3, color_filter=1),
], ids=_spec_id)
def test_rank_inverts_unrank_at_degree_1001(d):
    total = cardinality(d)
    rng = make_rng(1001)
    for i in (0, 1, total - 1, *(_uniform_index(rng, total) for _ in range(4))):
        assert rank(d, unrank(d, i)) == i


@pytest.mark.parametrize("d,element", [
    # the degree must match: this element of CB(4) was once ranked as 5
    pytest.param(DomainSpec("CB", 6), unrank(DomainSpec("CB", 4), 5),
                 id="CB-degree"),
    pytest.param(DomainSpec("B", 4), SignedPermutation([1, -2, 3]), id="B-degree"),
    pytest.param(DomainSpec("D", 3), SignedPermutation([1, -2, 3]), id="D-odd"),
    pytest.param(DomainSpec("CD", 3), SignedPermutation([-2, 3, 1]), id="CD-odd"),
    pytest.param(DomainSpec("CDbar", 3), SignedPermutation([2, 3, 1]),
                 id="CDbar-even"),
    pytest.param(DomainSpec("CDbar", 3), SignedPermutation([-2, -3, 1]),
                 id="CDbar-even-signed"),
    pytest.param(DomainSpec("S", 3), SignedPermutation([1, -2, 3]), id="S-signed"),
    pytest.param(DomainSpec("CS", 3), SignedPermutation([2, 3, -1]), id="CS-signed"),
    pytest.param(DomainSpec("CB", 3), SignedPermutation([2, 1, 3]),
                 id="CB-not-cyclic"),
    pytest.param(DomainSpec("CSnr", 3, r=2, color_filter=0),
                 ColoredPermutation(3, 2, (2, 3, 1), (1, 0, 0)), id="CSnr-color"),
    pytest.param(DomainSpec("CSnr", 3, r=3),
                 ColoredPermutation(3, 2, (2, 3, 1), (0, 0, 0)), id="CSnr-r"),
    pytest.param(DomainSpec("CSnr", 3, r=2),
                 ColoredPermutation(3, 2, (2, 1, 3), (0, 0, 0)),
                 id="CSnr-not-cyclic"),
    pytest.param(DomainSpec("B", 3),
                 ColoredPermutation(3, 2, (2, 3, 1), (0, 0, 0)), id="B-colored"),
])
def test_rank_refuses_elements_outside_the_family(d, element):
    with pytest.raises(ValueError):
        rank(d, element)


@pytest.mark.parametrize("d", [
    DomainSpec("CD", 4),
    DomainSpec("CSnr", 4, r=3),
    DomainSpec("CSnr", 4, r=3, color_filter=1),
], ids=_spec_id)
def test_iterate_matches_unrank(d):
    assert list(iterate(d)) == [unrank(d, i) for i in range(cardinality(d))]
    assert list(iterate(d, start=5, stop=9)) == [unrank(d, i) for i in range(5, 9)]
    # a range that starts and ends inside a color block
    total = cardinality(d)
    lo, hi = total // 3 + 1, 2 * total // 3 - 1
    assert list(iterate(d, start=lo, stop=hi)) == [unrank(d, i) for i in range(lo, hi)]


@pytest.mark.parametrize("color_filter,digest", [
    (None, "b0573b81a5950b82a768d91d96e7660e9e91d988e541821f9cd987df057dda3b"),
    (2, "a01ecebf690b9e75604e9c57a68a4de43ef821c52b42ea417fd5d023a9d03dba"),
])
def test_csnr_iterate_is_pinned(color_filter, digest):
    # iterate checks omega once per cycle word; every element must still equal
    # the publicly constructed one and match unrank
    d = DomainSpec("CSnr", 5, r=3, color_filter=color_filter)
    got = list(iterate(d))
    assert got == [unrank(d, i) for i in range(cardinality(d))]
    for p in got:
        q = ColoredPermutation(p.n, p.r, p.omega, p.tau)
        assert p == q and hash(p) == hash(q) and str(p) == str(q)
    pairs = repr([(p.omega, p.tau) for p in got]).encode()
    assert hashlib.sha256(pairs).hexdigest() == digest


@pytest.mark.parametrize("d,lo,hi", [
    # deep inside the first color block, across the carry out of 59 low digits
    (DomainSpec("CSnr", 60, r=2), 2**59 - 2, 2**59 + 3),
    # the last 5 codes of the first cycle word's block and the first 5 of the next
    (DomainSpec("CSnr", 40, r=3, color_filter=1), 3**39 - 5, 3**39 + 5),
    # one color: each block holds one code, so every step is a new cycle word
    (DomainSpec("CSnr", 7, r=1), 100, 110),
], ids=["CSnr-60-r2", "CSnr-40-r3-color1", "CSnr-7-r1"])
def test_csnr_iterate_starts_anywhere(d, lo, hi):
    got = list(iterate(d, start=lo, stop=hi))
    assert len(got) == hi - lo
    for i, x in enumerate(got, lo):
        assert rank(d, x) == i and unrank(d, i) == x


def _row(kind, n, i):
    """The row at index i, straight from the encoding in the domains
    docstring."""
    cyclic = kind in ("CB", "CD", "CDbar", "CS")
    parity = {"D": 0, "CD": 0, "CDbar": 1}.get(kind)
    bits = 0 if kind in ("S", "CS") else n - (parity is not None)
    q, code = divmod(i, 1 << bits)
    mags = list(next(islice(permutations(range(1, n + 1 - cyclic)), q, None)))
    mags += [n] * cyclic
    row = [-v if code >> j & 1 else v for j, v in enumerate(mags[:bits])] + mags[bits:]
    if parity is not None and (code.bit_count() ^ parity) & 1:
        row[-1] = -row[-1]
    return tuple(row)


@pytest.mark.parametrize("kind", ["B", "D", "CB", "CDbar"])
def test_iterate_words_past_the_sign_table(kind):
    # 11 or 12 sign bits: rows join a table of the low sign bits to each
    # group of high ones; the ranges cross group and block edges
    d = DomainSpec(kind, 12)
    block = 1 << (12 - (kind in ("D", "CDbar")))
    for lo, hi in ((0, 1), (7, 8), (1000, 1050), (block - 3, block + 3),
                   (3 * block - 2100, 3 * block + 1)):
        assert list(iterate_words(d, lo, hi)) == [_row(kind, 12, i) for i in range(lo, hi)]


def test_iterate_words_shape():
    d = DomainSpec("CB", 4)
    ws = list(iterate_words(d))
    assert len(ws) == 96
    for w in ws:
        assert abs(w[-1]) == 4
        assert sorted(abs(v) for v in w) == [1, 2, 3, 4]
    for start, stop in ((-2, 2), (90, 100)):
        with pytest.raises(ValueError):
            list(iterate_words(d, start, stop))


def test_budget_refusal():
    big = DomainSpec("B", 40)
    with pytest.raises(BudgetError):
        next(iterate(big))
    gen = iterate(big, allow_big=True)
    assert isinstance(next(gen), SignedPermutation)


def test_refusals_print_at_any_size():
    # the cardinality of B(3000) has about 10^4 decimal digits, past
    # Python's int-to-str limit
    d = DomainSpec("B", 3000)
    with pytest.raises(ValueError, match=r"out of range for B\(n=3000\)"):
        unrank(d, cardinality(d))
    with pytest.raises(ValueError, match=r"bad range \[0,about 2\^\d+\) for B"):
        next(iterate(d, stop=cardinality(d) + 1))
    with pytest.raises(BudgetError, match=r"holds about 2\^\d+ elements"):
        next(iterate(d))


def test_rng_refuses_keys_that_would_collide():
    # the key is (worker << 64) | seed, so a seed of 2^64 would alias worker 1
    for seed, worker in ((2**64, 0), (0, 2**64), (-1, 0), (0, -1), (2**128, 0)):
        with pytest.raises(ValueError, match=r"seed and worker must lie in 0\.\.2\^64-1"):
            make_rng(seed, worker)
    a = make_rng(2**64 - 1, worker=2**64 - 1).integers(0, 1 << 32, size=4)
    b = make_rng(2**64 - 1, worker=2**64 - 1).integers(0, 1 << 32, size=4)
    assert (a == b).all()


def test_rng_streams_are_stable_and_worker_split():
    a = make_rng(123).integers(0, 1 << 32, size=4)
    b = make_rng(123).integers(0, 1 << 32, size=4)
    c = make_rng(123, worker=1).integers(0, 1 << 32, size=4)
    assert (a == b).all()
    assert (a != c).any()


def test_rng_takes_numpy_integers():
    # a numpy worker id once shifted to 0, so worker 1 drew worker 0's stream
    want = make_rng(5, worker=1).integers(0, 1 << 32, size=4)
    for worker in (np.uint64(1), np.int64(1)):
        assert (make_rng(5, worker=worker).integers(0, 1 << 32, size=4) == want).all()
    assert (make_rng(np.uint64(5), 1).integers(0, 1 << 32, size=4) == want).all()
    assert (make_rng(2**64 - 1, np.int64(3)).integers(0, 1 << 32, size=4) ==
            make_rng(2**64 - 1, 3).integers(0, 1 << 32, size=4)).all()
    d = DomainSpec("CB", 6)
    one = sample_stat_batch(d, "des", 50, 5, worker=np.uint64(1))
    assert np.array_equal(one, sample_stat_batch(d, "des", 50, 5, worker=1))
    assert not np.array_equal(one, sample_stat_batch(d, "des", 50, 5))
    for make in (make_rng, IntPhilox):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make(5.0)
        with pytest.raises(ValueError, match=r"seed and worker must lie in 0\.\.2\^64-1"):
            make(np.int64(-1))


_TOP = (1 << 64) - 1
_rnd = random.Random(28)
# the extreme keys, then random ones
_KEYS = [(0, 0), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)] + [
    (_rnd.getrandbits(64), _rnd.getrandbits(64)) for _ in range(12)]


def _numpy_words(seed, worker, counter):
    """make_rng(seed, worker)'s bit generator with its 256-bit counter set."""
    bg = make_rng(seed, worker).bit_generator
    st = bg.state
    st["state"]["counter"] = np.array([counter >> s & _TOP for s in (0, 64, 128, 192)],
                                      dtype=np.uint64)
    bg.state = st
    return bg


def _raw_bytes(bg, k):
    return bg.random_raw(k).astype(">u8").tobytes()


@pytest.mark.parametrize("key", _KEYS, ids=str)
def test_int_philox_draws_numpy_philox_words(key):
    # draws of 0..9 words, in orders that start and end at every position
    # of a four-word block, then draws the size of a degree-1001 index
    # across a batch's end, and draws longer than a batch
    rnd = random.Random(f"{key}")
    sizes = [*range(10), *range(9, -1, -1)] + [rnd.randrange(10) for _ in range(40)]
    a, b = IntPhilox(*key), make_rng(*key).bit_generator
    for k in sizes + [149, 3, 149, 149, 600, 1500, 7]:
        assert a.raw_bytes(k) == _raw_bytes(b, k), k


# two blocks short of a carry out of limb 0, and of the wrap at 2^256, and
# a batch short of each, so that it falls on the second batch's first block
@pytest.mark.parametrize("counter", [_TOP - 1, (1 << 256) - 2, _TOP - 128, (1 << 256) - 129],
                         ids=["carry", "wrap", "carry-at-batch", "wrap-at-batch"])
def test_int_philox_counter_carries_and_wraps_as_numpys(counter):
    for key in _KEYS[:4]:
        a, b = IntPhilox(*key), _numpy_words(*key, counter)
        a._counter = counter
        for k in (1, 3, 2, 4, 5, 0, 9, 7, 600):
            assert a.raw_bytes(k) == _raw_bytes(b, k), (key, k)
        # limb 0 did carry out
        assert b.state["state"]["counter"][0] < 200


def test_int_philox_grows_its_batches_to_the_draw():
    # each batch covers the draw and is at least the blocks made so far:
    # one block for one word, 37 more for a degree-1001 index, then the
    # full width
    for key in _KEYS[:5]:
        a, b = IntPhilox(*key), make_rng(*key).bit_generator
        lanes = []
        for k in (1, 149, 600, 5000):
            assert a.raw_bytes(k) == _raw_bytes(b, k), (key, k)
            lanes.append(a._lanes)
        assert lanes == [1, 37, 128, 128]


def test_int_philox_retries_an_index_in_a_batch_of_its_size(monkeypatch):
    # a rejected degree-1001 index (149 words, 37.25 blocks) once took a
    # second batch of 76 blocks to read 37 of them; now a retry computes
    # one spare block, and only a second retry a wider batch
    lanes = []
    real = IntPhilox._batch
    monkeypatch.setattr(IntPhilox, "_batch", lambda a, k: lanes.append(k) or real(a, k))
    d = DomainSpec("CD", 1001)
    for seed, want in ((1, [38]), (0, [38, 38]), (13, [38, 38, 76]),
                       (3, [38, 38, 76, 128])):
        lanes.clear()
        assert sample(d, seed) == sample(d, make_rng(seed)), seed
        assert lanes == want, seed
    # a stream of one-word draws, as the order-swap claim makes, still
    # doubles its blocks up to the full width
    lanes.clear()
    a, b = IntPhilox(5), make_rng(5).bit_generator
    assert b"".join(a.raw_bytes(1) for _ in range(1200)) == _raw_bytes(b, 1200)
    assert lanes == [1, 1, 2, 4, 8, 16, 32, 64, 128, 128]


# a carry out of limb 0, and the wrap at 2^256, inside a first batch of one
# block and of 38 blocks
@pytest.mark.parametrize("counter, k", [(_TOP, 1), ((1 << 256) - 1, 1),
                                        (_TOP - 20, 149), ((1 << 256) - 21, 149)],
                         ids=["carry-1", "wrap-1", "carry-38", "wrap-38"])
def test_int_philox_carries_and_wraps_inside_a_first_batch(counter, k):
    for key in _KEYS[:4]:
        a, b = IntPhilox(*key), _numpy_words(*key, counter)
        a._counter = counter
        assert a.raw_bytes(k) == _raw_bytes(b, k), key
        assert a._lanes == -(-k // 4)
        assert a.raw_bytes(9) == _raw_bytes(b, 9), key


def test_int_philox_refuses_a_negative_count():
    # a negative count once moved the stream back, or made the next draw
    # empty, which _uniform_index read as index 0
    a, b = IntPhilox(1), make_rng(1).bit_generator
    two = a.raw_bytes(2)
    assert two == _raw_bytes(b, 2)
    for k in (-1, -3):
        for draw in (a.raw_bytes, b.random_raw):
            with pytest.raises(ValueError, match="^negative dimensions are not allowed$"):
                draw(k)
    assert a.raw_bytes(1) == _raw_bytes(b, 1) != two[8:]
    a, b = IntPhilox(1), make_rng(1).bit_generator
    with pytest.raises(ValueError):
        a.raw_bytes(-3)
    assert a.raw_bytes(1) == _raw_bytes(b, 1)


# bounds of 1, 2, 3 and 149 64-bit words
@pytest.mark.parametrize("k", [2**63 + 1, 3 << 100, 5 << 180,
                               math.factorial(1000) << 1000], ids=[1, 2, 3, 149])
def test_uniform_index_reads_the_same_index_from_both_sources(k):
    for key in _KEYS[:5]:
        a, b = IntPhilox(*key), make_rng(*key)
        assert [_uniform_index(a, k) for _ in range(20)] == \
            [_uniform_index(b, k) for _ in range(20)]
        assert a.raw_bytes(1) == _raw_bytes(b.bit_generator, 1)


def test_sample_reads_an_int_philox_as_its_generator():
    for kind in KINDS:
        d = DomainSpec(kind, 9, r=3 if kind == "CSnr" else None)
        a, b = IntPhilox(11), make_rng(11)
        assert [sample(d, a) for _ in range(5)] == [sample(d, b) for _ in range(5)]


@pytest.mark.parametrize("n", [1, 9, 60, 1001])
def test_sample_with_an_integer_seed_draws_make_rngs_element(n):
    specs = [DomainSpec(kind, n, r=3 if kind == "CSnr" else None) for kind in KINDS]
    specs.append(DomainSpec("CSnr", n, r=3, color_filter=1))
    for d in specs:
        for seed in (0, 2**64 - 1, np.int64(7)):
            assert sample(d, seed) == sample(d, make_rng(seed)), (d, seed)


_ROOT = Path(__file__).resolve().parent.parent


def _loaded_after(code, names):
    """Those of the modules names that code leaves in sys.modules of a fresh
    interpreter on this source tree."""
    code += f"\nimport sys\nprint([m for m in {names!r} if m in sys.modules])\n"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_sample_refuses_a_seed_that_is_not_an_integer():
    d = DomainSpec("CB", 4)
    for bad in (5.0, None, "5"):
        with pytest.raises(TypeError, match="sample takes an integer seed or a "
                                            f"generator, not {type(bad).__name__}"):
            sample(d, bad)
    # deciding loads no numpy
    code = ("from cyclic_descents.domains import DomainSpec, sample\n"
            "try:\n"
            "    sample(DomainSpec('CB', 4), 5.0)\n"
            "except TypeError:\n"
            "    pass\n")
    assert _loaded_after(code, ["numpy"]) == "[]\n"


def test_scalar_draws_load_no_numpy():
    # the benchmark's scale set-up samples at degree 1001 from an integer seed
    tree = ast.parse((_ROOT / "bench" / "workloads.py").read_text())
    scale = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Scale")
    setup = next(ast.literal_eval(a.value) for a in scale.body
                 if isinstance(a, ast.Assign) and a.targets[0].id == "setup_code")
    assert "sample(" in setup
    assert _loaded_after(setup, ["numpy", "inspect"]) == "[]\n"
    # the order-swap claim's index draws; verify's ClaimResult, a
    # dataclass, brings inspect
    code = ("from cyclic_descents.verify import check_order_swap_properties\n"
            "assert check_order_swap_properties(50, 10, 3).passed\n")
    assert _loaded_after(code, ["numpy"]) == "[]\n"


def test_scalar_sampling_uniform_chi_square():
    # 1e5 draws over the 96 cyclic signed permutations of degree 4; the
    # goodness of fit should survive a 1e-3 significance bar.
    d = DomainSpec("CB", 4)
    m = cardinality(d)
    rng = make_rng(2024)
    counts = {i: 0 for i in range(m)}
    for _ in range(100_000):
        counts[rank(d, sample(d, rng))] += 1
    _, p = sps.chisquare(list(counts.values()))
    assert p > 1e-3


def test_sample_accepts_plain_seed():
    d = DomainSpec("CD", 5)
    assert sample(d, 99) == sample(d, 99) == sample(d, np.int64(99)) == \
        sample(d, make_rng(99))


def test_batch_stats_match_exact_distribution():
    d = DomainSpec("CB", 4)
    vals = sample_stat_batch(d, "des", 60_000, seed=5)
    assert vals.shape == (60_000,)
    want = {1: 20 / 96, 2: 56 / 96, 3: 20 / 96}
    seen, cnt = np.unique(vals, return_counts=True)
    assert set(seen) == set(want)
    obs = dict(zip(seen.tolist(), cnt.tolist()))
    _, p = sps.chisquare([obs[k] for k in want],
                         [60_000 * v for v in want.values()])
    assert p > 1e-3


@pytest.mark.parametrize("kind", ["CB", "CD", "CDbar"])
@pytest.mark.parametrize("stat", ["des", "maj", "neg", "fmaj"])
def test_batch_stats_follow_exact_law(kind, stat):
    from cyclic_descents.lab import exact_distribution
    d = DomainSpec(kind, 5)
    table = exact_distribution(d, stat).counts
    total = cardinality(d)
    draws = 20_000
    vals = sample_stat_batch(d, stat, draws, seed=17)
    obs = {k: 0 for k in table}
    for v, c in zip(*np.unique(vals, return_counts=True)):
        assert int(v) in table
        obs[int(v)] = int(c)
    keys = sorted(table)
    _, p = sps.chisquare([obs[k] for k in keys],
                         [draws * table[k] / total for k in keys])
    assert p > 1e-3


def test_batch_sampler_is_deterministic():
    d = DomainSpec("CDbar", 6)
    x = sample_stat_batch(d, "fmaj", 5000, seed=11)
    y = sample_stat_batch(d, "fmaj", 5000, seed=11)
    z = sample_stat_batch(d, "fmaj", 5000, seed=11, worker=1)
    assert (x == y).all()
    assert (x != z).any()


def test_batch_parity_classes_sample_their_class():
    for kind, want in (("CD", 0), ("CDbar", 1)):
        d = DomainSpec(kind, 5)
        vals = sample_stat_batch(d, "neg", 2000, seed=3)
        assert ((vals % 2) == want).all()


_GOLDEN_SEED = 20261018

# sha256 of 200 seeded `sample()` draws, one str() per line; pinned so a
# change to the encoding cannot move a seeded stream unnoticed.
_GOLDEN_SAMPLES = [
    (DomainSpec("B", 5),
     "911bdfa0185948bb46772bafc5dfbbb46a3d875197211b1a330b2e02088c29e0"),
    (DomainSpec("D", 5),
     "997dca119589c4025c01cd48c5ae5cfcce58d10ecc9d4071cbabad1b881f3e52"),
    (DomainSpec("CB", 6),
     "83592455ddd41fff8a0c844ce124b07f78fab641d53e2e907286d7523c41dcff"),
    (DomainSpec("CD", 6),
     "171e62d3a9b1553b77af7fe5dcc6b45b1aee6aa4bd0be9940fe5ad62b05e9aff"),
    (DomainSpec("CDbar", 6),
     "b7d9aff534f05283c2c081f1471d28c661525fd17876f876be720c1eace4ab86"),
    (DomainSpec("S", 6),
     "e627c07dc1ef65dd6eefcd2bb1b01a39796586a54b0f9eab3d5d1ff43fdca741"),
    (DomainSpec("CS", 6),
     "97c6ce58a17c689d1550254a49d347dc6457e355f10f857e1529229df62593ea"),
    (DomainSpec("CSnr", 5, r=3),
     "2dad94a9e12151730c98a28f8785edf6d0b7f05e208bea60eb1bff37a845283a"),
    (DomainSpec("CSnr", 5, r=3, color_filter=2),
     "60263b29c24604f5c1e4f2b367532a3dee29edd26dcd9d76650197f9eafe799d"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("d,digest", _GOLDEN_SAMPLES,
                         ids=[_spec_id(d) for d, _ in _GOLDEN_SAMPLES])
def test_seeded_sample_stream_is_pinned(d, digest):
    rng = make_rng(_GOLDEN_SEED)
    assert _sha("\n".join(str(sample(d, rng)) for _ in range(200))) == digest


@pytest.mark.parametrize("kind,digest", [
    ("CB", "2d2d9679fbf770bb25c4c9d12565a4acb51899763ed340ee8aaf5c01455246a9"),
    ("CD", "120866930c2c15b732ab0611890c50d7d466d643108215f37e71b3ff58c43231"),
    ("CDbar", "0fdcf71e0d7b50805a08d717d59c783005b4c08c920a631c2caa6c807623d004"),
], ids=["CB", "CD", "CDbar"])
def test_seeded_batch_stream_is_pinned(kind, digest):
    vals = sample_stat_batch(DomainSpec(kind, 9), "fmaj", 5000, seed=_GOLDEN_SEED)
    assert _sha(",".join(map(str, vals.tolist()))) == digest


# 300 rows end inside a shuffle block; 4097 rows of degree 801 spill one
# row into a second chunk, which makes an odd number (801) of sign draws
_UNEVEN_BATCHES = [
    ("CB", 9, 300, "cca2ccad51082f4ee4cd66d7997d0ddbb5bf9f9dd45b6281b3f3a81a22eaf161"),
    ("CD", 9, 300, "2cdbe052e98c6f50f619049164b6cfe58878daa4f30f3badf51e91b2d5938c1f"),
    ("CDbar", 9, 300, "16f50c7e9e6e8f984a51da1b45a3e1a000a8c959899643ae68b270f413373f97"),
    ("CB", 801, 4097, "86b44c11331550f548be1f71a9ebe880fc709e5fdacab71a0a20d663dad44a0b"),
    ("CD", 801, 4097, "00088a6d2e19a359580fb5fa4922be2716665aacc517a72a5ae94137ece44343"),
    ("CDbar", 801, 4097, "e1a3fea839c86a14cb6ed3cf59acc1ed6c45af1c60a9c714446dfcac1a338023"),
]


@pytest.mark.parametrize("kind,n,count,digest", _UNEVEN_BATCHES,
                         ids=[f"{k}-{n}x{c}" for k, n, c, _ in _UNEVEN_BATCHES])
def test_batch_stream_is_pinned_at_uneven_sizes(kind, n, count, digest):
    vals = sample_stat_batch(DomainSpec(kind, n), "fmaj", count, seed=_GOLDEN_SEED)
    assert _sha(",".join(map(str, vals.tolist()))) == digest


# streams of three chunks and more, where chunk k+1 is drawn while chunk k
# turns into values, one of them ending mid-slice
_LONG_BATCHES = [
    ("CD", 64, "fmaj", 3 * SAMPLE_CHUNK + 257,
     "c01367e0e2d277fad6b7e6be46d4a8dfc152ad9312fc250a2dea0241d21825a2"),
    ("CDbar", 50, "des", 3 * SAMPLE_CHUNK,
     "3474250d63ee81841fc3005ddc67d29a968c3dbaadc9287a86caffb65f13bfc2"),
]


@pytest.mark.parametrize("kind,n,stat,count,digest", _LONG_BATCHES,
                         ids=[f"{k}-{n}-{s}x{c}" for k, n, s, c, _ in _LONG_BATCHES])
def test_batch_stream_is_pinned_over_several_chunks(kind, n, stat, count, digest):
    vals = sample_stat_batch(DomainSpec(kind, n), stat, count, seed=_GOLDEN_SEED)
    assert _sha(",".join(map(str, vals.tolist()))) == digest


def test_batch_sampler_refuses_a_negative_count(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a generator")
    monkeypatch.setattr(domains, "make_rng", no_draws)
    with pytest.raises(ValueError, match="^bad sample count -1$"):
        sample_stat_batch(DomainSpec("CB", 9), "des", -1, seed=1)
    monkeypatch.undo()
    assert sample_stat_batch(DomainSpec("CB", 9), "des", 0, seed=1).shape == (0,)


def test_batch_sampler_reads_a_numpy_integer_count_as_an_int():
    # a numpy count once reached the generator's advance in its fixed width
    # and raised OverflowError
    from cyclic_descents.lab import normality_diagnostics

    d = DomainSpec("CB", 5)
    want = sample_stat_batch(d, "des", SAMPLE_CHUNK + 3, seed=3)
    for to in (np.int64, np.int32):
        assert np.array_equal(sample_stat_batch(d, "des", to(SAMPLE_CHUNK + 3), seed=3),
                              want)
    assert normality_diagnostics("CB", "des", 50, np.int64(1000), seed=3) == \
        normality_diagnostics("CB", "des", 50, 1000, seed=3)


def test_batch_sampler_leaves_no_thread_running(monkeypatch):
    before = threading.active_count()
    sample_stat_batch(DomainSpec("CD", 9), "fmaj", 3 * SAMPLE_CHUNK, seed=1)
    assert threading.active_count() == before
    # the caller draws each slice's signs itself, and its second slice's
    # draw fails while the drawer shuffles the second chunk: the error
    # propagates, and the drawer is gone
    sign_bits, calls = domains._sign_bits, []

    def failing(rng, m):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise RuntimeError("draw failed")
        return sign_bits(rng, m)
    monkeypatch.setattr(domains, "_sign_bits", failing)
    with pytest.raises(RuntimeError, match="draw failed"):
        sample_stat_batch(DomainSpec("CD", 9), "fmaj", 3 * SAMPLE_CHUNK, seed=1)
    assert calls == [threading.main_thread()] * 2
    assert threading.active_count() == before
    # the drawer fails on its second chunk while the first turns into
    # values: the error reaches the caller, and the drawer is gone
    monkeypatch.undo()
    skip, skips = domains._skip_sign_bits, []

    def failing_skip(rng, m):
        skips.append(threading.current_thread())
        if len(skips) == 2:
            raise RuntimeError("skip failed")
        return skip(rng, m)
    monkeypatch.setattr(domains, "_skip_sign_bits", failing_skip)
    with pytest.raises(RuntimeError, match="skip failed"):
        sample_stat_batch(DomainSpec("CD", 9), "fmaj", 3 * SAMPLE_CHUNK, seed=1)
    assert len(skips) == 2 and threading.main_thread() not in skips
    assert threading.active_count() == before


def test_batch_sampler_draws_signs_only_in_the_caller(monkeypatch):
    # the drawer steps past each chunk's signs and never draws them
    sign_bits, threads = domains._sign_bits, set()

    def spy(rng, m):
        threads.add(threading.current_thread())
        return sign_bits(rng, m)
    monkeypatch.setattr(domains, "_sign_bits", spy)
    sample_stat_batch(DomainSpec("CB", 9), "des", 2 * SAMPLE_CHUNK + 1, seed=1)
    assert threads == {threading.main_thread()}


def test_batch_sampler_stops_its_worker_when_the_caller_fails(monkeypatch):
    # the caller fails on its first chunk while the worker draws the second
    before = threading.active_count()

    def failing(*args, **kwargs):
        raise RuntimeError("statistic failed")
    monkeypatch.setattr(np, "einsum", failing)
    with pytest.raises(RuntimeError, match="statistic failed"):
        sample_stat_batch(DomainSpec("CD", 9), "fmaj", 3 * SAMPLE_CHUNK, seed=1)
    assert threading.active_count() == before


def test_batch_sampler_stream_survives_thread_switches():
    # four samplers at once, more threads than cores, with the interpreter
    # switching threads as often as it can: each chunk's sign state passes
    # from a drawer to its caller, and every stream stays its own
    d, count = DomainSpec("CDbar", 9), 3 * SAMPLE_CHUNK + 5
    want = [sample_stat_batch(d, "fmaj", count, seed=s) for s in range(4)]
    got = [None] * 4

    def run(s):
        got[s] = sample_stat_batch(d, "fmaj", count, seed=s)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_batch_sampler_imports_no_executor():
    # a bare thread runs the draws, so concurrent.futures and the logging
    # it imports stay out of a cold sampling run
    code = ("import sys\n"
            "from cyclic_descents.domains import DomainSpec, sample_stat_batch\n"
            "sample_stat_batch(DomainSpec('CB', 9), 'des', 5000, seed=1)\n"
            "print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 4096 * 801])
def test_sign_bits_match_numpy_bounded_draw(m, pending):
    for seed in range(3):
        a, b = make_rng(seed), make_rng(seed)
        if pending:
            # a 32-bit draw leaves the high half of its word pending
            a.integers(0, 7)
            b.integers(0, 7)
        assert a.bit_generator.state["has_uint32"] == pending
        want = b.integers(0, 2, size=m, dtype=np.int64).astype(bool)
        assert np.array_equal(_sign_bits(a, m), want)
        assert a.integers(0, 1 << 32, dtype=np.uint32) == \
            b.integers(0, 1 << 32, dtype=np.uint32)
        assert a.integers(0, 1 << 64, dtype=np.uint64) == \
            b.integers(0, 1 << 64, dtype=np.uint64)


def _philox_state(rng):
    st = rng.bit_generator.state
    return (tuple(st["state"]["counter"].tolist()), tuple(st["state"]["key"].tolist()),
            tuple(st["buffer"].tolist()), st["buffer_pos"], st["has_uint32"],
            st["uinteger"])


# the counter at the start: fresh, two steps short of a carry out of limb 0,
# and two steps short of the wrap at 2^256
@pytest.mark.parametrize("counter", [(0, 0, 0, 0), (_TOP - 1, 0, 0, 0),
                                     (_TOP - 1, _TOP, _TOP, _TOP)],
                         ids=["fresh", "carry", "wrap"])
@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 9, 4096 * 801])
def test_skip_sign_bits_leaves_the_state_sign_bits_leaves(m, pending, counter):
    for drawn in range(4):
        a, b = make_rng(7, 3), make_rng(7, 3)
        for g in (a, b):
            st = g.bit_generator.state
            st["state"]["counter"] = np.array(counter, dtype=np.uint64)
            g.bit_generator.state = st
            # 0..3 raw words leave the buffer at each position 4, 1, 2, 3
            g.bit_generator.random_raw(drawn)
            if pending:
                st = g.bit_generator.state
                st["has_uint32"], st["uinteger"] = 1, 0x9E3779B9
                g.bit_generator.state = st
        assert a.bit_generator.state["buffer_pos"] == (drawn or 4)
        _skip_sign_bits(a, m)
        _sign_bits(b, m)
        assert _philox_state(a) == _philox_state(b)
        assert a.integers(0, 1 << 32, dtype=np.uint32) == \
            b.integers(0, 1 << 32, dtype=np.uint32)
        assert a.integers(0, 1 << 64, dtype=np.uint64) == \
            b.integers(0, 1 << 64, dtype=np.uint64)
    if m == 4096 * 801 and counter != (0, 0, 0, 0):
        # the skip did cross the carry or the wrap
        assert _philox_state(a)[0][0] < 1 << 20


@pytest.mark.parametrize("k", range(8))
def test_perm_rank_follows_lex_order(k):
    items = [3 * v + 1 for v in range(k)]
    for q, p in enumerate(permutations(items)):
        assert _perm_unrank(q, items) == list(p)
        assert _perm_rank(list(p)) == q


def _lex_unrank(q, items):
    """The q-th permutation of items in lex order, by one divmod per
    radix of the factorial number system from the low end."""
    pool = list(items)
    code = []
    for radix in range(1, len(pool) + 1):
        q, c = divmod(q, radix)
        code.append(c)
    return [pool.pop(c) for c in reversed(code)]


# radix run counts: one up to k = 12, then two from 13, three from 20 and
# four from 26; an odd count (3 or 5) leaves a run unpaired in the tree
@pytest.mark.parametrize("k,runs", [(12, 1), (13, 2), (19, 2), (20, 3), (25, 3),
                                    (26, 4), (32, 5)])
def test_perm_rank_at_radix_run_edges(k, runs):
    places = _radix_runs(k)[0]
    assert len(places) == runs
    items = [3 * v + 1 for v in range(k)]
    total = math.factorial(k)
    qs = {0, total - 1}
    start = 2  # the lowest radix of a run
    for run in reversed(places):
        edge = math.factorial(start - 1)  # the product of the lower runs
        qs |= {edge - 1, edge, edge + 1}
        start += len(run)
    assert start == k + 1
    rng = make_rng(k)
    qs |= {_uniform_index(rng, total) for _ in range(20)}
    for q in sorted(qs):
        p = _perm_unrank(q, items)
        assert p == _lex_unrank(q, items)
        assert _perm_rank(p) == q


@pytest.mark.parametrize("k", [1000, 3000])
def test_perm_rank_round_trips_at_large_k(k):
    items = list(range(1, k + 1))
    total = math.factorial(k)
    rng = make_rng(k)
    for q in (0, total - 1, *(_uniform_index(rng, total) for _ in range(3))):
        p = _perm_unrank(q, items)
        assert sorted(p) == items and _perm_rank(p) == q
    assert _perm_unrank(total - 1, items) == items[::-1]


def _word_by_word_index(rng, k):
    """Uniform index in [0, k) drawn one 64-bit word per call, most
    significant word first, rejecting draws of k or more."""
    if k <= 1:
        return 0
    bits = (k - 1).bit_length()
    mask = (1 << bits) - 1
    while True:
        v = 0
        for _ in range((bits + 63) // 64):
            v = v << 64 | int(rng.integers(0, 1 << 64, dtype=np.uint64))
        v &= mask
        if v < k:
            return v


@pytest.mark.parametrize("k", [
    1, 2, 3, 10 ** 6, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
    3 << 100, math.factorial(1000) << 1000,
], ids=lambda k: f"{k.bit_length()}bits")
def test_uniform_index_keeps_the_word_stream(k):
    # the values and the next raw draw after them match a word-by-word loop
    for seed in range(6):
        a, b = make_rng(seed), make_rng(seed)
        assert [_uniform_index(a, k) for _ in range(4)] == \
            [_word_by_word_index(b, k) for _ in range(4)]
        assert a.integers(0, 1 << 64, dtype=np.uint64) == \
            b.integers(0, 1 << 64, dtype=np.uint64)


def test_degree_1001_sample_and_rank_are_pinned():
    # 20 seeded draws need multi-word indices (about 149 words each), which
    # the degree-6 streams above never reach
    cd, cb = DomainSpec("CD", 1001), DomainSpec("CB", 1001)
    rng = make_rng(_GOLDEN_SEED)
    lines = []
    for _ in range(20):
        x = sample(cd, rng)
        lines.append(f"{x} {rank(cb, x)}")
    assert _sha("\n".join(lines)) == \
        "fdb0a226701d4d688afba2bba2089a50e3cc7cafb93275447f41e3e606f329db"


@pytest.mark.parametrize("kind,n", [("S", 7), ("CS", 8), ("B", 5), ("CDbar", 6)])
def test_iterate_words_steps_through_ranges(kind, n):
    d = DomainSpec(kind, n)
    total = cardinality(d)
    want = [_row(kind, n, i) for i in range(total)]
    assert list(iterate_words(d)) == want
    for lo, hi in ((0, 1), (5, 9), (total // 3 - 1, 2 * total // 3 + 1),
                   (total - 2, total)):
        assert list(iterate_words(d, lo, hi)) == want[lo:hi]


@pytest.fixture(scope="module")
def batch_peak():
    """The traced peak of three chunks of CD(800) fmaj, in bytes."""
    tracemalloc.start()
    try:
        sample_stat_batch(DomainSpec("CD", 800), "fmaj", 3 * SAMPLE_CHUNK,
                          seed=_GOLDEN_SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_sampler_memory_stays_bounded(batch_peak):
    # three chunks, of which about one and a block are alive: one being
    # drawn while the one before is freed block by block as it turns into
    # values, and never more than two
    assert batch_peak <= 60 * 2 ** 20, f"{batch_peak / 2 ** 20:.1f} MB"


def test_batch_sampler_holds_no_chunk_of_signs(batch_peak):
    # the signs are drawn one slice at a time in the caller, so the run
    # holds no chunk-sized sign array: 10.5 MiB at its peak, against
    # 16.7 MiB when the caller held each whole chunk of rows and 22.8 MiB
    # when the drawer also handed over each chunk's signs
    assert batch_peak <= 20 * 2 ** 20, f"{batch_peak / 2 ** 20:.1f} MiB"


def test_batch_sampler_holds_one_chunk_of_rows(batch_peak):
    # each chunk is handed over as its shuffled blocks, which the caller
    # frees one by one while the next chunk is drawn, and the caller runs
    # ahead of the drawer: about one chunk of rows (6.25 MiB) is alive,
    # with the drawer's intp block and the caller's block temporaries
    assert batch_peak <= 12 * 2 ** 20, f"{batch_peak / 2 ** 20:.1f} MiB"
