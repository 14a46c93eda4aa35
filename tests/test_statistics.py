import pytest
from hypothesis import given, settings

from cyclic_descents.permutations import SignedPermutation
from cyclic_descents.statistics import (
    DescentSet, StatRecord, descent_set, stats, truncated_descent_set,
)

from conftest import all_signed, signed_perms


def test_descents_use_position_zero():
    # sigma(0) = 0, so a negative first image is a descent at 0
    assert sorted(descent_set(SignedPermutation([-1, 2])).members) == [0]
    assert sorted(descent_set(SignedPermutation([2, 1])).members) == [1]
    assert descent_set(SignedPermutation([1, 2, 3])).members == frozenset()


def test_worked_statistics():
    s = SignedPermutation([-3, 1, -5, 2, -4])
    d = descent_set(s)
    assert sorted(d.members) == [0, 2, 4]
    r = stats(s)
    assert r == StatRecord(des=3, maj=6, neg=3, fmaj=15)


def test_fmaj_combines_maj_and_neg():
    for s in all_signed(3):
        r = stats(s)
        assert r.fmaj == 2 * r.maj + r.neg
        assert r.des == len(descent_set(s))
        assert r.maj == sum(descent_set(s).members)


def test_descent_set_container():
    d = DescentSet(5, [0, 3])
    assert 0 in d and 3 in d and 1 not in d
    assert len(d) == 2
    assert set(d) == {0, 3}
    assert d == DescentSet(5, 0b01001)
    assert hash(d) == hash(DescentSet(5, [0, 3]))
    with pytest.raises(ValueError):
        DescentSet(3, [3])
    with pytest.raises(ValueError):
        DescentSet(3, [-1])


def test_descent_set_refuses_a_negative_degree():
    # a mask or members alike; it used to fail on a negative shift count
    for members in ((), 0):
        with pytest.raises(ValueError, match="^negative degree -1$"):
            DescentSet(-1, members)
    assert DescentSet(0).members == frozenset()


def test_truncated_descent_set():
    s = SignedPermutation([2, 5, -6, -1, -3, 7, -4])
    full = descent_set(s)
    assert sorted(full.members) == [2, 4, 6]
    t = truncated_descent_set(s, 6)
    assert sorted(t.members) == [2, 4]
    assert t.n == 6
    with pytest.raises(ValueError):
        truncated_descent_set(s, 5)


def test_degree_zero():
    s = SignedPermutation([])
    assert descent_set(s).members == frozenset()
    assert stats(s) == StatRecord(0, 0, 0, 0)


@settings(deadline=None, max_examples=200)
@given(signed_perms(max_n=8))
def test_stats_consistent_with_descent_set(s):
    d = descent_set(s)
    r = stats(s)
    assert r.des == len(d)
    assert r.maj == sum(d.members)
    assert r.neg == sum(1 for v in s.images if v < 0)
    assert r.fmaj == 2 * r.maj + r.neg


@settings(deadline=None, max_examples=100)
@given(signed_perms(max_n=7))
def test_descents_bounded(s):
    d = descent_set(s)
    assert all(0 <= i < s.n for i in d.members)
