import pytest
from hypothesis import given, settings

from cyclic_descents.permutations import SignedPermutation, compose

from conftest import all_signed, signed_perms


def test_validation():
    with pytest.raises(ValueError):
        SignedPermutation([1, 1])
    with pytest.raises(ValueError):
        SignedPermutation([2, -2])
    with pytest.raises(ValueError):
        SignedPermutation([0, 1])
    with pytest.raises(ValueError):
        SignedPermutation([3, 1])
    with pytest.raises(TypeError):
        SignedPermutation([1.5, 2])


def test_validation_at_large_degree():
    # the library's own outputs skip these checks; the constructor keeps them
    good = list(range(1001, 0, -1))
    assert SignedPermutation(good).n == 1001
    for bad in (good[:-1] + [1001], good[:-1] + [-1001], good[:-1] + [0],
                good[:-1] + [1002]):
        with pytest.raises(ValueError):
            SignedPermutation(bad)
    with pytest.raises(TypeError):
        SignedPermutation(good[:-1] + [1.0])


def test_apply_sign_rule():
    s = SignedPermutation([2, -3, 1, -4])
    assert s(1) == 2 and s(2) == -3 and s(4) == -4
    assert s(-1) == -2 and s(-2) == 3 and s(-4) == 4
    with pytest.raises(ValueError):
        s(0)
    with pytest.raises(ValueError):
        s(5)
    assert s(-3) == -1


def test_compose_identity_and_order():
    a = SignedPermutation([2, -1, 3])
    b = SignedPermutation([-3, 1, 2])
    ab = compose(a, b)
    for i in range(1, 4):
        assert ab(i) == a(b(i))
    e = SignedPermutation.identity(3)
    assert compose(a, e) == a == compose(e, a)
    assert a * a.inverse() == e


def test_inverse_negate_times_neg1():
    s = SignedPermutation([3, -1, -2])
    inv = s.inverse()
    for i in range(1, 4):
        assert inv(s(i)) == i
    assert s.negate_all().images == (-3, 1, 2)
    assert s.times_neg1().images == (3, 1, -2)
    # times_neg1 flips the sign of the image of magnitude 1
    t = SignedPermutation([2, 1]).times_neg1()
    assert t.images == (2, -1)


def test_parity_info():
    def info(s):
        return s.negative_count(), s.in_D()
    assert info(SignedPermutation([1, 2, 3])) == (0, True)
    assert info(SignedPermutation([-1, 2, -3])) == (2, True)
    assert info(SignedPermutation([-1, 2, 3])) == (1, False)
    assert info(SignedPermutation([])) == (0, True)


def test_degree_zero():
    e = SignedPermutation([])
    assert e == SignedPermutation.identity(0)
    assert compose(e, e) == e
    assert e.inverse() == e


@settings(deadline=None, max_examples=150)
@given(signed_perms(max_n=7))
def test_inverse_roundtrip(s):
    assert s.inverse().inverse() == s
    assert compose(s, s.inverse()) == SignedPermutation.identity(s.n)


@settings(deadline=None, max_examples=150)
@given(signed_perms(max_n=7))
def test_negations_involutive_and_commute(s):
    assert s.negate_all().negate_all() == s
    assert s.times_neg1().times_neg1() == s
    assert s.negate_all().times_neg1() == s.times_neg1().negate_all()


def test_group_closure_b2():
    elems = set(all_signed(2))
    assert len(elems) == 8
    for a in elems:
        for b in elems:
            assert compose(a, b) in elems
