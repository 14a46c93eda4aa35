import pytest
from hypothesis import given, settings

from cyclic_descents.cycles import (
    CycleNotation, SignedCycle, from_cycles, is_cyclic, to_canonical_cycles,
)
from cyclic_descents.permutations import SignedPermutation

from conftest import all_signed, signed_perms, word_to_perm, all_cyclic_words


def test_cycle_semantics():
    # (e1 a1, e2 a2, ...) sends a_i to the following signed entry
    c = CycleNotation(3, [SignedCycle((3, -1, 2))])
    s = from_cycles(c)
    assert s(3) == -1 and s(1) == 2 and s(2) == 3
    assert s(-3) == 1 and s(-1) == -2


def test_canonical_form_rules():
    s = SignedPermutation([-1, 2, -6, -4, -3, 5])
    c = to_canonical_cycles(s)
    assert [cy.entries for cy in c.cycles] == [(-4,), (-1,), (2,), (5, -3, -6)]
    # round trip
    assert from_cycles(c) == s
    # largest signed entry leads each cycle, first entries increase
    for cy in c.cycles:
        assert cy.entries[0] == max(cy.entries)
    firsts = [cy.entries[0] for cy in c.cycles]
    assert firsts == sorted(firsts)


def test_negative_one_cycle_display():
    s = SignedPermutation([-1])
    c = to_canonical_cycles(s)
    assert c.cycles[0].entries == (-1,)
    assert from_cycles(c) == s


def test_is_cyclic():
    assert is_cyclic(word_to_perm((2, -1, 3)))
    assert is_cyclic(SignedPermutation([-1]))
    assert not is_cyclic(SignedPermutation([1, 2]))
    assert not is_cyclic(SignedPermutation([-1, 2]))
    with pytest.raises(ValueError):
        is_cyclic(SignedPermutation([]))


def test_cyclic_count_matches_formula():
    # 2^n (n-1)! cyclic permutations of degree n
    import math
    for n in (1, 2, 3, 4):
        got = sum(1 for s in all_signed(n) if is_cyclic(s))
        assert got == 2 ** n * math.factorial(n - 1)


def test_validation():
    with pytest.raises(ValueError):
        SignedCycle((2, -2))
    with pytest.raises(ValueError):
        CycleNotation(3, [SignedCycle((1, 2))])  # misses magnitude 3
    with pytest.raises(ValueError):
        CycleNotation(2, [SignedCycle((1, 2)), SignedCycle((2,))])


@settings(deadline=None, max_examples=200)
@given(signed_perms(max_n=8))
def test_to_from_roundtrip(s):
    assert from_cycles(to_canonical_cycles(s)) == s


def test_cyclic_single_cycle():
    for w in all_cyclic_words(4):
        s = word_to_perm(w)
        assert is_cyclic(s)
        c = to_canonical_cycles(s)
        assert len(c.cycles) == 1
