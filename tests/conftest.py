import math
from itertools import permutations, product

import pytest
from hypothesis import strategies as st

from cyclic_descents.permutations import SignedPermutation


def all_signed(n):
    """Every signed permutation of degree n."""
    for b in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield SignedPermutation([s * v for s, v in zip(signs, b)])


def all_cyclic_words(N):
    """Every cycle word of a cyclic degree-N permutation, +-N entry last."""
    for b in permutations(range(1, N)):
        for signs in product((1, -1), repeat=N):
            yield tuple(s * v for s, v in zip(signs, b + (N,)))


def word_to_perm(w):
    """Cycle word to the permutation it denotes."""
    N = len(w)
    img = [0] * N
    for p in range(N):
        img[abs(w[p]) - 1] = w[(p + 1) % N]
    return SignedPermutation(img)


def signed_perms(max_n=8, min_n=1):
    """Hypothesis strategy for signed permutations."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        )
    ).map(lambda t: SignedPermutation([s * v for s, v in zip(t[1], t[0])]))


def cyclic_words(max_N=8, min_N=1):
    """Hypothesis strategy for cycle words with the +-N entry last."""
    return st.integers(min_N, max_N).flatmap(
        lambda N: st.tuples(
            st.permutations(list(range(1, N))),
            st.lists(st.sampled_from((1, -1)), min_size=N, max_size=N),
        )
    ).map(lambda t: tuple(s * v for s, v in zip(t[1], list(t[0]) + [len(t[1])])))


@pytest.fixture(scope="session")
def b3():
    return list(all_signed(3))


@pytest.fixture
def no_fork(monkeypatch):
    """os.fork made to fail, so that a test of a refused process count
    can start no process even if the refusal is missing."""
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr("os.fork", fork)
