from itertools import permutations, product

import pytest

from cyclic_descents.colored import (
    ColoredPermutation, color_of, colored_descent_set, colored_phi,
    colored_psi, colored_stats, is_cyclic_colored,
)
from cyclic_descents.permutations import SignedPermutation
from cyclic_descents.classic import phi_classic
from cyclic_descents.statistics import descent_set


def all_colored(n, r):
    for w in permutations(range(1, n + 1)):
        for t in product(range(r), repeat=n):
            yield ColoredPermutation(n, r, w, t)


def cyclic_colored(N, r):
    for b in permutations(range(1, N)):
        w = list(b) + [N]
        img = [0] * N
        for p in range(N):
            img[w[p] - 1] = w[(p + 1) % N]
        for t in product(range(r), repeat=N):
            yield ColoredPermutation(N, r, tuple(img), t)


def test_validation():
    for args, msg in [
            ((2, 3, (1, 1), (0, 0)), "(1, 1) is not a permutation of [2]"),
            ((2, 3, (1, 2), (0, 3)), "colors must lie in 0..2"),
            ((2, 0, (1, 2), (0, 0)), "need at least one color"),
            ((2, 3, (1, 2), (0,)), "omega and tau must have length n"),
            ((3, 3, (1, 2), (0, 0)), "omega and tau must have length n")]:
        with pytest.raises(ValueError) as e:
            ColoredPermutation(*args)
        assert str(e.value) == msg


def test_descent_examples():
    # colored values sort by (color, magnitude), color 0 first
    assert colored_descent_set(ColoredPermutation(2, 3, (2, 1), (1, 0))) == {1}
    assert colored_descent_set(ColoredPermutation(2, 2, (1, 2), (0, 1))) == {2}
    # all colors zero reduces to classical descents inside [n-1]
    p = ColoredPermutation(4, 5, (2, 4, 3, 1), (0, 0, 0, 0))
    assert colored_descent_set(p) == {2, 3}


def test_stats_examples():
    assert colored_stats(ColoredPermutation(2, 3, (2, 1), (1, 0))) == (1, 1, 1, 4)
    assert colored_stats(ColoredPermutation(2, 2, (1, 2), (0, 1))) == (1, 0, 1, 1)
    assert colored_stats(ColoredPermutation(3, 4, (1, 2, 3), (0, 0, 0))) == (0, 0, 0, 0)


def test_color_of():
    assert color_of(ColoredPermutation(2, 3, (1, 2), (1, 0))) == 1
    assert color_of(ColoredPermutation(2, 2, (1, 2), (1, 1))) == 0
    assert color_of(ColoredPermutation(3, 3, (1, 2, 3), (2, 2, 1))) == 2


def test_cyclicity_ignores_colors():
    assert is_cyclic_colored(ColoredPermutation(3, 2, (2, 3, 1), (1, 0, 1)))
    assert not is_cyclic_colored(ColoredPermutation(3, 2, (1, 3, 2), (1, 1, 1)))


def test_colorless_reduces_to_classic():
    # colored_phi runs the signed rewriting; the unsigned oracle must agree
    for N in range(1, 7):
        for r in (1, 2):
            for p in cyclic_colored(N, r):
                out = colored_phi(p)
                w = phi_classic(SignedPermutation(list(p.omega)))
                assert out.omega == w.images
                assert out.tau == p.tau[:-1]


def test_colored_phi_rejects_non_cyclic():
    with pytest.raises(ValueError):
        colored_phi(ColoredPermutation(3, 2, (1, 3, 2), (1, 0, 1)))
    with pytest.raises(ValueError):
        colored_phi(ColoredPermutation(0, 2, (), ()))


def test_descent_agreement():
    # descents in {1,...,n-1} survive; n and n+1 may change
    for r in (2, 3):
        for p in cyclic_colored(4, r):
            out = colored_phi(p)
            keep = set(range(1, 3))
            assert colored_descent_set(p) & keep == colored_descent_set(out) & keep
            assert (4 in colored_descent_set(p)) == (p.tau[3] != 0)


def test_fixed_color_bijection():
    for n, r in ((2, 2), (2, 3), (3, 2), (3, 3)):
        by_color = {}
        for p in cyclic_colored(n + 1, r):
            out = colored_phi(p)
            by_color.setdefault(color_of(p), set()).add((out.omega, out.tau))
        import math
        full = r ** n * math.factorial(n)
        assert set(by_color) == set(range(r))
        for c, hit in by_color.items():
            assert len(hit) == full


def test_psi_round_trips():
    for n, r in ((2, 2), (3, 2), (2, 4)):
        for p in all_colored(n, r):
            for c in range(r):
                up = colored_psi(p, c)
                assert up.n == n + 1
                assert color_of(up) == c
                assert is_cyclic_colored(up)
                back = colored_phi(up)
                assert back == p
    with pytest.raises(ValueError):
        colored_psi(ColoredPermutation(2, 2, (1, 2), (0, 0)), 2)
