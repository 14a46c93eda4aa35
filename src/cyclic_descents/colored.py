"""Colored permutations: pairs (omega, tau) with r colors per position.

A colored value is the pair (color, magnitude) and values are ordered
lexicographically by that key, so color-0 values come first; no root of
unity is ever materialized.  Descents live in {1,...,n} with position n
compared against a fixed point n+1 of color 0.

The transfer map to and from cyclic colored permutations runs the signed
rewriting of `transfer` on omega and carries the colors along: the removed
position's color is folded into the total so each fixed-color class maps
bijectively.  `classic.phi_classic`, the separate unsigned rewriting, now
serves only the elizalde-equivalence check, `--fn phiS` and the tests.
"""

from __future__ import annotations

from operator import index

from .cycles import _images_to_word, _orbit, _word_to_images
from .permutations import Record, _ints
from .transfer import _phi_plus_word, _psi_plus_word


class ColoredPermutation(Record):
    __slots__ = ("n", "r", "omega", "tau")

    def __init__(self, n: int, r: int, omega: tuple, tau: tuple):
        n, r = index(n), index(r)
        omega, tau = _ints(omega, "image"), _ints(tau, "color")
        if r < 1:
            raise ValueError("need at least one color")
        if len(omega) != n or len(tau) != n:
            raise ValueError("omega and tau must have length n")
        if sorted(omega) != list(range(1, n + 1)):
            raise ValueError(f"{omega} is not a permutation of [{n}]")
        if any(not 0 <= c < r for c in tau):
            raise ValueError(f"colors must lie in 0..{r - 1}")
        Record.__init__(self, n, r, omega, tau)

    def __str__(self):
        parts = [
            f"{w}^{c}" if c else str(w)
            for w, c in zip(self.omega, self.tau)
        ]
        return "[" + ",".join(parts) + "]"


def colored_descent_set(p: ColoredPermutation):
    """Descent positions in {1,...,n}; position n descends when its color
    is nonzero (the fixed point n+1 carries color 0)."""
    out = _inner_descents(p.omega, p.tau)
    if p.n and p.tau[-1] != 0:
        out.add(p.n)
    return out


def _inner_descents(omega, tau):
    """The descent positions in {1,...,n-1} of (omega, tau), n = len(omega)."""
    return {i for i in range(1, len(omega))
            if (tau[i - 1], omega[i - 1]) > (tau[i], omega[i])}


def colored_stats(p: ColoredPermutation):
    """(des, maj, col, fmaj): des counts every descent, maj sums only those
    in [n-1], col adds the colors as plain integers, fmaj = r*maj + col."""
    des_set = colored_descent_set(p)
    des = len(des_set)
    maj = sum(i for i in des_set if i <= p.n - 1)
    col = sum(p.tau)
    return des, maj, col, p.r * maj + col


def color_of(p: ColoredPermutation) -> int:
    """Total color modulo r."""
    return sum(p.tau) % p.r


def is_cyclic_colored(p: ColoredPermutation) -> bool:
    """Colors never affect the cycle structure, so test omega alone."""
    n = p.n
    if n == 0:
        raise ValueError("degree 0 has no cycle")
    return len(_orbit(p.omega, n)) == n


def colored_phi(p: ColoredPermutation) -> ColoredPermutation:
    """Descent-preserving map from cyclic colored permutations of degree n+1
    to degree n: rewrite omega, keep the first n colors.  Descents in
    {1,...,n-1} are preserved; each fixed-color class maps bijectively."""
    omega = _phi_plus_word(_images_to_word(p.omega))
    return ColoredPermutation(p.n - 1, p.r, tuple(omega[1:]), p.tau[:-1])


def colored_psi(p: ColoredPermutation, target_color: int) -> ColoredPermutation:
    """Inverse of colored_phi onto the cyclic class of the given total color:
    lift omega one degree up and give the new position the color that brings
    the total to target_color."""
    r = p.r
    if not 0 <= target_color < r:
        raise ValueError(f"target color must lie in 0..{r - 1}")
    went = _psi_plus_word(list(p.omega))
    last = (target_color - sum(p.tau)) % r
    return ColoredPermutation(len(went), r, tuple(_word_to_images(went)),
                              p.tau + (last,))
