"""The unsigned specialization of the cyclic-to-one-line rewriting.

`phi_classic` acts on cyclic permutations of [n+1] with every image positive.
Its swap trigger reads the two permutations directly (an inversion of the
input against a non-inversion of the working state) instead of comparing
descent sets, and a swap chain keeps running while the preceding entries
differ by exactly one.  The code path is deliberately separate from the
signed rewriting so the two can be checked against each other; it serves
only the elizalde-equivalence check, `cycdes map --fn phiS` and the tests.
"""

from __future__ import annotations

from .cycles import _images_to_word
from .permutations import SignedPermutation


def _phi_classic_word(word, check=False):
    """Rewrite an all-positive cycle word ending in N; returns images 1..N-1
    in a list indexed from 1.

    With check=True, every trigger evaluation is also compared against the
    descent-set formulation, and every chain-continuation decision against
    the signed rewriting's re-check; a disagreement raises AssertionError.
    """
    N = len(word)
    n = N - 1
    if word[n] != N:
        raise ValueError("cycle word must end with its largest entry")

    pi_img = [0] * (N + 1)
    for p in range(n):
        pi_img[word[p]] = word[p + 1]
    pi_img[N] = word[0]

    ent = list(word[:n])
    starts = []
    best = 0
    for p in range(n):
        if ent[p] > best:
            starts.append(p)
            best = ent[p]
    m = len(starts)
    ends = [0] * m
    chunk_of = [0] * n
    for j in range(m):
        lo = starts[j]
        hi = starts[j + 1] if j + 1 < m else n
        ends[j] = hi - 1
        for p in range(lo, hi):
            chunk_of[p] = j

    pos_of = [0] * (n + 1)
    for p in range(n):
        pos_of[ent[p]] = p
    sig = [0] * (n + 1)
    for j in range(m):
        lo, hi = starts[j], ends[j]
        for p in range(lo, hi):
            sig[ent[p]] = ent[p + 1]
        sig[ent[hi]] = ent[lo]

    def trigger(a, b):
        # a in [n]; b may fall outside [n], in which case there is no swap
        hit = 1 <= b <= n and pi_img[a] > pi_img[b] and sig[a] < sig[b]
        if check:
            assert hit == _descent_trigger(pi_img, sig, n, a, b), \
                f"trigger mismatch at ({a},{b})"
        return hit

    for j in range(m):
        jstart = starts[j]
        jend = ends[j]
        z = ent[jend]
        eps = 0
        best = 0
        for e in (-1, 1):
            if trigger(z, z + e):
                pv = pi_img[z + e]
                if eps == 0 or pv > best:
                    eps, best = e, pv
        if eps == 0:
            continue
        while True:
            z = ent[jend]
            if not trigger(z, z + eps):
                break
            x, y = z, z + eps
            while True:
                xp = pos_of[x]
                yp = pos_of[y]
                ent[xp] = y
                ent[yp] = x
                pos_of[x] = yp
                pos_of[y] = xp
                cx = chunk_of[xp]
                pxp = ends[cx] if xp == starts[cx] else xp - 1
                cy = chunk_of[yp]
                pyp = ends[cy] if yp == starts[cy] else yp - 1
                for p in {xp, yp, pxp, pyp}:
                    cc = chunk_of[p]
                    q = starts[cc] if p == ends[cc] else p + 1
                    sig[ent[p]] = ent[q]
                px = ent[pxp]
                py = ent[pyp]
                cont = (xp != jstart and yp != jstart
                        and (px - py == 1 or py - px == 1))
                if check:
                    # the chain continues exactly when the signed rewriting's
                    # trigger re-check on the preceding entries would pass
                    recheck = (xp != jstart and yp != jstart
                               and _descent_trigger(pi_img, sig, n, px, py))
                    assert cont == recheck, \
                        f"chain continuation mismatch at ({px},{py})"
                if not cont:
                    break
                x, y = px, py

    return sig


def _descent_trigger(pi_img, sig, n, a, b):
    """The descent-set formulation of the swap trigger, for cross-checking."""
    if abs(a - b) != 1:
        return False
    mn = min(a, b)
    if not 1 <= mn <= n - 1:
        return False
    dp = (pi_img[mn] if mn else 0) > pi_img[mn + 1]
    ds = (sig[mn] if mn else 0) > sig[mn + 1]
    return dp != ds


def phi_classic(pi: SignedPermutation, check: bool = False) -> SignedPermutation:
    """Descent-preserving map from cyclic permutations of [n+1] with all
    images positive onto permutations of [n] (descents at 1..n-1 agree)."""
    if any(v < 0 for v in pi.images):
        raise ValueError("all images must be positive")
    sig = _phi_classic_word(_images_to_word(pi.images), check)
    return SignedPermutation(sig[1:])
