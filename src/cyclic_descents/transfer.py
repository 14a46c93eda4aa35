"""Descent-preserving transfer maps between cyclic signed permutations and B_n.

The forward direction (`phi_plus`, wrapped by the four-case `capital_phi`)
rewrites the cycle word of a cyclic permutation of degree n+1 into a signed
permutation of degree n whose descents at 1..n-1 agree with the input; the
position-0 descent is repaired by `capital_phi`.  The reverse direction
(`psi_plus`, wrapped by the six-case `capital_psi_D` / `capital_psi_Dbar`)
undoes the rewriting.

`capital_phi` is two parts on a word ending in +N: the raw rewriting
`_phi_plus_word`, then the position-0 fix-up `_phi_fixup`, which flips the
image +-1 when the sign of the first image is wrong.  A word w ending in -N
maps to -Phi(-w), so Phi is odd by construction.  `_raw_and_capital_phi`
gives a positive word's raw rewriting and its image; exhaustive sweeps run
it once per +- pair and read the negative word's image as the negated one.

Both directions run one swap loop, `_rewrite`, on a flat entry list whose
cycle boundaries never move.  A swap exchanges two adjacent magnitudes
while each slot keeps its sign, and fires on a descent mismatch between the
input and the working permutation, so in each iteration the chunk's last
entry z steps by a fixed +-1 in magnitude (eps, the step in signed values,
is negated for negative z).  Forward, the working permutation (the
cycles read chunk by chunk) moves and the input big cycle stays fixed;
inverse, the big cycle (all entries read as one cycle, closed by +N) moves
and the input signed permutation stays fixed.  Only a constant number of
image/descent slots change per swap, so every repair step is O(1).

Both directions share a two-pass set-up on a word closed by +N.  The first
pass, `_setup`, reads off the input and working permutations, their descent
flags and the chunk starts; it also notes the slot of each magnitude, one
store per entry, which costs less there than in a pass of its own.  A swap
fires only on a flag mismatch at some m in 1..n-1, both when the step is
chosen and in a chain, and only a swap changes an image or a flag.  So when
the two flag lists already agree at 1..n-1, as they do for 72 % of the
positive words of degree 7, an untraced run returns straight after the
first pass: the working permutation is the output.  Otherwise the second
pass, `_chunk_tables`, builds the chunk ends and in-chunk neighbours that
the swap loop walks.  Inverse, the word is the input's canonical cycles laid end to end:
each cycle's first entry is its largest and exceeds every earlier first
entry, so its left-to-right maxima cut it exactly into the input's cycles
(the fact behind Foata's fundamental transformation).

An optional TransferTrace records the intermediate states and swap events.
On the forward pass it also asserts the structural invariants of the
rewriting (the order properties of the working permutation at every loop
boundary and the swap properties of every completed swap batch).  A traced
run always takes both set-up passes and the full loop, one iteration per
chunk, so comparing it with the untraced output cross-checks the early
exit.  Enabling the trace never changes the output.  The hooks that fill
and check a trace live in `tracing` and load only when a trace is given.
"""

from __future__ import annotations

from operator import gt

from .cycles import _canonical_cycles, _images_to_word, _word_to_images
from .permutations import Record, SignedPermutation
from .statistics import _descent_mask


class TransferTrace(Record):
    """Recorded run of a transfer pass.

    iterations holds one (loop index, working snapshot, swap events) triple
    per outer-loop iteration; each swap event is (x, y, (pos_x, pos_y)) with
    the pre-swap entry values.
    """

    __slots__ = ("iterations",)

    def __init__(self, iterations=None):
        Record.__init__(self, [] if iterations is None else iterations)

    def swap_count(self):
        return sum(len(sw) for _, _, sw in self.iterations)


def p_flag(pi: SignedPermutation, sigma: SignedPermutation, x: int, y: int) -> bool:
    """The swap trigger: |x-y| = 1 and min(x,y) in Des(pi) Delta Des(sigma),
    restricted to {1,...,n-1} where n is the degree of sigma."""
    n = sigma.n
    if pi.n != n + 1:
        raise ValueError(f"degrees {pi.n} and {n} are not consecutive")
    if x < 0 or y < 0:
        raise ValueError("magnitudes must be nonnegative")
    if abs(x - y) != 1:
        return False
    mn = min(x, y)
    if not 1 <= mn <= n - 1:
        return False
    delta = _descent_mask(pi.images) ^ _descent_mask(sigma.images)
    return delta >> mn & 1 == 1


def _rewrite(ent, chunks, order, moving, fixed, pick, sign, rec):
    """The swap loop shared by both rewriting directions.

    ent is the flat entry list; chunks = (starts, ends, pos_of, cpred) gives
    its chunks, the slot of each magnitude and each slot's predecessor within
    its chunk, which continues a chain of swaps.  Chunks are visited in
    `order`.  moving = (img, flags, pred, succ) is the image list the swaps
    rewrite, its descent flags and the slot order it is read in; `fixed` is
    the other side's descent flags.  A swap of magnitudes a and a+1 fires
    on a flag mismatch at a, so z, the chunk's last entry, steps by +1 in
    magnitude on a mismatch at |z|, by -1 on one at |z|-1, and if both,
    towards the larger `sign` * pick[...].  A batch is a chain of swaps from
    z; the iteration ends when a batch would make no swap.  rec, when
    given, is told of every iteration, batch and swap.
    """
    starts, ends, pos_of, cpred = chunks
    img, flg, pred, succ = moving
    n = len(flg)
    for j in order:
        if rec is not None:
            rec.begin_iteration(j)
        jstart = starts[j]
        jend = ends[j]
        zv = ent[jend]
        zm = -zv if zv < 0 else zv
        up = zm < n and flg[zm] != fixed[zm]
        if zm > 1 and flg[zm - 1] != fixed[zm - 1]:
            if up:
                # pick is injective on magnitudes, so no tie is possible
                assert pick[zm + 1] != pick[zm - 1]
                up = sign * pick[zm + 1] > sign * pick[zm - 1]
        elif not up:
            continue
        step = 1 if up else -1

        while True:
            zv = ent[jend]
            x_mag = -zv if zv < 0 else zv
            y_mag = x_mag + step
            swapped = False
            while True:
                d = x_mag - y_mag
                if d != 1 and d != -1:
                    break
                mn = y_mag if d == 1 else x_mag
                if not (1 <= mn < n) or flg[mn] == fixed[mn]:
                    break
                xp = pos_of[x_mag]
                yp = pos_of[y_mag]
                xv = ent[xp]
                yv = ent[yp]
                if rec is not None:
                    if not swapped:
                        rec.begin_batch(j, zv, step if zv > 0 else -step, yp)
                    rec.record_swap(xv, yv, xp, yp)
                swapped = True
                ent[xp] = y_mag if xv > 0 else -y_mag
                ent[yp] = x_mag if yv > 0 else -x_mag
                pos_of[x_mag] = yp
                pos_of[y_mag] = xp
                # refresh the moving images and flags around the rewritten slots
                for p in {xp, yp, pred[xp], pred[yp]}:
                    a = ent[p]
                    a = -a if a < 0 else a
                    img[a] = ent[succ[p]]
                    if a <= n:
                        f = a - 1
                        flg[f] = (img[f] if f else 0) > img[a]
                        if a < n:
                            flg[a] = img[a] > img[a + 1]
                if xp != jstart and yp != jstart:
                    nx = ent[cpred[xp]]
                    ny = ent[cpred[yp]]
                    x_mag = -nx if nx < 0 else nx
                    y_mag = -ny if ny < 0 else ny
                # otherwise x and y keep their magnitudes; the swap just
                # settled the descent between them, so the loop check fails
            if not swapped:
                break
            if rec is not None:
                rec.end_batch(j)


def _setup(ent, n):
    """The first set-up pass, shared by both rewriting directions.

    Reads the first n entries of ent, closed by +(n+1), as one cycle pi_img
    (a function on magnitudes) and, cut at their left-to-right maxima, as
    chunks starting at the slots `starts`; the chunks read as cycles give
    sig (slot 0 unused).  desP and desS are the descent flags at 0..n-1 of
    pi_img and sig, and pos_of the slot of each magnitude.
    """
    N = n + 1
    pi_img = [0] * (N + 1)
    sig = [0] * N
    pos_of = [0] * N
    starts = []
    best = -N
    lo = 0
    a = N  # magnitude of the previous word entry
    for p in range(n):
        v = ent[p]
        pi_img[a] = v
        if v > best:
            if p:
                # close the chunk [lo, p-1]
                sig[a] = ent[lo]
            starts.append(p)
            lo = p
            best = v
        else:
            sig[a] = v
        a = -v if v < 0 else v
        pos_of[a] = p
    pi_img[a] = N
    if n:
        sig[a] = ent[lo]
    desP = list(map(gt, pi_img, pi_img[1:N]))
    desS = list(map(gt, sig, sig[1:]))
    return pi_img, sig, desP, desS, pos_of, starts


def _chunk_tables(n, starts):
    """The second set-up pass, run only when a swap can fire: from the
    chunk starts of n slots, each chunk's last slot (ends) and each slot's
    neighbours within its chunk (pred, succ)."""
    ends = [p - 1 for p in starts[1:]]
    if n:
        ends.append(n - 1)
    pred = list(range(-1, n - 1))
    succ = list(range(1, n + 1))
    for lo, hi in zip(starts, ends):
        pred[lo] = hi
        succ[hi] = lo
    return ends, pred, succ


def _phi_plus_word(word, trace=None):
    """Run the cyclic-to-signed rewriting on a cycle word ending in +N.

    Returns the one-line images of the output as a list indexed 1..N-1
    (slot 0 unused).  The word is not modified.
    """
    N = len(word)
    n = N - 1
    if word[n] != N:
        raise ValueError("cycle word must end with its positive largest entry")

    # the final +N is dropped: the input is pi_img, and the chunks of the
    # word read as cycles are the working permutation sig
    pi_img, sig, desP, desS, pos_of, starts = _setup(word, n)
    if trace is None and desP[1:] == desS[1:]:
        # no flag disagrees at 1..n-1, so no swap fires: sig is the output
        return sig
    ent = list(word[:n])
    ends, pred, succ = _chunk_tables(n, starts)

    ctx = None
    if trace is not None:
        from .tracing import _PhiContext

        ctx = _PhiContext(trace, ent, starts, ends, pos_of, sig, desS, desP, pi_img)
    # the working cycles move, read chunk by chunk, left to right
    _rewrite(ent, (starts, ends, pos_of, pred), range(len(starts)),
             (sig, desS, pred, succ), desP, pi_img, 1, ctx)
    if ctx is not None:
        ctx.final_check()
    return sig


def phi_plus(pi: SignedPermutation, trace: TransferTrace | None = None) -> SignedPermutation:
    """The cyclic-to-signed map on the positive class (the +-largest entry
    must appear with a plus sign).  Output degree is one less than input."""
    word = _images_to_word(pi.images)
    if word[-1] != pi.n:
        raise ValueError(f"{pi} contains -{pi.n}; only the positive class is accepted")
    sig = _phi_plus_word(word, trace)
    return SignedPermutation._trusted(sig[1:])


def _phi_fixup(word, raw):
    """Position-0 fix-up of the descent-preserving map, for a word ending in +N
    and its raw images raw (slot 0 unused): a new 0-based image list, the
    image +-1 flipped when the sign of the first image disagrees with the sign
    of the image of 1 under word, which reattaches the position-0 descent.
    Neither argument is modified."""
    res = raw[1:]
    if not res:
        return res
    # the image of 1 is the entry after +-1, cyclically
    p = word.index(1) if 1 in word else word.index(-1)
    if (word[p + 1 - len(word)] < 0) != (res[0] < 0):
        i = res.index(1) if 1 in res else res.index(-1)
        res[i] = -res[i]
    return res


def _raw_and_capital_phi(word):
    """(raw, Phi(word)) for a word ending in +N: the raw rewriting as from
    _phi_plus_word and its one fix-up, as from _capital_phi_word."""
    raw = _phi_plus_word(word)
    return raw, _phi_fixup(word, raw)


def _capital_phi_word(word):
    """The descent-preserving map on a cycle word ending with +-N: the raw
    rewriting then the position-0 fix-up, and for a word w ending in -N
    the negation of the map at -w.  Returns the one-line image list
    (0-based) of the degree N-1 output."""
    N = len(word)
    if word[-1] == N:
        return _phi_fixup(word, _phi_plus_word(word))
    if word[-1] == -N:
        neg = [-v for v in word]
        return [-v for v in _phi_fixup(neg, _phi_plus_word(neg))]
    raise ValueError("cycle word must end with its +-largest entry")


def capital_phi(pi: SignedPermutation) -> SignedPermutation:
    """Descent-preserving map from cyclic permutations of degree n+1 to B_n:
    descents at 0..n-1 are preserved exactly."""
    return SignedPermutation._trusted(_capital_phi_word(_images_to_word(pi.images)))


def _psi_plus_word(images, trace=None):
    """Run the signed-to-cyclic rewriting on one-line images of degree n.

    Returns the cycle word of the degree n+1 output, ending in +(n+1).
    """
    n = len(images)
    N = n + 1
    # the canonical cycles laid end to end, closed by the new entry +N: the
    # chunks read as cycles are sigma itself, whose flags desS stay fixed,
    # and the big cycle pi_img evolves
    went = [v for c in _canonical_cycles(images) for v in c] + [N]
    pi_img, _, desP, desS, pos_of, starts = _setup(went, n)
    if trace is None and desP[1:] == desS[1:]:
        # no flag disagrees at 1..n-1, so no swap fires: went is the output
        return went
    ends, cpred, _ = _chunk_tables(n, starts)

    rec = None
    if trace is not None:
        from .tracing import _Recorder

        rec = _Recorder(trace, went, starts, ends)
    # the big cycle moves, read as one cycle over all N slots; chunks are
    # visited right to left, skipping the last, and of two firing steps the
    # one to the smaller big-cycle image wins
    _rewrite(went, (starts, ends, pos_of, cpred), range(len(starts) - 2, -1, -1),
             (pi_img, desP, [n] + list(range(n)), list(range(1, N)) + [0]),
             desS, pi_img, -1, rec)
    return went


def psi_plus(sigma: SignedPermutation, trace: TransferTrace | None = None) -> SignedPermutation:
    """The signed-to-cyclic map: inverse of phi_plus, landing in the positive
    class of cyclic permutations one degree up."""
    return SignedPermutation._trusted(_word_to_images(_psi_plus_word(sigma.images, trace)))


def _capital_psi_word(images, want_even):
    """Inverse of the descent-preserving map on one-line images, restricted
    to the cyclic permutations whose negative count is even (want_even) or
    odd.  Returns the cycle word of the preimage, ending with +-(n+1)."""
    even = (sum(v < 0 for v in images) % 2 == 0) == want_even
    if images and (images[0] == 1 or images[0] == -1):
        # sigma(1) = +-1 fixes the sign class; flipping the image +-1 then
        # switches the parity class
        neg = images[0] < 0
        flip = even == neg
    else:
        neg, flip = not even, False
    s = -1 if neg else 1
    word = _psi_plus_word([s * (-v if flip and (v == 1 or v == -1) else v)
                           for v in images])
    return [-v for v in word] if neg else word


def capital_psi_D(sigma: SignedPermutation) -> SignedPermutation:
    """Inverse of the descent-preserving map restricted to cyclic permutations
    with an even number of negative entries."""
    return SignedPermutation._trusted(_word_to_images(_capital_psi_word(sigma.images, True)))


def capital_psi_Dbar(sigma: SignedPermutation) -> SignedPermutation:
    """Inverse of the descent-preserving map restricted to cyclic permutations
    with an odd number of negative entries."""
    return SignedPermutation._trusted(_word_to_images(_capital_psi_word(sigma.images, False)))


def stress_word(N, one):
    """W_N = [-4, -2, N-1, -(N-2), ..., -5, -3, one, N], one = +-1: a cycle
    word of degree N >= 8 whose forward rewriting makes 2N - 9 swaps, the
    most of any word at N = 8 and 9; the seed of a stress corpus."""
    return [-4, -2, N - 1, *range(-(N - 2), -4), -3, one, N]


def preimage_quadruple(sigma: SignedPermutation):
    """The four candidate preimages of {sigma, (-1)sigma} under the
    descent-preserving map, one in each of the four sign/parity classes: the
    positive class with sigma's parity, then with the other parity, then the
    negative class with the other parity, then with sigma's.  Needs degree
    n >= 1: at degree 0 the four classes collapse to two elements."""
    if sigma.n < 1:
        raise ValueError("the preimage quadruple needs degree >= 1")
    even = sigma.negative_count() % 2 == 0
    keyed = []
    for x in (sigma.images, sigma.times_neg1().images):
        for want in (True, False):
            w = _capital_psi_word(x, want)
            neg = w[-1] < 0
            keyed.append(((neg, (want != even) != neg), w))
    keyed.sort(key=lambda kw: kw[0])
    return tuple(SignedPermutation._trusted(_word_to_images(w)) for _, w in keyed)
