"""The hooks of an instrumented rewriting pass.

`_Recorder` fills a TransferTrace with one snapshot per outer-loop
iteration and every swap; `_PhiContext` also asserts the structural
invariants of the forward rewriting.  transfer imports this module only
when a trace is given, so untraced runs never load it.
"""

from __future__ import annotations

from .cycles import CycleNotation, SignedCycle


class _Recorder:
    """Fills a TransferTrace: one (loop index, working snapshot, swaps)
    entry per outer-loop iteration of a rewriting pass."""

    def __init__(self, trace, ent, starts, ends):
        self.trace = trace
        self.ent = ent
        self.starts = starts
        self.ends = ends
        self.cur_swaps = []

    def _snapshot(self):
        # the rewriting's own entries, so built without the checks
        ent = self.ent
        cycs = [SignedCycle._trusted(tuple(ent[lo:hi + 1]))
                for lo, hi in zip(self.starts, self.ends)]
        if len(ent) > self.ends[-1] + 1:
            # the inverse pass: the big cycle's closing entry +N
            cycs.append(SignedCycle._trusted(tuple(ent[self.ends[-1] + 1:])))
        return CycleNotation._trusted(len(ent), tuple(cycs))

    def begin_iteration(self, j):
        self.cur_swaps = []
        self.trace.iterations.append((j + 1, self._snapshot(), self.cur_swaps))

    def begin_batch(self, j, zv, eps, y_pos):
        pass

    def record_swap(self, xv, yv, xp, yp):
        assert abs(abs(xv) - abs(yv)) == 1, "swap magnitudes must be adjacent"
        self.cur_swaps.append((xv, yv, (xp, yp)))

    def end_batch(self, j):
        pass


class _PhiContext(_Recorder):
    """Structural checks for the instrumented forward rewriting.

    Asserts, at the start of every outer-loop iteration and after every swap
    batch, the order properties of the working permutation, and for every
    batch the locality and descent-effect properties of its swaps.
    """

    def __init__(self, trace, ent, starts, ends, pos_of, sig, desS, desP, pi_img):
        super().__init__(trace, ent, starts, ends)
        self.chunk_of = [j for j in range(len(starts)) for _ in range(starts[j], ends[j] + 1)]
        self.pos_of = pos_of
        self.sig = sig
        self.desS = desS
        self.desP = desP
        self.pi_img = pi_img
        self.n = len(ent)
        self.m = len(starts)
        # each chunk's slots in the order of their initial entries
        self.ranked = [sorted(range(lo, hi + 1), key=ent.__getitem__)
                       for lo, hi in zip(starts, ends)]
        self.init_first = [ent[p] for p in starts]
        self.touched = [False] * self.n
        self.batch = None
        self.batches_this_iter = 0

    def begin_iteration(self, j):
        super().begin_iteration(j)
        self.batches_this_iter = 0
        self.check_order(j)

    def begin_batch(self, j, zv, eps, y_pos):
        if self.batches_this_iter:
            # the start of every later round of the outer loop is a boundary
            self.check_order(j)
        self.batches_this_iter += 1
        self.batch = {
            "z": zv,
            "eps": eps,
            "first_y": y_pos,
            "ent0": list(self.ent),
            "sig0": list(self.sig),
            "desS0": list(self.desS),
            "affected": set(),
            "swaps": [],
        }

    def record_swap(self, xv, yv, xp, yp):
        super().record_swap(xv, yv, xp, yp)
        b = self.batch
        b["affected"].update((xp, yp))
        b["swaps"].append((xp, yp))
        self.touched[xp] = True
        self.touched[yp] = True

    def end_batch(self, j):
        b = self.batch
        n, m = self.n, self.m
        chunk_of, ends = self.chunk_of, self.ends
        affected = b["affected"]

        # (I) each swap joins the current cycle to one on its right
        for xp, yp in b["swaps"]:
            cs = {chunk_of[xp], chunk_of[yp]}
            assert j in cs and max(cs) > j, f"swap {xp},{yp} not between cycle {j} and a later one"

        # (II) last entries of later cycles survive, and nothing right of the
        # first partner moves
        for k in range(j + 1, m):
            assert ends[k] not in affected, f"last entry of cycle {k} was swapped"
        for q in affected:
            assert q <= b["first_y"], "swap reached right of the first partner"

        # (III) entries whose image reaches the next cycle's leader survive
        if j + 1 < m:
            first_val = b["ent0"][self.starts[j + 1]]
            for p in range(n):
                if b["sig0"][abs(b["ent0"][p])] >= first_val:
                    assert p not in affected, f"large entry at {p} was swapped"

        # (IV) the cumulative effect on the descent mismatches
        desP, desS0, desS1 = self.desP, b["desS0"], self.desS
        delta0 = {d for d in range(1, n) if desP[d] != desS0[d]}
        delta1 = {d for d in range(1, n) if desP[d] != desS1[d]}
        z, eps = b["z"], b["eps"]
        d0 = min(abs(z), abs(z + eps))
        assert d0 in delta0 and d0 not in delta1, "target descent not settled"
        d1 = min(abs(z), abs(z - eps))
        if 1 <= d1 <= n - 1:
            assert d1 not in delta1, "descent behind z not settled"
        d2 = min(abs(z + eps), abs(z + 2 * eps))
        d2_ok = 1 <= d2 <= n - 1
        if d2_ok:
            if d2 in delta0:
                assert d2 not in delta1, "descent ahead of the partner not settled"
            elif b["sig0"][abs(z + 2 * eps)] > b["sig0"][abs(z + eps)]:
                assert d2 not in delta1, "descent ahead of the partner introduced"
        introduced = delta1 - delta0
        assert introduced <= ({d2} if d2_ok else set()), f"stray descents {introduced}"
        self.batch = None

    def check_order(self, j):
        ent, sig, pi_img = self.ent, self.sig, self.pi_img
        starts, ends, chunk_of = self.starts, self.ends, self.chunk_of
        n, m = self.n, self.m

        # (A) entries of each cycle keep their original relative order
        for k, order in enumerate(self.ranked):
            assert sorted(order, key=ent.__getitem__) == order, \
                f"relative order broken in cycle {k}"

        # (B) cycle leaders increase and dominate everything before them
        for k in range(m):
            if k:
                assert ent[starts[k]] > ent[starts[k - 1]], "cycle leaders out of order"
            assert ent[starts[k]] == max(ent[: ends[k] + 1]), \
                f"leader of cycle {k} not dominant"

        # (C) the image order against later leaders pins down untouched entries
        for k in range(j + 1, m):
            pk1 = self.init_first[k]
            sk1 = ent[starts[k]]
            for p in range(n):
                x = ent[p]
                a = -x if x < 0 else x
                lhs = pi_img[a] > pk1
                rhs = sig[a] >= sk1
                assert lhs == rhs, f"image-order mismatch at entry {x} vs cycle {k}"
                if lhs:
                    assert (sig[a] == sk1) == (p == ends[k]), \
                        "equality must mark the last entry"
                    assert not self.touched[p], f"swapped entry {x} claims exemption"

        # (D) every descent mismatch is an adjacent last/non-last pair
        desP, desS = self.desP, self.desS
        for d in range(1, n):
            if desP[d] == desS[d]:
                continue
            pd = self.pos_of[d]
            pd1 = self.pos_of[d + 1]
            last_d = pd == ends[chunk_of[pd]] and chunk_of[pd] >= j
            last_d1 = pd1 == ends[chunk_of[pd1]] and chunk_of[pd1] >= j
            assert last_d != last_d1, f"mismatch {d}: need exactly one trailing entry"
            xpos, opos = (pd, pd1) if last_d else (pd1, pd)
            assert chunk_of[opos] > chunk_of[xpos], f"mismatch {d}: partner not to the right"
            assert opos != ends[chunk_of[opos]], f"mismatch {d}: partner trails its cycle"
            xm = abs(ent[xpos])
            om = abs(ent[opos])
            assert pi_img[xm] > pi_img[om], f"mismatch {d}: input images not descending"
            assert sig[xm] < sig[om], f"mismatch {d}: working images not ascending"

    def final_check(self):
        self.check_order(self.m)
        self.batch = None
