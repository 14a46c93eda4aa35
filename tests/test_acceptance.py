"""Acceptance gates.

Eleven criteria, one test each, every test printing a single
[PASS]/[FAIL] line (run with -s or -rA to see the lines for passing
tests).  Failing lines carry the measured values next to the asserted
targets so the gap is auditable.  Nothing here is sampled except
criteria 10 and 11, which use the fixed published seed below.
"""

import time
from fractions import Fraction

from cyclic_descents.cycles import CycleNotation, from_cycles, to_canonical_cycles
from cyclic_descents.domains import DomainSpec
from cyclic_descents.lab import exact_distribution, exact_moments, normality_diagnostics
from cyclic_descents.permutations import SignedPermutation, compose
from cyclic_descents.statistics import descent_set, stats
from cyclic_descents.transfer import capital_phi, phi_plus
from cyclic_descents.verify import (check_bijection, check_colored,
                                    check_corollary_counts,
                                    check_elizalde_equivalence,
                                    check_inverses,
                                    check_order_swap_properties,
                                    check_phi_descents, check_stat_gaps)

ACCEPT_SEED = 20260823


def _criterion(num, title, failures, info=""):
    mark = "FAIL" if failures else "PASS"
    line = f"[{mark}] criterion {num:2d}: {title}"
    if info:
        line += f" ({info})"
    print(line)
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_descents_preserved_exhaustively():
    t0 = time.time()
    failures = []
    total = 0
    workers = 1
    for n in range(1, 8):
        r = check_phi_descents(n)
        total += r.checked
        workers = max(workers, r.params["threads"])
        if not r.passed:
            failures.append(f"degree {n + 1}: {r.details}")
    elapsed = time.time() - t0
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s over the 60s budget")
    _criterion(1, "descents below the top index survive the transfer, "
                  "exhaustive through degree 8", failures,
               f"{total} elements, {elapsed:.1f}s on up to {workers} processes")


def test_criterion_02_both_parity_classes_biject():
    failures = []
    total = 0
    for n in range(1, 7):
        for parity in ("D", "Dbar"):
            r = check_bijection(n, parity)
            total += r.checked
            if not r.passed:
                failures.append(f"{parity} class, n={n}: {r.details}")
    _criterion(2, "each parity class of cyclic elements maps onto the "
                  "signed group without collisions, n <= 6", failures,
               f"{total} elements")


def test_criterion_03_inverse_laws():
    failures = []
    total = 0
    for n in range(1, 7):
        r = check_inverses(n)
        total += r.checked
        if not r.passed:
            failures.append(f"n={n}: first counterexamples {r.failures}")
    _criterion(3, "all six composition laws hold exhaustively, n <= 6",
               failures, f"{total} checks")


def test_criterion_04_refined_tables_coincide():
    failures = []
    total = 0
    for n in range(1, 7):
        r = check_corollary_counts(n)
        total += r.checked
        if not r.passed:
            failures.append(f"n={n}: {r.details}")
    _criterion(4, "descent-set tables of the signed group and both cyclic "
                  "parity classes coincide, n <= 6", failures,
               f"{total} table entries")


def test_criterion_05_worked_examples_bit_exact():
    failures = []
    sigma = SignedPermutation([-3, 1, 2, -5, -4, 6])
    pi = SignedPermutation([1, -3, -2, 5, 6, 4])
    prod = compose(pi, sigma)
    if prod != SignedPermutation([2, 1, -3, -6, -5, 4]):
        failures.append(f"composition gave {prod}")
    if pi.negative_count() % 2 or sigma.negative_count() % 2 == 0 \
            or prod.negative_count() % 2 == 0:
        failures.append("parity-class memberships of the composition example")
    if from_cycles(CycleNotation(6, [(-3, 2, 1), (-5, -4), (6,)])) != sigma:
        failures.append("cycle decomposition does not rebuild the permutation")
    canon = str(to_canonical_cycles(sigma))
    if canon != "(-4,-5)(2,1,-3)(6)":
        failures.append(f"canonical form gave {canon}")
    rec = stats(sigma)
    if (rec.des, rec.maj, rec.neg, rec.fmaj) != (2, 3, 3, 9):
        failures.append(f"statistics gave {rec}")
    small = capital_phi(SignedPermutation([2, 5, -6, -1, -3, 7, -4]))
    if small.images != (1, 2, -6, -3, -5, 4):
        failures.append(f"degree-7 transfer gave {small}")
    big = phi_plus(SignedPermutation([-4, -3, 7, 8, 10, 11, -5, -6, 13, 12, 2, 9, 1]))
    if big.images != (-5, -3, 2, 7, 8, 10, -4, -6, 12, 11, 1, 9):
        failures.append(f"degree-13 transfer gave {big}")
    elif sorted(descent_set(big).members) != [0, 6, 7, 9, 10]:
        failures.append(f"degree-13 descents gave {sorted(descent_set(big).members)}")
    neg = capital_phi(SignedPermutation([5, -6, 4, 8, 7, -9, 2, -1, 3]))
    if neg.images != (4, -1, 5, 8, 7, -6, 3, 2):
        failures.append(f"negative-class transfer gave {neg}")
    elif sorted(descent_set(neg).members) != [1, 4, 5, 7]:
        failures.append(f"negative-class descents gave {sorted(descent_set(neg).members)}")
    _criterion(5, "seven worked examples reproduce bit-exactly", failures)


def test_criterion_06_moment_identities_exact():
    t0 = time.time()
    failures = []
    for n in range(5, 8):
        # fmaj on the signed group has generating function prod_{i=1..n} [2i]_q,
        # a sum of independent uniforms on {0, ..., 2i-1}: mean
        # sum (2i-1)/2 = n^2/2 and variance sum ((2i)^2-1)/12 = (4n^3+6n^2-n)/36
        targets = {
            "des": (Fraction(n, 2), Fraction(n + 1, 12)),
            "fmaj": (Fraction(n * n, 2),
                     Fraction(4 * n**3 + 6 * n**2 - n, 36)),
        }
        for kind in ("CB", "CD", "CDbar"):
            for stat, (want_mean, want_var) in targets.items():
                m = exact_moments(exact_distribution(DomainSpec(kind, n), stat))
                if m.mean != want_mean:
                    failures.append(f"{stat} mean on {kind} n={n}: exact "
                                    f"{m.mean}, asserted {want_mean}")
                if m.variance != want_var:
                    failures.append(f"{stat} variance on {kind} n={n}: exact "
                                    f"{m.variance}, asserted {want_var}")
    elapsed = time.time() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.1f}s over the 5min budget")
    _criterion(6, "first two des/fmaj moments match the closed forms as "
                  "exact rationals, 5 <= n <= 7", failures,
               f"{elapsed:.1f}s")


def test_criterion_07_unsigned_rewriting_agrees():
    failures = []
    total = 0
    for n in range(1, 8):
        r = check_elizalde_equivalence(n)
        total += r.checked
        if not r.passed:
            failures.append(f"n={n}: {r.failures}")
    _criterion(7, "unsigned rewriting equals the signed transfer on every "
                  "cyclic plain permutation, n <= 7", failures,
               f"{total} inputs")


def test_criterion_08_colored_transfer():
    failures = []
    total = 0
    for n in range(1, 4):
        for r_ in range(1, 4):
            r = check_colored(n, r_)
            total += r.checked
            if not r.passed:
                failures.append(f"n={n} r={r_}: {r.failures}")
    _criterion(8, "colored transfer preserves inner descents, is bijective "
                  "per color, and the colored lift round-trips, "
                  "n <= 3, r <= 3", failures, f"{total} checks")


def test_criterion_09_statistic_gaps():
    r = check_stat_gaps(7)
    failures = [] if r.passed else [f"counterexamples {r.failures}"]
    _criterion(9, "per-element gaps: des drops by 0 or 1 and fmaj by at "
                  "most 2n+1, exhaustive degrees 1..7", failures,
               f"{r.checked} elements")


def test_criterion_10_normality_diagnostics():
    t0 = time.time()
    failures = []
    info = []
    for stat, ks_cap in (("des", 0.01), ("fmaj", 0.015)):
        ks = {}
        for n in (50, 200, 800):
            rep = normality_diagnostics("CB", stat, n, 100_000, seed=ACCEPT_SEED)
            ks[n] = rep.ks_distance
            if n == 800:
                if abs(rep.skewness) > 0.1:
                    failures.append(f"{stat} skewness {rep.skewness:+.4f} "
                                    f"exceeds 0.1 at n=800")
                if abs(rep.excess_kurtosis) > 0.2:
                    failures.append(f"{stat} excess kurtosis "
                                    f"{rep.excess_kurtosis:+.4f} exceeds 0.2 at n=800")
                # the statistics are integer-valued, so no sample gets below
                # the lattice floor; the cap bounds the excess over it
                excess = rep.ks_distance - rep.ks_floor
                if excess > ks_cap:
                    failures.append(f"{stat} KS distance {rep.ks_distance:.4f} "
                                    f"exceeds its floor {rep.ks_floor:.4f} by "
                                    f"{excess:.4f} > {ks_cap} at n=800")
                floor_info = (f"n=800 floor {rep.ks_floor:.4f} "
                              f"excess {excess:.4f}")
        if not ks[50] >= ks[200] >= ks[800]:
            failures.append(f"{stat} KS chain not non-increasing: "
                            f"{ks[50]:.4f}, {ks[200]:.4f}, {ks[800]:.4f}")
        info.append(f"{stat} KS {ks[50]:.4f}>{ks[200]:.4f}>{ks[800]:.4f} "
                    f"{floor_info}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s over the 2min budget")
    _criterion(10, "standardized des/fmaj look normal at scale under the "
                   "published seed", failures,
               f"{'; '.join(info)}; {elapsed:.1f}s")


def test_criterion_11_instrumented_property_suite():
    r = check_order_swap_properties(count=10_000, degree=10, seed=ACCEPT_SEED)
    failures = [] if r.passed else [f"violations {r.failures}"]
    _criterion(11, "order and swap invariants hold on 10000 seeded "
                   "instrumented runs and tracing never changes output",
               failures, f"{r.checked} runs, {r.elapsed:.1f}s")
