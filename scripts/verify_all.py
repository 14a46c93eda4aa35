"""Run every claim suite at full desk scale and print one line per claim,
then the most processes a descent sweep ran on, the pass count and the
total checks, seconds and checks per second.

The full run sweeps descent preservation and the Elizalde equivalence up
to degree 8, both bijection classes up to degree 8 and the inverse laws
and refined counts up to degree 7.  Exit code is the number of failing
claims.  --quick shrinks the sweeps for a fast smoke run.  --threads fixes
the processes of the descent sweeps; by default a large sweep runs on one
process per usable core.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclic_descents.verify import (check_bijection, check_colored,
                                    check_corollary_counts,
                                    check_elizalde_equivalence,
                                    check_inverses, check_moments,
                                    check_order_swap_properties,
                                    check_phi_descents, check_stat_gaps)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--seed", type=int, default=20260823)
    args = ap.parse_args()

    if args.quick:
        top, bij_top, inv_top, samples = 5, 4, 4, 1000
    else:
        top, bij_top, inv_top, samples = 7, 7, 6, 10000

    t0 = time.perf_counter()
    results = []
    for n in range(1, top + 1):
        results.append(check_phi_descents(n, threads=args.threads))
    for n in range(1, bij_top + 1):
        results.append(check_bijection(n, "D"))
        results.append(check_bijection(n, "Dbar"))
    for n in range(1, inv_top + 1):
        results.append(check_inverses(n))
        results.append(check_corollary_counts(n))
    for n in range(1, top + 1):
        results.append(check_elizalde_equivalence(n))
    for n in range(1, 4):
        for r in range(1, 4):
            results.append(check_colored(n, r))
    results.append(check_moments(5, 6 if args.quick else 7))
    results.append(check_stat_gaps(top))
    results.append(check_order_swap_properties(count=samples, degree=10,
                                               seed=args.seed))
    elapsed = time.perf_counter() - t0

    bad = 0
    for r in results:
        print(r.line())
        bad += 0 if r.passed else 1
    procs = max(r.params["threads"] for r in results if r.claim == "phi-descents")
    print(f"descent sweeps ran on at most {procs} process{'es' if procs > 1 else ''}")
    print(f"{len(results) - bad}/{len(results)} claims pass")
    checks = sum(r.checked for r in results)
    print(f"{checks} checks in {elapsed:.2f}s, {checks / elapsed:.0f} checks/s")
    return bad


if __name__ == "__main__":
    raise SystemExit(main())
