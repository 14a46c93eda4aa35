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
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclic_descents.verify import (check_bijection, check_colored,
                                    check_corollary_counts,
                                    check_elizalde_equivalence,
                                    check_inverses, check_moments,
                                    check_order_swap_properties,
                                    check_phi_descents, check_stat_gaps)


def suite(quick, seed, threads=None):
    """The claim runs, in order, each a call not yet made; the quick suite
    is also scripts/output_digests.py's.  threads reaches the descent
    sweeps only when it is set, so that a call's args and keywords, which
    that script digests when a fault makes the call raise, stay as written
    here."""
    top, bij_top, inv_top, samples = (5, 4, 4, 1000) if quick else (7, 7, 6, 10000)
    procs = {} if threads is None else {"threads": threads}
    calls = [partial(check_phi_descents, n, **procs) for n in range(1, top + 1)]
    for n in range(1, bij_top + 1):
        calls += [partial(check_bijection, n, "D"), partial(check_bijection, n, "Dbar")]
    for n in range(1, inv_top + 1):
        calls += [partial(check_inverses, n), partial(check_corollary_counts, n)]
    calls += [partial(check_elizalde_equivalence, n) for n in range(1, top + 1)]
    calls += [partial(check_colored, n, r) for n in range(1, 4) for r in range(1, 4)]
    return calls + [partial(check_moments, 5, 6 if quick else 7), partial(check_stat_gaps, top),
                    partial(check_order_swap_properties, count=samples, degree=10,
                            seed=seed)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--seed", type=int, default=20260823)
    args = ap.parse_args()
    if args.threads is not None and args.threads < 1:
        ap.error(f"--threads must be at least 1, not {args.threads}")
    if not 0 <= args.seed < 1 << 64:
        ap.error(f"--seed must lie in 0..2^64-1, not {args.seed}")

    t0 = time.perf_counter()
    results = [call() for call in suite(args.quick, args.seed, args.threads)]
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
