"""Sampled normality diagnostics across a degree schedule, as plot-ready CSV.

Columns: domain, stat, n, samples, seed, mean, variance, skewness,
excess_kurtosis, ks_distance, ks_floor.  Raw mean/variance are the sample
moments of the unstandardized statistic; the shape columns describe the
standardized one.  ks_floor is the least KS distance any sample of the
integer-valued statistic can reach, so ks_distance - ks_floor is the part
that sampling error and a real departure from normality can move.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclic_descents.lab import normality_diagnostics


def schedule(text):
    """The degrees of a comma-separated --schedule, each an integer >= 4,
    the least degree the closed-form moments hold at."""
    ns = [int(x) for x in text.split(",")]
    if min(ns) < 4:
        raise argparse.ArgumentTypeError(f"degrees must be at least 4: {text!r}")
    return ns


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domain", default="CB", choices=("CB", "CD", "CDbar"))
    ap.add_argument("--stat", default="des", choices=("des", "fmaj"))
    ap.add_argument("--samples", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=20260823)
    ap.add_argument("--schedule", type=schedule, default="25,50,100,200,400,800",
                    help="comma-separated degrees, each at least 4")
    ap.add_argument("--out", default="-", help="output path, - for stdout")
    args = ap.parse_args()
    if args.samples < 1000:
        ap.error(f"--samples must be at least 1000, not {args.samples}")
    if not 0 <= args.seed < 1 << 64:
        ap.error(f"--seed must lie in 0..2^64-1, not {args.seed}")

    try:
        sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as e:
        ap.error(f"--out {args.out}: {e.strerror}")
    w = csv.writer(sink, lineterminator="\n")
    w.writerow(["domain", "stat", "n", "samples", "seed", "mean", "variance",
                "skewness", "excess_kurtosis", "ks_distance", "ks_floor"])
    for n in args.schedule:
        rep = normality_diagnostics(args.domain, args.stat, n, args.samples,
                                    seed=args.seed)
        w.writerow([args.domain, args.stat, n, args.samples, args.seed,
                    rep.mean, rep.variance, rep.skewness,
                    rep.excess_kurtosis, rep.ks_distance, rep.ks_floor])
        sink.flush()
    if sink is not sys.stdout:
        sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
