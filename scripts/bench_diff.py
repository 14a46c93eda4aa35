"""Compare two bench/repeat.py outputs, parent against change.

    python3 scripts/bench_diff.py BENCH_parent.json BENCH_change.json

One line per workload and end-to-end metric that both files hold: the two
medians and their ratio (change / parent), the parent's quartiles, on how
many of the seeds both files ran the change is better, and where the
change's median lies against the parent's quartiles (below, inside or
above).  Whether higher or lower is better comes from BENCHMARK.json; a
tie counts for neither side.
"""

import argparse
import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def compare(parent, change):
    """Rows (workload, metric, parent median, change median, parent q1,
    parent q3, seeds the change wins, shared seeds, where)."""
    rows = []
    for w, pw in parent["workloads"].items():
        cw = change["workloads"].get(w)
        if cw is None:
            continue
        for metric, better in BETTER.items():
            p, c = pw["end_to_end"].get(metric), cw["end_to_end"].get(metric)
            if p is None or c is None:
                continue
            pv = dict(zip(parent["seeds"], p["values"]))
            cv = dict(zip(change["seeds"], c["values"]))
            shared = [s for s in pv if s in cv]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (cv[s] - pv[s]) > 0 for s in shared)
            med = c["median"]
            where = "below" if med < p["q1"] else "above" if med > p["q3"] else "inside"
            rows.append((w, metric, p["median"], med, p["q1"], p["q3"], wins,
                         len(shared), where))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="bench/repeat.py output of the parent")
    ap.add_argument("change", help="bench/repeat.py output of the change")
    args = ap.parse_args()
    parent, change = (json.loads(Path(f).read_text()) for f in (args.parent, args.change))
    print(f"{'workload':<9} {'metric':<16} {'parent':>11} {'change':>11} {'ratio':>7} "
          f"{'parent q1..q3':>25} {'better':>7}  change median")
    for w, metric, p, c, q1, q3, wins, shared, where in compare(parent, change):
        print(f"{w:<9} {metric:<16} {p:>11.5g} {c:>11.5g} {c / p:>7.4f} "
              f"{f'{q1:.5g}..{q3:.5g}':>25} {f'{wins}/{shared}':>7}  {where}")


if __name__ == "__main__":
    main()
