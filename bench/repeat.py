"""Repeat bench/run.py over seeds and report each metric's median, quartiles
and spread, the distance between the quartiles as a share of the median.

    python3 bench/repeat.py --runs 10 --first-seed 1
    python3 bench/repeat.py --runs 10 --trace --held-out 9001 --out bench/baseline.json

Runs go one at a time, interleaved across workloads, so drift in machine
speed spreads over all of them.  A spread at or above a metric's bound is
marked FAIL and one at or above a third of it WARN; setup_s has only the
median check and is not marked.  --trace adds one traced run per workload,
--held-out one more untraced run per workload on a seed kept out of every
other run, for later gain claims to be checked on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {p.returncode}: {p.stderr[-500:]}")
    result = json.loads(lines[-1])
    prov = next(json.loads(x[len("provenance "):]) for x in lines if x.startswith("provenance "))
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result, prov


def spread_table(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--held-out", type=int)
    ap.add_argument("--out", help="write the results as JSON here")
    args = ap.parse_args()
    names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    if args.held_out in seeds:
        ap.error("the held-out seed must not be one of the run seeds")

    values = {w: {} for w in names}
    failed = {w: 0 for w in names}
    provenance = []
    for seed in seeds:
        for w in names:
            res, prov = one_run(w, seed, False)
            provenance.append(prov)
            failed[w] += res["failed"]
            for k, m in res["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"run_seconds": SPEC["run_seconds"], "seeds": seeds,
           "held_out_seed": args.held_out, "workloads": {}}
    worst = "ok"
    for w in names:
        table = {k: spread_table(v) for k, v in values[w].items()}
        out["workloads"][w] = {"end_to_end": table, "failed_ops": failed[w]}
        print(f"\n{w}: {failed[w]} failed ops")
        for k, t in table.items():
            mark = ""
            if k != "setup_s":
                if t["spread"] >= bounds[k]:
                    mark, worst = "FAIL", "FAIL"
                elif t["spread"] >= bounds[k] / 3:
                    mark = "WARN"
                    worst = worst if worst == "FAIL" else "WARN"
            print(f"  {k:<18} median {t['median']:<12.6g} q1 {t['q1']:<12.6g} "
                  f"q3 {t['q3']:<12.6g} spread {t['spread']:.4f} "
                  f"(bound {bounds[k]}) {mark}")

    for w in names:
        if args.held_out is not None:
            res, _ = one_run(w, args.held_out, False)
            out["workloads"][w]["held_out"] = {k: m["value"] for k, m in res["metrics"].items()}
        if args.trace:
            res, _ = one_run(w, seeds[0], True)
            out["workloads"][w]["trace"] = {k: m["value"] for k, m in res["metrics"].items()}
            print(f"{w} tracing overhead: {res['metrics']['trace.overhead_pct']['value']:.3f} %")

    p0, p1 = provenance[0], provenance[-1]
    out["provenance"] = {k: p0[k] for k in ("nproc", "python", "numpy", "git_sha", "src_lines")}
    out["provenance"]["loadavg_1m_first_start"] = p0["loadavg_1m_start"]
    out["provenance"]["loadavg_1m_last_end"] = p1["loadavg_1m_end"]
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"\noverall: {worst}")
    return 1 if worst == "FAIL" or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
