"""Benchmark of the cyclic-descents library.

    python3 bench/run.py --workload {sweep,scale,clt,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it runs the workload as a
closed loop with one caller for S seconds, checks every output, and prints
the end-to-end metrics; with --trace 1 it makes the traced run of
bench/layers.py and prints the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
lines before it give each metric with its unit, the error rate, and the
run's provenance.  Timed-run times are paced against a reference routine
(pace.py), with the measured value printed beside each.  bench/README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from pace import IMPORT_NOMINAL_S, Pace, child_import_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PACE_PROBES_BEFORE = 5
# Whole-pass workloads run at least this many passes, so that per-kind
# medians and peak memory never depend on whether a second pass fit.
MIN_PASSES = 2


def measure(wl, seconds):
    """Warm-up ops, then the timed closed loop.  Returns the warm-up
    records, the timed records, the number of passes begun, and the pace
    factor that turns measured times into paced ones."""
    from spans import NULL
    from workloads import step
    warm = [step(wl, op, NULL) for op in wl.warmup()]
    pace = Pace(wl.pace)
    for _ in range(PACE_PROBES_BEFORE):
        pace.probe()
    timed = []
    deadline = perf_counter() + seconds
    k = 0
    while True:
        for op in wl.pass_ops(k):
            timed.append(step(wl, op, NULL))
            pace.after(timed[-1].seconds)
            if not wl.whole_passes and perf_counter() >= deadline:
                break
        k += 1
        if perf_counter() >= deadline and (k >= MIN_PASSES or not wl.whole_passes):
            return warm, timed, k, pace.factor()


def tail(latencies):
    """(percentile, value): the highest whole percentile, at least the
    median, that leaves ten samples beyond it (nearest rank); the maximum
    when there are too few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    p = 100 * (n - 10) // n if n > 10 else 0
    if p < 50:
        return 100, xs[-1]
    return p, xs[math.ceil(p * n / 100) - 1]


def by_kind(timed):
    groups = {}
    for r in timed:
        groups.setdefault(r.key, []).append(r)
    return groups.values()


def summarize(wl, timed, factor):
    """End-to-end metrics other than setup_s, with every time multiplied
    by `factor`.

    Whole-pass workloads take the median of each kind of op and sum those
    over one pass, so a run's figures do not depend on how many passes fit.
    Where a pass is what the user waits for, its latency is that sum, and
    its tail the sum of each kind's slowest time."""
    timed = [dataclasses.replace(r, seconds=r.seconds * factor) for r in timed]
    kinds = by_kind(timed)
    if wl.whole_passes:
        busy = sum(statistics.median(r.seconds for r in rs) for rs in kinds)
        checks = sum(statistics.median(r.checks for r in rs) for rs in kinds)
        samples = sum(statistics.median(r.samples for r in rs) for rs in kinds)
    else:
        busy = sum(r.seconds for r in timed)
        checks = sum(r.checks for r in timed)
        samples = sum(r.samples for r in timed)
    if wl.pass_latency:
        p50, p50_note = busy, f"one pass of {len(kinds)} calls, per-kind medians"
        slow = sum(max(r.seconds for r in rs) for rs in kinds)
        tail_note = "one pass, per-kind maxima"
    else:
        lats = [r.seconds for r in timed]
        p50, p50_note = statistics.median(lats), f"p50 of {len(lats)} ops"
        w = wl.tail_window
        windows = [lats[i:i + w] for i in range(0, len(lats) - w + 1, w)] if w else []
        if windows:
            tails = [tail(x) for x in windows]
            slow = statistics.median(t for _, t in tails)
            tail_note = f"p{tails[0][0]} of each {w} ops, median of {len(windows)}"
        else:
            p, slow = tail(lats)
            tail_note = f"p{p} of {len(lats)} ops"
    return {
        "checks_per_s": (checks / busy, "1/s", ""),
        "samples_per_s": (samples / busy, "1/s", ""),
        "latency_p50_ms": (1e3 * p50, "ms", p50_note),
        "latency_tail_ms": (1e3 * slow, "ms", tail_note),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB", ""),
    }


def setup_seconds(wl):
    """(paced, measured) median over SETUP_REPEATS fresh interpreters of
    the time, measured inside each, to import the library layers the
    workload needs and make one small first call of each.  An import
    probe runs before each of them to pace it."""
    from workloads import call_child
    harness = ("import time\n_t = time.perf_counter()\n" + wl.setup_code +
               "print(time.perf_counter() - _t)\n")
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(child_import_s(call_child))
        code, out, _ = call_child([sys.executable, "-c", harness])
        if code != 0:
            raise RuntimeError(f"set-up child failed: {out.strip()[-300:]}")
        times.append(float(out.split()[-1]))
    measured = statistics.median(times)
    return measured * IMPORT_NOMINAL_S / statistics.median(probes), measured


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, load_start):
    import numpy
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(), "src_lines": src_lines,
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
    }


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "scale", "clt", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cyclic_descents" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()[0]
    from workloads import WORKLOADS, error_rate

    if args.trace:
        import layers
        metrics, records = layers.trace_run(args.workload, args.seed)
    else:
        wl = WORKLOADS[args.workload](args.seed)
        setup, setup_measured = setup_seconds(wl)
        warm, timed, passes, factor = measure(wl, args.seconds)
        records = warm + timed
        metrics = {"setup_s": (setup, "s", f"paced; measured {setup_measured:.6g} s, "
                                           f"median of {SETUP_REPEATS} fresh interpreters")}
        metrics.update(summarize(wl, timed, factor))
        measured = summarize(wl, timed, 1.0)
        for k, (v, u, note) in metrics.items():
            if k in measured and k != "peak_rss_mb":
                metrics[k] = (v, u, f"paced; measured {measured[k][0]:.6g} {u} {note}".strip())
        print(f"{args.workload}: {len(timed)} timed ops in {passes} passes, "
              f"{len(warm)} warm-up ops, pace factor {factor:.4f}")

    attempted = len(records)
    problems = [r.problem for r in records if r.problem]
    for p in problems[:10]:
        print(f"FAILED: {p}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit:<6} {note}")
    print(f"{'error_rate':<48} {error_rate(records):>14.6g} "
          f"{'':<6} {len(problems)} failed of {attempted} attempted")
    if not args.trace:
        for line in wl.report():
            print(line)
    print("provenance " + json.dumps(provenance(args, load_start)))

    want = declared_metrics(args.trace)
    if want is not None and sorted(want) != sorted(metrics):
        print(f"error: metrics {sorted(set(want) ^ set(metrics))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
