"""The scripts under scripts/ run from any working directory, and every
library name the benchmark imports exists."""

import ast
import importlib
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_verify_all_quick_from_elsewhere(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(SCRIPTS / "verify_all.py"), "--quick"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[-2] == "38/38 claims pass"
    assert re.fullmatch(r"\d+ checks in \d+\.\d\ds, \d+ checks/s", lines[-1])


@pytest.mark.parametrize("script, args", [
    ("verify_all.py", ["--quick", "--threads", "0"]),
    ("verify_all.py", ["--threads", "-2"]),
    ("clt_report.py", ["--schedule", "25,3"]),
    ("clt_report.py", ["--schedule", "25,,50"]),
    ("clt_report.py", ["--schedule", "25,x"]),
    ("clt_report.py", ["--samples", "999"]),
    ("verify_all.py", ["--quick", "--seed", "-1"]),
    ("verify_all.py", ["--quick", "--seed", str(2 ** 64)]),
    ("clt_report.py", ["--seed", "-1"]),
    ("clt_report.py", ["--seed", str(2 ** 64)]),
], ids=["threads-0", "threads-negative", "schedule-below-4", "schedule-empty-entry",
        "schedule-not-integer", "samples-below-1000", "verify-seed-negative",
        "verify-seed-past-2^64", "clt-seed-negative", "clt-seed-past-2^64"])
def test_bad_arguments_are_usage_errors(tmp_path, script, args):
    # refused before any claim runs or any CSV row is written
    res = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert "usage:" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_bench_imports_resolve():
    names = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "cyclic_descents"):
                names += [(path.name, node.module, a.name) for a in node.names]
    assert names
    missing = []
    for fname, module, name in names:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{fname}: from {module} import {name}")
    assert not missing, missing


def test_bench_selftest_catches_every_corruption(tmp_path):
    # three of its corruptions go through dataclasses.replace, so ClaimResult,
    # DistributionTable and NormalityReport must stay dataclasses
    res = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "7/7 corruptions caught"


def bench_diff_rows(tmp_path, pr):
    """scripts/bench_diff.py's table of the committed BENCH_pr<pr> pair, one
    row of fields per (workload, metric)."""
    res = subprocess.run([sys.executable, str(SCRIPTS / "bench_diff.py"),
                          str(ROOT / f"BENCH_pr{pr}_parent.json"),
                          str(ROOT / f"BENCH_pr{pr}.json")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return {tuple(line.split()[:2]): line.split() for line in res.stdout.splitlines()[1:]}


WORKLOADS = ("sweep", "scale", "clt", "cli_cold")
# a field check is (workload, metric, column, comparison, value); column 3
# is the change's median and column 4 its ratio to the parent's
RSS_HELD = [(w, "peak_rss_mb", 4, operator.le, 1.1) for w in WORKLOADS]

# one row per committed BENCH_pr<pr> pair: its number of rows, the last
# fields ("better" and "change median") of the rows it fixes, its field
# checks, and whether no workload's median may be worse than its
# BENCHMARK.json bound allows
BENCH_PAIRS = [
    # the product-tree ranking made scale faster on every seed, by more than
    # the parent's quartile spread: higher is better for one, lower for the other
    pytest.param(16, 6, {("scale", "checks_per_s"): ("10/10", "above"),
                         ("scale", "latency_p50_ms"): ("10/10", "below"),
                         ("scale", "peak_rss_mb"): ("0/10", "above")}, [], False, id="pr16"),
    # the batch sampler's draws on a worker thread made clt faster on every
    # seed, by more than the parent's quartile spread
    pytest.param(18, 6, {("clt", "samples_per_s"): ("10/10", "above"),
                         ("clt", "latency_p50_ms"): ("10/10", "below")},
                 [("clt", "peak_rss_mb", 4, operator.le, 1.1)], False, id="pr18"),
    # the range driver made sweep faster on 8 of 10 seeds, its median above
    # the parent's quartiles; the two other pairs ran in a slow spell of the
    # host, in which clt on both trees also slowed by about a quarter
    pytest.param(19, 24, {("sweep", "checks_per_s"): ("8/10", "above"),
                          ("sweep", "latency_p50_ms"): ("8/10", "below")},
                 RSS_HELD, False, id="pr19"),
    # every claim on the fork driver made sweep faster on every seed, its
    # median above the parent's quartiles
    pytest.param(20, 24, {("sweep", "checks_per_s"): ("10/10", "above"),
                          ("sweep", "latency_p50_ms"): ("10/10", "below")},
                 RSS_HELD, False, id="pr20"),
    # the row walker claims no gain: sweep reads flat, its medians inside
    # the parent's quartiles
    pytest.param(21, 24, {("sweep", m): ("inside",) for m in (
        "checks_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")},
                 RSS_HELD, False, id="pr21"),
    # the bijection claims' sorted keys lower sweep's peak memory on every
    # seed, its median below the parent's quartiles
    pytest.param(22, 24, {("sweep", "peak_rss_mb"): ("10/10", "below")},
                 [("sweep", "peak_rss_mb", 4, operator.lt, 0.9)] + RSS_HELD, False,
                 id="pr22"),
    # the value types on Record claim no gain
    pytest.param(23, 24, {}, [], True, id="pr23"),
    # the caller draws each slice's signs, so no chunk of signs is held:
    # clt's peak memory fell on every seed, its median below the parent's
    # quartiles and at most 61 MB
    pytest.param(24, 24, {("clt", "peak_rss_mb"): ("10/10", "below")},
                 [("clt", "peak_rss_mb", 3, operator.le, 61)], True, id="pr24"),
    # the one +- pair walk claims no gain: sweep, which runs it in three
    # claims, reads flat, its medians inside the parent's quartiles, and clt
    # keeps its peak memory
    pytest.param(25, 24, {("sweep", "checks_per_s"): ("inside",),
                          ("sweep", "latency_p50_ms"): ("inside",)},
                 [("clt", "peak_rss_mb", 3, operator.le, 61)], True, id="pr25"),
    # the claim runner claims no gain: sweep, which runs every swept claim
    # and the pair walk, and cli_cold, whose verify call runs the runner,
    # read flat, their medians inside the parent's quartiles
    pytest.param(27, 24, {("sweep", "checks_per_s"): ("inside",),
                          ("sweep", "latency_p50_ms"): ("inside",),
                          ("cli_cold", "latency_p50_ms"): ("inside",)},
                 [("clt", "peak_rss_mb", 3, operator.le, 61)], True, id="pr27"),
    # `cycdes sample` drawing its words in integers, without numpy, made
    # cli_cold faster on every seed, its median above the parent's
    # quartiles and at least 10 % up; scale and clt, which keep numpy, and
    # sweep read flat
    pytest.param(28, 24, {("cli_cold", "checks_per_s"): ("10/10", "above"),
                          ("cli_cold", "latency_tail_ms"): ("10/10", "below"),
                          ("scale", "checks_per_s"): ("inside",),
                          ("clt", "samples_per_s"): ("inside",),
                          ("sweep", "checks_per_s"): ("inside",)},
                 [("cli_cold", "checks_per_s", 4, operator.ge, 1.1),
                  ("clt", "peak_rss_mb", 3, operator.le, 61)], True, id="pr28"),
    # library `sample` drawing integer seeds' words in integers made scale's
    # set-up, which no longer loads numpy, faster on every seed, its median
    # below the parent's quartiles and under half of the parent's; scale's
    # ops, sweep (whose order-swap claim draws the same way), clt and
    # cli_cold read flat
    pytest.param(29, 24, {("scale", "setup_s"): ("10/10", "below"),
                          ("scale", "checks_per_s"): ("inside",),
                          ("scale", "latency_tail_ms"): ("inside",),
                          ("sweep", "checks_per_s"): ("inside",),
                          ("clt", "samples_per_s"): ("inside",),
                          ("cli_cold", "checks_per_s"): ("inside",)},
                 [("scale", "setup_s", 4, operator.le, 0.5),
                  ("clt", "peak_rss_mb", 3, operator.le, 61)], True, id="pr29"),
    # the batch sampler handing each chunk over block by block lowered
    # clt's peak memory on every seed, its median below the parent's
    # quartiles and at least 7 % down; sweep, scale, clt's rates and
    # cli_cold stay within their bounds
    pytest.param(32, 24, {("clt", "peak_rss_mb"): ("10/10", "below"),
                          ("clt", "samples_per_s"): ("inside",),
                          ("sweep", "checks_per_s"): ("inside",)},
                 [("clt", "peak_rss_mb", 4, operator.le, 0.93),
                  ("clt", "peak_rss_mb", 3, operator.le, 55.9)], True, id="pr32"),
    # the claim catalog and the per-block bound of the batch sampler claim
    # no gain: sweep, cli_cold and clt, whose code moved, read inside the
    # parent's quartiles, clt keeps PR 32's peak memory, and no median is
    # worse than its BENCHMARK.json bound
    pytest.param(33, 18, {("sweep", "checks_per_s"): ("inside",),
                          ("cli_cold", "checks_per_s"): ("inside",),
                          ("clt", "samples_per_s"): ("inside",),
                          ("clt", "peak_rss_mb"): ("inside",)},
                 [("clt", "peak_rss_mb", 3, operator.le, 55.9)], True, id="pr33"),
    # blocks sized by entries lowered clt's peak memory on every seed, its
    # median below the parent's quartiles and at least 7 % down; no median
    # is worse than its BENCHMARK.json bound, and sweep reads flat
    pytest.param(35, 24, {("clt", "peak_rss_mb"): ("10/10", "below"),
                          ("sweep", "checks_per_s"): ("inside",)},
                 [("clt", "peak_rss_mb", 4, operator.le, 0.93),
                  ("clt", "peak_rss_mb", 3, operator.le, 50)], True, id="pr35"),
]


@pytest.mark.parametrize("pr, count, tails, fields, within_bounds", BENCH_PAIRS)
def test_bench_diff_reads_the_pair(tmp_path, pr, count, tails, fields, within_bounds):
    rows = bench_diff_rows(tmp_path, pr)
    assert len(rows) == count
    for key, tail in tails.items():
        assert tuple(rows[key][-len(tail):]) == tail, key
    for workload, metric, column, compare, value in fields:
        assert compare(float(rows[workload, metric][column]), value), (workload, metric)
    if within_bounds:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
        for (workload, metric), row in rows.items():
            better, bound = bounds[metric]
            ratio = float(row[4])
            assert ratio >= 1 - bound if better == "higher" else ratio <= 1 + bound
