"""The scripts under scripts/ run from any working directory, and every
library name the benchmark imports exists."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_bench_diff_reads_the_committed_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 16)
    assert len(rows) == 6
    # the product-tree ranking made scale faster on every seed, by more than
    # the parent's quartile spread: higher is better for one, lower for the other
    assert rows["scale", "checks_per_s"][-2:] == ["10/10", "above"]
    assert rows["scale", "latency_p50_ms"][-2:] == ["10/10", "below"]
    assert rows["scale", "peak_rss_mb"][-2:] == ["0/10", "above"]


def test_bench_diff_reads_the_pr18_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 18)
    assert len(rows) == 6
    # the batch sampler's draws on a worker thread made clt faster on every
    # seed, by more than the parent's quartile spread
    assert rows["clt", "samples_per_s"][-2:] == ["10/10", "above"]
    assert rows["clt", "latency_p50_ms"][-2:] == ["10/10", "below"]
    assert float(rows["clt", "peak_rss_mb"][4]) <= 1.1


def test_bench_diff_reads_the_pr19_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 19)
    assert len(rows) == 24
    # the range driver made sweep faster on 8 of 10 seeds, its median above
    # the parent's quartiles; the two other pairs ran in a slow spell of the
    # host, in which clt on both trees also slowed by about a quarter
    assert rows["sweep", "checks_per_s"][-2:] == ["8/10", "above"]
    assert rows["sweep", "latency_p50_ms"][-2:] == ["8/10", "below"]
    for workload in ("sweep", "scale", "clt", "cli_cold"):
        assert float(rows[workload, "peak_rss_mb"][4]) <= 1.1


def test_bench_diff_reads_the_pr20_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 20)
    assert len(rows) == 24
    # every claim on the fork driver made sweep faster on every seed, its
    # median above the parent's quartiles
    assert rows["sweep", "checks_per_s"][-2:] == ["10/10", "above"]
    assert rows["sweep", "latency_p50_ms"][-2:] == ["10/10", "below"]
    for workload in ("sweep", "scale", "clt", "cli_cold"):
        assert float(rows[workload, "peak_rss_mb"][4]) <= 1.1


def test_bench_diff_reads_the_pr21_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 21)
    assert len(rows) == 24
    # the row walker claims no gain: sweep reads flat, its medians inside
    # the parent's quartiles
    for metric in ("checks_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"):
        assert rows["sweep", metric][-1] == "inside"
    for workload in ("sweep", "scale", "clt", "cli_cold"):
        assert float(rows[workload, "peak_rss_mb"][4]) <= 1.1


def test_bench_diff_reads_the_pr22_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 22)
    assert len(rows) == 24
    # the bijection claims' sorted keys lower sweep's peak memory on every
    # seed, its median below the parent's quartiles
    assert rows["sweep", "peak_rss_mb"][-2:] == ["10/10", "below"]
    assert float(rows["sweep", "peak_rss_mb"][4]) < 0.9
    for workload in ("sweep", "scale", "clt", "cli_cold"):
        assert float(rows[workload, "peak_rss_mb"][4]) <= 1.1


def test_bench_diff_reads_the_pr23_pair(tmp_path):
    rows = bench_diff_rows(tmp_path, 23)
    assert len(rows) == 24
    # the value types on Record claim no gain: every median stays within its
    # BENCHMARK.json bound of the parent's
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for (workload, metric), row in rows.items():
        better, bound = bounds[metric]
        ratio = float(row[4])
        assert ratio >= 1 - bound if better == "higher" else ratio <= 1 + bound
