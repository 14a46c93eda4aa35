"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it runs one op cleanly, which must pass its check, then
the same op with its output corrupted (a flipped sign in a round-trip
result, a wrong CLI stdout, a drifted report, an off-by-one claim count),
which must fail it, so that the workload's error rate rises above 0.
Exits 1 if any check lets a corrupted output through.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cyclic_descents.permutations import SignedPermutation  # noqa: E402
from spans import NULL  # noqa: E402
from workloads import WORKLOADS, error_rate, step  # noqa: E402


def _claim_count(op, res):
    return dataclasses.replace(res, checked=res.checked + 1)


def _table_count(op, table):
    counts = dict(table.counts)
    k = min(counts)
    counts[k] += 1
    counts[max(counts)] -= 1
    return dataclasses.replace(table, counts=counts)


def _round_trip_sign(op, out):
    images = list(out["back"].images)
    images[len(images) // 2] *= -1
    return {**out, "back": SignedPermutation(images)}


def _unranked_swap(op, out):
    images = list(out["unranked"].images)
    images[0], images[1] = images[1], images[0]
    return {**out, "unranked": SignedPermutation(images)}


def _report_drift(op, rep):
    return dataclasses.replace(rep, mean=rep.mean + 1e-9)


def _stdout(op, out):
    code, text = out
    return code, text.replace("=", "=1", 1)


def _exit_code(op, out):
    return 1, out[1]


CASES = [
    ("sweep", lambda wl: wl.ops[7], _claim_count, "colored claim count off by one"),
    ("sweep", lambda wl: wl.ops[9], _table_count, "B6 fmaj table moved by one element"),
    ("scale", lambda wl: 0, _round_trip_sign, "sign flipped in a psi round trip"),
    ("scale", lambda wl: 1, _unranked_swap, "two entries swapped in unrank(rank(x))"),
    ("clt", lambda wl: wl.pass_ops(0)[0], _report_drift, "repeated report drifted"),
    ("cli_cold", lambda wl: wl.pass_ops(0)[2], _stdout, "wrong stats stdout"),
    ("cli_cold", lambda wl: wl.pass_ops(0)[0], _exit_code, "nonzero exit code"),
]


def main():
    bad = 0
    for name, pick, corrupt, what in CASES:
        wl = WORKLOADS[name](seed=1)
        op = pick(wl)
        clean = step(wl, op, NULL)
        damaged = step(wl, op, NULL, corrupt=corrupt)
        rate = error_rate([clean, damaged])
        ok = clean.problem is None and damaged.problem is not None and rate > 0
        bad += not ok
        print(f"[{'ok' if ok else 'MISSED'}] {name}: {what}; error_rate {rate:g}"
              f"{'' if clean.problem is None else ' (clean op failed: ' + clean.problem + ')'}")
    print(f"{len(CASES) - bad}/{len(CASES)} corruptions caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
