"""The traced run: per-layer metrics and the tracing overhead.

Spans are recorded only here and in workloads.py, around each call into a
layer; the library itself is not instrumented.  One traced run does three
things, whichever workload it is given:

1. runs each op of one pass of that workload untraced and then traced;
   the difference of their library time is the tracing overhead;
2. runs one traced pass of every other workload, so every run reports the
   same per-layer metrics;
3. drives the layers that are reached only from inside another layer (the
   transfer inside a claim checker, the sampler inside the normality
   report, the import inside a CLI call) through their own public
   functions, over the inputs those callers use.

Every output of a pass is checked as in the timed run.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
from itertools import permutations, product
from math import sqrt

import numpy as np

import oracle as O
from cyclic_descents import cli
from cyclic_descents.classic import phi_classic
from cyclic_descents.colored import ColoredPermutation, colored_phi
from cyclic_descents.domains import DomainSpec, iterate_words, sample_stat_batch
from cyclic_descents.lab import ks_against_normal, normality_diagnostics
from cyclic_descents.permutations import SignedPermutation
from cyclic_descents.statistics import stats
from cyclic_descents.transfer import (TransferTrace, capital_phi, capital_psi_D,
                                      capital_psi_Dbar, phi_plus)
from pace import child_import_s
from spans import NULL, Tracer
from workloads import WORKLOADS, Sweep, call_child, step

CHILD_REPEATS = 3
CLT_SELF_REPEATS = 3


def _traced_pass(wl, tr, records):
    for op in wl.pass_ops(0):
        records.append(step(wl, op, tr))


def _overhead_pass(wl, tr, records):
    """Runs each op of pass 0 untraced and then traced, so drift in machine
    speed hits both sides alike; returns their library times."""
    untraced = traced = 0.0
    for op in wl.pass_ops(0):
        r0 = step(wl, op, NULL)
        r1 = step(wl, op, tr)
        untraced += r0.seconds
        traced += r1.seconds
        records += (r0, r1)
    return untraced, traced


def _drive_sweep_layers(tr, seed):
    """Per-element cost of the layers the claim checkers call, over the
    inputs of the sweep basket's largest cases."""
    d = DomainSpec("CB", 7)  # the words check_phi_descents(6) and stat-gaps sweep
    with tr.span("domains.iterate_words") as sp:
        sp.count = sum(1 for _ in iterate_words(d))
    images = [O.word_to_images(w) for w in iterate_words(d)]
    with tr.span("permutations.SignedPermutation") as sp:
        perms = [SignedPermutation(im) for im in images]
        sp.count = len(perms)
    with tr.span("transfer.capital_phi") as sp:
        for p in perms:
            capital_phi(p)
        sp.count = len(perms)
    with tr.span("statistics.stats") as sp:
        for p in perms:
            stats(p)
        sp.count = len(perms)
    del perms, images
    b5 = [SignedPermutation([-v if s >> i & 1 else v for i, v in enumerate(b)])
          for b in permutations(range(1, 6)) for s in range(1 << 5)]
    with tr.span("transfer.capital_psi") as sp:  # the left laws of check_inverses(5)
        for s in b5:
            capital_psi_D(s)
            capital_psi_Dbar(s)
        sp.count = 2 * len(b5)
    rnd = random.Random(seed)
    words = []
    for _ in range(Sweep.ORDER_SWAP_WORDS // 4):
        w = O.random_cyclic_word(rnd, 10)
        w[-1] = 10  # positive class, as check_order_swap_properties draws
        words.append(SignedPermutation(O.word_to_images(w)))
    with tr.span("transfer.phi_plus_traced") as sp:
        for p in words:
            phi_plus(p, trace=TransferTrace())
        sp.count = len(words)
    cs8 = [SignedPermutation(O.word_to_images(list(b) + [8]))
           for b in permutations(range(1, 8))]  # check_elizalde_equivalence(7)
    with tr.span("classic.phi_classic") as sp:
        for p in cs8:
            phi_classic(p, check=True)
        sp.count = len(cs8)
    colored = [ColoredPermutation(4, 3, tuple(O.word_to_images(list(b) + [4])), tau)
               for b in permutations(range(1, 4))
               for tau in product(range(3), repeat=4)]  # check_colored(3, 3)
    with tr.span("colored.colored_phi") as sp:
        for p in colored:
            colored_phi(p)
        sp.count = len(colored)


def _drive_scale_layers(tr, seed):
    rnd = random.Random(seed)
    imgs = [O.word_to_images(O.random_cyclic_word(rnd, 1001)) for _ in range(50)]
    with tr.span("permutations.SignedPermutation.n1001") as sp:
        for im in imgs:
            SignedPermutation(im)
        sp.count = len(imgs)


def _drive_clt_layers(tr, clt):
    """The batch sampler and the KS loop of every normality_diagnostics
    call, on the same seeds.  The report's own work is small beside the
    sampler's, so it is taken where the sampler is cheapest: n = 50 calls,
    each right before its sampler and KS drive, CLT_SELF_REPEATS times."""
    for stat, n in clt.SCHEDULE:
        for _ in range(CLT_SELF_REPEATS if n == 50 else 1):
            if n == 50:
                with tr.span("lab.normality_diagnostics.n50"):
                    normality_diagnostics("CB", stat, n, clt.SAMPLES, clt.seeds[stat, n])
            with tr.span(f"domains.sample_stat_batch.{stat}.n{n}"):
                vals = sample_stat_batch(DomainSpec("CB", n), stat, clt.SAMPLES,
                                         clt.seeds[stat, n])
            if stat == "des":
                mu, var = n / 2, (n + 1) / 12
            else:
                mu, var = (float(x) for x in O.fmaj_moments(n))
            z = (vals.astype(np.float64) - mu) / sqrt(var)
            with tr.span(f"lab.ks_against_normal.{stat}.n{n}"):
                ks_against_normal(z)


def _drive_cli_layers(tr, cli_wl):
    out = {}
    for _ in range(CHILD_REPEATS):
        with tr.span("cli.interpreter"):
            rc, text, _ = call_child([sys.executable, "-c", "pass"])
        if rc != 0:
            raise RuntimeError(f"bare interpreter failed: {text.strip()[-300:]}")
    for name, module in (("cli.import_numpy_ms", "numpy"),
                         ("cli.import_ms", "cyclic_descents.cli")):
        vals = []
        for _ in range(CHILD_REPEATS):
            with tr.span("cli.child_import." + module):
                vals.append(1e3 * child_import_s(call_child, module))
        out[name] = statistics.median(vals)
    for sub, argv, _ in cli_wl.pass_ops(0):
        for _ in range(CHILD_REPEATS):
            with tr.span("cli.main." + sub):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(list(argv))
            if rc != 0:
                raise RuntimeError(f"in-process cli {sub} returned {rc}")
    return out


def trace_run(name, seed):
    """Returns ({metric: (value, unit, note)}, records)."""
    wls = {k: cls(seed) for k, cls in WORKLOADS.items()}
    records = []
    tr = Tracer()

    own = wls[name]
    records += [step(own, op, NULL) for op in own.warmup()]
    untraced, traced = _overhead_pass(own, tr, records)
    spans_in_pass = len(tr.spans)
    for k, wl in wls.items():
        if k != name:
            records += [step(wl, op, NULL) for op in wl.warmup()]
            _traced_pass(wl, tr, records)

    _drive_sweep_layers(tr, seed)
    _drive_scale_layers(tr, seed)
    _drive_clt_layers(tr, wls["clt"])
    cli_children = _drive_cli_layers(tr, wls["cli_cold"])

    m = {}
    # sweep
    for layer in ("domains.iterate_words", "permutations.SignedPermutation",
                  "transfer.capital_phi", "transfer.capital_psi",
                  "transfer.phi_plus_traced", "statistics.stats",
                  "classic.phi_classic", "colored.colored_phi"):
        unit_name = layer + (".us_per_word" if layer == "domains.iterate_words" else ".us")
        m[unit_name] = (tr.per_item(layer, 1e6), "us", "self time per element")
    sweep = wls["sweep"]
    for op in sweep.pass_ops(0):
        key = sweep.key(op)
        m[key + ".s"] = (tr.named(key)[0].self_time, "s", "one call")
        if op[0] == "claim":
            checked = [r.checks for r in records if r.key == key and r.checks]
            m[key + ".checks"] = (checked[0] if checked else 0, "count",
                                  "ClaimResult.checked")
    # scale
    for layer, metric in (("domains.sample", "domains.sample.ms"),
                          ("domains.rank", "domains.rank.ms"),
                          ("domains.unrank", "domains.unrank.ms"),
                          ("transfer.capital_phi.n1001", "transfer.capital_phi.n1001.ms"),
                          ("transfer.capital_psi.n1000", "transfer.capital_psi.n1000.ms"),
                          ("statistics.stats.n1000", "statistics.stats.n1000.ms"),
                          ("permutations.SignedPermutation.n1001",
                           "permutations.SignedPermutation.n1001.ms")):
        m[metric] = (tr.per_item(layer, 1e3), "ms", "mean self time per element")
    # clt
    clt = wls["clt"]
    ks, own_time = [], []
    for stat, n in clt.SCHEDULE:
        batch = tr.named(f"domains.sample_stat_batch.{stat}.n{n}")
        m[f"domains.sample_stat_batch.{stat}.n{n}.s"] = (batch[0].self_time, "s",
                                                          "per 100k samples")
        ks_spans = tr.named(f"lab.ks_against_normal.{stat}.n{n}")
        ks.append(ks_spans[0].self_time)
        if n == 50:
            calls = tr.named("lab.normality_diagnostics.n50")
            calls = calls[:CLT_SELF_REPEATS] if stat == "des" else calls[CLT_SELF_REPEATS:]
            own_time += [c.self_time - b.self_time - k.self_time
                         for c, b, k in zip(calls, batch, ks_spans)]
    m["lab.ks_against_normal.s"] = (statistics.median(ks), "s",
                                    "median over the schedule, per 100k")
    m["lab.normality_diagnostics.self.s"] = (statistics.median(own_time), "s",
                                             "n=50 call minus its sampler and KS, median")
    # cli
    m["cli.interpreter_ms"] = (1e3 * statistics.median(
        s.duration for s in tr.named("cli.interpreter")), "ms", "python -c pass")
    m["cli.import_numpy_ms"] = (cli_children["cli.import_numpy_ms"], "ms",
                                "in a fresh interpreter")
    m["cli.import_ms"] = (cli_children["cli.import_ms"], "ms",
                          "import cyclic_descents.cli, fresh interpreter, warm bytecode")
    for sub, _, _ in wls["cli_cold"].pass_ops(0):
        m[f"cli.main_ms.{sub}"] = (1e3 * statistics.median(
            s.duration for s in tr.named("cli.main." + sub)), "ms", "in-process cli.main")
    # tracing overhead of the workload this run was asked for
    m["trace.untraced_pass_s"] = (untraced, "s", f"library time of one {name} pass")
    m["trace.traced_pass_s"] = (traced, "s", "the same pass, traced")
    m["trace.overhead_pct"] = (100 * (traced - untraced) / untraced, "%", "")
    m["trace.spans_per_pass"] = (spans_in_pass, "count", "")
    return m, records
