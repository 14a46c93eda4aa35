"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs one operation at a
time (a closed loop with a single caller) through the library's public
functions, and checks every output against `oracle`, which shares no code
with the library.  `run` holds only library calls, so the timed region is
library time; `check` runs outside it.  Every library call sits inside a
span, which records nothing unless the run is traced.

  sweep     the exhaustive claim basket of the acceptance gates and
            scripts/verify_all.py; per-element interpreter overhead
            dominates.
  scale     parity-class round trips and CB rank/unrank at degree 1001;
            big-integer ranking and the O(n) rewriting dominate.
  clt       gate 10's normality schedule; the numpy batch sampler and the
            KS loop, with none of the rewriting code.
  cli_cold  fresh `python -m cyclic_descents.cli` processes; interpreter
            start-up and imports dominate.
"""

from __future__ import annotations

import math
import os
import random
import re
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle as O
from cyclic_descents import lab, verify
from cyclic_descents.domains import DomainSpec, rank, sample, unrank
from cyclic_descents.statistics import stats
from cyclic_descents.transfer import capital_phi, capital_psi_D, capital_psi_Dbar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 60


def call_child(argv):
    """Run one child process; returns (exit code, stdout+stderr, peak RSS kB).

    The child is reaped with wait4 so its own peak RSS is known; a child
    that outlives CHILD_TIMEOUT_S is killed.
    """
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         stdin=subprocess.DEVNULL, cwd=ROOT, env=CHILD_ENV)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
    finally:
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(errors="replace"), usage.ru_maxrss


@dataclass
class Record:
    key: str
    seconds: float
    checks: int
    samples: int
    problem: str | None


def step(wl, op, tr, corrupt=None):
    """Run one op, time its library calls, then check its output.

    `corrupt` lets the self-test damage the output before the check."""
    problem = None
    t0 = perf_counter()
    try:
        with tr.span(wl.name + ".op"):
            out = wl.run(op, tr)
    except Exception as e:  # a library failure is counted, not fatal
        out, problem = None, f"{type(e).__name__}: {e}"
    dt = perf_counter() - t0
    if problem is None:
        if corrupt is not None:
            out = corrupt(op, out)
        try:
            problem = wl.check(op, out)
        except Exception as e:
            problem = f"check raised {type(e).__name__}: {e}"
    checks, samples = (0, 0) if problem else wl.work(op, out)
    return Record(wl.key(op), dt, checks, samples, problem)


def error_rate(records):
    return sum(r.problem is not None for r in records) / len(records)


class Workload:
    name = ""
    # Stop only at pass boundaries, so every run holds the same mix of ops.
    whole_passes = True
    # Latency of a whole pass (a batch the user waits for, with too few
    # calls in a run for a tail percentile) rather than of each op.
    pass_latency = False
    # Take the tail of each run of this many consecutive ops and report the
    # median of those tails, so that a burst of load from other tenants in
    # one stretch of the run does not set the figure; None pools all ops.
    tail_window = None
    # The pace.REFERENCES routine this workload's times are paced by.
    pace = "python"
    # Child-process set-up: the library imports and first calls this
    # workload needs, timed from inside a fresh interpreter.
    setup_code = ""

    def warmup(self):
        return []

    def report(self):
        """Extra lines for the human-readable output of a timed run."""
        return []

    def pass_ops(self, k):
        raise NotImplementedError

    def key(self, op):
        raise NotImplementedError

    def run(self, op, tr):
        raise NotImplementedError

    def check(self, op, out):
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def work(self, op, out):
        """(correctness checks, uniform samples) one verified op stands for."""
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- sweep -----------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"
    pass_latency = True
    ORDER_SWAP_WORDS = 2000
    setup_code = (
        "from cyclic_descents import lab, verify\n"
        "from cyclic_descents.domains import DomainSpec\n"
        "verify.check_phi_descents(3)\n"
        "lab.exact_distribution(DomainSpec('B', 3), 'fmaj')\n")

    def __init__(self, seed):
        self.ops = [
            ("claim", "phi-descents", {"n": 6}),
            ("claim", "bijection-D", {"n": 6}),
            ("claim", "bijection-Dbar", {"n": 6}),
            ("claim", "inverses", {"n": 5}),
            ("claim", "stat-gaps", {"n_hi": 7}),
            ("claim", "corollary-counts", {"n": 6}),
            ("claim", "elizalde-equivalence", {"n": 7}),
            ("claim", "colored", {"n": 3, "r": 3}),
            ("claim", "order-swap-properties",
             {"count": self.ORDER_SWAP_WORDS, "degree": 10,
              "seed": random.Random(seed).getrandbits(32)}),
            ("table", "B6_fmaj", ("B", 6)),
            ("table", "CB7_fmaj", ("CB", 7)),
        ]
        self.tables = {"B6_fmaj": O.bn_fmaj_counts(6),
                       "CB7_fmaj": O.cyclic_fmaj_counts(7)}

    def pass_ops(self, k):
        return self.ops

    def key(self, op):
        kind, name, _ = op
        return ("verify." if kind == "claim" else "lab.exact_distribution.") + name

    def run(self, op, tr):
        kind, name, params = op
        with tr.span(self.key(op)):
            if kind == "claim":
                return verify.CLAIMS[name](**params)
            return lab.exact_distribution(DomainSpec(*params), "fmaj")

    def check(self, op, out):
        kind, name, params = op
        if kind == "claim":
            want = O.claim_checks(name, **params)
            if not out.passed:
                return f"{name} did not pass: {out.details} {out.failures}"
            if out.checked != want:
                return f"{name} checked {out.checked}, closed form says {want}"
            return None
        if dict(out.counts) != self.tables[name]:
            return f"{name} table differs from the reference"
        if name == "CB7_fmaj":
            total, mean, var = O.table_moments(out.counts)
            if (total, mean, var) != (O.size_CB(7), *O.fmaj_moments(7)):
                return f"{name} moments {total} {mean} {var} off the closed form"
        return None

    def work(self, op, out):
        if op[0] != "claim":
            return 0, 0
        return out.checked, (out.checked if op[1] == "order-swap-properties" else 0)


# -- scale -----------------------------------------------------------------

class Scale(Workload):
    name = "scale"
    whole_passes = False
    tail_window = 100
    N = 1001
    PASS = 100
    setup_code = (
        "from cyclic_descents.domains import DomainSpec, rank, sample, unrank\n"
        "from cyclic_descents.statistics import stats\n"
        "from cyclic_descents.transfer import capital_phi, capital_psi_D\n"
        "cb = DomainSpec('CB', 1001)\n"
        "pi = sample(DomainSpec('CD', 1001), 1)\n"
        "sigma = capital_phi(pi)\n"
        "capital_psi_D(sigma)\n"
        "unrank(cb, rank(cb, pi))\n"
        "stats(pi), stats(sigma)\n")

    def __init__(self, seed):
        rnd = random.Random(seed)
        self.seeds = [rnd.getrandbits(63) for _ in range(4096)]
        self.cb = DomainSpec("CB", self.N)
        self.domains = {k: DomainSpec(k, self.N) for k in ("CD", "CDbar")}
        self.cb_size = O.size_CB(self.N)

    def pass_ops(self, k):
        return range(k * self.PASS, (k + 1) * self.PASS)

    def key(self, j):
        return "CD" if j % 2 == 0 else "CDbar"

    def run(self, j, tr):
        kind = self.key(j)
        with tr.span("domains.sample"):
            pi = sample(self.domains[kind], self.seeds[j % len(self.seeds)])
        with tr.span("transfer.capital_phi.n1001"):
            sigma = capital_phi(pi)
        with tr.span("transfer.capital_psi.n1000"):
            back = (capital_psi_D if kind == "CD" else capital_psi_Dbar)(sigma)
        with tr.span("domains.rank"):
            r = rank(self.cb, pi)
        with tr.span("domains.unrank"):
            u = unrank(self.cb, r)
        with tr.span("statistics.stats.n1001"):
            st_pi = stats(pi)
        with tr.span("statistics.stats.n1000"):
            st_sigma = stats(sigma)
        return {"pi": pi, "sigma": sigma, "back": back, "rank": r,
                "unranked": u, "stats_pi": st_pi, "stats_sigma": st_sigma}

    def check(self, j, out):
        N = self.N
        a = list(out["pi"].images)
        b = list(out["sigma"].images)
        if len(a) != N or not O.is_cyclic(a):
            return "sampled element is not cyclic of degree 1001"
        if O.negatives(a) % 2 != (0 if self.key(j) == "CD" else 1):
            return "sampled element is in the wrong parity class"
        if not O.is_signed_permutation(b, N - 1):
            return "capital_phi output is not a signed permutation of degree 1000"
        if O.descent_flags(a, N - 1) != O.descent_flags(b, N - 1):
            return "capital_phi changed a descent at 0..n-1"
        if list(out["back"].images) != a:
            return "capital_psi did not return the sampled element"
        if not 0 <= out["rank"] < self.cb_size:
            return "rank out of range"
        if list(out["unranked"].images) != a:
            return "unrank(rank(x)) != x"
        sp, ss = O.stat_tuple(a), O.stat_tuple(b)
        for got, want in ((out["stats_pi"], sp), (out["stats_sigma"], ss)):
            if (got.des, got.maj, got.neg, got.fmaj) != want:
                return f"stats {got} != {want}"
        if sp[0] - ss[0] not in (0, 1) or not 0 <= sp[3] - ss[3] <= 2 * N + 1:
            return "statistic gap outside the claimed range"
        return None

    def work(self, j, out):
        return 1, 1


# -- clt -------------------------------------------------------------------

class Clt(Workload):
    name = "clt"
    pass_latency = True
    pace = "numpy"
    SAMPLES = 100_000
    # gate 10's schedule, then a repeat of the first call, which must give
    # a bit-identical report
    SCHEDULE = [(stat, n) for n in (50, 200, 800) for stat in ("des", "fmaj")]
    setup_code = (
        "from cyclic_descents.lab import normality_diagnostics\n"
        "normality_diagnostics('CB', 'des', 50, 1000, 0)\n")

    def __init__(self, seed):
        rnd = random.Random(seed)
        self.seeds = {cfg: rnd.getrandbits(32) for cfg in self.SCHEDULE}
        self.first = {}

    def pass_ops(self, k):
        return [(s, n, "") for s, n in self.SCHEDULE] + [(*self.SCHEDULE[0], ".repeat")]

    def key(self, op):
        stat, n, tag = op
        return f"{stat}.n{n}{tag}"

    def run(self, op, tr):
        stat, n, _ = op
        with tr.span("lab.normality_diagnostics"):
            return lab.normality_diagnostics("CB", stat, n, self.SAMPLES,
                                             self.seeds[stat, n])

    def check(self, op, rep):
        stat, n, _ = op
        fields = (rep.n, rep.domain, rep.stat, rep.sample_count, rep.seed)
        if fields != (n, "CB", stat, self.SAMPLES, self.seeds[stat, n]):
            return f"report fields {fields} do not echo the call"
        first = self.first.setdefault((stat, n), rep)
        if rep != first:
            return f"report for {stat} n={n} differs from an earlier identical call"
        target = n / 2 if stat == "des" else n * n / 2
        se = math.sqrt(rep.variance / rep.sample_count)
        if not abs(rep.mean - target) <= 5 * se:
            return f"{stat} n={n} sample mean {rep.mean} is over 5 SE from {target}"
        return None

    def work(self, op, rep):
        return 1, rep.sample_count


# -- cli_cold --------------------------------------------------------------

README_MAP = ("(-4,-1,2,5,-3,-6,7)", "[1,2,-6,-3,-5,4]\n")
README_STATS = ("[-3,1,2,-5,-4,6]", "des=2 maj=3 neg=3 fmaj=9\n")
VERIFY_LINE = re.compile(
    r"\[PASS\] phi-descents\(n=5,shard=None,threads=1\): (\d+) checks in \d+\.\d\ds\n")


class CliCold(Workload):
    name = "cli_cold"
    CYCLES = 64
    SAMPLES = 10  # the CLI's default --samples
    setup_code = (
        "import contextlib, io\n"
        "from cyclic_descents import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['stats', '[1]'])\n")

    def __init__(self, seed):
        rnd = random.Random(seed)
        self.cycles = []
        for _ in range(self.CYCLES):
            self.cycles.append({
                "map": O.word_to_images(O.random_cyclic_word(rnd, 8)),
                "invert": O.random_signed(rnd, 7),
                "stats": O.random_signed(rnd, 8),
                "seed": rnd.getrandbits(31),
            })
        self.tabulate = "".join(f"{k:>6}  {v}\n"
                                for k, v in sorted(O.cyclic_fmaj_counts(6).items()))
        self.sampled = {}
        self.peak_kb = 0

    def _ops(self, c, readme):
        stats_in = README_STATS[0] if readme else O.one_line(c["stats"])
        return [
            ("map", ["map", "--fn", "Phi", README_MAP[0] if readme else O.one_line(c["map"])],
             README_MAP[1] if readme else c["map"]),
            ("invert", ["invert", "--fn", "PsiD", "[1]" if readme else O.one_line(c["invert"])],
             [1] if readme else c["invert"]),
            ("stats", ["stats", stats_in],
             README_STATS[1] if readme else
             "des={} maj={} neg={} fmaj={}\n".format(*O.stat_tuple(c["stats"]))),
            ("tabulate", ["tabulate", "--domain", "CB", "--n", "6", "--stat", "fmaj"],
             self.tabulate),
            ("verify", ["verify", "--claim", "phi-descents", "--n", "5"], O.size_CB(6)),
            ("sample", ["sample", "--domain", "CB", "--n", "8", "--seed", str(c["seed"])],
             c["seed"]),
        ]

    def warmup(self):
        # One call per subcommand so bytecode caches exist, as they do for
        # users; these use the README's worked examples where it has them.
        # The bare interpreter's start-up, the floor under every call, is
        # measured here so that every run records it.
        self.interpreter_s = []
        for _ in range(3):
            t0 = perf_counter()
            call_child([sys.executable, "-c", "pass"])
            self.interpreter_s.append(perf_counter() - t0)
        return self._ops(self.cycles[0], readme=True)

    def report(self):
        ms = 1e3 * sorted(self.interpreter_s)[1]
        return [f"{'cli.interpreter_ms':<48} {ms:>14.6g} ms     python -c pass, "
                "median of 3, measured"]

    def pass_ops(self, k):
        return self._ops(self.cycles[k % self.CYCLES], readme=False)

    def key(self, op):
        return op[0]

    def run(self, op, tr):
        with tr.span("cli.call." + op[0]):
            code, out, kb = call_child([sys.executable, "-m", "cyclic_descents.cli", *op[1]])
        self.peak_kb = max(self.peak_kb, kb)
        return code, out

    def check(self, op, out):
        sub, _, want = op
        code, text = out
        if code != 0:
            return f"{sub} exited {code}: {text.strip()[:200]}"
        if isinstance(want, str):
            return None if text == want else f"{sub} printed {text[:200]!r}"
        if sub in ("map", "invert"):
            got = O.parse_one_line(text)
            n = len(want)
            if sub == "map":
                ok = got is not None and O.is_signed_permutation(got, n - 1) \
                    and O.descent_flags(got, n - 1) == O.descent_flags(want, n - 1)
            else:
                ok = got is not None and len(got) == n + 1 and O.is_cyclic(got) \
                    and O.negatives(got) % 2 == 0 \
                    and O.descent_flags(got, n) == O.descent_flags(want, n)
            return None if ok and text.count("\n") == 1 else f"{sub} printed {text[:200]!r}"
        if sub == "verify":
            m = VERIFY_LINE.fullmatch(text)
            return None if m and int(m.group(1)) == want else f"verify printed {text[:200]!r}"
        lines = text.splitlines()
        perms = [O.parse_one_line(line) for line in lines]
        if len(perms) != self.SAMPLES or any(p is None or len(p) != 8 or not O.is_cyclic(p)
                                             for p in perms):
            return f"sample printed {text[:200]!r}"
        if self.sampled.setdefault(want, text) != text:
            return "sample output changed for an identical seed"
        return None

    def work(self, op, out):
        return 1, (self.SAMPLES if op[0] == "sample" else 0)

    def peak_rss_mb(self):
        return self.peak_kb / 1024


WORKLOADS = {w.name: w for w in (Sweep, Scale, Clt, CliCold)}
