"""Print one sha256 line per output family of the library.

    python scripts/output_digests.py > digests.txt

Two versions of the library give byte-identical outputs when two runs of
this script diff empty.  The families are:

- iterate_words of every row family at n <= 6, and iterate of CSnr;
- unrank over every index of the eight families at n <= 6, and seeded
  sample/rank/unrank at degree 1001 (the script exits non-zero if
  rank(unrank(i)) != i anywhere);
- seeded sample streams, and _uniform_index at 1, 2, 3 and 149 words;
- sample from integer seeds over every kind at degrees 1 to 1001, and
  the raw bytes of one IntPhilox stream over draws of growing size;
- sample_stat_batch streams, also at counts that end mid-chunk, one
  worker's stream over several chunks, three chunks and a row at degree
  800, and numpy-integer counts;
- the transfer maps: capital_phi over CB(<=6), phi_plus over its positive
  class, psi_plus, capital_psi_D, capital_psi_Dbar and preimage_quadruple
  over B(<=5), colored_phi over cyclic colored degree 4 and colored_psi
  over colored degree 3 with r = 2 and every target color, and
  to_canonical_cycles and is_cyclic over B(<=5);
- the swap-heavy words W_N at N = 8, 12, 101 and 1001 with both signs of
  1: capital_phi, the parity-class inverse of its image, and the
  instrumented `map --fn phi` (iterations and swaps) in text format;
- the trace events, every (loop index, snapshot, swap events) triple of
  phi_plus over the positive class of CB(<=6) and W_N at N <= 101, and of
  psi_plus over B(<=5);
- each claim's (params, passed, checked, failures), its time left out,
  and the report or error of a claim asked to check nothing;
- one line per injected fault: each claim's (params, passed, checked,
  details, failures) with MAX_REPORTED at 5 and at 10^6, with the
  descent sweep also sharded and on two processes;
- the refusal of each exhaustive claim asked to sweep more than the
  enumeration budget: phi-descents, inverses, bijection-D, stat-gaps and
  elizalde-equivalence at n = 20 and colored at n = 12;
- the command line, run in-process through cli.main: one line per
  subcommand case and --format, each the (argv, exit code, stdout, stderr)
  of its calls, with verify's elapsed time left out, one line each
  over every format for the flags verify, tabulate and sample refuse and
  for those map and invert refuse, and one over every format for sample
  streams of every kind at degrees 1 to 1001;
- the repr and str of a fixed set of each value record: StatRecord,
  TransferTrace (empty and filled), DomainSpec and ColoredPermutation
  (checked and built by iterate);
- the repr, str and pickle round trip of each value type over B(<=5): the
  SignedPermutation, its canonical cycles and their SignedCycles, its
  DescentSet, and DescentSets built from member lists.
"""

import contextlib
import hashlib
import io
import itertools
import math
import pickle
import re
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclic_descents import classic, cli, colored, lab, transfer, verify
from cyclic_descents.colored import ColoredPermutation, colored_phi, colored_psi
from cyclic_descents.cycles import _word_to_images, is_cyclic, to_canonical_cycles
from cyclic_descents.domains import (SAMPLE_CHUNK, DomainSpec, IntPhilox,
                                     _uniform_index, cardinality, iterate,
                                     iterate_words, make_rng, rank, sample,
                                     sample_stat_batch, unrank)
from cyclic_descents.lab import MomentReport
from cyclic_descents.permutations import SignedPermutation
from cyclic_descents.statistics import DescentSet, StatRecord, descent_set, stats
from cyclic_descents.verify import (check_bijection, check_colored,
                                    check_corollary_counts,
                                    check_elizalde_equivalence,
                                    check_inverses, check_moments,
                                    check_order_swap_properties,
                                    check_phi_descents, check_stat_gaps)
from cyclic_descents.transfer import (TransferTrace, capital_phi,
                                      capital_psi_D, capital_psi_Dbar,
                                      phi_plus, preimage_quadruple, psi_plus)

SEED = 20261018
ROW_KINDS = ("B", "D", "CB", "CD", "CDbar", "S", "CS")
# bounds of 1, 2, 3 and 149 64-bit words
INDEX_BOUNDS = (2 ** 63 + 1, 3 << 100, 5 << 180, math.factorial(1000) << 1000)
FORMATS = ("text", "json", "csv")
STRESS_DEGREES = (8, 12, 101, 1001)
ELAPSED = re.compile(r" checks in \d+\.\d\ds")


def digest(items):
    h = hashlib.sha256()
    for x in items:
        h.update(repr(x).encode())
        h.update(b"\n")
    return h.hexdigest()


def small_domains(kind):
    if kind != "CSnr":
        return [DomainSpec(kind, n) for n in range(kind not in ("B", "S"), 7)]
    return [DomainSpec("CSnr", n, r=r, color_filter=c)
            for n in range(1, 7) for r in (1, 2, 3) if r ** n <= 300
            for c in (None, *range(r))]


def round_trip(d, indices):
    """(index, element) pairs of unrank, checking that rank inverts it."""
    for i in indices:
        x = unrank(d, i)
        if rank(d, x) != i:
            raise SystemExit(f"rank(unrank({i})) != {i} on {d}")
        yield i, str(x)


def sample_stream(d, count=100):
    rng = make_rng(SEED)
    return [str(sample(d, rng)) for _ in range(count)]


def index_stream(k, count=50):
    """count seeded draws below k, then the next raw 64-bit word."""
    rng = make_rng(SEED)
    return [_uniform_index(rng, k) for _ in range(count)] + [
        int(rng.bit_generator.random_raw())]


def large(kind):
    return DomainSpec(kind, 1001, r=3 if kind == "CSnr" else None)


def elements(kind, degrees):
    return (x for n in degrees for x in iterate(DomainSpec(kind, n)))


def stress_word(N, one):
    """W_N = [-4, -2, N-1, -(N-2), ..., -5, -3, one, N], one = +-1: a cycle
    word whose forward rewriting makes 2N - 9 swaps."""
    return [-4, -2, N - 1, *range(-(N - 2), -4), -3, one, N]


def stress_elements():
    return [SignedPermutation(_word_to_images(stress_word(N, one)))
            for N in STRESS_DEGREES for one in (1, -1)]


def trace_events(run, xs):
    """The full trace of run on each element of xs."""
    for x in xs:
        t = TransferTrace()
        run(x, trace=t)
        yield [(it, str(snap), swaps) for it, snap, swaps in t.iterations]


def map_lines():
    """(label, digest) per transfer map, over small domains."""
    yield "capital_phi CB<=6", digest(
        str(capital_phi(x)) for x in elements("CB", range(1, 7)))
    yield "phi_plus CB<=6 positive", digest(
        str(phi_plus(x)) for x in elements("CB", range(1, 7))
        if x.images.count(-x.n) == 0)
    for f in (psi_plus, capital_psi_D, capital_psi_Dbar):
        yield f"{f.__name__} B<=5", digest(
            str(f(x)) for x in elements("B", range(6)))
    yield "preimage_quadruple B<=5", digest(
        [str(y) for y in preimage_quadruple(x)] for x in elements("B", range(1, 6)))
    yield "colored_phi CSnr 4 r=2", digest(
        str(colored_phi(p)) for p in iterate(DomainSpec("CSnr", 4, r=2)))
    yield "colored_psi 3 r=2", digest(
        str(colored_psi(ColoredPermutation(3, 2, w.images, tau), c))
        for w in iterate(DomainSpec("S", 3))
        for tau in itertools.product(range(2), repeat=3) for c in range(2))
    stress = stress_elements()
    yield "capital_phi W_N", digest(str(capital_phi(x)) for x in stress)
    yield "capital_psi W_N", digest(
        str((capital_psi_D if x.negative_count() % 2 == 0 else capital_psi_Dbar)(
            capital_phi(x))) for x in stress)
    positive = [x for x in elements("CB", range(1, 7)) if x.images.count(-x.n) == 0]
    yield "trace events", digest(itertools.chain(
        trace_events(phi_plus, positive + [x for x in stress if x.n <= 101]),
        trace_events(psi_plus, elements("B", range(6)))))
    yield "to_canonical_cycles B<=5", digest(
        str(to_canonical_cycles(x)) for x in elements("B", range(6)))
    yield "is_cyclic B<=5", digest(
        is_cyclic(x) for x in elements("B", range(1, 6)))


def records():
    """A fixed set of each value record of the library."""
    traced = TransferTrace()
    phi_plus(stress_elements()[0], trace=traced)
    return [StatRecord(0, 0, 0, 0),
            stats(SignedPermutation([-3, 1, 2, -5, -4, 6])), TransferTrace(), traced,
            DomainSpec("CB", 3), DomainSpec("B", 0), DomainSpec("CSnr", 3, r=2),
            DomainSpec("CSnr", 3, r=2, color_filter=1),
            ColoredPermutation(3, 2, (2, 3, 1), (0, 1, 1)),
            *iterate(DomainSpec("CSnr", 2, r=2, color_filter=1))]


def value_types():
    """Each value type over B(<=5), built checked and by iterate, from the
    degree-0 cases up."""
    for x in elements("B", range(6)):
        c = to_canonical_cycles(x)
        yield from (x, SignedPermutation(x.images), c, *c.cycles, descent_set(x))
    yield from (DescentSet(n, range(0, n, 2)) for n in range(6))


def round_tripped(x):
    """repr and str of x and of its pickle round trip, and whether that
    round trip equals x with an equal hash."""
    y = pickle.loads(pickle.dumps(x))
    return repr(x), str(x), repr(y), str(y), y == x, hash(y) == hash(x)


def cli_cases():
    """(label, argument lists) per subcommand case; each runs in every
    format."""
    cb4 = list(iterate(DomainSpec("CB", 4)))
    positive = [str(x) for x in cb4 if x.images.count(-4) == 0]
    cyclic = [str(x) for x in cb4] + ["(-4,-1,2,5,-3,-6,7)"]
    signed = [str(x) for x in iterate(DomainSpec("B", 3))] + ["(-4,-5)(2,1,-3)(6)"]
    plain = [str(x) for x in iterate(DomainSpec("CS", 4))]
    colored = [str(p) for p in iterate(DomainSpec("CSnr", 3, r=2))]
    lifts = [str(ColoredPermutation(2, 2, w.images, tau))
             for w in iterate(DomainSpec("S", 2))
             for tau in itertools.product(range(2), repeat=2)]
    views = ([], ["--cycles"], ["--cycles", "--pretty"])
    traced = ([], ["--instrument"], ["--cycles"])
    yield "map phi", [["map", "--fn", "phi", t, *v]
                      for t in positive for v in views + (["--instrument"],)]
    yield "map Phi", [["map", "--fn", "Phi", t, *v] for t in cyclic for v in views]
    yield "map phiS", [["map", "--fn", "phiS", t, *v]
                       for t in plain for v in traced]
    yield "map PhiColored", [["map", "--fn", "PhiColored", "--r", "2", t]
                             for t in colored]
    for sub in ("map", "invert"):
        yield f"{sub} psi", [[sub, "--fn", "psi", t, *v] for t in signed for v in traced]
        for fn in ("PsiD", "PsiDbar"):
            yield f"{sub} {fn}", [[sub, "--fn", fn, t, *v] for t in signed for v in views]
        yield f"{sub} PsiColored", [[sub, "--fn", "PsiColored", "--r", "2",
                                     "--color", str(c), t]
                                    for t in lifts for c in range(2)]
    yield "stats", [["stats", t] for t in signed + ["[-1]", "[1,2,3,4,5]"]]
    yield "stats colored", [["stats", t] for t in colored + ["[2^1,1,3^2]"]] + [
        ["stats", "--r", "3", t] for t in lifts]
    yield "tabulate", [["tabulate", "--domain", k, "--n", "4", "--stat", st]
                       for k in ("B", "D", "CB", "CD", "CDbar", "S", "CS")
                       for st in ("des", "maj", "neg", "fmaj")] + [
        ["tabulate", "--domain", "CSnr", "--n", "4", "--r", "2", "--stat", st, *c]
        for st in ("des", "maj", "col", "fmaj") for c in ([], ["--color", "1"])]
    yield "tabulate --refined", [["tabulate", "--domain", k, "--n", "4", "--refined"]
                                 for k in ("B", "D", "CB", "CD", "CDbar", "S", "CS")]
    yield "verify", [["verify", "--claim", "phi-descents", "--n", "4"]]
    yield "sample", [["sample", "--domain", "CB", "--n", "8", "--seed", "7",
                      "--samples", "4"]] + [
        ["sample", "--domain", k, "--n", "5", "--seed", "3", "--r", "2"]
        if k == "CSnr" else ["sample", "--domain", k, "--n", "5", "--seed", "3"]
        for k in ("B", "D", "CB", "CD", "CDbar", "S", "CS", "CSnr")]
    yield "clt", [["clt", "--domain", k, "--n", "20", "--samples", "1500",
                   "--seed", "2", "--stat", st]
                  for k in ("CB", "CD", "CDbar") for st in ("des", "fmaj")]
    yield "refusals", [
        ["tabulate", "--domain", "B", "--n", "40"],
        ["tabulate", "--domain", "CB", "--n", "14", "--refined"],
        ["stats", "[1,,2]"], ["stats", "[1,1]"], ["map", "--fn", "phi", "[1,2,3]"],
        ["map", "--fn", "Phi", "--instrument", "[2,1]"],
        ["map", "--fn", "PhiColored", "[2^1,1]"],
        ["map", "--fn", "PhiColored", "--r", "2", "[2,1]"],
        ["verify", "--claim", "inverses"],
        ["verify", "--claim", "order-swap-properties", "--samples", "0"]]


# verify flags a claim does not take, and color parameters off CSnr
FLAG_REFUSALS = [
    *(["verify", "--claim", "inverses", "--n", "3", *extra]
      for extra in (["--shard", "1/4"], ["--threads", "2"], ["--threads", "0"],
                    ["--threads", "1"], ["--r", "5"], ["--seed", "9"],
                    ["--samples", "3"])),
    ["verify", "--claim", "inverses", "--n", "2", "--r", "5", "--seed", "9",
     "--samples", "3"],
    ["verify", "--claim", "order-swap-properties", "--n", "3"],
    ["tabulate", "--domain", "CB", "--n", "4", "--r", "3"],
    ["sample", "--domain", "B", "--n", "3", "--color", "1"]]

# map and invert flags an --fn does not take, and --pretty without --cycles
MAP_FLAG_REFUSALS = [
    ["map", "--fn", "PhiColored", "--r", "2", "--instrument", "--cycles", "--pretty",
     "[2,1]"],
    ["map", "--fn", "Phi", "--r", "3", "[2,1]"],
    ["map", "--fn", "PhiColored", "--r", "2", "--color", "1", "[2,1]"],
    ["invert", "--fn", "psi", "--r", "2", "[1]"],
    ["map", "--fn", "Phi", "--pretty", "[2,1]"]]


# sample over every kind at degrees 1 to 1001, at the default seed and at
# 2^64 - 1; the counts leave each stream mid-block of four Philox words
SAMPLE_STREAMS = [
    ["sample", "--domain", k, "--n", str(n), "--samples", str(count), *color, *seed]
    for k, color in [(k, []) for k in ROW_KINDS] + [("CSnr", []),
                                                      ("CSnr", ["--color", "1"])]
    for n, count in ((1, 7), (8, 7), (60, 3), (1001, 3))
    for seed in ([], ["--seed", str(2 ** 64 - 1)])]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, ELAPSED.sub(" checks in -", out.getvalue()), err.getvalue()


def cli_lines():
    for label, cases in cli_cases():
        for fmt in FORMATS:
            yield f"cli {label} {fmt}", digest(
                (argv, *run_cli(argv + ["--format", fmt])) for argv in cases)
    yield "cli flag refusals", digest(
        (argv, fmt, *run_cli(argv + ["--format", fmt]))
        for argv in FLAG_REFUSALS for fmt in FORMATS)
    yield "cli map flag refusals", digest(
        (argv, fmt, *run_cli(argv + ["--format", fmt]))
        for argv in MAP_FLAG_REFUSALS for fmt in FORMATS)
    # text format only, one line over all eight words
    argvs = [["map", "--fn", "phi", str(x), "--instrument"] for x in stress_elements()]
    yield "cli map phi W_N text", digest((argv, *run_cli(argv)) for argv in argvs)
    yield "cli sample n<=1001", digest(
        (argv, fmt, *run_cli(argv + ["--format", fmt]))
        for argv in SAMPLE_STREAMS for fmt in FORMATS)


def claim_calls():
    """The claim runs of the digest, each a call not yet made."""
    calls = [partial(check_phi_descents, n) for n in range(1, 6)]
    for n in range(1, 5):
        calls += [partial(check_bijection, n, "D"), partial(check_bijection, n, "Dbar"),
                  partial(check_inverses, n), partial(check_corollary_counts, n)]
    calls += [partial(check_elizalde_equivalence, n) for n in range(1, 6)]
    calls += [partial(check_colored, n, r) for n in range(1, 4) for r in range(1, 4)]
    return calls + [partial(check_moments, 5, 6), partial(check_stat_gaps, 5),
                    partial(check_order_swap_properties, count=1000, degree=10,
                            seed=SEED)]


def fault_calls():
    # the two worker processes inherit the patches under the fork start
    # method, the Linux default before Python 3.14
    return claim_calls() + [partial(check_phi_descents, 4, shard=(i, 7))
                            for i in range(7)] + [
        partial(check_phi_descents, 4, threads=2)]


def fault_row(call):
    """A claim's report, or the error a fault made it raise."""
    try:
        c = call()
    except Exception as e:
        return call.func.__name__, call.args, call.keywords, repr(e)
    return c.claim, c.params, c.passed, c.checked, c.details, c.failures


def _negative_class_fixup(word, res, real=transfer._phi_fixup):
    out = real(word, res)
    return [-v for v in out] if word[-1] < 0 else out


def _first_two_swapped(images, trace=None, real=transfer._psi_plus_word):
    w = real(images, trace)
    return w[1::-1] + w[2:]


def _first_sign_dropped(word, real=transfer._capital_phi_word):
    out = real(word)
    return [abs(v) for v in out[:1]] + out[1:]


def _traced_output_changed(word, trace=None, real=transfer._phi_plus_word):
    out = real(word, trace)
    if trace is not None and len(out) > 1:
        out[1] = -out[1]
    return out


FAULTS = {
    "fixup negative class": ("_phi_fixup", _negative_class_fixup),
    "psi_plus first two swapped": ("_psi_plus_word", _first_two_swapped),
    "descent trigger inverted": (
        "_descent_trigger", lambda *a, real=classic._descent_trigger: not real(*a)),
    "colored_phi constant": ("colored_phi", lambda p: ColoredPermutation(
        p.n - 1, p.r, tuple(range(1, p.n)), (0,) * (p.n - 1))),
    "theoretical_moments wrong": (
        "theoretical_moments", lambda stat, n: MomentReport(-1, 0)),
    "capital_phi many-to-one": ("_capital_phi_word", _first_sign_dropped),
    "phi_plus traced output": ("_phi_plus_word", _traced_output_changed),
}


def fault_lines():
    """One line per fault, patched into every library module that binds
    its name; every patch is undone on leaving."""
    for label, (name, fake) in FAULTS.items():
        rows = []
        with contextlib.ExitStack() as stack:
            for mod in (transfer, verify, classic, colored, lab):
                if hasattr(mod, name):
                    stack.enter_context(mock.patch.object(mod, name, fake))
            for cap in (5, 10 ** 6):
                with mock.patch.object(verify, "MAX_REPORTED", cap):
                    rows += [(cap, *fault_row(call)) for call in fault_calls()]
        yield f"fault {label}", digest(rows)


def main():
    lines = []
    for kind in ROW_KINDS:
        lines.append((f"iterate_words {kind} n<=6", digest(
            w for d in small_domains(kind) for w in iterate_words(d))))
    lines.append(("iterate CSnr n<=6", digest(
        (p.omega, p.tau) for d in small_domains("CSnr") for p in iterate(d))))
    for kind in ROW_KINDS + ("CSnr",):
        lines.append((f"rank/unrank {kind} n<=6", digest(
            pair for d in small_domains(kind)
            for pair in round_trip(d, range(cardinality(d))))))
    for kind in ROW_KINDS + ("CSnr",):
        d, rng = large(kind), make_rng(SEED)
        ranks = [rank(d, sample(d, rng)) for _ in range(4)]
        lines.append((f"rank/unrank {kind} n=1001", digest(round_trip(d, ranks))))
    for kind in ROW_KINDS + ("CSnr",):
        lines.append((f"sample {kind}", digest(
            x for n in (5, 9, 30) for x in sample_stream(
                DomainSpec(kind, n, r=3 if kind == "CSnr" else None)))))
    for k in INDEX_BOUNDS:
        words = -(-(k - 1).bit_length() // 64)
        lines.append((f"_uniform_index {words} words", digest(index_stream(k))))
    rng = IntPhilox(SEED)
    lines.append(("sample int seed, raw_bytes", digest(
        [str(sample(DomainSpec(kind, n, r=3 if kind == "CSnr" else None), s))
         for kind in ROW_KINDS + ("CSnr",) for n in (1, 8, 60, 1001)
         for s in (0, SEED, 2 ** 64 - 1)]
        + [rng.raw_bytes(k) for k in (0, 1, 3, 4, 149, 7, 600, 5000, 2)])))
    for kind in ("CB", "CD", "CDbar"):
        for stat in ("des", "maj", "neg", "fmaj"):
            lines.append((f"sample_stat_batch {kind} {stat}", digest(
                sample_stat_batch(DomainSpec(kind, n), stat, 5000, SEED).tolist()
                for n in (1, 2, 3, 5, 50, 801))))
            lines.append((f"sample_stat_batch {kind} {stat} odd", digest(
                sample_stat_batch(DomainSpec(kind, n), stat, count, SEED).tolist()
                for n, count in ((9, 300), (801, 4097)))))
    # another worker's stream over three full chunks and a tail of an odd
    # number of signs; the shuffles leave a half-word pending before some
    # chunks' signs and not before others
    lines.append(("sample_stat_batch worker=1", digest(
        sample_stat_batch(DomainSpec(kind, 801), "fmaj", 3 * SAMPLE_CHUNK + 257,
                          SEED, worker=1).tolist()
        for kind in ("CB", "CD", "CDbar"))))
    # three chunks and one row at degree 800, each chunk handed over in
    # blocks, then a numpy-integer count, which draws the int count's stream
    lines.append(("sample_stat_batch n=800 blocks", digest(
        [sample_stat_batch(DomainSpec(kind, 800), stat, 3 * SAMPLE_CHUNK + 1,
                           SEED).tolist()
         for kind in ("CB", "CD", "CDbar") for stat in ("des", "fmaj")]
        + [sample_stat_batch(DomainSpec("CD", 50), "fmaj", count(SAMPLE_CHUNK + 3),
                             SEED).tolist() for count in (np.int64, np.int32)])))
    lines += list(map_lines())
    lines.append(("records", digest((repr(x), str(x)) for x in records())))
    lines.append(("value types", digest(map(round_tripped, value_types()))))
    lines += list(cli_lines())
    by_claim = {}
    for c in (call() for call in claim_calls()):
        by_claim.setdefault(c.claim, []).append(
            (c.params, c.passed, c.checked, c.failures))
    lines += [(f"claim {name}", digest(rs)) for name, rs in by_claim.items()]
    lines.append(("claim empty ranges", digest(fault_row(call) for call in (
        partial(check_moments, 5, 4), partial(check_order_swap_properties, count=0)))))
    lines += list(fault_lines())
    lines.append(("claim budget refusals", digest(fault_row(call) for call in (
        partial(check_phi_descents, 20), partial(check_inverses, 20),
        partial(check_bijection, 20, "D"), partial(check_stat_gaps, 20),
        partial(check_elizalde_equivalence, 20), partial(check_colored, 12)))))
    for label, h in lines:
        print(f"{label:<32} {h}")


if __name__ == "__main__":
    main()
