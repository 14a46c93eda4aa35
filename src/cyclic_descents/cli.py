"""Command line front end.

Subcommands: map, invert, stats, verify, tabulate, sample, clt.  All
configuration is taken from flags so identical invocations (including the
seed) produce byte-identical output.  Exit codes: 0 success, 1 invariant
violation, 2 usage or input error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .catalog import CLAIM_ROWS, KINDS
from .cycles import CycleNotation, from_cycles, to_canonical_cycles
from .permutations import SignedPermutation

# Each command imports the library modules it runs, so a process pays only
# for its own subcommand; the parser's names come from the catalog.

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


def _skip_ws(s, i):
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _scan_int(s, i):
    j = i
    if j < len(s) and s[j] in "+-":
        j += 1
    k = j
    while k < len(s) and s[k].isdigit():
        k += 1
    if k == j:
        raise ParseError("expected integer", i)
    return int(s[i:k]), k


def _scan_entry(s, i):
    """One entry: a signed integer, optionally followed by ^color."""
    v, i = _scan_int(s, i)
    c = None
    if i < len(s) and s[i] == "^":
        c, i = _scan_int(s, i + 1)
        if c < 0:
            raise ParseError("negative color", i)
    return v, c, i


def _scan_group(s, i, close):
    out = []
    i = _skip_ws(s, i)
    while True:
        v, c, i = _scan_entry(s, i)
        out.append((v, c))
        i = _skip_ws(s, i)
        if i < len(s) and s[i] == ",":
            i = _skip_ws(s, i + 1)
            continue
        if i < len(s) and s[i] == close:
            return out, i + 1
        raise ParseError(f"expected ',' or '{close}'", i)


def parse_permutation_text(s, r=None):
    """Parse `[v1,...,vn]` or `(..)(..)` text.  Returns a SignedPermutation,
    a CycleNotation, or, when any entry carries a ^color or r is given, a
    ColoredPermutation.  Raises ParseError on bad syntax and ValueError on a
    semantic problem such as a repeated magnitude."""
    i = _skip_ws(s, 0)
    if i == len(s):
        raise ParseError("empty input", i)
    if s[i] == "[":
        j = _skip_ws(s, i + 1)
        # [] is the degree-0 permutation, which the printer writes so
        if j < len(s) and s[j] == "]":
            entries, i = [], j + 1
        else:
            entries, i = _scan_group(s, i + 1, "]")
        if _skip_ws(s, i) != len(s):
            raise ParseError("trailing input", i)
        colored = r is not None or any(c is not None for c in (c for _, c in entries))
        if colored:
            from .colored import ColoredPermutation

            mod = r if r is not None else max((c or 0) for _, c in entries) + 1
            omega = tuple(v for v, _ in entries)
            if any(v <= 0 for v in omega):
                raise ValueError("colored entries must be positive")
            tau = tuple((c or 0) for _, c in entries)
            return ColoredPermutation(len(entries), mod, omega, tau)
        return SignedPermutation([v for v, _ in entries])
    if s[i] == "(":
        groups = []
        while i < len(s) and s[i] == "(":
            g, i = _scan_group(s, i + 1, ")")
            if any(c is not None for _, c in g):
                raise ParseError("colors are only allowed in one-line notation", i)
            groups.append([v for v, _ in g])
            i = _skip_ws(s, i)
        if i != len(s):
            raise ParseError("trailing input", i)
        n = sum(len(g) for g in groups)
        return CycleNotation(n, groups)
    raise ParseError("expected '[' or '('", i)


def _as_permutation(x):
    return from_cycles(x) if isinstance(x, CycleNotation) else x


def render_cycles(sigma, pretty=False):
    c = to_canonical_cycles(sigma)
    if not pretty:
        return str(c)
    kept = [cy for cy in c if len(cy) > 1]
    return "".join(str(cy) for cy in kept) if kept else "()"


# --fn -> (module, map, the map and invert flags it takes)
MAP_FNS = {
    "phi": ("transfer", "phi_plus", ("instrument", "cycles", "pretty")),
    "Phi": ("transfer", "capital_phi", ("cycles", "pretty")),
    "psi": ("transfer", "psi_plus", ("instrument", "cycles", "pretty")),
    "PsiD": ("transfer", "capital_psi_D", ("cycles", "pretty")),
    "PsiDbar": ("transfer", "capital_psi_Dbar", ("cycles", "pretty")),
    "phiS": ("classic", "phi_classic", ("instrument", "cycles", "pretty")),
    "PhiColored": ("colored", "colored_phi", ("r",)),
    "PsiColored": ("colored", "colored_psi", ("r", "color")),
}


def _given(cfg, owner, takes, flags):
    """{flag: value} of the flags set on cfg, or None after refusing the
    first one that `owner` does not take."""
    given = {f: v for f in flags if (v := getattr(cfg, f)) is not None and v is not False}
    for flag in given:
        if flag not in takes:
            print(f"{owner} does not take --{flag}", file=sys.stderr)
            return None
    return given


def _emit(cfg, payload, text_lines, csv_rows=None):
    """Write one report in the configured format.  payload is the JSON
    object, text_lines the text rendering, csv_rows (header, rows), by
    default the payload's keys over one row of its values."""
    out = sys.stdout
    if cfg.format == "json":
        import json

        json.dump(payload, out, indent=2)
        out.write("\n")
    elif cfg.format == "csv":
        import csv

        head, rows = csv_rows or (list(payload), [list(payload.values())])
        w = csv.writer(out, lineterminator="\n")
        w.writerow(head)
        w.writerows(rows)
    else:
        for line in text_lines:
            out.write(line + "\n")


def _cmd_map(cfg):
    fn = cfg.fn
    module, name, takes = MAP_FNS[fn]
    if _given(cfg, f"--fn {fn}", takes,
              ("r", "color", "instrument", "cycles", "pretty")) is None:
        return EXIT_USAGE
    if cfg.pretty and not cfg.cycles:
        print("--pretty needs --cycles", file=sys.stderr)
        return EXIT_USAGE
    f = getattr(import_module(f".{module}", __package__), name)
    trace = None
    if module == "colored":
        if cfg.r is None:
            print("colored maps need --r", file=sys.stderr)
            return EXIT_USAGE
        p = parse_permutation_text(cfg.text, r=cfg.r)
        if isinstance(p, (SignedPermutation, CycleNotation)):
            raise ValueError("colored map needs a colored one-line input")
        out = f(p) if fn == "PhiColored" else f(p, cfg.color or 0)
    else:
        p = _as_permutation(parse_permutation_text(cfg.text))
        if not cfg.instrument:
            out = f(p)
        elif module == "classic":
            out = f(p, check=True)
        else:
            from .transfer import TransferTrace

            trace = TransferTrace()
            out = f(p, trace=trace)
    rendered = render_cycles(out, cfg.pretty) if cfg.cycles else str(out)
    payload = {"fn": fn, "input": str(p), "output": rendered}
    lines = [rendered]
    if trace is not None:
        payload["iterations"] = len(trace.iterations)
        payload["swaps"] = trace.swap_count()
        lines.append(f"iterations={payload['iterations']} swaps={payload['swaps']}")
    _emit(cfg, payload, lines)
    return EXIT_PASS


def _cmd_stats(cfg):
    p = parse_permutation_text(cfg.text, r=cfg.r)
    if not isinstance(p, (SignedPermutation, CycleNotation)):
        from .colored import colored_stats

        des, maj, col, fmaj = colored_stats(p)
        payload = {"des": des, "maj": maj, "col": col, "fmaj": fmaj}
    else:
        from .statistics import descent_set, stats

        p = _as_permutation(p)
        rec = stats(p)
        payload = {"des": rec.des, "maj": rec.maj, "neg": rec.neg,
                   "fmaj": rec.fmaj,
                   "descents": sorted(descent_set(p).members)}
    line = " ".join(f"{k}={v}" for k, v in payload.items() if k != "descents")
    _emit(cfg, payload, [line])
    return EXIT_PASS


def _cmd_verify(cfg):
    claim = cfg.claim
    takes = CLAIM_ROWS[claim][2]
    given = _given(cfg, f"--claim {claim}", takes,
                   ("n", "r", "samples", "seed", "shard", "threads"))
    if given is None:
        return EXIT_USAGE
    kw = {k: v for flag, v in given.items() for k in takes[flag]}
    # a claim's own keyword n has no default, so --n that sets it is required
    if takes.get("n") == ("n",) and cfg.n is None:
        print(f"--claim {claim} needs --n", file=sys.stderr)
        return EXIT_USAGE
    from .verify import CLAIMS

    res = CLAIMS[claim](**kw)
    payload = {"claim": res.claim, "params": res.params,
               "passed": res.passed, "checked": res.checked,
               "details": res.details,
               "counterexamples": [str(f) for f in res.failures]}
    lines = [res.line()]
    lines += [f"  counterexample: {f}" for f in res.failures]
    _emit(cfg, payload, lines,
          (["claim", "passed", "checked", "details"],
           [[res.claim, res.passed, res.checked, res.details]]))
    return EXIT_PASS if res.passed else EXIT_VIOLATION


def _domain_from(cfg):
    from .domains import DomainSpec

    # DomainSpec refuses color parameters on every kind but CSnr
    r = 2 if cfg.r is None and cfg.domain == "CSnr" else cfg.r
    return DomainSpec(cfg.domain, cfg.n, r=r, color_filter=cfg.color)


def _cmd_tabulate(cfg):
    d = _domain_from(cfg)
    if cfg.refined:
        from .lab import refined_descent_table

        t = refined_descent_table(d, allow_big=cfg.allow_big)
        items = sorted(((tuple(sorted(k.members)), v) for k, v in t.counts.items()))
        payload = {"domain": d.kind, "n": d.n, "stat": "descent-set",
                   "counts": {" ".join(map(str, k)): str(v) for k, v in items}}
        rows = [[" ".join(map(str, k)), str(v)] for k, v in items]
        lines = [f"{' '.join(map(str, k)) or '-':>16}  {v}" for k, v in items]
        _emit(cfg, payload, lines, (["descents", "count"], rows))
        return EXIT_PASS
    from .lab import exact_distribution

    t = exact_distribution(d, cfg.stat, allow_big=cfg.allow_big)
    items = sorted(t.counts.items())
    payload = {"domain": d.kind, "n": d.n, "stat": cfg.stat,
               "counts": {str(k): str(v) for k, v in items}}
    _emit(cfg, payload,
          [f"{k:>6}  {v}" for k, v in items],
          (["value", "count"], [[k, str(v)] for k, v in items]))
    return EXIT_PASS


def _cmd_sample(cfg):
    from .domains import IntPhilox, sample

    if cfg.samples < 0:
        raise ValueError(f"bad sample count {cfg.samples}")
    d = _domain_from(cfg)
    # make_rng(seed)'s words, computed without loading numpy
    rng = IntPhilox(cfg.seed)
    xs = [str(sample(d, rng)) for _ in range(cfg.samples)]
    payload = {"domain": d.kind, "n": d.n, "seed": cfg.seed, "samples": xs}
    _emit(cfg, payload, xs,
          (["index", "permutation"], list(enumerate(xs))))
    return EXIT_PASS


def _cmd_clt(cfg):
    from dataclasses import asdict

    from .lab import normality_diagnostics

    rep = normality_diagnostics(cfg.domain, cfg.stat, cfg.n, cfg.samples, cfg.seed)
    payload = asdict(rep)
    _emit(cfg, payload, [f"{k}={v}" for k, v in payload.items()])
    return EXIT_PASS


def _shard_pair(s):
    i, t = s.split("/")
    i, t = int(i), int(t)
    if not 0 <= i < t:
        raise argparse.ArgumentTypeError(f"bad shard {s}")
    return i, t


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cycdes",
        description="Descent-preserving transfer between cyclic and linear "
                    "signed permutations, with exact tables and sampling.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, text=False):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if text:
            p.add_argument("text", help="permutation in one-line or cycle notation")

    def transfer(name, summary, fns):
        p = sub.add_parser(name, help=summary)
        common(p, text=True)
        p.add_argument("--fn", required=True, choices=fns)
        p.add_argument("--r", type=int)
        p.add_argument("--color", type=int)
        p.add_argument("--instrument", action="store_true")
        p.add_argument("--cycles", action="store_true", help="render output as cycles")
        p.add_argument("--pretty", action="store_true", help="omit length-1 cycles in text")
        p.set_defaults(run=_cmd_map)

    transfer("map", "apply a transfer map to one permutation", MAP_FNS)
    transfer("invert", "apply an inverse-direction map",
             ("psi", "PsiD", "PsiDbar", "PsiColored"))

    p = sub.add_parser("stats", help="descent statistics of one permutation")
    common(p, text=True)
    p.add_argument("--r", type=int)
    p.set_defaults(run=_cmd_stats)

    p = sub.add_parser("verify", help="run one claim suite")
    common(p)
    p.add_argument("--claim", required=True, choices=CLAIM_ROWS)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--shard", type=_shard_pair, metavar="i/t")
    p.add_argument("--threads", type=int)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("tabulate", help="exact statistic distribution")
    common(p)
    p.add_argument("--domain", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=("des", "maj", "neg", "fmaj", "col"), default="des")
    p.add_argument("--r", type=int)
    p.add_argument("--color", type=int)
    p.add_argument("--refined", action="store_true",
                   help="full descent-set table instead of one statistic")
    p.add_argument("--allow-big", action="store_true")
    p.set_defaults(run=_cmd_tabulate)

    p = sub.add_parser("sample", help="draw uniform elements")
    common(p)
    p.add_argument("--domain", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--color", type=int)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("clt", help="sampled normality diagnostics")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--domain", required=True, choices=("CB", "CD", "CDbar"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=("des", "fmaj"), default="des")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_clt)

    return ap


def main(argv=None):
    ap = build_parser()
    cfg = ap.parse_args(argv)
    try:
        return cfg.run(cfg)
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        # only domains raises BudgetError, so if it is not loaded, this is not one
        domains = sys.modules.get(f"{__package__}.domains")
        if domains is None or not isinstance(e, domains.BudgetError):
            raise
        print(f"budget: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
