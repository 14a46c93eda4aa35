"""Command line behavior: grammars, schemas, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_descents.catalog import CLAIM_ROWS
from cyclic_descents.cli import (MAP_FNS, ParseError, build_parser, main,
                                 parse_permutation_text, render_cycles)
from cyclic_descents.colored import ColoredPermutation
from cyclic_descents.cycles import CycleNotation, from_cycles
from cyclic_descents.permutations import SignedPermutation

from conftest import signed_perms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_one_line():
    p = parse_permutation_text("[2,5,-6,-1,-3,7,-4]")
    assert isinstance(p, SignedPermutation)
    assert p.images == (2, 5, -6, -1, -3, 7, -4)


def test_parse_cycles():
    c = parse_permutation_text("(-4,-5)(2,1,-3)(6)")
    assert isinstance(c, CycleNotation)
    assert from_cycles(c) == SignedPermutation([-3, 1, 2, -5, -4, 6])


def test_parse_colored():
    p = parse_permutation_text("[2^1,1,3^2]", r=3)
    assert isinstance(p, ColoredPermutation)
    assert p.omega == (2, 1, 3) and p.tau == (1, 0, 2)


def test_parse_degree_zero():
    # the printer writes the degree-0 permutation as [], so it parses back
    for text in ("[]", " [ ] "):
        p = parse_permutation_text(text)
        assert isinstance(p, SignedPermutation) and p.images == ()
    assert str(parse_permutation_text("[]")) == "[]"


@pytest.mark.parametrize("argv, out", [
    (["invert", "--fn", "PsiD", "[]"], "[1]\n"),
    (["stats", "[]"], "des=0 maj=0 neg=0 fmaj=0\n"),
], ids=["invert", "stats"])
def test_degree_zero_input(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_permutation_text("[1,,2]")
    assert e.value.pos == 3
    with pytest.raises(ParseError):
        parse_permutation_text("1,2")
    with pytest.raises(ParseError):
        parse_permutation_text("[1,2")
    with pytest.raises(ParseError):
        parse_permutation_text("[1,2] junk")


def test_parse_semantic_errors():
    with pytest.raises(ValueError):
        parse_permutation_text("[1,1]")
    with pytest.raises(ValueError):
        parse_permutation_text("[1,3]")
    with pytest.raises(ValueError):
        parse_permutation_text("(1,2)(2,3)")


@settings(max_examples=60)
@given(signed_perms(5))
def test_print_parse_round_trip(p):
    assert parse_permutation_text(str(p)) == p
    c = parse_permutation_text(render_cycles(p))
    assert from_cycles(c) == p


def test_map_phi_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--fn", "Phi", "(-4,-1,2,5,-3,-6,7)")
    assert code == 0
    assert out.strip() == "[1,2,-6,-3,-5,4]"


def test_stats_worked_example(capsys):
    code, out, _ = run(capsys, "stats", "[-3,1,2,-5,-4,6]")
    assert code == 0
    assert out.startswith("des=2 maj=3 neg=3 fmaj=9")


def test_stats_json_schema(capsys):
    code, out, _ = run(capsys, "stats", "--format", "json", "[-3,1,2,-5,-4,6]")
    data = json.loads(out)
    assert data == {"des": 2, "maj": 3, "neg": 3, "fmaj": 9,
                    "descents": [0, 3]}


def test_invert_round_trip(capsys):
    code, out, _ = run(capsys, "invert", "--fn", "PsiD", "[1]")
    assert code == 0
    back, out2, _ = run(capsys, "map", "--fn", "Phi", out.strip())
    assert back == 0 and out2.strip() == "[1]"


def test_map_rejects_bad_input(capsys):
    code, _, err = run(capsys, "map", "--fn", "phi", "[1,2,3]")
    assert code == 2 and "cyclic" in err


def test_repeated_magnitude_is_usage_error(capsys):
    code, _, err = run(capsys, "stats", "[1,1]")
    assert code == 2 and "repeated" in err


def test_verify_pass_and_shard(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "phi-descents", "--n", "4")
    assert code == 0 and "[PASS]" in out
    code, out, _ = run(capsys, "verify", "--claim", "phi-descents", "--n", "5",
                       "--shard", "3/8")
    assert code == 0


def test_verify_missing_n_is_usage(capsys):
    code, _, err = run(capsys, "verify", "--claim", "inverses")
    assert code == 2 and "--n" in err


def test_verify_shards_and_threads_only_the_descent_sweep(capsys):
    for extra in (["--shard", "1/4"], ["--threads", "2"], ["--threads", "0"],
                  ["--threads", "1"], ["--r", "5"], ["--seed", "9"],
                  ["--samples", "3"]):
        code, out, err = run(capsys, "verify", "--claim", "inverses", "--n", "3", *extra)
        assert code == 2 and not out
        assert err == f"--claim inverses does not take {extra[0]}\n"
    code, out, err = run(capsys, "verify", "--claim", "order-swap-properties",
                         "--n", "3")
    assert code == 2 and not out
    assert err == "--claim order-swap-properties does not take --n\n"
    # only CSnr takes color parameters
    for argv in (["tabulate", "--domain", "CB", "--n", "4", "--r", "3"],
                 ["sample", "--domain", "B", "--n", "3", "--color", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "takes no color parameters" in err
    for threads in ("0", "-1"):
        code, out, _ = run(capsys, "verify", "--claim", "phi-descents", "--n", "3",
                           "--threads", threads)
        assert code == 2 and not out


def test_verify_refuses_threads_past_the_ceiling(capsys, no_fork):
    code, out, err = run(capsys, "verify", "--claim", "phi-descents", "--n", "7",
                         "--threads", "100000")
    assert (code, out) == (2, "")
    assert err == "error: bad thread count 100000, not in 1..64\n"


def test_tabulate_json_counts_are_strings(capsys):
    code, out, _ = run(capsys, "tabulate", "--domain", "CB", "--n", "4",
                       "--stat", "des", "--format", "json")
    data = json.loads(out)
    assert data["domain"] == "CB" and data["n"] == 4 and data["stat"] == "des"
    assert data["counts"] == {"1": "20", "2": "56", "3": "20"}


def test_tabulate_csv(capsys):
    code, out, _ = run(capsys, "tabulate", "--domain", "B", "--n", "2",
                       "--stat", "des", "--format", "csv")
    assert out.splitlines()[0] == "value,count"
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows == {"0": "1", "1": "6", "2": "1"}


def test_tabulate_refined(capsys):
    code, out, _ = run(capsys, "tabulate", "--domain", "B", "--n", "2",
                       "--refined", "--format", "json")
    data = json.loads(out)
    assert sum(int(v) for v in data["counts"].values()) == 8


def test_tabulate_budget_refusal(capsys):
    code, _, err = run(capsys, "tabulate", "--domain", "B", "--n", "40")
    assert code == 3 and "budget" in err


def test_tabulate_refined_budget_refusal_on_cyclic(capsys):
    code, _, err = run(capsys, "tabulate", "--domain", "CB", "--n", "14",
                       "--refined")
    assert code == 3 and "budget" in err


# 600 one-word draws pass a batch of the integer stream's words, and a
# degree-1001 draw takes 149 words
@pytest.mark.parametrize("argv,domain", [
    (["--domain", "CB", "--n", "8", "--seed", "7", "--samples", "600"], ("CB", 8)),
    (["--domain", "CSnr", "--n", "60", "--color", "1", "--samples", "3"],
     ("CSnr", 60, 2, 1)),
    (["--domain", "D", "--n", "1001", "--seed", str(2**64 - 1), "--samples", "5"],
     ("D", 1001)),
], ids=["CB8", "CSnr60", "D1001"])
def test_sample_prints_the_stream_of_make_rng(capsys, argv, domain):
    from cyclic_descents.domains import DomainSpec, make_rng, sample

    code, out, err = run(capsys, "sample", *argv, "--format", "json")
    assert (code, err) == (0, "")
    got = json.loads(out)
    d, rng = DomainSpec(*domain), make_rng(got["seed"])
    assert got["samples"] == [str(sample(d, rng)) for _ in got["samples"]]


def test_sample_deterministic(capsys):
    args = ("sample", "--domain", "CD", "--n", "6", "--samples", "4",
            "--seed", "123", "--format", "json")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b
    data = json.loads(a)
    assert len(data["samples"]) == 4
    for s in data["samples"]:
        p = parse_permutation_text(s)
        assert p.negative_count() % 2 == 0


def test_clt_json(capsys):
    code, out, _ = run(capsys, "clt", "--domain", "CB", "--n", "20",
                       "--samples", "1500", "--seed", "2")
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 20 and data["sample_count"] == 1500
    assert 0 <= data["ks_distance"] <= 1
    assert 0 <= data["ks_floor"] <= data["ks_distance"]


def test_unknown_subcommand_is_usage():
    with pytest.raises(SystemExit) as e:
        main(["frობ"])
    assert e.value.code == 2


def test_pretty_cycles(capsys):
    code, out, _ = run(capsys, "map", "--fn", "Phi", "--cycles", "--pretty",
                       "(-4,-1,2,5,-3,-6,7)")
    assert code == 0
    assert "(" in out and "(4)" not in out


@pytest.mark.parametrize("n", [64, 1000])
def test_stats_past_word_size(capsys, n):
    # a signed permutation with descents at 0 and at every odd position
    images = [-1] + [v for i in range(2, n, 2) for v in (i + 1, i)]
    images += [n] if len(images) < n else []
    code, out, _ = run(capsys, "stats", "--format", "json",
                       "[" + ",".join(map(str, images)) + "]")
    assert code == 0
    prev, want = 0, []
    for i, v in enumerate(images):
        if prev > v:
            want.append(i)
        prev = v
    assert json.loads(out)["descents"] == want


def test_invert_refuses_forward_maps(capsys):
    for fn in ("phi", "Phi", "phiS", "PhiColored"):
        with pytest.raises(SystemExit) as e:
            main(["invert", "--fn", fn, "[1]"])
        assert e.value.code == 2
    code, out, _ = run(capsys, "invert", "--fn", "PsiD", "[1]")
    assert code == 0 and out == "[2,1]\n"


def test_verify_json_params_keep_types(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "phi-descents", "--n", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"n": 3, "shard": None, "threads": 1}
    code, out, _ = run(capsys, "verify", "--claim", "phi-descents", "--n", "3",
                       "--shard", "3/8", "--format", "json")
    assert json.loads(out)["params"] == {"n": 3, "shard": [3, 8], "threads": 1}
    code, out, _ = run(capsys, "verify", "--claim", "phi-descents", "--n", "3")
    assert out.startswith("[PASS] phi-descents(n=3,shard=None,threads=1): 96 checks in ")
    # a flag left out takes the claim's own default
    code, out, _ = run(capsys, "verify", "--claim", "order-swap-properties",
                       "--samples", "50", "--format", "json")
    assert json.loads(out)["params"] == {"count": 50, "degree": 10, "seed": 0}
    code, out, _ = run(capsys, "verify", "--claim", "colored", "--n", "2",
                       "--format", "json")
    assert json.loads(out)["params"] == {"n": 2, "r": 2}


SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(*args):
    """Run python with args in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_imports_without_numpy():
    # numpy loads only when a command samples; the sampled stream is pinned
    res = fresh("-c", "import sys, cyclic_descents.cli\n"
                      "print('numpy' in sys.modules)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
    res = fresh("-m", "cyclic_descents.cli", "sample", "--domain", "CB", "--n", "8",
                "--seed", "7", "--samples", "4")
    assert res.returncode == 0, res.stderr
    assert res.stdout == ("[-8,3,7,5,-2,1,-6,4]\n[5,-4,-2,6,-8,7,1,-3]\n"
                          "[3,1,-8,6,-7,5,-2,4]\n[3,-7,-4,-5,-8,-2,1,6]\n")


def test_package_namespace_is_lazy():
    res = fresh("-c", (
        "import sys, cyclic_descents as c\n"
        "print([m for m in sys.modules if m.startswith('cyclic_descents.')])\n"
        "ns = {}\n"
        "exec('from cyclic_descents import *', ns)\n"
        "print(sorted(set(c.__all__) - set(ns)), len(c.__all__))\n"
        "from cyclic_descents import lab, verify, DomainSpec\n"
        "print(DomainSpec is sys.modules['cyclic_descents.domains'].DomainSpec)\n"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n[] 49\nTrue\n"


# dataclasses brings inspect, ast, dis and tokenize with it
HEAVY = ("cyclic_descents.lab", "cyclic_descents.verify",
         "cyclic_descents.domains", "cyclic_descents.classic",
         "cyclic_descents.colored", "cyclic_descents.tracing", "numpy",
         "fractions", "dataclasses", "inspect")


@pytest.mark.parametrize("argv, absent", [
    (["stats", "[-3,1,2,-5,-4,6]"], HEAVY),
    (["stats", "--format", "csv", "[-3,1,2,-5,-4,6]"], HEAVY),
    (["map", "--fn", "Phi", "(-4,-1,2,5,-3,-6,7)"], HEAVY),
    (["invert", "--fn", "PsiD", "--format", "json", "[1,2,-6,-3,-5,4]"], HEAVY),
    # a short stream is drawn in integers, so numpy (which loads inspect) stays out
    (["sample", "--domain", "CB", "--n", "4"],
     ("cyclic_descents.lab", "cyclic_descents.verify",
      "cyclic_descents.transfer", "cyclic_descents.classic",
      "cyclic_descents.colored", "cyclic_descents.tracing", "fractions",
      "dataclasses", "numpy", "inspect")),
    (["tabulate", "--domain", "CB", "--n", "4"],
     ("cyclic_descents.colored", "cyclic_descents.transfer",
      "cyclic_descents.verify", "numpy", "fractions")),
    (["verify", "--claim", "phi-descents", "--n", "3"],
     ("cyclic_descents.lab", "cyclic_descents.classic",
      "cyclic_descents.colored", "cyclic_descents.tracing", "numpy",
      "fractions")),
    # the order-swap claim draws its indices in integers
    (["verify", "--claim", "order-swap-properties", "--samples", "20"],
     ("cyclic_descents.lab", "cyclic_descents.classic",
      "cyclic_descents.colored", "numpy", "fractions")),
], ids=["stats", "stats-csv", "map", "invert-json", "sample", "tabulate", "verify",
        "verify-order-swap"])
def test_commands_import_only_what_they_run(argv, absent):
    res = fresh("-c", (
        "import contextlib, io, sys\n"
        "from cyclic_descents import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"print([m for m in {absent!r} if m in sys.modules])\n"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_parser_choices_match_the_library():
    from cyclic_descents import domains, verify
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices

    def choices(sub, flag):
        return next(a.choices for a in subs[sub]._actions if flag in a.option_strings)

    assert list(choices("verify", "--claim")) == sorted(verify.CLAIMS)
    assert tuple(choices("tabulate", "--domain")) == domains.KINDS
    assert tuple(choices("sample", "--domain")) == domains.KINDS
    # every map invert runs is one of map's, and takes only flags map parses
    assert set(choices("invert", "--fn")) <= set(choices("map", "--fn")) == set(MAP_FNS)
    dests = {a.dest for a in subs["map"]._actions}
    assert {f for _, _, takes in MAP_FNS.values() for f in takes} <= dests
    assert list(CLAIM_ROWS) == sorted(CLAIM_ROWS)


@pytest.mark.parametrize("name", CLAIM_ROWS)
def test_catalog_rows_match_their_checkers(name):
    import inspect

    from cyclic_descents import verify
    checker, fixed, flags = CLAIM_ROWS[name]
    params = inspect.signature(getattr(verify, checker)).parameters
    assert set(fixed) <= set(params)
    assert {kw for kws in flags.values() for kw in kws} <= set(params)
    # the CLI demands --n exactly where the claim's n has no default
    required = {k for k, v in params.items() if v.default is v.empty}
    assert required == ({"n"} if flags.get("n") == ("n",) else set())
    # CLAIMS binds the checker to the fixed keywords, and the checker still
    # names its report itself: run at degree 4 (moments' least) or on five
    # samples, it reports the row's name
    assert verify.CLAIMS[name].func is getattr(verify, checker)
    assert verify.CLAIMS[name].keywords == fixed
    small = {"n": 4, "samples": 5}
    kw = {k: small[flag] for flag, kws in flags.items() if flag in small for k in kws}
    assert verify.CLAIMS[name](**kw).claim == name


# each verify flag, with a value the flag's parser takes
VERIFY_FLAGS = {"n": "3", "r": "2", "samples": "3", "seed": "9", "shard": "1/4",
                "threads": "1"}


@pytest.mark.parametrize("name", CLAIM_ROWS)
def test_verify_refuses_each_flag_a_claim_does_not_take(capsys, name):
    refused = [f for f in VERIFY_FLAGS if f not in CLAIM_ROWS[name][2]]
    assert refused
    for flag in refused:
        code, out, err = run(capsys, "verify", "--claim", name, f"--{flag}",
                             VERIFY_FLAGS[flag])
        assert (code, out, err) == (2, "", f"--claim {name} does not take --{flag}\n")


def test_readme_lists_each_claims_flags():
    # the bullets after "Claims of `verify` and the flags each takes", each
    # its claims, a colon, then the flags they take
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("Claims of `verify` and the\nflags each takes", 1)[1]
    block = block.split("\n\n")[1]
    listed = {}
    for bullet in block.split("\n- "):
        names, flags = bullet.split(": ", 1)
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in listed, name
            listed[name] = set(re.findall(r"`--([a-z]+)`", flags))
    assert listed == {name: set(flags) for name, (_, _, flags) in CLAIM_ROWS.items()}


@pytest.mark.parametrize("argv, code, err", [
    (["tabulate", "--domain", "B", "--n", "40"], 3, "budget: "),
    (["tabulate", "--domain", "CB", "--n", "14", "--refined"], 3, "budget: "),
    (["stats", "[1,,2]"], 2, "error: syntax error at position 3"),
    (["map", "--fn", "Phi", "[1,1]"], 2, "error: magnitude 1 repeated"),
    (["map", "--fn", "PhiColored", "--r", "2", "--instrument", "--cycles", "--pretty",
      "[2,1]"], 2, "--fn PhiColored does not take --instrument\n"),
    (["map", "--fn", "Phi", "--r", "3", "[2,1]"], 2, "--fn Phi does not take --r\n"),
    (["map", "--fn", "PhiColored", "--r", "2", "--color", "1", "[2,1]"], 2,
     "--fn PhiColored does not take --color\n"),
    (["invert", "--fn", "psi", "--r", "2", "[1]"], 2, "--fn psi does not take --r\n"),
    (["map", "--fn", "Phi", "--pretty", "[2,1]"], 2, "--pretty needs --cycles\n"),
    (["verify", "--claim", "order-swap-properties", "--samples", "-5"], 2,
     "error: bad sample count -5\n"),
    (["sample", "--domain", "CB", "--n", "3", "--samples", "-1"], 2,
     "error: bad sample count -1\n"),
    (["verify", "--claim", "stat-gaps", "--n", "0"], 2, "error: bad degree bound 0\n"),
    (["verify", "--claim", "stat-gaps", "--n", "-3"], 2, "error: bad degree bound -3\n"),
    (["verify", "--claim", "colored", "--n", "-1"], 2, "error: bad degree -1\n"),
    (["verify", "--claim", "moments", "--n", "3"], 2,
     "error: closed-form moments require n >= 4\n"),
    (["verify", "--claim", "order-swap-properties", "--samples", "0"], 2,
     "error: bad sample count 0\n"),
    (["tabulate", "--domain", "B", "--n", "3000"], 3, "budget: "),
    (["sample", "--domain", "CB", "--n", "5", "--seed", str(2**64)], 2,
     "error: seed and worker must lie in 0..2^64-1\n"),
    *((["verify", "--claim", claim, "--n", n], 3, "budget: ") for claim, n in (
        ("phi-descents", "20"), ("inverses", "20"), ("bijection-D", "20"),
        ("stat-gaps", "20"), ("elizalde-equivalence", "20"), ("colored", "12"))),
], ids=["budget", "budget-refined", "syntax", "repeated", "map-instrument",
        "map-r", "map-color", "invert-r", "pretty-alone", "verify-negative-count",
        "sample-negative-count", "stat-gaps-zero", "stat-gaps-negative", "colored-negative",
        "moments-below-4", "verify-zero-count", "budget-past-the-digit-limit",
        "sample-seed-range", "budget-phi-descents", "budget-inverses",
        "budget-bijection-D", "budget-stat-gaps", "budget-elizalde-equivalence",
        "budget-colored"])
def test_exit_codes_in_a_fresh_process(argv, code, err):
    # the budget error class lives in a module the CLI imports lazily
    res = fresh("-m", "cyclic_descents.cli", *argv)
    assert res.returncode == code and res.stderr.startswith(err), res.stderr
    assert res.stdout == ""
