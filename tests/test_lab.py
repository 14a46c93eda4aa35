"""Exact tables, moments and sampled normality diagnostics."""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from cyclic_descents import domains
from cyclic_descents.domains import (BudgetError, DomainSpec, cardinality,
                                     sample_stat_batch)
from cyclic_descents.lab import (count_range, exact_distribution,
                                 exact_moments, ks_against_normal,
                                 ks_lattice_floor, normality_diagnostics,
                                 refined_descent_table, theoretical_moments)
from cyclic_descents.statistics import stats

from conftest import all_signed, all_cyclic_words, word_to_perm


def brute_counts(perms, stat):
    out = {}
    for p in perms:
        v = getattr(stats(p), stat)
        out[v] = out.get(v, 0) + 1
    return out


@pytest.mark.parametrize("stat", ["des", "maj", "neg", "fmaj"])
def test_exact_distribution_matches_brute_force_on_b3(stat):
    t = exact_distribution(DomainSpec("B", 3), stat)
    assert t.counts == brute_counts(all_signed(3), stat)


@pytest.mark.parametrize("stat", ["des", "fmaj"])
def test_exact_distribution_matches_brute_force_on_cb4(stat):
    t = exact_distribution(DomainSpec("CB", 4), stat)
    want = brute_counts([word_to_perm(w) for w in all_cyclic_words(4)], stat)
    assert t.counts == want


def test_count_range_shards_add_up():
    d = DomainSpec("CB", 5)
    whole = exact_distribution(d, "maj").counts
    merged = {}
    m = cardinality(d)
    for k in range(3):
        part = count_range(d, "maj", m * k // 3, m * (k + 1) // 3, allow_big=True)
        for v, c in part.items():
            merged[v] = merged.get(v, 0) + c
    assert merged == whole


def test_tables_agree_on_any_number_of_workers(monkeypatch):
    # parts add up in the order one sweep first meets each key
    monkeypatch.setattr(domains, "SERIAL_ROWS", 0)
    tables = {}
    for k in (1, 2, 3):
        monkeypatch.setattr(domains, "_cores", lambda: k)
        tables[k] = [
            list(exact_distribution(DomainSpec("CB", 4), "fmaj").counts.items()),
            list(count_range(DomainSpec("CSnr", 4, r=2), "col", 3, 90).items()),
            list(refined_descent_table(DomainSpec("CD", 4)).counts.items())]
    assert tables[2] == tables[1] and tables[3] == tables[1]


def test_count_range_refuses_over_budget_for_every_family():
    with pytest.raises(BudgetError):
        count_range(DomainSpec("CB", 14), "des")
    with pytest.raises(BudgetError):
        refined_descent_table(DomainSpec("CD", 14))
    # a shard within the budget runs on a domain of any size
    part = count_range(DomainSpec("CB", 14), "des", 0, 10)
    assert sum(part.values()) == 10


def test_refined_table_keys_cover_domain():
    t = refined_descent_table(DomainSpec("B", 3))
    assert sum(t.counts.values()) == 48
    assert all(k.n == 3 for k in t.counts)


def test_refined_cyclic_tables_truncate_top_descent():
    t = refined_descent_table(DomainSpec("CD", 4))
    assert sum(t.counts.values()) == 48
    assert all(k.n == 3 for k in t.counts)


def test_exact_moments_are_rational():
    m = exact_moments(exact_distribution(DomainSpec("B", 3), "des"))
    assert m.mean == Fraction(3, 2)
    assert m.variance == Fraction(1, 3)


def test_theoretical_moments_known_values():
    th = theoretical_moments("des", 2)
    assert th.mean == 1 and th.variance == Fraction(1, 4)
    th = theoretical_moments("fmaj", 2)
    assert th.mean == 2 and th.variance == Fraction(54, 36)
    with pytest.raises(ValueError):
        theoretical_moments("neg", 3)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("kind", ["CB", "CD", "CDbar"])
@pytest.mark.parametrize("stat", ["des", "fmaj"])
def test_cyclic_moments_equal_group_closed_forms(n, kind, stat):
    # cyclic degree-n families carry the same first two des/fmaj moments as
    # the signed group of the same degree, exactly, from degree five up
    m = exact_moments(exact_distribution(DomainSpec(kind, n), stat))
    th = theoretical_moments(stat, n)
    assert (m.mean, m.variance) == (th.mean, th.variance)


def _box_product_law(n):
    """Coefficients of prod_{i=1..n} [2i]_q, [m]_q = 1 + q + ... + q^(m-1),
    expanded with plain integer lists."""
    poly = [1]
    for i in range(1, n + 1):
        width = 2 * i
        out = [0] * (len(poly) + width - 1)
        for k, c in enumerate(poly):
            for j in range(k, k + width):
                out[j] += c
        poly = out
    return poly


@pytest.mark.parametrize("n", range(1, 31))
def test_fmaj_closed_form_matches_box_product(n):
    # the flag major index on the signed group of degree n has generating
    # function prod [2i]_q; its moments must be the closed forms
    poly = _box_product_law(n)
    total = sum(poly)
    assert total == 2 ** n * math.factorial(n)
    mean = Fraction(sum(k * c for k, c in enumerate(poly)), total)
    var = Fraction(sum(k * k * c for k, c in enumerate(poly)), total) - mean ** 2
    th = theoretical_moments("fmaj", n)
    assert (mean, var) == (th.mean, th.variance)


def test_small_degrees_do_deviate():
    # the moment identity is a large-degree fact; degree 2 already breaks it
    m = exact_moments(exact_distribution(DomainSpec("CB", 2), "des"))
    th = theoretical_moments("des", 2)
    assert m.mean != th.mean or m.variance != th.variance


def test_ks_distance_of_exact_normal_grid():
    import statistics as st
    zs = [st.NormalDist().inv_cdf((i + 0.5) / 400) for i in range(400)]
    assert ks_against_normal(zs) < 0.005
    assert ks_against_normal([z + 3 for z in zs]) > 0.5


def test_normality_diagnostics_shrink_with_n():
    a = normality_diagnostics("CB", "fmaj", 30, 4000, seed=1)
    assert a.sample_count == 4000
    # raw sample moments sit near the degree-30 closed forms
    th = theoretical_moments("fmaj", 30)
    assert abs(a.mean / float(th.mean) - 1) < 0.02
    assert abs(a.variance / float(th.variance) - 1) < 0.10
    b = normality_diagnostics("CB", "fmaj", 300, 4000, seed=1)
    assert b.ks_distance < 0.05
    assert abs(b.skewness) < 0.2


def test_ks_floor_bounds_des_and_a_shift_still_fails():
    n, count, seed = 800, 10_000, 7
    rep = normality_diagnostics("CB", "des", n, count, seed=seed)
    assert 0 < rep.ks_floor <= rep.ks_distance
    # des has the integer mean n/2, so the widest lattice cell is [mu, mu+1]
    sd = math.sqrt((n + 1) / 12)
    want = (NormalDist().cdf(1 / sd) - 0.5) / 2
    assert rep.ks_floor == pytest.approx(want, rel=1e-9)
    assert rep.ks_floor == pytest.approx(0.0244, abs=1e-4)
    # a sampler off by one unit must fail gate 10's capped excess
    vals = sample_stat_batch(DomainSpec("CB", n), "des", count, seed).astype(float)
    mu = n / 2
    assert ks_against_normal((vals - mu) / sd) == rep.ks_distance
    shifted = ks_against_normal((vals + 1 - mu) / sd)
    assert shifted - ks_lattice_floor(mu, sd) > 0.01


def _ks_by_loop(z):
    # the running maximum over runs of equal sorted samples, one at a time
    vals, counts = np.unique(np.asarray(z, dtype=np.float64), return_counts=True)
    N = len(z)
    best = 0.0
    first = 0
    for v, m in zip(vals.tolist(), counts.tolist()):
        F = 0.5 * math.erfc(-v / math.sqrt(2.0))
        best = max(best, F - first / N, (first + m) / N - F)
        first += m
    return best


@pytest.mark.parametrize("z", [
    np.random.default_rng(1).standard_normal(5000),
    np.random.default_rng(2).integers(-40, 40, 20000) / 9.0,
    (sample_stat_batch(DomainSpec("CB", 200), "fmaj", 3000, seed=4) - 20000.0) / 946.0,
    np.array([0.25]),
    np.array([-3.0, -3.0, -3.0]),
], ids=["distinct", "ties", "fmaj", "single", "one-run"])
def test_ks_against_normal_matches_the_loop(z):
    assert ks_against_normal(z) == _ks_by_loop(z)


def test_ks_lattice_floor_picks_the_widest_cell():
    # half-integer mean: the cell [mu-1/2, mu+1/2] straddles the peak
    sd = 3.0
    want = (NormalDist().cdf(0.5 / sd) - NormalDist().cdf(-0.5 / sd)) / 2
    assert ks_lattice_floor(10.5, sd) == pytest.approx(want, rel=1e-12)


def test_normality_diagnostics_guards():
    with pytest.raises(ValueError):
        normality_diagnostics("CB", "des", 4, 2000, seed=0)
    with pytest.raises(ValueError):
        normality_diagnostics("CB", "des", 10, 10, seed=0)
    with pytest.raises(ValueError):
        normality_diagnostics("CB", "neg", 10, 2000, seed=0)


def _ks_per_sample(z):
    """KS distance with the normal CDF evaluated at every sorted sample."""
    z = np.sort(np.asarray(z, dtype=np.float64))
    N = len(z)
    best = 0.0
    for i in range(N):
        F = 0.5 * math.erfc(-z[i] / math.sqrt(2.0))
        best = max(best, F - i / N, (i + 1) / N - F)
    return best


@pytest.mark.parametrize("stat,n", [("des", 50), ("fmaj", 50), ("des", 800)])
def test_ks_distance_is_exact_over_ties(stat, n):
    # integer statistics repeat values, so the CDF is evaluated once per
    # distinct value; the distance must equal the per-sample loop's bit for bit
    mu, var = (float(v) for v in (theoretical_moments(stat, n).mean,
                                  theoretical_moments(stat, n).variance))
    vals = sample_stat_batch(DomainSpec("CD", n), stat, 20_000, seed=4)
    z = (vals - mu) / math.sqrt(var)
    assert ks_against_normal(z) == _ks_per_sample(z)
    cont = np.random.default_rng(1).standard_normal(5000)
    assert ks_against_normal(cont) == _ks_per_sample(cont)
    assert ks_against_normal([]) == 0.0
