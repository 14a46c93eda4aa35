"""Exact statistic distributions, refined descent tables, and normality
diagnostics.

Exact paths use big integers and rationals only; floating point appears
solely in the Monte-Carlo normality report.  Tables are plain mappings with
big-integer counts, so shard counts merge associatively and the full table
is invariant under iteration order.  Every exact table is one `_tally` of
a key over the rows: statistic tuples, projected after the merge, or cut
descent masks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING

from .domains import (DomainSpec, _checked_range, _image_rows, _layout,
                      _over_range, cardinality, iterate)
from .statistics import DescentSet, _des_maj_neg, _descent_mask

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

_SIGNED_STATS = ("des", "maj", "neg", "fmaj")
_COLORED_STATS = ("des", "maj", "col", "fmaj")
# a table row costs about half a row of the descent sweep (2.2 us on B(6),
# 3.6 us on CB(7) and 3.7 us on CD(7), against 7.0 us), for _over_range
_ROW_COST = 0.5


@dataclass(frozen=True)
class DistributionTable:
    domain: DomainSpec
    stat: str
    counts: dict

    def __post_init__(self):
        if sum(self.counts.values()) != cardinality(self.domain):
            raise ValueError("counts do not cover the domain")

    def total(self):
        return sum(self.counts.values())


@dataclass(frozen=True)
class RefinedTable:
    domain: DomainSpec
    counts: dict

    def __post_init__(self):
        if sum(self.counts.values()) != cardinality(self.domain):
            raise ValueError("counts do not cover the domain")


@dataclass(frozen=True)
class MomentReport:
    mean: Fraction
    variance: Fraction

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("negative variance")


@dataclass(frozen=True)
class NormalityReport:
    n: int
    domain: str
    stat: str
    sample_count: int
    seed: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float
    ks_floor: float

    def __post_init__(self):
        if self.sample_count <= 0:
            raise ValueError("need samples")
        if not 0 <= self.ks_distance <= 1:
            raise ValueError("distance out of range")
        if not 0 <= self.ks_floor <= 0.5:
            raise ValueError("floor out of range")


def _tally_part(start, stop, d, key):
    """The one worker of the exact tables: the counts of key(row) over a
    checked unrank range, in first-seen order, a row being an element of
    CSnr and the one-line images of any other family."""
    rows = iterate(d, True, start, stop) if d.kind == "CSnr" else _image_rows(d, start, stop, True)
    return Counter(map(key, rows))


def _tally(d, key, start, stop):
    """_tally_part over [start, stop), split over processes by
    domains._over_range.  Counter + keeps each key's first place, so the
    sum lists the keys in the order one sweep first meets them."""
    return sum(_over_range(_tally_part, start, stop, d, key, cost=_ROW_COST), Counter())


def count_range(d: DomainSpec, stat: str, start=0, stop=None, allow_big=False):
    """Statistic counts over an unrank index range; merges associatively
    across shards, and a large range is split over processes by
    domains._over_range.  Refuses ranges over BUDGET_LIMIT unless
    allow_big.  The rows are tallied by their whole statistic tuple, which
    is projected to stat after the merge, keeping the first-seen order."""
    if d.kind == "CSnr":
        from .colored import colored_stats as key

        allowed = _COLORED_STATS
    else:
        key, allowed = _des_maj_neg, _SIGNED_STATS
    if stat not in allowed:
        raise ValueError(f"statistic {stat!r} not defined on {d.kind}")
    pos = allowed.index(stat)
    out = Counter()
    for t, c in _tally(d, key, *_checked_range(d, start, stop, allow_big)).items():
        if len(t) == 3:
            # (des, maj, neg), and fmaj = 2 maj + neg
            t += (2 * t[1] + t[2],)
        out[t[pos]] += c
    return out


def exact_distribution(d: DomainSpec, stat: str, allow_big=False) -> DistributionTable:
    """Exact law of a statistic under the uniform measure, by full iteration."""
    return DistributionTable(d, stat, dict(count_range(d, stat, allow_big=allow_big)))


def refined_descent_table(d: DomainSpec, allow_big=False) -> RefinedTable:
    """Counts keyed by descent set; cyclic domains key on the descent set
    truncated to {0,...,n-2} so they compare against degree n-1 tables.
    A large domain is split over processes by domains._over_range."""
    if d.kind == "CSnr":
        raise ValueError("refined tables cover the signed and plain families")
    m = d.n - 1 if _layout(d)[0] else d.n
    cap = (1 << m) - 1
    out = _tally(d, lambda img: _descent_mask(img) & cap, *_checked_range(d, 0, None, allow_big))
    return RefinedTable(d, {DescentSet(m, k): c for k, c in out.items()})


def exact_moments(t: DistributionTable) -> MomentReport:
    """Exact rational mean and variance of the table's uniform law."""
    from fractions import Fraction

    total = t.total()
    if total == 0:
        raise ValueError("empty table")
    s1 = sum(v * c for v, c in t.counts.items())
    s2 = sum(v * v * c for v, c in t.counts.items())
    mean = Fraction(s1, total)
    return MomentReport(mean, Fraction(s2, total) - mean * mean)


def theoretical_moments(stat: str, n: int) -> MomentReport:
    """Closed-form moments on the signed group of degree n: descents are
    (n/2, (n+1)/12); the flag major index is (n^2/2, (4n^3+6n^2-n)/36).

    The same values hold for the cyclic classes CB, CD and CDbar once
    n >= 4, and not at n = 3: `verify.check_moments(4, 4)` passes and
    `check_moments` refuses a degree below 4.
    """
    from fractions import Fraction

    # a numpy integer would overflow its fixed width in the variance
    n = index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if stat == "des":
        return MomentReport(Fraction(n, 2), Fraction(n + 1, 12))
    if stat == "fmaj":
        return MomentReport(Fraction(n * n, 2),
                            Fraction(4 * n ** 3 + 6 * n ** 2 - n, 36))
    raise ValueError(f"no closed form for {stat!r}")


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_against_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of standardized samples against N(0,1).

    The normal CDF F is evaluated once per distinct value.  Over a run of
    m equal sorted samples at ranks first..first+m-1, F - i/N peaks at the
    first and (i+1)/N - F at the last, so the run contributes F - first/N
    and (first+m)/N - F.  An empty sample, or one holding a NaN, has no
    distance; +-inf lies at a tail of N(0,1)."""
    import numpy as np

    if not len(z):
        raise ValueError("no samples to compare against N(0,1)")
    vals, counts = np.unique(np.asarray(z, dtype=np.float64), return_counts=True)
    # np.unique sorts a NaN last
    if math.isnan(vals[-1]):
        raise ValueError("a NaN sample has no place against N(0,1)")
    N = len(z)
    F = np.fromiter(map(_normal_cdf, vals.tolist()), np.float64, len(vals))
    last = np.cumsum(counts)
    first = last - counts
    return float(max(np.max(F - first / N, initial=0.0),
                     np.max(last / N - F, initial=0.0)))


def ks_lattice_floor(mu: float, sd: float) -> float:
    """Least KS distance to N(0,1) that any sample of an integer-valued
    statistic, standardized as (x - mu) / sd, can reach.

    The empirical CDF is constant on each cell [k, k+1) while the normal
    CDF rises by Phi((k+1-mu)/sd) - Phi((k-mu)/sd) across it, so every
    sample misses by at least half the largest rise, that of the cell
    whose centre is nearest mu.  mu and sd must be finite, and sd > 0."""
    if not (math.isfinite(mu) and math.isfinite(sd) and sd > 0):
        raise ValueError(f"no lattice floor for mean {mu} and sd {sd}")
    k = math.floor(mu - 0.5)
    return max(_normal_cdf((j + 1 - mu) / sd) - _normal_cdf((j - mu) / sd)
               for j in (k, k + 1)) / 2


def normality_diagnostics(kind: str, stat: str, n: int, samples: int,
                          seed: int) -> NormalityReport:
    """Monte-Carlo check of the normal limit on a cyclic signed domain.

    Standardizes by the closed-form moments (valid once n >= 4), then
    reports sample skewness, excess kurtosis, and the KS distance to the
    standard normal beside its lattice floor (see `ks_lattice_floor`): the
    statistics are integer-valued, so only the excess of the distance over
    the floor can shrink with the sample size.  Deterministic given the
    seed."""
    # the report keeps ints, which serialize, whatever integers it is given
    n, samples, seed = index(n), index(samples), index(seed)
    if n < 4:
        raise ValueError("closed-form moments require n >= 4")
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    if stat not in ("des", "fmaj"):
        raise ValueError("diagnostics cover des and fmaj")
    import numpy as np

    from .domains import sample_stat_batch
    d = DomainSpec(kind, n)
    vals = sample_stat_batch(d, stat, samples, seed).astype(np.float64)
    tm = theoretical_moments(stat, n)
    mu = float(tm.mean)
    sd = math.sqrt(float(tm.variance))
    z = (vals - mu) / sd
    m = vals.mean()
    c = vals - m
    m2 = float((c * c).mean())
    m3 = float((c ** 3).mean())
    m4 = float((c ** 4).mean())
    return NormalityReport(
        n=n, domain=kind, stat=stat, sample_count=samples, seed=seed,
        mean=float(m), variance=m2,
        skewness=m3 / m2 ** 1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
        ks_distance=ks_against_normal(z),
        ks_floor=ks_lattice_floor(mu, sd),
    )
