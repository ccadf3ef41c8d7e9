"""Goodness-of-fit summaries comparing samples with reference laws.

The p-values come from `scipy.special`, imported where they are computed,
so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pmf import Pmf

MIN_EXPECTED = 5.0  # the least expected count of a chi-square cell

@dataclass(frozen=True)
class GofReport:
    test: str
    statistic: float
    dof: int
    p_value: float
    n_samples: int

    def passed(self, level: float) -> bool:
        return self.p_value >= level

    def __str__(self):
        return (f"{self.test}: stat={self.statistic:.4f} dof={self.dof} "
                f"p={self.p_value:.4g} (n={self.n_samples})")


def chi_square(samples, pmf: Pmf) -> GofReport:
    """Pearson chi-square of integer samples against an exact pmf.

    Support points whose expected count falls below `MIN_EXPECTED` are
    pooled with their neighbour to keep the asymptotics honest.
    """
    samples = np.asarray(samples)
    n = len(samples)
    support = pmf.support
    observed = np.array([(samples == v).sum() for v in support], dtype=float)
    expected = np.array([float(pmf[v]) * n for v in support])
    outside = n - observed.sum()
    if outside:
        raise ValueError(f"{int(outside)} samples fall outside the pmf support")
    # pool left to right: a cell closes once its expected count reaches
    # MIN_EXPECTED, and a short remainder at the right end joins the last cell
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e:
        if exp:
            obs[-1] += acc_o
            exp[-1] += acc_e
        else:
            obs.append(acc_o)
            exp.append(acc_e)
    if len(exp) < 2:
        raise ValueError("fewer than two cells after pooling")
    obs, exp = np.array(obs), np.array(exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(exp) - 1
    from scipy.special import chdtrc  # the chi-square survival function
    return GofReport("chi-square", stat, dof, float(chdtrc(dof, stat)), n)


def kolmogorov_smirnov(samples, cdf) -> GofReport:
    """One-sample two-sided KS test of (already rescaled) samples against a
    CDF callable, which is called once on the sorted samples.

    D = max(D+, D-) as `scipy.stats.kstest` computes it.  The p-value is
    2 * smirnov(n, D), twice the exact one-sided tail (kstest's
    mode='approx'), capped at 1: never below the exact two-sided p, and
    within a relative 1e-4 of it wherever that p is below 0.05.
    """
    from scipy.special import smirnov
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = float(max(d_plus, d_minus))
    return GofReport("ks", d, 0, min(1.0, 2.0 * float(smirnov(n, d))), n)


def mean_within_sigma(samples, exact_mean: float, sigmas: float = 3.0) -> tuple:
    """Check |sample mean - exact mean| <= sigmas * standard error.

    Returns (ok, z) where z is the observed deviation in standard errors.
    """
    samples = np.asarray(samples, dtype=float)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    if se == 0:
        return samples.mean() == exact_mean, 0.0
    z = float((samples.mean() - exact_mean) / se)
    return abs(z) <= sigmas, z
