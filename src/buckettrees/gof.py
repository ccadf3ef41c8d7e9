"""Goodness-of-fit summaries comparing samples with reference laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.stats

from .pmf import Pmf


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


def chi_square(samples, pmf: Pmf, min_expected: float = 5.0) -> GofReport:
    """Pearson chi-square of integer samples against an exact pmf.

    Support points whose expected count falls below `min_expected` are
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
    # min_expected, and a short remainder at the right end joins the last cell
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
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
    return GofReport("chi-square", stat, dof, float(scipy.stats.chi2.sf(stat, dof)), n)


def kolmogorov_smirnov(samples, cdf) -> GofReport:
    """One-sample KS test of (already rescaled) samples against a CDF callable."""
    samples = np.asarray(samples, dtype=float)
    res = scipy.stats.kstest(samples, cdf)
    return GofReport("ks", float(res.statistic), 0, float(res.pvalue), len(samples))


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
