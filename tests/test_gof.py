"""Goodness-of-fit statistics: chi-square, KS, and mean bands."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from buckettrees import families
from buckettrees.dist_desc import limit_reference
from buckettrees.dist_k import limit_K, pmf_K_exact
from buckettrees.gof import chi_square, kolmogorov_smirnov, mean_within_sigma
from buckettrees.pmf import Pmf


TWO_THIRDS = Pmf({1: Fraction(2, 3), 2: Fraction(1, 3)})


def test_chi_square_exact_proportions():
    samples = [1] * 400 + [2] * 200
    report = chi_square(samples, TWO_THIRDS)
    assert report.statistic == pytest.approx(0.0)
    assert report.p_value == pytest.approx(1.0)
    assert report.dof == 1


def test_chi_square_worked_example():
    # expected (2/3, 1/3) of 1000; observed (660, 340)
    samples = [1] * 660 + [2] * 340
    report = chi_square(samples, TWO_THIRDS)
    assert report.statistic == pytest.approx(0.2)
    assert report.p_value == pytest.approx(scipy.stats.chi2.sf(0.2, 1))
    assert report.p_value == pytest.approx(0.655, abs=0.001)
    assert report.passed(0.001)


def test_chi_square_rejects_off_support():
    with pytest.raises(ValueError, match="outside the pmf support"):
        chi_square([1, 2, 3], TWO_THIRDS)


def test_chi_square_point_mass_has_too_few_cells():
    with pytest.raises(ValueError, match="fewer than two cells"):
        chi_square([1] * 100, Pmf({1: Fraction(1)}))


def test_chi_square_pools_small_cells():
    # the tail atoms have expected counts below 5 and must be pooled
    pmf = Pmf({0: Fraction(90, 100), 1: Fraction(9, 100),
               2: Fraction(9, 1000), 3: Fraction(1, 1000)})
    samples = [0] * 90 + [1] * 9 + [2] * 1
    report = chi_square(samples, pmf)
    assert report.dof == 1  # four support points pooled down to two cells


def test_chi_square_pooled_cells_at_both_ends():
    # expected counts 3,3,3,40,43,3,3,2 pool left to right into {0,1}, {2,3},
    # {4}, {5,6} and the remainder {7} joins the last cell: 6, 43, 43, 8.
    # Pooling from the right would give {0,1,2}, {3}, {4,5}, {6,7} instead.
    pmf = Pmf({v: Fraction(e, 100) for v, e in enumerate([3, 3, 3, 40, 43, 3, 3, 2])})
    counts = [2, 5, 3, 41, 40, 4, 3, 2]
    samples = [v for v, c in enumerate(counts) for _ in range(c)]
    report = chi_square(samples, pmf)
    assert report.dof == 3
    obs, exp = np.array([7, 44, 40, 9]), np.array([6, 43, 43, 8])
    assert report.statistic == pytest.approx(((obs - exp) ** 2 / exp).sum())


def test_chi_square_detects_wrong_distribution():
    samples = [1] * 500 + [2] * 500
    assert not chi_square(samples, TWO_THIRDS).passed(0.001)


def test_ks_calibration():
    rng = np.random.default_rng(0)
    uniform = scipy.stats.uniform.cdf
    report = kolmogorov_smirnov(rng.random(20000), uniform)
    assert report.passed(0.001)
    shifted = rng.random(20000) ** 2
    assert not kolmogorov_smirnov(shifted, uniform).passed(0.001)


def test_ks_p_decreases_with_statistic():
    rng = np.random.default_rng(1)
    base = rng.random(5000)
    uniform = scipy.stats.uniform.cdf
    p_values = [kolmogorov_smirnov(np.clip(base + eps, 0, 1), uniform).p_value
                for eps in (0.0, 0.01, 0.03)]
    assert p_values[0] > p_values[1] > p_values[2]


def test_chi_square_p_value_is_scipy_chi2_sf_bitwise():
    # scipy.stats stays the reference for the p-value gof computes itself
    rng = np.random.default_rng(3)
    seen = set()
    for cells in range(2, 14):
        weights = rng.integers(1, 20, cells)
        pmf = Pmf({v: Fraction(int(w), int(weights.sum())) for v, w in enumerate(weights)})
        for n in (60, 600, 6000):
            samples = rng.choice(cells, size=n, p=weights / weights.sum())
            for skew in (0, 1, 3):  # more and more mass moved to the first value
                samples[:skew * n // 40] = 0
                report = chi_square(samples, pmf)
                assert report.p_value == float(scipy.stats.chi2.sf(report.statistic, report.dof))
                seen.add(report.dof)
    exact = chi_square([1] * 400 + [2] * 200, TWO_THIRDS)
    assert exact.statistic == 0 and exact.p_value == scipy.stats.chi2.sf(0.0, 1) == 1.0
    assert seen == set(range(1, 13))


def _mixture_draws(spec, regime, j, size, rng):
    """Draws from the Beta (fixed-j) or Gamma (small-j) mixture of check 7."""
    kap = float(families.kappa(spec))
    law = pmf_K_exact(spec, j) if regime == "fixed-j" else limit_K(spec)
    ells = [ell for ell in law.support if regime != "fixed-j" or ell < j]
    weights = np.array([float(law[ell]) for ell in ells])
    ell = rng.choice(ells, size=size, p=weights / weights.sum())
    return rng.beta(ell + kap, j - ell) if regime == "fixed-j" else rng.gamma(ell + kap)


@pytest.mark.parametrize("n", [2000, 10 ** 5])
@pytest.mark.parametrize("regime, j", [("fixed-j", 4), ("fixed-j", 6), ("small-j", 316)])
def test_ks_matches_scipy_kstest_on_the_check_7_limits(n, regime, j):
    # D is kstest's bitwise; the p-value is 2 * smirnov(n, D), kstest's
    # mode='approx', which never undercuts the exact p and is within 1e-4
    # of it wherever the exact p is below 0.05
    spec = families.recursive(2)
    ref = limit_reference(spec, regime, j=j)
    rng = np.random.default_rng(j + n)
    small = 0
    for shift in np.linspace(0.0, 4.0, 9):
        samples = _mixture_draws(spec, regime, j, n, rng) * (1 + shift / np.sqrt(n))
        exact = scipy.stats.kstest(samples, ref.cdf)
        report = kolmogorov_smirnov(samples, ref.cdf)
        assert report.statistic == float(exact.statistic)
        assert report.p_value >= float(exact.pvalue)
        if exact.pvalue < 0.05:
            small += 1
            assert report.p_value == pytest.approx(float(exact.pvalue), rel=1e-4)
    assert small >= 3


def test_mean_within_sigma():
    rng = np.random.default_rng(2)
    samples = rng.normal(5.0, 1.0, 10000)
    ok, z = mean_within_sigma(samples, 5.0)
    assert ok and abs(z) < 3
    ok, z = mean_within_sigma(samples, 6.0)
    assert not ok and z < -3


def test_mean_within_sigma_constant_samples():
    assert mean_within_sigma(np.full(10, 2.0), 2.0) == (True, 0.0)
    ok, _ = mean_within_sigma(np.full(10, 2.0), 3.0)
    assert not ok


def test_report_string():
    report = chi_square([1] * 400 + [2] * 200, TWO_THIRDS)
    text = str(report)
    assert "chi-square" in text and "p=" in text
