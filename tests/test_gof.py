"""Goodness-of-fit statistics: chi-square, KS, and mean bands."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

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
