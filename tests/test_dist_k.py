"""The law of K_n: spectral route, exact recursion, limit, node-type link."""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from buckettrees import dist_k, families, spectral, urns, verify
from buckettrees.dist_k import (limit_K, mean_type_masses, node_type_relation,
                                pmf_K, pmf_K_exact)
from buckettrees.enumeration import exact_statistic_pmf, expected_capacity_counts

GRID = [families.recursive(2), families.recursive(3),
        families.ary(2, 2), families.ary(2, 3),
        families.port(2, 1), families.port(2, 2)]


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.describe())
def test_pmf_K_matches_oracle(spec):
    for n in range(1, 7):
        oracle = exact_statistic_pmf(spec, n, "K")
        assert pmf_K(spec, n).max_abs_diff(oracle) <= 1e-10
        assert pmf_K_exact(spec, n).mass == oracle.mass


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.describe())
def test_spectral_and_recursive_routes_agree(spec):
    for n in (10, 25, 60):
        assert pmf_K(spec, n).max_abs_diff(pmf_K_exact(spec, n)) <= 1e-10


def _assert_within_correction(spec, n):
    """|pmf_K - exact| <= 1e-12 + 1e-8 |exact - limit| on every atom: a bound
    relative to the finite-n correction, which the non-principal roots give."""
    fast, exact, limit = pmf_K(spec, n), pmf_K_exact(spec, n), limit_K(spec)
    for m in range(1, spec.b + 1):
        err = abs(fast[m] - float(exact[m]))
        allowed = 1e-12 + 1e-8 * abs(float(exact[m] - limit[m]))
        assert err <= allowed, f"{spec.describe()} n={n} m={m}: off by {err:.3e} > {allowed:.3e}"


@pytest.mark.parametrize("spec", [s for s in verify.family_grid() if s.b >= 2]
                         + [families.port(3, 2)], ids=lambda s: s.describe())
def test_pmf_K_matches_exact_atoms(spec):
    for n in (spec.b + 1, 10 ** 3, 2 * 10 ** 4):
        _assert_within_correction(spec, n)


@pytest.mark.parametrize("b", [3, 5, 10, 20, 30])
def test_pmf_K_within_the_finite_n_correction(b):
    for spec in verify.kind_grid(b):
        for n in (30, 100, 1000):
            _assert_within_correction(spec, n)


def _mp_pmf_K(spec, ns):
    """The spectral closed form at 50 digits, each root's ratio as
    mpmath's rising factorials (lambda)_{n-1} / (1 + kappa)_{n-1}."""
    b, kap = spec.b, families.kappa(spec)
    with mp.workdps(50):
        k = mp.mpf(kap.numerator) / kap.denominator
        cb = mp.binomial(b + k, b)
        per_root = [(lam, [mp.binomial(lam + b - 1, b - m) for m in range(1, b + 1)],
                     mp.fsum(1 / (lam + j) for j in range(b)))
                    for lam in spectral.family_roots(spec).roots_mp]
        fronts = [mp.binomial(m - 1 + k, m - 1) / (mp.binomial(b, m - 1) * (b - m + 1) * cb)
                  for m in range(1, b + 1)]
        out = {}
        for n in ns:
            total = [mp.mpc(0)] * b
            for lam, binoms, h in per_root:
                ratio = mp.rf(lam, n - 1) / mp.rf(k + 1, n - 1) / h
                total = [t + ratio * c for t, c in zip(total, binoms)]
            out[n] = [float(mp.re(f * t)) for f, t in zip(fronts, total)]
    return out


@pytest.mark.parametrize("spec", [families.recursive(2), families.recursive(10),
                                  families.recursive(30), families.ary(2, 2),
                                  families.port(3, 2), families.port(30, 1)],
                         ids=lambda s: s.describe())
def test_pmf_K_matches_mpmath_at_large_n(spec):
    # ary:b=2,d=2 has the root -3 and recursive:b=10, b=30 the root -b: exact
    # zero factors; at n = 10^12 the principal root's ratio must stay exactly 1
    ns = (10 ** 6, 10 ** 8, 10 ** 12)
    for n, want in _mp_pmf_K(spec, ns).items():
        got = pmf_K(spec, n)
        for m, p in enumerate(want, start=1):
            assert abs(got[m] - p) <= 1e-10, f"n={n} m={m}: {got[m]!r} against {p!r}"


def test_log_gamma_shift_matches_mpmath():
    # from the edge of the series' range, z = STIRLING_FROM (|a| + 1), upwards
    shifts = [0, 1e-3, 0.5, -0.75, -1.9, -3, 3 + 3j, 1 + 2j, 5 - 7j, 20 + 25j, -31 + 0.1j, 40j]
    for a in shifts:
        for scale in (1, 1.5, 10, 10 ** 3, 10 ** 12):
            z = dist_k.STIRLING_FROM * (abs(a) + 1) * scale
            got = dist_k._log_gamma_shift(z, np.array([a]))[0]
            with mp.workdps(50):
                diff = mp.mpc(got) - (mp.loggamma(z + mp.mpc(a)) - mp.loggamma(z))
                diff = abs(mp.mpc(diff.real, (diff.imag + mp.pi) % (2 * mp.pi) - mp.pi))
            assert diff <= 1e-15 * (abs(a) * math.log(z) + 1), f"a={a}, z={z}: off by {diff}"


def test_pmf_K_cost_does_not_grow_with_n():
    spec = families.recursive(30)
    times = {10 ** 3: [], 10 ** 12: []}
    for _ in range(6):  # interleaved, so host noise hits both sizes alike
        for n, seen in times.items():
            t0 = time.perf_counter()
            pmf_K(spec, n)
            seen.append(time.perf_counter() - t0)
    small, large = min(times[10 ** 3]), min(times[10 ** 12])
    assert large <= 2 * small, f"{large:.4f} s at n = 10^12 against {small:.4f} s at 10^3"


def test_pmf_K_example():
    assert pmf_K_exact(families.recursive(2), 4).mass == {
        1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_pmf_K_point_mass_before_saturation():
    spec = families.recursive(3)
    for n in (1, 2, 3):
        assert pmf_K(spec, n).mass == {n: Fraction(1)}


def test_limit_K_recursive_b2_is_zipf():
    lim = limit_K(families.recursive(2))
    assert lim.mass == {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_limit_K_ary_example():
    lim = limit_K(families.ary(2, 3))
    assert lim.mass == {1: Fraction(5, 8), 2: Fraction(3, 8)}


def test_limit_K_is_approached():
    for spec in GRID:
        gap = pmf_K(spec, 5000).max_abs_diff(limit_K(spec).as_float())
        assert gap <= 0.03, f"{spec.describe()}: gap {gap}"


def test_mean_type_masses_sum_to_total():
    for spec in GRID:
        gc = families.growth_coeffs(spec)
        for n in (1, 4, 9):
            assert sum(mean_type_masses(spec, n)) == gc.total(n)


def _inline_mean_type_masses(spec, n):
    """E[Q_{s,k}] for s = 1..n by the mean recursion stepped once per label,
    with its urn rows written out inline: the reference for the product
    form that reads them from the urn model."""
    gc = families.growth_coeffs(spec)
    b = spec.b
    w = [0] + [gc.node_weight(k, 0) for k in range(1, b + 1)]
    q = [Fraction(0)] * (b + 1)
    q[1] = Fraction(w[1])
    out = [tuple(q[1:])]
    for size in range(1, n):
        total = Fraction(gc.total(size))
        delta = [Fraction(0)] * (b + 1)
        for k in range(1, b + 1):
            p = q[k] / total
            if k < b:
                delta[k] -= p * w[k]
                delta[k + 1] += p * w[k + 1]
            else:
                delta[1] += p * w[1]
                delta[b] += p * gc.bdeg
        for k in range(1, b + 1):
            q[k] += delta[k]
        out.append(tuple(q[1:]))
    return out


@pytest.mark.parametrize("spec", verify.family_grid()
                         + [families.recursive(4), families.port(3, 2)],
                         ids=lambda s: s.describe())
def test_mean_type_masses_match_inline_recursion(spec):
    for n, want in enumerate(_inline_mean_type_masses(spec, 200), start=1):
        got = mean_type_masses(spec, n)
        assert got == want and all(type(x) is Fraction for x in got), n


@pytest.mark.parametrize("spec", verify.family_grid() + [families.recursive(10)],
                         ids=lambda s: s.describe())
def test_mean_type_masses_first_two_sizes(spec):
    # one bucket of capacity one, then the first draw is that bucket: row 0 is added
    model = urns.build_urn(spec)
    assert mean_type_masses(spec, 1) == tuple(map(Fraction, model.initial))
    assert mean_type_masses(spec, 2) == tuple(
        Fraction(q + r) for q, r in zip(model.initial, model.replacement[0]))


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.describe())
def test_node_type_relation_matches_enumeration(spec):
    for n in range(1, 6):
        derived = node_type_relation(spec, n, expected_capacity_counts(spec, n))
        assert derived.mass == pmf_K_exact(spec, n + 1).mass


def test_named_family_guard():
    with pytest.raises(ValueError):
        pmf_K(families.linear(2, 1, 0, 1), 4)
    with pytest.raises(ValueError):
        pmf_K_exact(families.recursive(2), 0)
    # n is an integer >= 1, and a bool is none
    for n in (True, 2.5, 0):
        for law in (pmf_K, pmf_K_exact, mean_type_masses):
            with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
                law(families.recursive(2), n)
