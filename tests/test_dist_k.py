"""The law of K_n: spectral route, exact recursion, limit, node-type link."""

import hashlib
from fractions import Fraction

import pytest

from buckettrees import families, urns, verify
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


# sha256 of the float-hex atoms of pmf_K(spec, n) at n = b + 1, 10^3 and
# 2 * 10^4, recorded while pmf_K still took a roots parameter
_PMF_K_RECORDED = {
    "recursive:b=2": "a5586435d168a75f",
    "recursive:b=3": "02a576da9d948601",
    "ary:b=2,d=2": "5a3a0654a2537e28",
    "ary:b=2,d=3": "23d07e76c5d10e12",
    "port:b=2,alpha=1": "8462e4df32b63cdf",
    "port:b=2,alpha=2": "63df646e348bc6f1",
    "port:b=3,alpha=2": "306cbf08a40cd6f5",
}


@pytest.mark.parametrize("spec", [s for s in verify.family_grid() if s.b >= 2]
                         + [families.port(3, 2)], ids=lambda s: s.describe())
def test_pmf_K_matches_recorded_atoms(spec):
    h = hashlib.sha256()
    for n in (spec.b + 1, 10 ** 3, 2 * 10 ** 4):
        for m, p in sorted(pmf_K(spec, n).mass.items()):
            h.update(f"{n} {m} {float(p).hex()};".encode())
    assert h.hexdigest()[:16] == _PMF_K_RECORDED[spec.describe()]


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
