"""Indicial polynomials, their roots, and the helper special functions."""

from fractions import Fraction

import mpmath as mp
import pytest

from buckettrees import verify
from buckettrees.spectral import (harmonic_diff, indicial_coeffs,
                                  indicial_roots, _deflate, _mpf)

# the pairs whose roots the solver once handed to mp.polyroots
FORMER_FALLBACKS = ((28, Fraction(-1, 2)), (29, Fraction(-1, 2)),
                    (30, Fraction(-1, 2)), (30, Fraction(-1, 3)))


def test_indicial_coeffs_recursive_b2():
    # lambda(lambda+1) - 2 = lambda^2 + lambda - 2
    assert indicial_coeffs(2, 0) == [Fraction(-2), Fraction(1), Fraction(1)]


def test_roots_recursive_b2():
    r = indicial_roots(2, 0)
    assert r.lambda1 == 1
    assert r.roots[0] == pytest.approx(1)
    assert r.roots[1] == pytest.approx(-2)


def test_roots_port_b2():
    r = indicial_roots(2, Fraction(-1, 2))
    assert r.lambda1 == Fraction(1, 2)
    assert r.roots[0] == pytest.approx(0.5)
    assert r.roots[1] == pytest.approx(-1.5)


def test_principal_root_is_exact_root():
    for kap in (Fraction(0), Fraction(1, 2), Fraction(-1, 3)):
        for b in (1, 3, 7):
            coeffs = indicial_coeffs(b, kap)
            lam = 1 + kap
            assert sum(c * lam ** i for i, c in enumerate(coeffs)) == 0


def test_residuals_stay_tiny_at_large_b():
    r = indicial_roots(25, Fraction(1, 2))
    assert max(r.residuals) <= 1e-10
    assert len(r.roots) == 25
    assert abs(r.roots[0] - 1.5) <= 1e-12


def _polyroots_reference(b, kap):
    """All b roots by mp.polyroots on the exactly deflated factor."""
    lam1 = 1 + Fraction(kap)
    deflated = _deflate(indicial_coeffs(b, kap), lam1)
    with mp.workdps(max(50, 3 * b + 30)):
        found = mp.polyroots([_mpf(c) for c in reversed(deflated)],
                             maxsteps=200, extraprec=10 * b + 50)
    return [complex(lam1)] + [complex(z) for z in found]


REFERENCE_PAIRS = ([(b, k) for k in verify.kappa_grid() for b in range(2, 13)]
                   + [(28, Fraction(-1, 2))])


@pytest.mark.parametrize("b, kap", REFERENCE_PAIRS,
                         ids=[f"b={b},kappa={k}" for b, k in REFERENCE_PAIRS])
def test_roots_match_polyroots_reference(b, kap):
    roots = indicial_roots(b, kap).roots
    reference = _polyroots_reference(b, kap)
    assert len(roots) == len(reference) == b
    unmatched = list(reference)
    for z in roots:
        nearest = min(unmatched, key=lambda w: abs(w - z))
        assert abs(nearest - z) <= 1e-12, (z, nearest)
        unmatched.remove(nearest)


def test_former_fallback_pairs_never_call_polyroots(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.polyroots called")
    monkeypatch.setattr(mp, "polyroots", refuse)
    for b, kap in FORMER_FALLBACKS:
        r = indicial_roots(b, kap)
        assert len(r.roots) == b and max(r.residuals) <= 1e-10


@pytest.fixture(scope="module")
def grid_roots():
    return {(b, kap): indicial_roots(b, kap)
            for kap in verify.kappa_grid() for b in range(1, 31)}


def test_grid_roots_sorted_with_conjugates_upper_first(grid_roots):
    pairs = 0
    for (b, kap), r in grid_roots.items():
        assert list(r.roots) == sorted(r.roots, key=lambda z: (-z.real, -z.imag))
        for i, z in enumerate(r.roots):
            if z.imag < 0:  # its conjugate comes right before it
                assert r.roots[i - 1] == z.conjugate(), (b, kap, i)
                pairs += 1
    assert pairs == 1050


def test_even_b_has_the_reflected_real_root(grid_roots):
    # (lambda)_b is invariant under lambda -> -(b-1) - lambda for even b,
    # so the reflection -b - kappa of the principal root is a root too
    for (b, kap), r in grid_roots.items():
        if b % 2 == 0:
            target = complex(-b - kap)
            assert min(abs(z - target) for z in r.roots) <= 1e-12, (b, kap)


def test_large_b_roots():
    b = 60
    r = indicial_roots(b, Fraction(-1, 2))
    assert len(r.roots) == b
    assert max(r.residuals) <= 1e-10
    assert abs(sum(r.roots) + b * (b - 1) / 2) <= 1e-9


def test_gap_ratio_orders_roots():
    r = indicial_roots(5, 0)
    assert r.roots[0].real > r.roots[1].real
    assert r.gap_ratio() == pytest.approx(r.roots[1].real / float(r.lambda1))
    with pytest.raises(ValueError):
        indicial_roots(1, 0).second_real_part()


def test_deflate_exactness():
    coeffs = indicial_coeffs(3, 0)
    quotient = _deflate(coeffs, Fraction(1))
    assert len(quotient) == 3  # degree dropped by one
    with pytest.raises(ValueError):
        _deflate(coeffs, Fraction(7))


def test_b_guard():
    with pytest.raises(ValueError):
        indicial_coeffs(0, 0)


def test_harmonic_diff_examples():
    assert harmonic_diff(Fraction(1), 2) == Fraction(3, 2)
    assert harmonic_diff(Fraction(-2), 2) == Fraction(-3, 2)
    assert harmonic_diff(Fraction(1, 2), 2) == Fraction(8, 3)
    assert harmonic_diff(1.0 + 0j, 2) == pytest.approx(1.5)
    with pytest.raises(ZeroDivisionError):
        harmonic_diff(0j, 2)
