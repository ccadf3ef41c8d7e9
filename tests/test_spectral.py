"""Indicial polynomials, their roots, and the helper special functions."""

import hashlib
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from buckettrees import spectral, verify
from buckettrees.spectral import (RESIDUAL_TOL, harmonic_diff, indicial_coeffs,
                                  indicial_roots, indicial_value, rising_coeffs)

# the pairs whose roots the solver once handed to mp.polyroots
FORMER_FALLBACKS = ((28, Fraction(-1, 2)), (29, Fraction(-1, 2)),
                    (30, Fraction(-1, 2)), (30, Fraction(-1, 3)))


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _deflate(asc: list[Fraction], root: Fraction) -> list[Fraction]:
    """Divide an ascending-coefficient polynomial by (lambda - root), exactly."""
    desc = list(reversed(asc))
    quot = [desc[0]]
    for c in desc[1:]:
        quot.append(c + root * quot[-1])
    remainder = quot.pop()
    if remainder != 0:
        raise ValueError(f"{root} is not an exact root (remainder {remainder})")
    return list(reversed(quot))


def _expanded_coeffs(b: int, kap) -> list[Fraction]:
    """p's coefficients, ascending, by multiplying out the product in Fractions."""
    coeffs = [Fraction(1)]
    for i in range(b):  # multiply by (lambda + i)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            new[j] += c * i
            new[j + 1] += c
        coeffs = new
    const = Fraction(1)
    for i in range(b):
        const *= b + Fraction(kap) - i
    coeffs[0] -= const
    return coeffs


def _mp_polish(z, const, b: int, dps: int):
    """Newton on the product form in mpmath arithmetic, at doubling precision."""
    precisions = [dps]
    while precisions[-1] > 30:
        precisions.append(precisions[-1] // 2 + 1)
    for prec in precisions[::-1] + [dps]:
        with mp.workdps(prec):
            d, dd = mp.mpf(1), mp.mpf(0)
            for k in range(b):
                term = z + k
                dd = dd * term + d
                d = d * term
            z = z - (d - const) / dd
    return z


def _mp_reference(b, kap):
    """The high-precision half of the solve on mpmath numbers: the same
    Aberth starts, polished by mpmath Newton, with residuals by mp.polyval on
    the exact coefficients.  Returns (float roots, residuals)."""
    kap = Fraction(kap)
    lam1 = 1 + kap
    asc = _expanded_coeffs(b, kap)
    dps = max(50, 3 * b + 30)
    with mp.workdps(dps):
        roots_mp = [mp.mpc(_mpf(lam1))]
        if b > 1:
            _deflate(asc, lam1)
            approx = spectral._aberth(b, float(lam1))
            scale = np.maximum(1.0, np.abs(approx))
            const = -_mpf(asc[0])
            for w, s in zip(approx, scale):
                if abs(w.imag) <= 1e-6 * s:
                    roots_mp.append(mp.mpc(_mp_polish(mp.mpf(w.real), const, b, dps)))
                elif w.imag > 1e-6 * s:
                    z = _mp_polish(mp.mpc(w), const, b, dps)
                    roots_mp.extend((z, mp.conj(z)))
        roots_mp.sort(key=lambda z: (-mp.re(z), -mp.im(z)))
        desc = [_mpf(c) for c in reversed(asc)]
        residuals = [float(abs(mp.polyval(desc, z))) for z in roots_mp]
        return [complex(z) for z in roots_mp], residuals


MP_REFERENCE_PAIRS = ([[(b, k) for b in range(1, 31)] for k in verify.kappa_grid()]
                      + [[(60, Fraction(-1, 2))]])


@pytest.mark.parametrize("pairs", MP_REFERENCE_PAIRS,
                         ids=[f"kappa={p[0][1]},b<={p[-1][0]}" for p in MP_REFERENCE_PAIRS])
def test_fixed_point_roots_match_mpmath_reference(pairs):
    # the integer solve must give the mpmath polish's floats bit for bit
    for b, kap in pairs:
        r = indicial_roots(b, kap)
        roots, residuals = _mp_reference(b, kap)
        assert r.roots == tuple(roots), (b, kap)
        assert max(r.residuals) <= RESIDUAL_TOL and max(residuals) <= RESIDUAL_TOL
        assert [complex(z) for z in r.roots_mp] == roots


def test_a_moved_root_fails_the_residual():
    b, kap = 6, Fraction(1, 2)
    r = indicial_roots(b, kap)
    bits = spectral._bits(max(50, 3 * b + 30))
    c = spectral._fixed(spectral._rising(1 + kap, b), bits)
    desc = [_mpf(x) for x in reversed(_expanded_coeffs(b, kap))]
    for z in r.roots:
        moved = z + 1e-6
        res = spectral._residual(rising_coeffs(b), c, spectral._fixed(moved.real, bits),
                                 spectral._fixed(moved.imag, bits), bits)
        assert res > RESIDUAL_TOL
        with mp.workdps(60):
            assert res == pytest.approx(float(abs(mp.polyval(desc, mp.mpc(moved)))),
                                        rel=1e-12)


def test_stirling_definition_matches_the_expanded_product():
    assert rising_coeffs(4) == (0, 6, 11, 6, 1)
    for kap in verify.kappa_grid():
        for b in range(1, 31):
            assert indicial_coeffs(b, kap) == _expanded_coeffs(b, kap), (b, kap)


def test_indicial_value_is_horner_on_the_coefficients():
    for b in (1, 2, 5, 9):
        for kap in (Fraction(0), Fraction(-1, 3), Fraction(7, 2)):
            coeffs = _expanded_coeffs(b, kap)
            for lam in (Fraction(1, 2), Fraction(-5, 3), Fraction(4), 1 + kap):
                want = sum(c * lam ** i for i, c in enumerate(coeffs))
                assert indicial_value(b, kap, lam) == want


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


@pytest.mark.parametrize("call", [lambda k: indicial_roots(3, k),
                                  lambda k: indicial_coeffs(3, k),
                                  lambda k: indicial_value(3, k, Fraction(1, 2))],
                         ids=["indicial_roots", "indicial_coeffs", "indicial_value"])
@pytest.mark.parametrize("kap", [True, 1.0, 0.5, float("inf"), None, "1/2"])
def test_kappa_must_be_rational(call, kap):
    # a bool is refused, not read as kappa = 1; a float, inf or None alike
    message = f"kappa must be rational (an int or a Fraction), not kappa={kap!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        call(kap)


def test_kappa_takes_numpy_integers():
    assert indicial_roots(3, np.int64(2)).roots == indicial_roots(3, 2).roots
    assert indicial_value(3, np.int64(2), Fraction(1, 3)) == indicial_value(3, 2, Fraction(1, 3))


# kappa < -1, where (1+kappa)_b can be negative or 0, and large |kappa|
DEGENERATE_KAPPAS = (Fraction(-3, 2), Fraction(-5, 2), Fraction(-7, 3), Fraction(-20),
                     Fraction(100))


def test_degenerate_kappas_keep_their_recorded_roots():
    h = hashlib.sha256()
    for kap in DEGENERATE_KAPPAS:
        for b in range(1, 9):
            try:
                roots = indicial_roots(b, kap).roots
            except ArithmeticError:
                h.update(f"{b},{kap}:raises;".encode())
                continue
            text = ",".join(f"{z.real.hex()}{z.imag.hex()}" for z in roots)
            h.update(f"{b},{kap}:{text};".encode())
    assert h.hexdigest()[:16] == "1a92f174ca4ef280"  # recorded before the paired polish


@pytest.mark.parametrize("b, kap", [(b, Fraction(-1)) for b in range(1, 31)]
                         + [(2, Fraction(-3, 2)), (4, Fraction(-5, 2)), (25, Fraction(-20))])
def test_degenerate_pairs_raise_arithmetic_error_without_warnings(b, kap):
    # at kappa = -1 the roots are the poles 0, ..., -(b-1); the others have a
    # double root.  No warning and no LinAlgError may come first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError):
            indicial_roots(b, kap)


def test_paired_factors_give_the_product_and_its_derivative():
    # (z+k)(z+b-1-k) = w + k(b-1-k) with w = z(z+b-1), and for odd b the
    # middle factor m = z + (b-1)/2: D = F(w) m, D' = F'(w) (2z+b-1) m + F(w)
    for b in range(1, 10):
        for z in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(5)):
            factors = [z + k for k in range(b)]
            d = math.prod(factors)
            dd = sum(math.prod(factors[:j] + factors[j + 1:]) for j in range(b))
            w = z * (z + b - 1)
            pairs = [w + k * (b - 1 - k) for k in range(b // 2)]
            f = math.prod(pairs)
            df = sum(math.prod(pairs[:j] + pairs[j + 1:]) for j in range(len(pairs)))
            m, dm = (z + Fraction(b - 1, 2), 1) if b % 2 else (1, 0)
            assert d == f * m, (b, z)
            assert dd == df * (2 * z + b - 1) * m + f * dm, (b, z)


START_PAIRS = ([(b, k) for k in verify.kappa_grid() for b in range(2, 31)]
               + [(b, k) for k in DEGENERATE_KAPPAS[:3] for b in range(2, 9)
                  if (b, k) != (4, Fraction(-5, 2))]
               + [(60, Fraction(-1, 2))])


def test_aberth_converges_in_few_iterations_from_the_companion_start(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return newton_steps(*args)
    newton_steps = spectral._newton_steps
    monkeypatch.setattr(spectral, "_newton_steps", counted)
    worst = {}
    for b, kap in START_PAIRS:
        calls.clear()
        spectral._aberth(b, float(1 + kap))
        worst[b, kap] = len(calls)
    assert max(worst.values()) <= 3, max(worst.items(), key=lambda t: t[1])


def test_harmonic_diff_examples():
    assert harmonic_diff(Fraction(1), 2) == Fraction(3, 2)
    assert harmonic_diff(Fraction(-2), 2) == Fraction(-3, 2)
    assert harmonic_diff(Fraction(1, 2), 2) == Fraction(8, 3)
    assert harmonic_diff(1.0 + 0j, 2) == pytest.approx(1.5)
    with pytest.raises(ZeroDivisionError):
        harmonic_diff(0j, 2)
    lams = np.array([1.0, 0.5 + 2j, -2.5 - 1j])
    want = [sum(1 / (x + k) for k in range(3)) for x in lams]
    assert np.allclose(harmonic_diff(lams, 3), want, rtol=1e-15, atol=0)
    with pytest.raises(ZeroDivisionError):
        harmonic_diff(np.array([1.0, -1.0]), 2)
