"""Indicial equation of a family: exact coefficients and high-precision roots.

The indicial polynomial is

    p(lambda) = lambda (lambda+1) ... (lambda+b-1)  -  (b+kappa)(b+kappa-1) ... (1+kappa)
              = (lambda)_b - (1+kappa)_b

with kappa the unified family parameter.  (lambda)_b has integer (Stirling)
coefficients, `rising_coeffs`, and only the constant (1+kappa)_b is
rational; the exact coefficients, the exact value and the residuals all
read that one definition.  lambda = 1 + kappa is always a root (the two
products then coincide term by term); it is kept exact and checked by
exact evaluation.  The other b-1 roots are found from the product form of
p, never from its expanded coefficients, which reach (b+kappa)! and ruin
any double-precision solve:

* an Aberth-Ehrlich iteration in double precision finds all of them at
  once, with the Newton ratio p/p' = (1 - prod_k (1+kappa+k)/(lambda+k))
  / harmonic_diff(lambda, b), a product of bounded ratios;
* each root in the closed upper half-plane is polished by Newton on the
  factor-by-factor product in fixed point on Python integers,
  z = (x + iy) / 2^P, at doubling precision up to P = ceil(dps log2 10)
  bits with dps = max(50, 3b + 30); the lower half-plane roots are their
  exact conjugates.  No mpmath arithmetic runs in the solve: `roots_mp`
  is made from the fixed-point values at the end.

Every root is then accepted only if its residual on the expanded
polynomial, by fixed-point Horner at P bits, is at most RESIDUAL_TOL, and
the roots are pairwise SEPARATION_TOL apart and clear of the poles
0, -1, ..., -(b-1) of harmonic_diff.  Any failure raises ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import families
from .families import FamilySpec
from .trees import check_count

RESIDUAL_TOL = 1e-10
SEPARATION_TOL = 1e-8


@lru_cache(maxsize=None, typed=True)  # typed: a cached 1 must not answer for True
def rising_coeffs(b: int) -> tuple[int, ...]:
    """Integer coefficients of (lambda)_b, ascending by power.

    They are the unsigned Stirling numbers of the first kind [b, i]; with the
    rational constant (1+kappa)_b they are the one definition of p that the
    exact checks and the residuals read.
    """
    b = check_count(b, "capacity bound b")
    coeffs = [1]
    for i in range(b):  # multiply by (lambda + i)
        coeffs = [i * c + d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _rising(x: Fraction, b: int) -> Fraction:
    """(x)_b = x (x+1) ... (x+b-1), exactly."""
    u, v = x.numerator, x.denominator
    return Fraction(math.prod(u + k * v for k in range(b)), v ** b)


def indicial_coeffs(b: int, kap) -> list[Fraction]:
    """Exact coefficients of p(lambda), ascending by power (monic, degree b)."""
    coeffs = [Fraction(c) for c in rising_coeffs(b)]
    coeffs[0] -= _rising(1 + Fraction(kap), b)
    return coeffs


def indicial_value(b: int, kap, lam) -> Fraction:
    """p(lam), exactly, by Horner on the Stirling coefficients of (lambda)_b."""
    acc = Fraction(0)
    for c in reversed(rising_coeffs(b)):
        acc = acc * lam + c
    return acc - _rising(1 + Fraction(kap), b)


def _bits(dps: int) -> int:
    """Fraction bits of a fixed-point number carrying dps decimal digits."""
    return math.ceil(dps * math.log2(10))


def _fixed(x, bits: int) -> int:
    """floor(x * 2^bits), exactly, for a float or a Fraction x."""
    n, d = x.as_integer_ratio()
    return (n << bits) // d


@dataclass(frozen=True)
class IndicialRoots:
    b: int
    kappa: Fraction
    lambda1: Fraction            # the principal root 1 + kappa, exact
    roots: tuple                 # all b roots as complex, sorted by (-Re, -Im)
    roots_mp: tuple              # the same roots at working precision
    residuals: tuple             # |p(root)| evaluated at working precision

    def second_real_part(self) -> float:
        if self.b < 2:
            raise ValueError("no second root for b = 1")
        return self.roots[1].real

    def gap_ratio(self) -> float:
        """Re(lambda_2) / lambda_1, the quantity that drives the urn phase."""
        return self.second_real_part() / float(self.lambda1)


def _newton_steps(z, shifted, b: int) -> np.ndarray:
    """Newton corrections p/p' = (1 - P) / H at every z, in double precision.

    P = prod_k (1+kappa+k)/(z+k) and H = harmonic_diff(z, b).  P is formed
    as the exponential of a sum of log-ratios, and where |P| > 1 the step is
    taken from 1/P instead, so nothing overflows at any b.
    """
    ks = np.arange(b)
    log_p = np.log(shifted[None, :] / (z[:, None] + ks)).sum(axis=1)
    harm = (1.0 / (z[:, None] + ks)).sum(axis=1)
    small = log_p.real <= 0
    p_or_q = np.exp(np.where(small, log_p, -log_p))
    return np.where(small, (1 - p_or_q) / harm, (p_or_q - 1) / (p_or_q * harm))


def _aberth(b: int, lam1: float) -> np.ndarray:
    """The b-1 roots of p other than lam1, to double precision.

    Aberth-Ehrlich iteration (Aberth 1973) on all roots at once, with the
    exact root lam1 held fixed in the repulsion sum, started on a circle
    about the mean of the sought roots.
    """
    m = b - 1
    shifted = lam1 + np.arange(b, dtype=float)   # 1 + kappa + k
    centre = (-b * (b - 1) / 2 - lam1) / m
    radius = lam1 - centre
    # the angular offset keeps every start off the real axis and its poles
    z = centre + radius * np.exp(1j * (2 * np.pi * np.arange(m) / m + 0.5 / m + 0.25))
    for _ in range(500):
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repel = (1.0 / diff).sum(axis=1) + 1.0 / (z - lam1)
            step = _newton_steps(z, shifted, b)
            step = step / (1 - step * repel)
        if not np.all(np.isfinite(step)):
            break
        z = z - step
        if np.all(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(z))):
            return z
    raise ArithmeticError(f"Aberth iteration did not converge for b={b}, lambda1={lam1}")


def _polish(x: float, y: float, const: Fraction, b: int, dps: int) -> tuple[int, int]:
    """Newton on the product form in fixed point, at doubling precision ending at dps.

    z = (x + iy) / 2^bits on Python integers, and p = D - const with
    D = z (z+1) ... (z+b-1); D and D' are built factor by factor, so a step
    costs 2b products and one division.  A complex step n/e is
    (n conj(e)) / |e|^2.  A real start is the y = 0 case: every imaginary
    term is then exactly 0, and ((dr er) << bits) // er^2 equals
    (dr << bits) // er, so the iterate stays on the real line.
    Returns the fixed-point (x, y) at _bits(dps).
    """
    precisions = [dps]
    while precisions[-1] > 30:
        precisions.append(precisions[-1] // 2 + 1)
    ladder = [_bits(prec) for prec in precisions[::-1] + [dps]]
    bits = ladder[0]
    x, y = _fixed(x, bits), _fixed(y, bits)
    for new in ladder:
        x, y, bits = x << (new - bits), y << (new - bits), new
        one = 1 << bits
        c = _fixed(const, bits)
        dr, di, er, ei = one, 0, 0, 0  # D and D'
        for k in range(b):
            t = x + k * one
            er, ei = ((er * t - ei * y) >> bits) + dr, ((er * y + ei * t) >> bits) + di
            dr, di = (dr * t - di * y) >> bits, (dr * y + di * t) >> bits
        dr -= c
        norm = er * er + ei * ei
        x, y = (x - ((dr * er + di * ei) << bits) // norm,
                y - ((di * er - dr * ei) << bits) // norm)
    return x, y


def _residual(stirling: tuple, c: int, x: int, y: int, bits: int) -> float:
    """|p(z)| at z = (x + iy) / 2^bits, by fixed-point Horner on the expanded
    polynomial, whose constant (1+kappa)_b is c / 2^bits."""
    vr = vi = 0
    for s in reversed(stirling):
        vr, vi = ((vr * x - vi * y) >> bits) + (s << bits), (vr * y + vi * x) >> bits
    one = 1 << bits
    return abs(complex((vr - c) / one, vi / one))


def indicial_roots(b: int, kap) -> IndicialRoots:
    b = check_count(b, "capacity bound b")
    kap = Fraction(kap)
    lam1 = 1 + kap
    if indicial_value(b, kap, lam1) != 0:
        raise ArithmeticError(f"1 + kappa = {lam1} is not an exact root for b={b}")
    stirling = rising_coeffs(b)
    const = _rising(lam1, b)
    dps = max(50, 3 * b + 30)
    bits = _bits(dps)
    c = _fixed(const, bits)
    found = [(_fixed(lam1, bits), 0)]
    upper = []
    if b > 1:
        approx = _aberth(b, float(lam1))
        # p has real coefficients: refine the real roots on the real line
        # and the upper half-plane roots, and conjugate those for the rest
        scale = np.maximum(1.0, np.abs(approx))
        real = approx[np.abs(approx.imag) <= 1e-6 * scale].real
        upper = approx[approx.imag > 1e-6 * scale]
        if 2 * len(upper) + len(real) != b - 1:
            raise ArithmeticError(f"roots for b={b}, kappa={kap} are not "
                                  "closed under conjugation")
        found += [_polish(float(x), 0.0, const, b, dps) for x in real]
    # (x, y, residual), a conjugate taking its partner's residual
    fixed = [(x, y, _residual(stirling, c, x, y, bits)) for x, y in found]
    for w in upper:
        x, y = _polish(w.real, w.imag, const, b, dps)
        res = _residual(stirling, c, x, y, bits)
        fixed += [(x, y, res), (x, -y, res)]
    fixed.sort(key=lambda t: (-t[0], -t[1]))
    one = 1 << bits
    roots = tuple(complex(x / one, y / one) for x, y, _ in fixed)
    residuals = tuple(res for _, _, res in fixed)
    with mp.workdps(dps):
        roots_mp = tuple(mp.mpc(mp.ldexp(x, -bits), mp.ldexp(y, -bits))
                         for x, y, _ in fixed)
    if max(residuals) > RESIDUAL_TOL:
        raise ArithmeticError(f"root residual {max(residuals):.3e} exceeds {RESIDUAL_TOL}")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= SEPARATION_TOL:
                raise ArithmeticError(f"multiple root near {roots[i]}")
        for k in range(b):  # poles of the harmonic-difference factor
            if abs(roots[i] + k) <= SEPARATION_TOL:
                raise ArithmeticError(f"root {roots[i]} collides with pole {-k}")
    return IndicialRoots(b, kap, lam1, roots, roots_mp, residuals)


def family_roots(spec: FamilySpec) -> IndicialRoots:
    return indicial_roots(spec.b, families.kappa(spec))


def harmonic_diff(lam, b: int):
    """H(lam + b - 1) - H(lam - 1) = sum_{k=0}^{b-1} 1 / (lam + k).

    Exact for Fraction input, complex otherwise.
    """
    b = check_count(b, "capacity bound b")
    if isinstance(lam, (Fraction, int)):
        lam = Fraction(lam)
        return sum((Fraction(1) / (lam + k) for k in range(b)), Fraction(0))
    out = 0j
    for k in range(b):
        if abs(lam + k) < 1e-14:
            raise ZeroDivisionError(f"harmonic difference has a pole at {-k}")
        out += 1 / (lam + complex(k))
    return out

