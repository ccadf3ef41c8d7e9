"""Indicial equation of a family: exact coefficients and high-precision roots.

The indicial polynomial is

    p(lambda) = lambda (lambda+1) ... (lambda+b-1)  -  (b+kappa)(b+kappa-1) ... (1+kappa)
              = (lambda)_b - (1+kappa)_b

with kappa the unified family parameter, an int or a Fraction.  (lambda)_b
has integer (Stirling) coefficients, `rising_coeffs`, and only the constant
(1+kappa)_b is rational; the exact coefficients, the exact value and the
residuals all read that one definition.  lambda = 1 + kappa is always a
root (the two products then coincide term by term); it is kept exact and
checked by exact evaluation.  The other b-1 roots are found from the product form of
p, never from its expanded coefficients, which reach (b+kappa)! and ruin
any double-precision solve:

* an Aberth-Ehrlich iteration in double precision finds all of them at
  once, with the Newton ratio p/p' = (1 - prod_k (1+kappa+k)/(lambda+k))
  / harmonic_diff(lambda, b), a product of bounded ratios.  It starts at
  the eigenvalues of p's companion matrix in the Newton basis
  N_k = (lambda)_k, balanced so that every off-diagonal entry is
  |(1+kappa)_b|^(1/b), and then converges in one or two iterations;
* each root in the closed upper half-plane is polished by Newton on the
  product form in fixed point on Python integers, z = (x + iy) / 2^P, at
  doubling precision up to P = ceil(dps log2 10) bits with
  dps = max(50, 3b + 30); the factors pair as
  (z+k)(z+b-1-k) = w + k(b-1-k) with w = z(z+b-1), so p and p' cost about
  b products.  The lower half-plane roots are their exact conjugates.  No
  mpmath arithmetic runs in the solve: `roots_mp` is made from the
  fixed-point values at the end.

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


def _kappa(kap) -> Fraction:
    """kappa as a Fraction of Python ints.  An int, a numpy integer or a
    Fraction is taken; a bool, a float or anything else raises ValueError."""
    if not families._rational(kap):
        raise ValueError(f"kappa must be rational (an int or a Fraction), not kappa={kap!r}")
    return Fraction(int(kap.numerator), int(kap.denominator))


def indicial_coeffs(b: int, kap) -> list[Fraction]:
    """Exact coefficients of p(lambda), ascending by power (monic, degree b)."""
    coeffs = [Fraction(c) for c in rising_coeffs(b)]
    coeffs[0] -= _rising(1 + _kappa(kap), b)
    return coeffs


def indicial_value(b: int, kap, lam) -> Fraction:
    """p(lam), exactly, by Horner on the Stirling coefficients of (lambda)_b.

    With lam = u/v and 1 + kappa = r/s, Horner runs in integers on
    sum_i c_i u^i v^(b-i) = v^b (lam)_b, and the one Fraction at the end
    subtracts s^b (1+kappa)_b over the common denominator (v s)^b.
    """
    stirling = rising_coeffs(b)
    top = 1 + _kappa(kap)
    lam = Fraction(lam)
    u, v = lam.numerator, lam.denominator
    r, s = top.numerator, top.denominator
    acc, vpow = 0, 1
    for c in reversed(stirling):
        acc = acc * u + c * vpow
        vpow *= v
    const = math.prod(r + k * s for k in range(b))
    return Fraction(acc * s ** b - const * v ** b, (v * s) ** b)


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
    inv = 1.0 / (z[:, None] + np.arange(b))
    log_p = np.log(shifted[None, :] * inv).sum(axis=1)
    harm = inv.sum(axis=1)
    small = log_p.real <= 0
    p_or_q = np.exp(np.where(small, log_p, -log_p))
    return np.where(small, (1 - p_or_q) / harm, (p_or_q - 1) / (p_or_q * harm))


def _aberth(b: int, lam1: float) -> np.ndarray:
    """The b-1 roots of p other than lam1, to double precision.

    Aberth-Ehrlich iteration (Aberth 1973) on all roots at once, with the
    exact root lam1 held fixed in the repulsion sum.  It starts at the
    eigenvalues of p's companion matrix in the Newton basis N_k = (lambda)_k:
    lambda N_k = N_{k+1} - k N_k and N_b = C = (1+kappa)_b modulo p, so
    M[k,k] = -k, M[k+1,k] = 1 and M[0,b-1] = C.  Balanced by diag(s^k) with
    s = |C|^(1/b), every off-diagonal entry is s and the corner is
    sign(C) s.  The eigenvalue nearest lam1 is dropped.
    """
    shifted = lam1 + np.arange(b, dtype=float)   # 1 + kappa + k
    s = np.prod(np.abs(shifted) ** (1.0 / b))     # |C|^(1/b), which never overflows
    companion = np.diag(-np.arange(b, dtype=float)) + np.diag(np.full(b - 1, s), -1)
    companion[0, -1] = np.prod(np.sign(shifted)) * s
    z = np.linalg.eigvals(companion).astype(complex)  # real when every eigenvalue is
    z = np.delete(z, np.argmin(np.abs(z - lam1)))
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
    """Newton on the paired product form in fixed point, at doubling precision ending at dps.

    z = (x + iy) / 2^bits on Python integers, and p = D - const with
    D = z (z+1) ... (z+b-1).  The factors pair as
    (z+k)(z+b-1-k) = w + k(b-1-k) with w = z (z+b-1), so D = F(w) m and
    D' = F'(w) (2z+b-1) m + F(w) m', with F(w) = prod_{k < b/2} (w + k(b-1-k)),
    m = z + (b-1)/2 the middle factor for odd b and m = 1 for even b.  F and
    F' are built pair by pair, so a step costs about b products and one
    division.  A complex step n/e is (n conj(e)) / |e|^2.  A real start is
    the y = 0 case: every imaginary term is then exactly 0, and
    ((dr er) << bits) // er^2 equals (dr << bits) // er, so the iterate
    stays on the real line.  Returns the fixed-point (x, y) at _bits(dps).
    """
    precisions = [dps]
    while precisions[-1] > 30:
        precisions.append(precisions[-1] // 2 + 1)
    ladder = [_bits(prec) for prec in precisions[::-1]]
    offsets = [k * (b - 1 - k) for k in range(b // 2)]
    bits = ladder[0]
    x, y = _fixed(x, bits), _fixed(y, bits)
    for new in ladder:
        x, y, bits = x << (new - bits), y << (new - bits), new
        one = 1 << bits
        c = _fixed(const, bits)
        t = x + (b - 1) * one
        wr, wi = (x * t - y * y) >> bits, (x * y + y * t) >> bits  # w = z (z+b-1)
        dr, di, er, ei = one, 0, 0, 0  # F(w) and F'(w)
        for offset in offsets:
            t = wr + offset * one
            er, ei = ((er * t - ei * wi) >> bits) + dr, ((er * wi + ei * t) >> bits) + di
            dr, di = (dr * t - di * wi) >> bits, (dr * wi + di * t) >> bits
        t = 2 * x + (b - 1) * one  # F'(w) w', with w' = 2z + b - 1
        er, ei = (er * t - ei * 2 * y) >> bits, (er * 2 * y + ei * t) >> bits
        if b % 2:  # the middle factor m = z + (b-1)/2, with m' = 1
            t = x + (b - 1) // 2 * one
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
    kap = _kappa(kap)
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
    arr = np.array(roots)
    gaps = np.abs(arr[:, None] - arr[None, :])
    np.fill_diagonal(gaps, np.inf)
    close = np.argwhere(gaps <= SEPARATION_TOL)
    if len(close):
        raise ArithmeticError(f"multiple root near {roots[close[0][0]]}")
    # the poles 0, -1, ..., -(b-1) of the harmonic-difference factor
    hits = np.argwhere(np.abs(arr[:, None] + np.arange(b)) <= SEPARATION_TOL)
    if len(hits):
        i, k = hits[0]
        raise ArithmeticError(f"root {roots[i]} collides with pole {-int(k)}")
    return IndicialRoots(b, kap, lam1, roots, roots_mp, residuals)


def family_roots(spec: FamilySpec) -> IndicialRoots:
    return indicial_roots(spec.b, families.kappa(spec))


def harmonic_diff(lam, b: int):
    """H(lam + b - 1) - H(lam - 1) = sum_{k=0}^{b-1} 1 / (lam + k).

    Exact for Fraction input; complex otherwise, elementwise over an array.
    """
    b = check_count(b, "capacity bound b")
    if isinstance(lam, (Fraction, int)):
        lam = Fraction(lam)
        return sum((Fraction(1) / (lam + k) for k in range(b)), Fraction(0))
    terms = np.asarray(lam, complex)[..., None] + np.arange(b)
    if np.any(np.abs(terms) < 1e-14):
        raise ZeroDivisionError("harmonic difference at one of its poles 0, -1, ..., "
                                f"-{b - 1}")
    return (1 / terms).sum(axis=-1)
