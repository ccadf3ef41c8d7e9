"""Indicial equation of a family: exact coefficients and high-precision roots.

The indicial polynomial is

    p(lambda) = lambda (lambda+1) ... (lambda+b-1)  -  (b+kappa)(b+kappa-1) ... (1+kappa)
              = (lambda)_b - (1+kappa)_b

with kappa the unified family parameter.  lambda = 1 + kappa is always a
root (the two products then coincide term by term); it is kept exact and
checked by exact deflation.  The other b-1 roots are found from the
product form of p, never from its expanded coefficients, which reach
(b+kappa)! and ruin any double-precision solve:

* an Aberth-Ehrlich iteration in double precision finds all of them at
  once, with the Newton ratio p/p' = (1 - prod_k (1+kappa+k)/(lambda+k))
  / harmonic_diff(lambda, b), a product of bounded ratios;
* each root in the closed upper half-plane is polished by Newton on the
  factor-by-factor product at doubling precision up to the working
  precision; the lower half-plane roots are their exact conjugates.

Every root is then accepted only if its residual on the expanded
polynomial, evaluated at the working precision, is at most RESIDUAL_TOL,
and the roots are pairwise SEPARATION_TOL apart and clear of the poles
0, -1, ..., -(b-1) of harmonic_diff.  Any failure raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import families
from .families import FamilySpec

RESIDUAL_TOL = 1e-10
SEPARATION_TOL = 1e-8


def indicial_coeffs(b: int, kap) -> list[Fraction]:
    """Exact coefficients of p(lambda), ascending by power (monic, degree b)."""
    if b < 1:
        raise ValueError("b must be >= 1")
    kap = Fraction(kap)
    coeffs = [Fraction(1)]
    for i in range(b):  # multiply by (lambda + i)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            new[j] += c * i
            new[j + 1] += c
        coeffs = new
    const = Fraction(1)
    for i in range(b):
        const *= b + kap - i
    coeffs[0] -= const
    return coeffs


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


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


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


def _polish(z, const, b: int, dps: int):
    """Newton on the product form at doubling precision, ending at dps.

    p = D - const with D = z (z+1) ... (z+b-1); D and D' are built factor by
    factor, so a step costs 2b multiplications and a single division.
    """
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


def indicial_roots(b: int, kap) -> IndicialRoots:
    kap = Fraction(kap)
    lam1 = 1 + kap
    asc = indicial_coeffs(b, kap)
    dps = max(50, 3 * b + 30)
    with mp.workdps(dps):
        roots_mp = [mp.mpc(_mpf(lam1))]
        if b > 1:
            _deflate(asc, lam1)  # lam1 must be an exact root
            approx = _aberth(b, float(lam1))
            # p has real coefficients: refine the real roots on the real line
            # and the upper half-plane roots, and conjugate those for the rest
            scale = np.maximum(1.0, np.abs(approx))
            real = approx[np.abs(approx.imag) <= 1e-6 * scale].real
            upper = approx[approx.imag > 1e-6 * scale]
            if 2 * len(upper) + len(real) != b - 1:
                raise ArithmeticError(f"roots for b={b}, kappa={kap} are not "
                                      "closed under conjugation")
            const = -_mpf(asc[0])  # (1+kappa)_b, as p(0) = -(1+kappa)_b
            roots_mp.extend(mp.mpc(_polish(mp.mpf(x), const, b, dps)) for x in real)
            for w in upper:
                z = _polish(mp.mpc(w), const, b, dps)
                roots_mp.extend((z, mp.conj(z)))
        roots_mp.sort(key=lambda z: (-mp.re(z), -mp.im(z)))
        full_desc = [_mpf(c) for c in reversed(asc)]
        residuals = tuple(float(abs(mp.polyval(full_desc, z))) for z in roots_mp)
        roots = tuple(complex(z) for z in roots_mp)
    if max(residuals) > RESIDUAL_TOL:
        raise ArithmeticError(f"root residual {max(residuals):.3e} exceeds {RESIDUAL_TOL}")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= SEPARATION_TOL:
                raise ArithmeticError(f"multiple root near {roots[i]}")
        for k in range(b):  # poles of the harmonic-difference factor
            if abs(roots[i] + k) <= SEPARATION_TOL:
                raise ArithmeticError(f"root {roots[i]} collides with pole {-k}")
    return IndicialRoots(b, kap, lam1, roots, tuple(roots_mp), residuals)


def family_roots(spec: FamilySpec) -> IndicialRoots:
    return indicial_roots(spec.b, families.kappa(spec))


def harmonic_diff(lam, b: int):
    """H(lam + b - 1) - H(lam - 1) = sum_{k=0}^{b-1} 1 / (lam + k).

    Exact for Fraction input, complex otherwise.
    """
    if isinstance(lam, (Fraction, int)):
        lam = Fraction(lam)
        return sum((Fraction(1) / (lam + k) for k in range(b)), Fraction(0))
    out = 0j
    for k in range(b):
        if abs(lam + k) < 1e-14:
            raise ZeroDivisionError(f"harmonic difference has a pole at {-k}")
        out += 1 / (lam + complex(k))
    return out

