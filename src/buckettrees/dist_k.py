"""Distribution of K_n, the size of the bucket that received label n.

Two independent routes are provided: a spectral closed form (a sum over
the indicial roots, floating point, O(b^2) per call after the root solve
whatever n is) and an exact rational product form of
the expected bucket-type ball masses: one integer product of the urn's
mean step matrices over one integer (see `mean_type_masses`).  They must
agree, and the second also powers the exact mixture distributions
elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from . import families, urns
from .families import FamilySpec, frac_binom, kappa as family_kappa
from .pmf import Pmf, point_mass
from .spectral import family_roots, harmonic_diff
from .trees import check_count

IMAG_TOL = 1e-10
STIRLING_TERMS = 12  # terms of the log-gamma difference series
STIRLING_FROM = 16   # the series is used only where z >= STIRLING_FROM (|a| + 1)


def pmf_K(spec: FamilySpec, n: int) -> Pmf:
    """P{K_n = m}, m = 1..b, via the spectral closed form.

    The sum runs over the family's own indicial roots, solved on each call.
    Root lambda enters through the ratio (lambda)_{n-1} / (1 + kappa)_{n-1}:
    exactly 1 at the principal root 1 + kappa, and otherwise its first
    factors multiplied out (an exact zero at a root on a non-positive
    integer among them) and the rest as a log-gamma difference by Stirling's
    series (`_log_gamma_shift`).  So a call costs O(b^2) after the root
    solve, whatever n is.
    """
    families.require_named(spec)
    n = check_count(n, "n")
    b = spec.b
    if n <= b:
        return point_mass(n)  # the first b labels all land in the root bucket
    kap = family_kappa(spec)
    roots = family_roots(spec)
    lam = np.array(roots.roots)
    kapf = float(kap)
    principal = np.abs(lam - float(roots.lambda1)).argmin()
    ratio = np.ones(b, complex)
    others = np.arange(b) != principal
    # (lambda)_{n-1} / (1 + kappa)_{n-1} = prod_{k<n} (lambda - 1 + k) / (kappa + k):
    # the factors up to `head` directly, so that kappa + head + 1 is deep enough
    # in Stirling's range for the rest, and every zero factor is among them
    shift = lam[others] - 1 - kapf
    head = min(n - 1, math.ceil(STIRLING_FROM * (np.abs(shift).max(initial=0) + 1) - kapf - 1))
    k = np.arange(1, head + 1)
    ratio[others] = np.prod((lam[others, None] - 1 + k) / (kapf + k), axis=1)
    if head < n - 1:  # Gamma(kappa + n + a) / Gamma(kappa + n) over the same at kappa + head + 1
        ratio[others] *= np.exp(_log_gamma_shift(float(kap + n), shift)
                                - _log_gamma_shift(kapf + head + 1, shift))
    weight = ratio / harmonic_diff(lam, b)
    # C(lambda + b - 1, j) for j = 0..b-1 by recurrence in j
    binom = [np.ones(b, complex)]
    for j in range(b - 1):
        binom.append(binom[-1] * (lam + b - 1 - j) / (j + 1))
    cb = float(frac_binom(b + kap, b))
    mass, rising = {}, 1.0  # rising = C(m - 1 + kappa, m - 1)
    for m in range(1, b + 1):
        val = rising / (b * math.comb(b - 1, m - 1) * cb) * (binom[b - m] @ weight)
        if abs(val.imag) > IMAG_TOL:
            raise ArithmeticError(f"imaginary residue {val.imag:.3e} in P(K={m})")
        mass[m] = val.real
        rising *= (m + kapf) / m
    return Pmf(mass).check()


@lru_cache(maxsize=None)
def _stirling_table() -> np.ndarray:
    """Row k - 1 holds the coefficients of a^i in
    (-1)^(k+1) (B_{k+1}(a) - B_{k+1}) / (k (k + 1)), B the Bernoulli
    polynomials and numbers, k = 1..STIRLING_TERMS."""
    bern = [Fraction(1)]
    for m in range(1, STIRLING_TERMS + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    table = np.zeros((STIRLING_TERMS, STIRLING_TERMS + 2))
    for k in range(1, STIRLING_TERMS + 1):
        for j in range(k + 1):  # B_{k+1}(a) = sum_j C(k+1, j) B_j a^(k+1-j)
            table[k - 1, k + 1 - j] = float((-1) ** (k + 1) * math.comb(k + 1, j)
                                            * bern[j] / (k * (k + 1)))
    table.flags.writeable = False  # one cached array, shared by every call
    return table


def _log_gamma_shift(z: float, a: np.ndarray) -> np.ndarray:
    """log Gamma(z + a) - log Gamma(z), mod 2 pi i, for real z at least
    STIRLING_FROM (|a| + 1), by the difference of the two Stirling series:
    a log z + sum_k (-1)^(k+1) (B_{k+1}(a) - B_{k+1}) / (k (k + 1) z^k).
    z and a stay apart, so a large z never rounds a away (at z = 10^12 one
    ulp of z is 1.2e-4).  Term k is at most about (|a| + 1) / (k (k + 1) 16^k),
    so the first omitted one is near 1e-18 (|a| + 1)."""
    coeffs = _stirling_table().T @ (1 / z) ** np.arange(1, STIRLING_TERMS + 1)
    return a * math.log(z) + np.polynomial.polynomial.polyval(a, coeffs)


def limit_K(spec: FamilySpec) -> Pmf:
    """The limit law of K_n as n grows; exact rational atoms on 1..b."""
    families.require_named(spec)
    b = spec.b
    if b == 1:
        return point_mass(1)
    kap = family_kappa(spec)
    h = harmonic_diff(1 + kap, b)
    cb = frac_binom(b + kap, b)
    mass = {}
    for m in range(1, b + 1):
        mass[m] = (frac_binom(b + kap, b - m) * frac_binom(m - 1 + kap, m - 1)
                   / (frac_binom(Fraction(b), m - 1) * (b - m + 1) * cb * h))
    return Pmf(mass).check()


# ---------------------------------------------------------------------------
# exact rational route via the mean bucket-type masses


def mean_type_masses(spec: FamilySpec, n: int) -> tuple:
    """E[Q_{n,k}] for k = 1..b: expected total attraction weight by bucket type.

    Q_{n,k} is the summed growth weight of all capacity-k buckets at size n,
    the ball count of type k in `urns.build_urn`.  A step from size s draws
    type k with probability Q_k / T_s and adds replacement row k, so the mean
    steps by q <- (T_s I + R^T) q / T_s, and q_n = p(R^T) q_1 / prod_s T_s for
    the integer polynomial p(x) = prod_{s<n} (x + T_s).  By Cayley-Hamilton p
    may be reduced modulo chi(x) = det(x I - R), to degree below b; p mod chi
    and prod_s T_s come from binary splitting, and one division at the end
    gives the exact Fractions.
    """
    n = check_count(n, "n")
    model = urns.build_urn(spec)
    b = model.b
    # chi(x) = x^b + sum_j chi[j] x^j; the closed form is det(R - x I)
    chi = [int(c) * (-1) ** b for c in urns.char_poly_closed(model)[:b]]

    def product(lo, hi):
        """(prod_{lo <= s < hi} (x + T_s) mod chi, ascending, and prod T_s)."""
        if hi - lo > 32:  # multiply halves, so the integers stay balanced
            (u, du), (v, dv) = product(lo, (lo + hi) // 2), product((lo + hi) // 2, hi)
            w = [0] * (2 * b - 1)
            for i, ui in enumerate(u):
                w[i:i + b] = [x + ui * y for x, y in zip(w[i:i + b], v)]
            for top in range(2 * b - 2, b - 1, -1):  # x^b = -sum_j chi[j] x^j
                w[top - b:top] = [x - w[top] * k for x, k in zip(w[top - b:top], chi)]
            return w[:b], du * dv
        r, den = [1] + [0] * (b - 1), 1
        for t in map(model.total, range(lo, hi)):
            r = [t * x + prev - r[-1] * k for x, prev, k in zip(r, [0] + r[:-1], chi)]
            den *= t
        return r, den

    r, den = product(1, n)
    # p(R^T) q_1 = sum_j r_j (R^T)^j q_1, with (R^T)^j q_1 walked in small ints
    v, num = list(model.initial), [0] * b
    for rj in r:
        num = [x + rj * y for x, y in zip(num, v)]
        v = [sum(map(mul, v, col)) for col in zip(*model.replacement)]
    return tuple(Fraction(x, den) for x in num)


def pmf_K_exact(spec: FamilySpec, n: int) -> Pmf:
    """P{K_n = m} as exact rationals, via the mean type masses' exact product."""
    families.require_named(spec)
    n = check_count(n, "n")
    if n == 1 or spec.b == 1:
        return point_mass(1)
    return _k_law(mean_type_masses(spec, n - 1), families.growth_coeffs(spec).total(n - 1))


def _k_law(q, total: int) -> Pmf:
    """P{K = m} from the ball masses q of types 1..b summing to `total`:
    drawing type m - 1 < b fills a bucket to capacity m, and drawing type
    b opens a new bucket, K = 1."""
    b = len(q)
    mass = {m: q[m - 2] / total for m in range(2, b + 1)}
    mass[1] = q[b - 1] / total
    return Pmf({m: p for m, p in mass.items() if p != 0}).check()


def node_type_relation(spec: FamilySpec, n: int, expected_counts: dict) -> Pmf:
    """P{K_{n+1} = m} from the expected capacity counts E[N_{n,k}] at size n.

    expected_counts maps k -> E[N_{n,k}] (exact rationals, k = 1..b).  Label
    n + 1 fills a capacity-(m-1) bucket with probability
    E[N_{n,m-1}] w(m-1, 0) / total(n); it opens a bucket (m = 1) through a
    saturated one, whose weights sum to E[N_{n,b}] w(b, 0) + bdeg (nodes - 1).
    """
    families.require_named(spec)
    n = check_count(n, "n")
    gc = families.growth_coeffs(spec)
    b = spec.b
    e = {k: Fraction(expected_counts.get(k, 0)) for k in range(1, b + 1)}
    q = [e[k] * gc.node_weight(k, 0) for k in range(1, b + 1)]
    q[b - 1] += gc.bdeg * (sum(e.values()) - 1)
    return _k_law(q, gc.total(n))
