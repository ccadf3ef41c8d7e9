"""Distribution of K_n, the size of the bucket that received label n.

Two independent routes are provided: a spectral closed form (a sum over
the indicial roots, floating point) and an exact rational recursion on
the expected bucket-type ball masses.  They must agree, and the second
also powers the exact mixture distributions elsewhere.
"""

from __future__ import annotations

from fractions import Fraction

from . import families, urns
from .families import FamilySpec, frac_binom, kappa as family_kappa
from .pmf import Pmf, point_mass
from .spectral import IndicialRoots, cbinom, family_roots, harmonic_diff

IMAG_TOL = 1e-10


def pmf_K(spec: FamilySpec, n: int, roots: IndicialRoots = None) -> Pmf:
    """P{K_n = m}, m = 1..b, via the spectral closed form."""
    families.require_named(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    b = spec.b
    if n <= b:
        return point_mass(n)  # the first b labels all land in the root bucket
    kap = family_kappa(spec)
    if roots is None:
        roots = family_roots(spec)
    kapf = float(kap)
    cb = float(frac_binom(b + kap, b))
    # per root: C(lam+n-2, n-1) / C(n-1+kappa, n-1), kept as a product of
    # ratios, and the harmonic difference; neither depends on m
    per_root = []
    for lam in roots.roots:
        ratio = complex(1)
        for k in range(1, n):
            ratio *= (lam - 1 + k) / (kapf + k)
        per_root.append((lam, ratio, harmonic_diff(lam, b)))
    mass = {}
    for m in range(1, b + 1):
        front = (float(frac_binom(m - 1 + kap, m - 1))
                 / (float(frac_binom(Fraction(b), m - 1)) * (b - m + 1) * cb))
        total = 0j
        for lam, ratio, h in per_root:
            total += ratio * cbinom(lam + b - 1, b - m) / h
        val = front * total
        if abs(val.imag) > IMAG_TOL:
            raise ArithmeticError(f"imaginary residue {val.imag:.3e} in P(K={m})")
        mass[m] = val.real
    return Pmf(mass).check(tol=1e-9)


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
    the ball count of type k in `urns.urn_model`.  A step draws type k with
    probability Q_k / total and adds replacement row k, so the expectation
    satisfies the exact linear recursion  q <- q + sum_k (q_k / total) R_k.
    """
    model = urns.urn_model(spec)
    rows = [[(i, r) for i, r in enumerate(row) if r] for row in model.replacement]
    q = [Fraction(c) for c in model.initial]
    for size in range(1, n):
        total = model.total(size)
        delta = [0] * model.b
        for qk, row in zip(q, rows):
            p = qk / total  # probability the drawn node has capacity k
            for i, r in row:
                delta[i] += p * r
        q = [x + dx for x, dx in zip(q, delta)]
    return tuple(q)


def pmf_K_exact(spec: FamilySpec, n: int) -> Pmf:
    """P{K_n = m} as exact rationals, via the mean type-mass recursion."""
    families.require_named(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or spec.b == 1:
        return point_mass(1)
    gc = families.growth_coeffs(spec)
    q = mean_type_masses(spec, n - 1)
    total = Fraction(gc.total(n - 1))
    mass = {m: q[m - 2] / total for m in range(2, spec.b + 1)}
    mass[1] = q[spec.b - 1] / total
    return Pmf({m: p for m, p in mass.items() if p != 0}).check()


def node_type_relation(spec: FamilySpec, n: int, expected_counts: dict) -> Pmf:
    """P{K_{n+1} = m} from the expected capacity counts E[N_{n,k}] at size n.

    expected_counts maps k -> E[N_{n,k}] (exact rationals, k = 1..b).  Label
    n + 1 fills a capacity-(m-1) bucket with probability
    E[N_{n,m-1}] w(m-1, 0) / total(n); it opens a bucket (m = 1) through a
    saturated one, whose weights sum to E[N_{n,b}] w(b, 0) + bdeg (nodes - 1).
    """
    families.require_named(spec)
    gc = families.growth_coeffs(spec)
    b = spec.b
    e = {k: Fraction(expected_counts.get(k, 0)) for k in range(1, b + 1)}
    nodes = sum(e.values())
    total = gc.total(n)
    mass = {m: e[m - 1] * gc.node_weight(m - 1, 0) / total for m in range(2, b + 1)}
    mass[1] = (e[b] * gc.node_weight(b, 0) + gc.bdeg * (nodes - 1)) / total
    return Pmf({m: p for m, p in mass.items() if p != 0}).check()
