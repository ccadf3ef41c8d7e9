"""Distribution of K_n, the size of the bucket that received label n.

Two independent routes are provided: a spectral closed form (a sum over
the indicial roots, floating point) and an exact rational product form of
the expected bucket-type ball masses: one integer product of the urn's
mean step matrices over one integer (see `mean_type_masses`).  They must
agree, and the second also powers the exact mixture distributions
elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import families, urns
from .families import FamilySpec, frac_binom, kappa as family_kappa
from .pmf import Pmf, point_mass
from .spectral import family_roots, harmonic_diff
from .trees import check_count

IMAG_TOL = 1e-10


def pmf_K(spec: FamilySpec, n: int) -> Pmf:
    """P{K_n = m}, m = 1..b, via the spectral closed form.

    The sum runs over the family's own indicial roots, solved on each call;
    each root's ratio is a product of n - 1 factors, so the cost is O(n).
    """
    families.require_named(spec)
    n = check_count(n, "n")
    b = spec.b
    if n <= b:
        return point_mass(n)  # the first b labels all land in the root bucket
    kap = family_kappa(spec)
    roots = family_roots(spec)
    kapf = float(kap)
    cb = float(frac_binom(b + kap, b))
    # per root: C(lam+n-2, n-1) / C(n-1+kappa, n-1), kept as a product of
    # ratios, and the harmonic difference; neither depends on m
    dens = [kapf + k for k in range(1, n)]
    per_root = []
    for lam in roots.roots:
        ratio, shift = complex(1), lam - 1
        for k, den in enumerate(dens, 1):
            ratio *= (shift + k) / den
        per_root.append((lam, ratio, harmonic_diff(lam, b)))
    mass = {}
    for m in range(1, b + 1):
        front = (float(frac_binom(m - 1 + kap, m - 1))
                 / (float(frac_binom(Fraction(b), m - 1)) * (b - m + 1) * cb))
        total = 0j
        for lam, ratio, h in per_root:
            total += ratio * frac_binom(lam + b - 1, b - m) / h
        val = front * total
        if abs(val.imag) > IMAG_TOL:
            raise ArithmeticError(f"imaginary residue {val.imag:.3e} in P(K={m})")
        mass[m] = val.real
    return Pmf(mass).check()


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
