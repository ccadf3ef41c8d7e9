"""Distributions tied to the bucket of a fixed label j: Pólya urn ⇒
Beta-Binomial for its descendants, one birth chain for its saturation
time and out-degree.

Y_{n,j}  counts label j together with all later labels in the subtree of
j's bucket.  tau_{n,j} is the time that bucket saturates (censored at n),
and X_{n,j} is its out-degree.  All finite-n laws here are exact
rationals.  For the named families the total attraction weight of any
subtree with t labels is a*t + c with the same constants as the whole
tree, and c/a = kappa.  So given K_j = ell, j's subtree grows as a
two-colour Pólya urn and Y - 1 ~ BetaBinomial(n - j, ell + kappa, j - ell)
(Johnson & Kotz, *Urn Models*), whose atoms follow a ratio recurrence in
k.  The law given ell + 1 is the law given ell times a ratio of small
integers at each atom, so the law of Y is one conditional law scaled
atom by atom.
The bucket itself lives as a pure-birth chain on g = size - 1 + out-degree,
started at K_j - 1 and moved up by each label it attracts: tau is when g
reaches b - 1, and X = max(0, g_n - b + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import families
from .dist_k import limit_K, pmf_K_exact
from .families import FamilySpec, kappa as family_kappa
from .pmf import Pmf, point_mass
from .trees import check_count


def _urn_atoms(gc: families.GrowthCoeffs, ell: int, j: int, draws: int) -> list:
    """P{Y - 1 = k} for k = 0..draws, `draws` labels after time j, given K_j = ell.

    Scaled by a, the subtree is an urn of a*ell + c white and a*(j - ell)
    black units, and each label adds a to the colour it joins.
    """
    a, white, black = gc.a, gc.a * ell + gc.total_c, gc.a * (j - ell)
    p = Fraction(math.prod(range(black, black + a * draws, a)),
                 math.prod(range(gc.total(j), gc.total(j + draws), a)))
    atoms = [p]
    for k in range(draws):
        p *= Fraction((draws - k) * (white + a * k),
                      (k + 1) * (black + a * (draws - k - 1)))
        atoms.append(p)
    return atoms


def pmf_Y_conditional(spec: FamilySpec, n: int, ell: int, j: int) -> Pmf:
    """P{Y_{n,j} = m} given K_j = ell, in 1..min(j, b), and = j when j <= b."""
    families.require_named(spec)
    n = check_count(n, "n")
    j = check_count(j, "label j", 1, n)
    ell = check_count(ell, "bucket size ell", j if j <= spec.b else 1, min(j, spec.b))
    if j <= spec.b:
        # j sits in the root bucket, whose subtree is the whole tree
        return point_mass(n + 1 - j)
    atoms = _urn_atoms(families.growth_coeffs(spec), ell, j, n - j)
    return Pmf({1 + k: p for k, p in enumerate(atoms)}).check()


def pmf_Y(spec: FamilySpec, n: int, j: int) -> Pmf:
    """The exact law of Y_{n,j}, the conditional laws mixed over K_j.

    With w = a*ell + c white and v = a*(j - ell) black units and d = n - j
    draws, the law given ell + 1 is the law given ell times the ratio
    r_ell(k) = (w + a*k)(v - a) / (w (v + a*(d - k - 1))) at Y - 1 = k.
    So only the law at lo, K_j's least value, is formed, and each of its
    atoms is scaled by sum_ell P{K_j = ell} prod_{lo <= l < ell} r_l(k),
    summed by Horner in ell as one integer fraction over the lcm of
    K_j's denominators.
    """
    families.require_named(spec)
    n = check_count(n, "n")
    j = check_count(j, "label j", 1, n)
    if j <= spec.b:
        return point_mass(n + 1 - j)
    kj = pmf_K_exact(spec, j)
    lo, hi = kj.support[0], kj.support[-1]
    den = math.lcm(*(p.denominator for p in kj.mass.values()))
    weights = [int(kj[ell] * den) for ell in range(hi, lo - 1, -1)]
    gc = families.growth_coeffs(spec)
    a, d = gc.a, n - j
    units = [(a * ell + gc.total_c, a * (j - ell)) for ell in range(hi - 1, lo - 1, -1)]
    mass = {}
    for y, p in pmf_Y_conditional(spec, n, lo, j).mass.items():
        k = y - 1
        num, div = weights[0], 1  # Horner from hi down to lo
        for q, (w, v) in zip(weights[1:], units):
            down = w * (v + a * (d - k - 1))
            num, div = q * div * down + (w + a * k) * (v - a) * num, div * down
        mass[y] = Fraction(p.numerator * num, p.denominator * div * den)
    return Pmf(mass).check()


def _climb(spec: FamilySpec, n: int, j: int, top: int):
    """Yield (s, num, den) for s = j..n, with P{g_s = g} = num[g] / den.

    g = size - 1 + out-degree of j's bucket starts at K_j - 1, and label
    s + 1 joins the bucket, or becomes its child once it is full, with
    probability node_weight(min(g+1, b), max(0, g+1-b)) / total(s).  The
    numerators gain one state per label up to top, which absorbs:
    num[top] / den is P{g_s >= top}.
    """
    b = spec.b
    gc = families.growth_coeffs(spec)
    kj = pmf_K_exact(spec, j)
    den = math.lcm(*(p.denominator for p in kj.mass.values()))
    num = [int(kj[g + 1] * den) for g in range(b)]
    weights = [gc.node_weight(min(g + 1, b), max(0, g + 1 - b)) for g in range(top)]
    for s in range(j, n):
        yield s, num, den
        total = gc.total(s)
        nxt = [q * total for q in num] + [0] * (len(num) <= top)
        for g, (q, w) in enumerate(zip(num, weights)):
            move = q * w
            nxt[g] -= move
            nxt[g + 1] += move
        num, den = nxt, den * total
    yield n, num, den


def pmf_tau(spec: FamilySpec, n: int, j: int) -> Pmf:
    """The exact law of tau_{n,j}: when j's bucket saturates, censored at n.

    The bucket is full once g reaches b - 1, so the chain is followed up
    to that state alone, and P{tau <= s} is its mass at time s < n; the
    rest lands at n, saturated then or censored.
    """
    families.require_named(spec)
    n = check_count(n, "n")
    j = check_count(j, "label j", 1, n)
    mass, done, below = {}, 0, 1  # P{tau < s} = done / below
    for s, num, den in _climb(spec, n, j, spec.b - 1):
        full = num[-1] if s < n else den
        step = full - done * (den // below)
        if step:
            mass[s], done, below = Fraction(step, den), full, den
    return Pmf(mass).check()


def pmf_X(spec: FamilySpec, n: int, j: int) -> Pmf:
    """The exact law of X_{n,j}, the out-degree of j's bucket at time n.

    X = max(0, g_n - b + 1), with the chain followed to its highest state.

    It costs about n times its output: each of its n - j steps touches every
    degree state, a big integer of about (s - j) log s bits at step s.  On
    `recursive:b=2`, j = 100, it took 0.4-0.6 s at n = 1000 and 4.0 s at
    n = 2000 (CPython 3.11 on a 2-CPU Xeon host).
    """
    families.require_named(spec)
    n = check_count(n, "n")
    j = check_count(j, "label j", 1, n)
    b = spec.b
    for _, num, den in _climb(spec, n, j, b - 1 + n - j):
        pass
    return Pmf({x: Fraction(q, den) for x, q in enumerate([sum(num[:b])] + num[b:])
                if q}).check()


# ---------------------------------------------------------------------------
# limit regimes for Y


@dataclass
class LimitReference:
    """A limit law for (rescaled) Y, exposed through its CDF."""

    regime: str
    description: str
    cdf: Callable  # CDF of the limit of the rescaled quantity
    rescale: Callable  # maps (y, n) to the quantity that converges

    def __repr__(self):
        return f"LimitReference({self.regime}: {self.description})"


def limit_reference(spec: FamilySpec, regime: str, j: Optional[int] = None,
                    rho: Optional[Fraction] = None) -> LimitReference:
    """The distributional limit of Y_{n,j} in one of four regimes of j.

    fixed-j:  Y/n        -> mixture of Beta(ell + kappa, j - ell) over K_j
    small-j:  (j/n) Y    -> mixture of Gamma(ell + kappa, 1) over the K limit
    central:  Y - 1      -> mixture of NegBin(ell + kappa, rho) with j ~ rho n
    large-j:  Y          -> 1
    """
    families.require_named(spec)
    kap = float(family_kappa(spec))
    if regime == "fixed-j":
        j = check_count(j, "fixed-j regime's label j", spec.b + 1)
        from scipy.special import betainc
        kj = pmf_K_exact(spec, j)
        parts = [(float(kj[ell]), ell + kap, j - ell) for ell in kj.support if ell < j]
        def cdf(x):
            x = np.clip(x, 0.0, 1.0)
            return sum(w * betainc(a, b, x) for w, a, b in parts)
        return LimitReference(regime, f"Beta mixture over K_{j}", cdf,
                              lambda y, n: y / n)
    if regime == "small-j":
        j = check_count(j, "small-j regime's label j")
        from scipy.special import gammainc
        lim = limit_K(spec)
        parts = [(float(lim[ell]), ell + kap) for ell in lim.support]
        def cdf(x):
            x = np.maximum(x, 0.0)
            return sum(w * gammainc(a, x) for w, a in parts)
        return LimitReference(regime, "Gamma mixture over the K limit", cdf,
                              lambda y, n, jj=j: jj * y / n)
    if regime == "central":
        if rho is None or not 0 < float(rho) < 1:
            raise ValueError("central regime needs a ratio rho in (0, 1)")
        from scipy.special import betainc
        lim = limit_K(spec)
        p = float(rho)
        parts = [(float(lim[ell]), ell + kap) for ell in lim.support]
        def cdf(x):
            # P{NegBin(r, p) <= k} = I_p(r, k + 1), and 0 below the support
            x = np.asarray(x, dtype=float)
            k = np.floor(np.maximum(x, 0.0))
            return np.where(x < 0, 0.0,
                            sum(w * betainc(r, k + 1, p) for w, r in parts))[()]
        return LimitReference(regime, f"negative binomial mixture at rho={rho}",
                              cdf, lambda y, n: y - 1)
    if regime == "large-j":
        return LimitReference(regime, "degenerate at 1",
                              lambda x: 0.0 if x < 1 else 1.0, lambda y, n: y)
    raise ValueError(f"unknown regime {regime!r}")
