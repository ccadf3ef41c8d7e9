"""Distributions tied to the bucket of a fixed label j: Pólya urn ⇒
Beta-Binomial; one out-degree pass for every named family.

Y_{n,j}  counts label j together with all later labels in the subtree of
j's bucket.  tau_{n,j} is the time that bucket saturates (censored at n),
and X_{n,j} is its out-degree.  All finite-n laws here are exact
rationals.  For the named families the total attraction weight of any
subtree with t labels is a*t + c with the same constants as the whole
tree, and c/a = kappa.  So given K_j = ell, j's subtree grows as a
two-colour Pólya urn and Y - 1 ~ BetaBinomial(n - j, ell + kappa, j - ell)
(Johnson & Kotz, *Urn Models*); its atoms, and the hit probabilities that
give tau, follow ratio recurrences.  After saturation the bucket attracts
with weight node_weight(b, x) at out-degree x, so one forward pass over
the sizes, fed by the law of tau, gives X.
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
from .pmf import Pmf, mixture, point_mass


def _check_nj(n: int, j: int) -> None:
    if not 1 <= j <= n:
        raise ValueError(f"label j={j} outside 1..{n}")


def _urn_atoms(gc: families.GrowthCoeffs, ell: int, j: int, draws: int,
               count: int) -> list:
    """P{Y - 1 = k} for k < count, `draws` labels after time j, given K_j = ell.

    Scaled by a, the subtree is an urn of a*ell + c white and a*(j - ell)
    black units, and each label adds a to the colour it joins.
    """
    a, white, black = gc.a, gc.a * ell + gc.total_c, gc.a * (j - ell)
    p = Fraction(math.prod(range(black, black + a * draws, a)),
                 math.prod(range(gc.total(j), gc.total(j + draws), a)))
    atoms = [p]
    for k in range(min(count, draws + 1) - 1):
        p *= Fraction((draws - k) * (white + a * k),
                      (k + 1) * (black + a * (draws - k - 1)))
        atoms.append(p)
    return atoms


def pmf_Y_conditional(spec: FamilySpec, n: int, ell: int, j: int) -> Pmf:
    """P{Y_{n,j} = m} given that j's bucket had ell labels at time j."""
    families.require_named(spec)
    _check_nj(n, j)
    if not 1 <= ell <= min(j, spec.b):
        raise ValueError(f"bucket size ell={ell} impossible at time {j}")
    if j <= spec.b:
        # j sits in the root bucket, whose subtree is the whole tree
        return point_mass(n + 1 - j)
    atoms = _urn_atoms(families.growth_coeffs(spec), ell, j, n - j, n - j + 1)
    return Pmf({1 + k: p for k, p in enumerate(atoms)}).check()


def pmf_Y(spec: FamilySpec, n: int, j: int) -> Pmf:
    """The exact law of Y_{n,j}, mixing the conditional laws over K_j."""
    families.require_named(spec)
    _check_nj(n, j)
    if j <= spec.b:
        return point_mass(n + 1 - j)
    kj = pmf_K_exact(spec, j)
    comps = [(kj[ell], pmf_Y_conditional(spec, n, ell, j))
             for ell in kj.support]
    return mixture(comps).check()


def pmf_tau(spec: FamilySpec, n: int, j: int) -> Pmf:
    """The exact law of tau_{n,j}: when j's bucket saturates, censored at n.

    While unsaturated, j's bucket has no children, so its subtree is the
    bucket itself and it holds b - 1 labels exactly when Y = b - K_j.  At
    size s that has a probability with a ratio recurrence in s, and label
    s + 1 then fills the bucket with probability node_weight(b-1, 0)/total(s).
    """
    families.require_named(spec)
    _check_nj(n, j)
    b = spec.b
    if j <= b:
        return point_mass(min(b, n))
    gc = families.growth_coeffs(spec)
    a, fill = gc.a, gc.node_weight(b - 1, 0)
    kj = pmf_K_exact(spec, j)
    mass = {j: kj[b]} if kj[b] else {}
    tail = Fraction(0)  # P{never saturated by n}
    for ell in range(1, b):
        p_ell = kj[ell]
        if not p_ell:
            continue
        k, white, black = b - ell - 1, a * ell + gc.total_c, a * (j - ell)
        # P{Y_s = b - ell} first at s = j + k, when all k labels joined
        hit = Fraction(math.prod(range(white, white + a * k, a)),
                       math.prod(range(gc.total(j), gc.total(j + k), a)))
        for s in range(j + k, n):
            mass[s + 1] = (mass.get(s + 1, Fraction(0))
                           + p_ell * hit * Fraction(fill, gc.total(s)))
            d = s - j
            hit *= Fraction((d + 1) * (black + a * (d - k)), (d + 1 - k) * gc.total(s))
        tail += p_ell * sum(_urn_atoms(gc, ell, j, n - j, b - ell))
    if tail:
        mass[n] = mass.get(n, Fraction(0)) + tail
    return Pmf(mass).check()


def pmf_X(spec: FamilySpec, n: int, j: int) -> Pmf:
    """The exact law of X_{n,j}, the out-degree of j's bucket at time n.

    One forward pass over the sizes s carries P{tau <= s, X_s = x} as
    integer numerators over a common denominator: saturation at s adds
    P{tau = s} at x = 0, and label s + 1 joins as a child with probability
    node_weight(b, x) / total(s).  The mass of tau at n covers both
    saturation at n and censoring; X = 0 either way.
    """
    families.require_named(spec)
    _check_nj(n, j)
    b = spec.b
    gc = families.growth_coeffs(spec)
    tau = pmf_tau(spec, n, j).mass
    den = math.lcm(*(p.denominator for p in tau.values()))
    num = [0]
    for s in range(min(b, n), n + 1):
        p = tau.get(s)
        if p:
            num[0] += p.numerator * (den // p.denominator)
        if s == n:
            break
        total = gc.total(s)
        nxt = [0] * (len(num) + 1)
        for x, q in enumerate(num):
            move = q * gc.node_weight(b, x)
            nxt[x] += q * total - move
            nxt[x + 1] = move
        num, den = nxt, den * total
    return Pmf({x: Fraction(q, den) for x, q in enumerate(num) if q}).check()


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
        if j is None or j <= spec.b:
            raise ValueError("fixed-j regime needs a fixed label j > b")
        from scipy.special import betainc
        kj = pmf_K_exact(spec, j)
        parts = [(float(kj[ell]), ell + kap, j - ell) for ell in kj.support if ell < j]
        def cdf(x):
            x = np.clip(x, 0.0, 1.0)
            return sum(w * betainc(a, b, x) for w, a, b in parts)
        return LimitReference(regime, f"Beta mixture over K_{j}", cdf,
                              lambda y, n: y / n)
    if regime == "small-j":
        if j is None:
            raise ValueError("small-j regime needs the label j used for sampling")
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
