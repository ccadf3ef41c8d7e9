"""Finite probability mass functions over integers, exact or floating."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

SUM_TOL = 1e-9  # how far from 1 the masses of a floating pmf may sum

@dataclass(frozen=True)
class Pmf:
    mass: dict  # value (int) -> probability (Fraction or float)

    @property
    def exact(self) -> bool:
        return all(isinstance(p, (Fraction, int)) for p in self.mass.values())

    @property
    def support(self) -> list[int]:
        return sorted(self.mass)

    def total(self):
        return sum(self.mass.values())

    def __getitem__(self, value: int):
        p = self.mass.get(value)
        if p is None:  # the zero's type needs a scan of every atom: only on a miss
            return Fraction(0) if self.exact else 0.0
        return p

    def check(self):
        """Exact pmfs must sum to exactly 1; floating ones within tolerance."""
        if self.exact:
            # sum n_i / d_i = 1 checked in integers, as sum n_i (L / d_i) = L with
            # L = lcm(d_i); a gcd only where a d_i does not divide L so far
            dens = [p.denominator for p in self.mass.values()]
            common = max(dens, default=1)
            for d in dens:
                if common % d:
                    common = math.lcm(common, d)
            if sum(p.numerator * (common // d) for p, d in zip(self.mass.values(), dens)) != common:
                raise ValueError(f"exact pmf sums to {self.total()}, not 1")
        else:
            if any(p < -1e-12 for p in self.mass.values()):
                raise ValueError("negative probability mass")
            if abs(self.total() - 1.0) > SUM_TOL:
                raise ValueError(f"pmf sums to {self.total()}, off by more than {SUM_TOL}")
        return self

    def as_float(self) -> "Pmf":
        return Pmf({v: float(p) for v, p in self.mass.items()})

    def mean(self):
        return sum(v * p for v, p in self.mass.items())

    def max_abs_diff(self, other: "Pmf") -> float:
        keys = set(self.mass) | set(other.mass)
        return max(abs(float(self[v]) - float(other[v])) for v in keys)


def point_mass(value: int) -> Pmf:
    return Pmf({value: Fraction(1)})


def mixture(components: list[tuple]) -> Pmf:
    """Mix (weight, Pmf) pairs; weights need not be pre-normalized."""
    mass: dict = {}
    wsum = Fraction(0)
    for w, pmf in components:
        wsum = wsum + w
        for v, p in pmf.mass.items():
            mass[v] = mass.get(v, Fraction(0)) + w * p
    if wsum != 1:
        mass = {v: p / wsum for v, p in mass.items()}
    return Pmf(mass)
