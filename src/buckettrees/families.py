"""Tree families: weight sequences, growth weights and closed-form totals.

Three named families are supported (bucket recursive, (b,d)-ary, and
(b,alpha) plane-oriented), plus a linear generalization that only has a
growth rule.  All weights are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .trees import BucketTree, check_valid

RECURSIVE = "recursive"
ARY = "ary"
PORT = "port"
LINEAR = "linear"

NAMED_KINDS = (RECURSIVE, ARY, PORT)


def require_named(spec: FamilySpec) -> None:
    """Raise ValueError unless spec is one of the named families."""
    if spec.kind not in NAMED_KINDS:
        raise ValueError(f"needs a named family, not {spec.kind!r}")


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    b: int
    d: Optional[int] = None
    alpha: Optional[Fraction] = None
    # linear growth rule: weight proportional to lin_a*(c-1) + lin_beta*deg + lin_m
    lin_a: Optional[Fraction] = None
    lin_beta: Optional[Fraction] = None
    lin_m: Optional[Fraction] = None

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("capacity bound b must be >= 1")
        if self.kind == ARY:
            if self.d is None or self.d < 2:
                raise ValueError("(b,d)-ary family needs integer d >= 2")
        elif self.kind == PORT:
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("(b,alpha)-PORT family needs alpha > 0")
        elif self.kind == LINEAR:
            if self.lin_a is None or self.lin_beta is None or self.lin_m is None:
                raise ValueError("linear family needs parameters a, beta, m")
        elif self.kind != RECURSIVE:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == RECURSIVE:
            return f"recursive:b={self.b}"
        if self.kind == ARY:
            return f"ary:b={self.b},d={self.d}"
        if self.kind == PORT:
            return f"port:b={self.b},alpha={self.alpha}"
        return f"linear:b={self.b},a={self.lin_a},beta={self.lin_beta},m={self.lin_m}"


def recursive(b: int) -> FamilySpec:
    return FamilySpec(RECURSIVE, b)


def ary(b: int, d: int) -> FamilySpec:
    return FamilySpec(ARY, b, d=d)


def port(b: int, alpha) -> FamilySpec:
    return FamilySpec(PORT, b, alpha=Fraction(alpha))


def linear(b: int, a, beta, m) -> FamilySpec:
    return FamilySpec(LINEAR, b, lin_a=Fraction(a), lin_beta=Fraction(beta), lin_m=Fraction(m))


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI form, e.g. 'recursive:b=2', 'ary:b=2,d=3', 'port:b=3,alpha=1/2'."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed family parameter {item!r}")
            params[key.strip()] = value.strip()

    def read(key: str, cast: type = Fraction):  # ValueError naming a key that does not parse
        value = params.pop(key)
        try:
            return cast(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"family parameter {key}={value} is not "
                             f"{'an integer' if cast is int else 'a rational number'}") from None

    try:
        b = read("b", int) if "b" in params else 1
        if kind == RECURSIVE:
            spec = recursive(b)
        elif kind == ARY:
            spec = ary(b, read("d", int))
        elif kind == PORT:
            spec = port(b, read("alpha"))
        elif kind == LINEAR:
            spec = linear(b, read("a"), read("beta"), read("m"))
        else:
            raise ValueError(f"unknown family kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"family {kind!r} is missing parameter {exc.args[0]!r}")
    if params:
        raise ValueError(f"unexpected family parameters {sorted(params)}")
    return spec


def frac_binom(x, m: int):
    """Generalized binomial C(x, m) for integer m: exact for rational x, a
    complex number for complex x (m >= 1), and 0 for m < 0."""
    if m < 0:
        return Fraction(0)
    if not isinstance(x, complex):
        x = Fraction(x)
    out = Fraction(1)
    for i in range(m):
        out *= (x - i) / (i + 1)
    return out


def kappa(spec: FamilySpec) -> Fraction:
    """The unified family parameter driving the indicial equation."""
    if spec.kind == RECURSIVE:
        return Fraction(0)
    if spec.kind == ARY:
        return Fraction(1, spec.d - 1)
    if spec.kind == PORT:
        return Fraction(-1, 1) / (spec.alpha + 1)
    raise ValueError(f"kappa undefined for family kind {spec.kind!r}")


def phi(spec: FamilySpec, k: int) -> Fraction:
    """Degree weight of a saturated bucket with out-degree k."""
    b = spec.b
    if spec.kind == RECURSIVE:
        return Fraction(math.factorial(b - 1) * b ** k, math.factorial(k))
    if spec.kind == ARY:
        d = spec.d
        return (math.factorial(b - 1) * (d - 1) ** (b - 1)
                * frac_binom(Fraction(b - 1) + Fraction(1, d - 1), b - 1)
                * frac_binom(b * (d - 1) + 1, k))
    if spec.kind == PORT:
        a1 = spec.alpha + 1
        return (math.factorial(b - 1) * a1 ** (b - 1)
                * frac_binom(Fraction(b - 1) - 1 / a1, b - 1)
                * frac_binom(a1 * b - 2 + k, k))
    raise ValueError(f"family kind {spec.kind!r} has no combinatorial weights")


def psi(spec: FamilySpec, k: int) -> Fraction:
    """Bucket weight of an unsaturated leaf with capacity k (1 <= k <= b-1)."""
    if not 1 <= k <= spec.b - 1:
        raise ValueError(f"psi index {k} outside 1..{spec.b - 1}")
    if spec.kind == RECURSIVE:
        return Fraction(math.factorial(k - 1))
    if spec.kind == ARY:
        d = spec.d
        return (math.factorial(k - 1) * (d - 1) ** (k - 1)
                * frac_binom(Fraction(k - 1) + Fraction(1, d - 1), k - 1))
    if spec.kind == PORT:
        a1 = spec.alpha + 1
        return (math.factorial(k - 1) * a1 ** (k - 1)
                * frac_binom(Fraction(k - 1) - 1 / a1, k - 1))
    raise ValueError(f"family kind {spec.kind!r} has no combinatorial weights")


def tree_weight(spec: FamilySpec, tree: BucketTree) -> Fraction:
    """Product of node weights: phi over saturated nodes, psi over unsaturated ones."""
    if tree.b != spec.b:
        raise ValueError("tree capacity bound does not match the family")
    check_valid(tree)
    w = Fraction(1)
    for k, d in zip(map(len, tree.labels), tree.degrees):
        w *= phi(spec, d) if k == spec.b else psi(spec, k)
    return w


def total_weight_closed(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form total weight T_n of all size-n increasingly labelled ordered trees."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = Fraction(math.factorial(n - 1))
    if spec.kind == RECURSIVE:
        return f
    if spec.kind == ARY:
        d = spec.d
        return f * (d - 1) ** (n - 1) * frac_binom(Fraction(n - 1) + Fraction(1, d - 1), n - 1)
    if spec.kind == PORT:
        a1 = spec.alpha + 1
        return f * a1 ** (n - 1) * frac_binom(Fraction(n - 1) - 1 / a1, n - 1)
    raise ValueError(f"no closed-form total weight for family kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# growth rule, in denominator-cleared integer form


@dataclass(frozen=True)
class GrowthCoeffs:
    """Integer node weight a*c(v) + bdeg*deg(v) + c.

    Summed over a tree of n labels in N buckets the weights give
    a*n + (bdeg + c)*N + total_c.  For the named families bdeg + c == 0,
    so the total needs the node count only for other linear rules.
    """

    a: int
    bdeg: int
    c: int
    total_c: int

    def node_weight(self, cap: int, deg: int) -> int:
        return self.a * cap + self.bdeg * deg + self.c

    def total(self, n: int, nodes: int = None) -> int:
        if self.bdeg + self.c:
            return self.a * n + (self.bdeg + self.c) * nodes + self.total_c
        return self.a * n + self.total_c


@lru_cache(maxsize=None)  # specs and coefficients are frozen; callers ask once per tree
def growth_coeffs(spec: FamilySpec) -> GrowthCoeffs:
    """Attraction weights of the growth rule with denominators cleared.

    The node weight divided by the total weight reproduces the attraction
    probability of the family's growth process exactly.  Every rule is a
    linear one, a*(c-1) + beta*deg + m, and becomes (A, B, M - A, -B) once
    (a, beta, m) are cleared to integers (A, B, M).  The named families
    are the rules with m = a - beta (recursive (1, 0, 1), ary
    (d-1, -1, d), port (alpha+1, 1, alpha)), so bdeg + c == 0 for them.
    A rule under which some bucket can reach a negative weight raises
    ValueError.
    """
    if spec.kind == RECURSIVE:
        rule = (1, 0, 1)
    elif spec.kind == ARY:
        rule = (spec.d - 1, -1, spec.d)
    elif spec.kind == PORT:
        rule = (spec.alpha + 1, 1, spec.alpha)
    elif spec.kind == LINEAR:
        rule = (spec.lin_a, spec.lin_beta, spec.lin_m)
    else:
        raise ValueError(f"no growth rule for family kind {spec.kind!r}")
    den = math.lcm(*(Fraction(f).denominator for f in rule))
    a, beta, m = (int(f * den) for f in rule)
    gc = GrowthCoeffs(a, beta, m - a, -beta)
    # A bucket fills through capacities 1..b at degree 0, each state reached
    # only if the one before it has a positive weight; a full bucket's weight
    # then moves by bdeg per child, so with bdeg < 0 the first degree whose
    # weight is not positive is the last state it can reach.
    for cap in range(1, spec.b + 1):
        w = gc.node_weight(cap, 0)
        if w <= 0:
            break
    deg = -(w // gc.bdeg) if w > 0 and gc.bdeg < 0 else 0
    if gc.node_weight(cap, deg) < 0:
        raise ValueError(f"growth rule {spec.describe()} reaches a negative weight "
                         f"at capacity {cap}, degree {deg}")
    return gc


def linear_node_weight(spec: FamilySpec, cap: int, deg: int) -> Fraction:
    w = spec.lin_a * (cap - 1) + spec.lin_beta * deg + spec.lin_m
    if w < 0:
        raise ValueError(f"linear weight negative at capacity {cap}, degree {deg}")
    return w
