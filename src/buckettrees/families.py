"""Tree families: weight sequences, growth weights and closed-form totals.

Three named families are supported (bucket recursive, (b,d)-ary, and
(b,alpha) plane-oriented), plus a linear generalization that only has a
growth rule.  All weights are exact rationals.  A named family is a rate A
and an offset eps, (A, eps) = (1, 0) for recursive, (d - 1, +1) for ary and
(alpha + 1, -1) for port, with kappa = eps/A and the growth rule
a*(c-1) + beta*deg + m = (A, -eps, A + eps); its closed forms are products
of the terms A*i + eps:

    T_n   = prod_{0<i<n} (A*i + eps)                    total weight of size n
    psi_k = T_k                                         unsaturated bucket of k labels
    phi_k = T_b * prod_{i<k} (A*b + eps - eps*i) / k!   saturated bucket, out-degree k
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .trees import BucketTree, check_count, check_valid

RECURSIVE = "recursive"
ARY = "ary"
PORT = "port"
LINEAR = "linear"
# the parameter fields each kind takes besides b
_PARAMETERS = {RECURSIVE: (), ARY: ("d",), PORT: ("alpha",),
               LINEAR: ("lin_a", "lin_beta", "lin_m")}


def _rational(x) -> bool:
    """x is an int or a Fraction; a bool, though an int in Python, is not."""
    return isinstance(x, numbers.Rational) and not isinstance(x, bool)


def require_named(spec: FamilySpec) -> None:
    """Raise ValueError unless spec is one of the named families."""
    if spec.kind == LINEAR:  # FamilySpec refuses any other kind
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
        if not isinstance(self.kind, str) or self.kind not in _PARAMETERS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        for name in sum(_PARAMETERS.values(), ()):
            value = getattr(self, name)
            if value is not None and name not in _PARAMETERS[self.kind]:
                raise ValueError(f"{self.kind} family takes no parameter {name}={value}")
        # stored as ints: a numpy b or d would compute in fixed width, and overflow
        object.__setattr__(self, "b", check_count(self.b, "capacity bound b"))
        if self.kind == ARY:
            object.__setattr__(self, "d", check_count(self.d, "arity d", 2))
        elif self.kind == PORT:
            if not _rational(self.alpha) or self.alpha <= 0:
                raise ValueError("(b,alpha)-PORT family needs rational alpha > 0, "
                                 f"not alpha={self.alpha}")
        elif self.kind == LINEAR:
            for name, value in zip(("a", "beta", "m"), (self.lin_a, self.lin_beta, self.lin_m)):
                if not _rational(value):
                    raise ValueError(f"linear family needs rational {name}, not {name}={value}")

    def describe(self) -> str:
        params = {ARY: f",d={self.d}", PORT: f",alpha={self.alpha}",
                  LINEAR: f",a={self.lin_a},beta={self.lin_beta},m={self.lin_m}"}
        return f"{self.kind}:b={self.b}{params.get(self.kind, '')}"


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
            key = key.strip()
            if key in params:
                raise ValueError(f"family parameter {key} is given twice")
            params[key] = value.strip()

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


def frac_binom(x, m: int) -> Fraction:
    """Generalized binomial C(x, m), exact, for rational x and integer m; 0 for m < 0."""
    if m < 0:
        return Fraction(0)
    x = Fraction(x)
    out = Fraction(1)
    for i in range(m):
        out *= (x - i) / (i + 1)
    return out


def _shape(spec: FamilySpec) -> tuple[Fraction, int]:
    """The rate A and offset eps of a named family."""
    if spec.kind == RECURSIVE:
        return Fraction(1), 0
    if spec.kind == ARY:
        return Fraction(spec.d - 1), 1
    if spec.kind == PORT:
        return Fraction(spec.alpha + 1), -1
    raise ValueError(f"family kind {spec.kind!r} has no combinatorial weights")


def kappa(spec: FamilySpec) -> Fraction:
    """The unified family parameter driving the indicial equation."""
    A, eps = _shape(spec)
    return eps / A


@lru_cache(maxsize=None, typed=True)  # per (spec, k); typed: a cached 1 is no answer for True
def phi(spec: FamilySpec, k: int) -> Fraction:
    """Degree weight of a saturated bucket with out-degree k."""
    k = check_count(k, "out-degree k", 0)
    A, eps = _shape(spec)
    p, q, b = A.numerator, A.denominator, spec.b
    rise = math.prod(p * b + eps * q * (1 - i) for i in range(k))
    return total_weight_closed(spec, b) * Fraction(rise, q ** k * math.factorial(k))


@lru_cache(maxsize=None, typed=True)
def psi(spec: FamilySpec, k: int) -> Fraction:
    """Bucket weight of an unsaturated leaf with capacity k (1 <= k <= b-1)."""
    return total_weight_closed(spec, check_count(k, "capacity k", 1, spec.b - 1))


def check_tree(spec: FamilySpec, tree: BucketTree) -> None:
    """Raise ValueError unless tree is a valid tree with the family's bound b."""
    if tree.b != spec.b:
        raise ValueError(f"tree capacity bound b={tree.b} does not match the family's b={spec.b}")
    check_valid(tree)


def tree_weight(spec: FamilySpec, tree: BucketTree) -> Fraction:
    """Product of node weights: phi over saturated nodes, psi over unsaturated ones."""
    check_tree(spec, tree)
    w = Fraction(1)
    for k, d in zip(map(len, tree.labels), tree.degrees):
        w *= phi(spec, d) if k == spec.b else psi(spec, k)
    return w


def total_weight_closed(spec: FamilySpec, n: int) -> Fraction:
    """Closed-form total weight T_n of all size-n increasingly labelled ordered trees."""
    n = check_count(n, "n")
    A, eps = _shape(spec)
    p, q = A.numerator, A.denominator
    return Fraction(math.prod(p * i + eps * q for i in range(1, n)), q ** (n - 1))


# ---------------------------------------------------------------------------
# growth rule, in denominator-cleared integer form


@dataclass(frozen=True)
class GrowthCoeffs:
    """Integer node weight a*c(v) + bdeg*deg(v) + c.

    Summed over a tree of n labels in N buckets the weights give
    a*n + (bdeg + c)*N + total_c.  A named family has (a, bdeg, c, total_c)
    = q*(A, -eps, eps, eps), q the denominator of A: a bucket of c labels
    and out-degree k weighs q*(A*c + eps - eps*k), the term its next label
    or child adds to psi's or phi's product, and the total q*(A*n + eps)
    needs the node count N only for other linear rules.
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
    linear one, a*(c-1) + beta*deg + m, a named family's being (A, -eps,
    A + eps), and is stored as (a, beta, m - a, -beta) once (a, beta, m)
    are scaled to coprime integers, so rules that differ by a factor grow
    the same trees on the same draws.  A rule under which some bucket can
    reach a negative weight raises ValueError.
    """
    if spec.kind == LINEAR:
        rule = (spec.lin_a, spec.lin_beta, spec.lin_m)
    else:
        A, eps = _shape(spec)
        rule = (A, -eps, A + eps)
    den = math.lcm(*(Fraction(f).denominator for f in rule))
    a, beta, m = (int(f * den) for f in rule)
    g = math.gcd(a, beta, m) or 1  # the all-zero rule stays as it is
    a, beta, m = a // g, beta // g, m // g
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
