"""Pólya urns tracking the bucket types of a growing tree.

Ball type k carries the total attraction weight of capacity-k buckets, in
the denominator-cleared integer form, so drawing a ball is exactly the
growth step and the urn is balanced with balance a.  `build_urn` is the
one definition of the urn (initial counts, replacement rows, divisors and
growth coefficients): the vectorized kernel in `montecarlo` steps with its
rows, and `dist_k.mean_type_masses` takes the mean of the same step, as
the exact integer product of the mean step matrices T_s I + R^T.  The
characteristic polynomial of the replacement matrix is the indicial
polynomial p of `spectral` under the affine map
lambda_urn = a * lambda_ind - c, which carries the indicial roots to the
urn's eigenvalues: `char_poly_closed` builds it from p's coefficients, and
`char_poly` checks it on the matrix itself, by Faddeev-LeVerrier in
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import families
from .families import FamilySpec, GrowthCoeffs, kappa as family_kappa
from .grow import _as_rng, _check_draw_bound, _draw_dtype
from .spectral import family_roots, indicial_coeffs
from .trees import NodeCensus, check_count


@dataclass(frozen=True)
class UrnModel:
    spec: FamilySpec
    b: int
    replacement: tuple      # b x b integer matrix; row = type drawn
    initial: tuple          # ball counts at tree size 1
    divisors: tuple         # weight of one capacity-k bucket, k = 1..b
    coeffs: GrowthCoeffs    # the growth rule the urn draws with; rows sum to coeffs.a

    def total(self, n: int) -> int:
        return self.coeffs.total(n)


def build_urn(spec: FamilySpec) -> UrnModel:
    """The bucket-type urn of a named family; b = 1 gives the one-type urn [a]."""
    families.require_named(spec)
    gc = families.growth_coeffs(spec)
    b = spec.b
    w = tuple(gc.node_weight(k, 0) for k in range(1, b + 1))
    rows = [[0] * b for _ in range(b)]
    for k in range(b - 1):  # drawing an unsaturated type promotes one bucket
        rows[k][k] -= w[k]
        rows[k][k + 1] += w[k + 1]
    rows[b - 1][0] += w[0]  # drawing a saturated type spawns a child
    rows[b - 1][b - 1] += gc.bdeg
    if any(sum(row) != gc.a for row in rows):
        raise AssertionError("urn is not balanced")
    initial = (w[0],) + (0,) * (b - 1)
    return UrnModel(spec, b, tuple(map(tuple, rows)), initial, w, gc)


@dataclass
class UrnTrajectory:
    draws: list            # type index (0-based) drawn at each step
    counts: list           # ball counts after each step, counts[0] = initial

    def final(self) -> tuple:
        return tuple(self.counts[-1])


def simulate_urn(model: UrnModel, steps: int, rng) -> UrnTrajectory:
    """One exact trajectory: `steps` draws starting from tree size 1.

    The totals are deterministic, so all `steps` integers are drawn in one
    call, giving the numbers a draw per step would; each type is then
    picked from the running counts with Python ints.  A replacement row
    has at most two nonzero entries, so each type's (index, delta) pairs
    are listed once and a step changes only those counts.
    """
    steps = check_count(steps, "steps", 0)
    gc = model.coeffs
    _check_draw_bound(model.total(steps), model.spec, f"at step {steps}")
    totals = gc.a * np.arange(1, steps + 1, dtype=np.int64) + gc.total_c
    dtype = _draw_dtype(model.total(steps))
    moves = [[(i, delta) for i, delta in enumerate(row) if delta] for row in model.replacement]
    q = list(model.initial)
    counts = [tuple(q)]
    draws = []
    for u in _as_rng(rng).generator.integers(0, totals, dtype=dtype).tolist():
        k = 0
        while u >= q[k]:
            u -= q[k]
            k += 1
        draws.append(k)
        for i, delta in moves[k]:
            q[i] += delta
        counts.append(tuple(q))
    return UrnTrajectory(draws, counts)


def census_counts(model: UrnModel, census: NodeCensus) -> tuple:
    """Ball counts of the urn read off a tree census (the exact coupling)."""
    q = [0] * model.b
    for k, c in census.m.items():
        q[k - 1] = c * model.divisors[k - 1]
    for d, c in census.n_deg.items():
        q[model.b - 1] += c * (model.divisors[model.b - 1] + model.coeffs.bdeg * d)
    return tuple(q)


def node_type_estimates(model: UrnModel, counts) -> dict:
    """Recover the bucket counts N_k from the ball counts.

    For k < b each capacity-k bucket carries exactly divisors[k-1] balls.
    Type-b balls also carry the degree weights, but the total edge count
    is the node count minus one, which closes the system.  One count
    vector gives exact Fractions; a (replicates, b) array gives one float
    column per type.
    """
    if np.ndim(counts) == 2:
        cols = list(np.asarray(counts, dtype=float).T)
    else:
        cols = [Fraction(c) for c in counts]
    bdeg, b = model.coeffs.bdeg, model.b
    est = {k: cols[k - 1] / model.divisors[k - 1] for k in range(1, b)}
    rest = sum(est.values())
    est[b] = (cols[b - 1] - bdeg * rest + bdeg) / (model.divisors[b - 1] + bdeg)
    return est


# ---------------------------------------------------------------------------
# spectrum


def char_poly(model: UrnModel) -> list[Fraction]:
    """det(R - lambda I) of the replacement matrix, ascending coefficients.

    Computed by Faddeev-LeVerrier on the integer matrix: every M_k and
    every coefficient c_k = -tr(R M_k) / k of an integer matrix is an
    integer, so the loop runs on ints and a remainder in that division
    raises ArithmeticError.  No use is made of the sparsity, so this is an
    independent check of the closed form.
    """
    b = model.b
    coeffs = [0] * b + [1]
    m = [[int(i == j) for j in range(b)] for i in range(b)]
    for k in range(1, b + 1):
        am = [[sum(map(mul, row, col)) for col in zip(*m)] for row in model.replacement]
        c, rem = divmod(-sum(am[i][i] for i in range(b)), k)
        if rem:
            raise ArithmeticError(f"trace of R M_{k} is not divisible by {k}")
        coeffs[b - k] = c
        for i in range(b):
            am[i][i] += c
        m = am
    # coeffs give det(lambda I - R); flip sign for det(R - lambda I) when b is odd
    sign = -1 if b % 2 else 1
    return [Fraction(sign * c) for c in coeffs]


def char_poly_closed(model: UrnModel) -> list[Fraction]:
    """det(R - lambda I) in closed form, ascending coefficients: the indicial
    polynomial under the affine map, (-1)^b a^b p((lambda + c) / a).

    The coefficients of (-1)^b a^b p(x / a) are taken by Horner in
    x = lambda + c.
    """
    a, c, b = model.coeffs.a, model.coeffs.c, model.b
    p = indicial_coeffs(b, family_kappa(model.spec))
    sign = -1 if b % 2 else 1
    poly = []
    for k in range(b, -1, -1):  # poly <- poly * (lambda + c) + the x^k coefficient
        poly = [lower + c * same for lower, same in zip([0] + poly, poly + [0])]
        poly[0] += sign * a ** (b - k) * p[k]
    return poly


@dataclass(frozen=True)
class UrnSpectrum:
    char_coeffs: tuple       # exact, ascending
    eigenvalues: tuple       # complex, sorted by (-Re, -Im); a * lambda_ind - c
    principal: Fraction      # equals the balance a


def urn_spectrum(model: UrnModel) -> UrnSpectrum:
    spec, gc = model.spec, model.coeffs
    coeffs = char_poly_closed(model)
    roots = family_roots(spec)
    eigs = tuple(gc.a * lam - gc.c for lam in roots.roots)
    principal = gc.a * (1 + family_kappa(spec)) - gc.c
    if principal != gc.a:
        raise AssertionError("principal eigenvalue does not equal the balance")
    return UrnSpectrum(tuple(coeffs), eigs, Fraction(gc.a))

