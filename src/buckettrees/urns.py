"""Pólya urns tracking the bucket types of a growing tree.

Ball type k carries the total attraction weight of capacity-k buckets, in
the denominator-cleared integer form, so drawing a ball is exactly the
growth step and the urn is balanced with balance a.  `urn_model` is the
one definition of the urn (initial counts, replacement rows, divisors and
growth coefficients): the vectorized kernel in `montecarlo` steps with its
rows, and the exact recursion `dist_k.mean_type_masses` takes the mean
of the same step.  The replacement matrix is sparse (a shifted cycle),
which makes its characteristic polynomial a two-term product and ties its
eigenvalues to the indicial roots by the affine map
lambda_urn = a * lambda_ind - c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .families import FamilySpec, GrowthCoeffs, kappa as family_kappa
from .grow import _as_rng, _draw_dtype
from .spectral import family_roots
from .trees import NodeCensus


@dataclass(frozen=True)
class UrnModel:
    spec: FamilySpec
    b: int
    replacement: tuple      # b x b integer matrix; row = type drawn
    initial: tuple          # ball counts at tree size 1
    divisors: tuple         # weight of one capacity-k bucket, k = 1..b
    coeffs: GrowthCoeffs    # the growth rule the urn draws with

    @property
    def balance(self) -> int:
        """Every row sums to this."""
        return self.coeffs.a

    def total(self, n: int) -> int:
        return self.coeffs.total(n)


def urn_model(spec: FamilySpec) -> UrnModel:
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


def build_urn(spec: FamilySpec) -> UrnModel:
    """The urn of a named family with at least two bucket types."""
    families.require_named(spec)
    if spec.b < 2:
        raise ValueError("the urn needs at least two bucket types (b >= 2)")
    return urn_model(spec)


@dataclass
class UrnTrajectory:
    model: UrnModel
    draws: list            # type index (0-based) drawn at each step
    counts: list           # ball counts after each step, counts[0] = initial

    def final(self) -> tuple:
        return tuple(self.counts[-1])


def simulate_urn(model: UrnModel, steps: int, rng) -> UrnTrajectory:
    """One exact trajectory: `steps` draws starting from tree size 1.

    The totals are deterministic, so all `steps` integers are drawn in one
    call, giving the numbers a draw per step would; each type is then
    picked from the running counts with Python ints.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    gc = model.coeffs
    totals = gc.a * np.arange(1, steps + 1, dtype=np.int64) + gc.total_c
    dtype = _draw_dtype(model.total(steps))
    q = list(model.initial)
    counts = [tuple(q)]
    draws = []
    for u in _as_rng(rng).generator.integers(0, totals, dtype=dtype).tolist():
        k = 0
        while u >= q[k]:
            u -= q[k]
            k += 1
        draws.append(k)
        for i, delta in enumerate(model.replacement[k]):
            q[i] += delta
        counts.append(tuple(q))
    return UrnTrajectory(model, draws, counts)


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


def _poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def char_poly(model: UrnModel) -> list[Fraction]:
    """det(R - lambda I) of the replacement matrix, ascending coefficients.

    Computed by Faddeev-LeVerrier on the exact integer matrix; no use is
    made of the sparsity, so this is an independent check of the closed
    product form.
    """
    b = model.b
    a = [[Fraction(x) for x in row] for row in model.replacement]

    def matmul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(b)) for j in range(b)]
                for i in range(b)]

    coeffs = [Fraction(0)] * (b + 1)
    coeffs[b] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(b)] for i in range(b)]
    for k in range(1, b + 1):
        am = matmul(a, m)
        c = -sum(am[i][i] for i in range(b)) / k
        coeffs[b - k] = c
        for i in range(b):
            am[i][i] += c
        m = am
    # coeffs give det(lambda I - R); flip sign for det(R - lambda I) when b is odd
    if b % 2:
        coeffs = [-c for c in coeffs]
    return coeffs


def char_poly_closed(model: UrnModel) -> list[Fraction]:
    """The closed product form of det(R - lambda I), ascending coefficients:

    (-1)^b [ (lambda - bdeg) prod_{k<b} (lambda + w_k)  -  prod_{k<=b} w_k ]
    """
    w = model.divisors
    poly = [Fraction(-model.coeffs.bdeg), Fraction(1)]
    for k in range(model.b - 1):
        poly = _poly_mul(poly, [Fraction(w[k]), Fraction(1)])
    prod = Fraction(1)
    for k in range(model.b):
        prod *= w[k]
    poly[0] -= prod
    if model.b % 2:
        poly = [-c for c in poly]
    return poly


@dataclass(frozen=True)
class UrnSpectrum:
    model: UrnModel
    char_coeffs: tuple       # exact, ascending
    eigenvalues: tuple       # complex, sorted by (-Re, -Im)
    principal: Fraction      # equals the balance
    affine: tuple            # (a, -c): lambda_urn = a * lambda_ind - c


def urn_spectrum(model: UrnModel) -> UrnSpectrum:
    spec, gc = model.spec, model.coeffs
    coeffs = char_poly_closed(model)
    roots = family_roots(spec)
    eigs = tuple(gc.a * lam - gc.c for lam in roots.roots)
    principal = gc.a * (1 + family_kappa(spec)) - gc.c
    if principal != gc.a:
        raise AssertionError("principal eigenvalue does not equal the balance")
    return UrnSpectrum(model, tuple(coeffs), eigs, Fraction(gc.a), (gc.a, -gc.c))


def numeric_eigenvalues(model: UrnModel) -> list[complex]:
    """Eigenvalues of the replacement matrix by plain dense linear algebra."""
    eigs = np.linalg.eigvals(np.array(model.replacement, dtype=float))
    return sorted((complex(z) for z in eigs), key=lambda z: (-z.real, -z.imag))
