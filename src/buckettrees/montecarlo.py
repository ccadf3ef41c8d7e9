"""Vectorized Monte Carlo samplers for large-sample statistics.

The tree-valued sampler in `grow` is exact but one replicate at a time.
For goodness-of-fit experiments with 1e5 - 1e6 replicates we instead
simulate the minimal sufficient state across all replicates at once:
the bucket-type ball counts for K and the urns, and the root degree for
b = 1.  Y given K is a Beta-Binomial draw.  All are exact projections of
the growth process.
"""

from __future__ import annotations

import numpy as np

from . import families, urns
from .families import FamilySpec
from .grow import _as_rng


def _ball_dynamics(spec: FamilySpec, n: int, size: int, rng) -> tuple:
    """Run the type dynamics to tree size n for `size` replicates.

    Returns (counts, last_type): the integer ball counts at size n and the
    0-based type drawn on the final step (or -1 when n == 1).
    """
    model = urns.urn_model(spec)
    rows = np.array(model.replacement, dtype=np.int64)
    stream = _as_rng(rng)
    counts = np.tile(np.array(model.initial, dtype=np.int64), (size, 1))
    last = np.full(size, -1, dtype=np.int64)
    for s in range(1, n):
        u = stream.generator.integers(0, model.total(s), size=size)
        drawn = (u[:, None] >= np.cumsum(counts, axis=1)).sum(axis=1)
        counts += rows[drawn]
        last = drawn
    return counts, last


def sample_K(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of K_n (exact distribution)."""
    families.require_named(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or spec.b == 1:
        return np.ones(size, dtype=np.int64)
    _, last = _ball_dynamics(spec, n, size, rng)
    k = last + 2  # drawing capacity k < b makes a bucket of size k + 1
    k[last == spec.b - 1] = 1  # drawing a saturated bucket starts a new one
    return k


def sample_urn_counts(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of the urn ball counts at tree size n."""
    counts, _ = _ball_dynamics(spec, n, size, rng)
    return counts


def sample_Y(spec: FamilySpec, n: int, j: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of Y_{n,j}.

    K_j = ell is drawn first with the ball-count kernel.  Given ell, j's
    subtree grows as a two-colour Pólya urn, so Y - 1 is BetaBinomial(n - j,
    ell + kappa, j - ell): a Beta(ell + kappa, j - ell) success probability,
    then a Binomial(n - j) count.  The law is exact; only the Beta variate
    is a floating-point draw.
    """
    families.require_named(spec)
    if not 1 <= j <= n:
        raise ValueError(f"label j={j} outside 1..{n}")
    stream = _as_rng(rng)
    if j <= spec.b:
        return np.full(size, n + 1 - j, dtype=np.int64)
    kap = float(families.kappa(spec))
    ell = sample_K(spec, j, size, stream.child(0))
    gen = stream.child(1).generator
    return 1 + gen.binomial(n - j, gen.beta(ell + kap, j - ell))


def sample_root_degree(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` copies of the root out-degree for b = 1 families.

    With b = 1 the root is always saturated, so its degree is the only
    state needed: at size s it attracts with the integer weight
    node_weight(1, degree) out of total(s), drawn as an integer.
    """
    if spec.b != 1:
        raise ValueError("root-degree kernel is for b = 1 families")
    gc = families.growth_coeffs(spec)
    gen = _as_rng(rng).generator
    deg = np.zeros(size, dtype=np.int64)
    for s in range(1, n):
        deg += gen.integers(0, gc.total(s), size) < gc.node_weight(1, deg)
    return deg
