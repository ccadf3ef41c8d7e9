"""Vectorized Monte Carlo samplers for large-sample statistics.

The tree-valued sampler in `grow` is exact but one replicate at a time.
For goodness-of-fit experiments with 1e5 - 1e6 replicates we instead
simulate the minimal sufficient state across all replicates at once:
the bucket-type ball counts for K and the urns, and the root degree for
b = 1.  Y given K is a Beta-Binomial draw.  All are exact projections of
the growth process.

Each step makes one vectorized integer draw below the deterministic total
and then only column-wise array work: the ball counts are kept as b - 1
cumulative-count columns (the type drawn is the number of columns at or
below the draw), and the root degree as the root's weight.  Draws are made
in int32 while the total is below 2**31, where numpy gives the same
integers as in int64.
"""

from __future__ import annotations

import numpy as np

from . import families, urns
from .families import FamilySpec
from .grow import _as_rng, _draw_dtype


def _ball_dynamics(spec: FamilySpec, n: int, size: int, rng) -> tuple:
    """Run the type dynamics to tree size n for `size` replicates.

    Returns (counts, last_type): the integer ball counts at size n and the
    0-based type drawn on the final step (or -1 when n == 1).

    The state is b - 1 columns of cumulative counts q_0 + ... + q_k; the
    last one would be the deterministic total, so it is not kept.  A draw
    u below the total picks the type sum_k [u >= cum_k], and drawing type
    t adds row t of the cumulative replacement matrix to the columns.
    Counts are rebuilt from the columns once, at the end.
    """
    model = urns.urn_model(spec)
    dtype = _draw_dtype(model.total(n))
    gen = _as_rng(rng).generator
    cum_rows = np.cumsum(model.replacement, axis=1, dtype=dtype).T
    cum = [np.full(size, c, dtype) for c in np.cumsum(model.initial)[:-1]]
    drawn = -1
    for s in range(1, n):
        u = gen.integers(0, model.total(s), size=size, dtype=dtype)
        drawn = sum(u >= c for c in cum)
        for c, row in zip(cum, cum_rows):
            c += row[drawn]
    cum.append(np.full(size, model.total(n), dtype))
    counts = np.diff(np.column_stack(cum).astype(np.int64), axis=1, prepend=0)
    return counts, np.full(size, drawn, dtype=np.int64)


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
    if n < 1:
        raise ValueError("n must be >= 1")
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

    With b = 1 the root is always saturated, so its integer weight
    w = node_weight(1, degree) is the only state: at size s a draw below
    total(s) attaches to the root when it is below w, which adds bdeg to
    w.  The degree is read back from w at the end.  When bdeg = 0
    (recursive) w is constant and the hits are counted directly.
    """
    families.require_named(spec)
    if spec.b != 1:
        raise ValueError("root-degree kernel is for b = 1 families")
    if n < 1:
        raise ValueError("n must be >= 1")
    gc = families.growth_coeffs(spec)
    dtype = _draw_dtype(gc.total(n))
    gen = _as_rng(rng).generator
    w0 = gc.node_weight(1, 0)
    if gc.bdeg == 0:
        deg = np.zeros(size, dtype=dtype)
        for s in range(1, n):
            deg += gen.integers(0, gc.total(s), size, dtype=dtype) < w0
        return deg.astype(np.int64)
    w = np.full(size, w0, dtype=dtype)
    bdeg = dtype(gc.bdeg)
    for s in range(1, n):
        w += (gen.integers(0, gc.total(s), size, dtype=dtype) < w) * bdeg
    return (w.astype(np.int64) - w0) // gc.bdeg
