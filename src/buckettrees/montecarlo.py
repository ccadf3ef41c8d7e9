"""Vectorized Monte Carlo samplers for large-sample statistics.

The tree-valued sampler in `grow` is exact but one replicate at a time.
For goodness-of-fit experiments with 1e5 - 1e6 replicates we instead
simulate the minimal sufficient state across all replicates at once:
the bucket-type ball counts for K and the urns, and the root degree for
b = 1.  Y given K is a Beta-Binomial draw.  All follow the exact law of
the growth process; the Beta draw and the root degree's waiting times
are floating-point inversions.

The ball-count kernel makes one vectorized integer draw below the
deterministic total per step and then only column-wise array work: the
counts are kept as b - 1 cumulative-count columns, and the type drawn is
the number of columns at or below the draw.  Draws are made in int32
while the total is below 2**31, where numpy gives the same integers as in
int64.  The root-degree kernel draws one exponential per root hit and
jumps to the next hit through a hazard table, so it never steps the
labels that miss the root.
"""

from __future__ import annotations

import numpy as np

from . import families, urns
from .families import FamilySpec
from .grow import _as_rng, _check_draw_bound, _draw_dtype
from .trees import check_count


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
    model = urns.build_urn(spec)
    _check_draw_bound(model.total(n), spec, f"at step {n}")
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
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    if n == 1 or spec.b == 1:
        return np.ones(size, dtype=np.int64)
    _, last = _ball_dynamics(spec, n, size, rng)
    k = last + 2  # drawing capacity k < b makes a bucket of size k + 1
    k[last == spec.b - 1] = 1  # drawing a saturated bucket starts a new one
    return k


def sample_urn_counts(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of the urn ball counts at tree size n."""
    n, size = check_count(n, "n"), check_count(size, "size", 0)
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
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    j = check_count(j, "label j", 1, n)
    stream = _as_rng(rng)
    if j <= spec.b:
        return np.full(size, n + 1 - j, dtype=np.int64)
    kap = float(families.kappa(spec))
    ell = sample_K(spec, j, size, stream.child(0))
    gen = stream.child(1).generator
    return 1 + gen.binomial(n - j, gen.beta(ell + kap, j - ell))


def sample_root_degree(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` copies of the root out-degree for b = 1 families.

    With b = 1 the root is always saturated, so at degree d it weighs
    w_d = node_weight(1, d) against the deterministic total T_s, and step
    1 always hits it, since it is the only bucket.  The kernel jumps from
    one root hit to the next instead of stepping every label.  In round d
    every live copy has degree d, so one hazard table serves them all:
    H(t) = sum over s in (lo, t] of -log(1 - w_d / T_s), from the least
    step lo a live copy has reached.  A copy at step `at` draws
    E = -log U as a standard exponential and hits next at the first t with
    H(t) > H(at) + E: its waiting time inverted from the exact survival
    function exp(-(H(t) - H(at))).  A copy whose next hit falls past
    step n - 1 keeps degree d.  The rounds end when no copy is live or
    w_d <= 0 (a full `ary` root).  The law is exact; only each gap is
    inverted in double precision.
    """
    families.require_named(spec)
    if spec.b != 1:
        raise ValueError("root-degree kernel is for b = 1 families")
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    gc = families.growth_coeffs(spec)
    gen = _as_rng(rng).generator
    deg = np.zeros(size, dtype=np.int64)
    if n == 1:
        return deg
    live = np.arange(size)
    at = np.ones(size, dtype=np.int64)  # steps taken, the last one a hit
    d = 1
    while live.size and (w := gc.node_weight(1, d)) > 0:
        lo = int(at.min())
        totals = gc.a * np.arange(lo + 1, n, dtype=np.float64) + gc.total_c
        hazard = np.concatenate(([0.0], np.cumsum(-np.log1p(-w / totals))))
        target = hazard[at - lo] + gen.standard_exponential(live.size)
        # sorted keys search several times faster; live follows the order
        order = np.argsort(target)
        live = live[order]
        at = lo + np.searchsorted(hazard, target[order], side="right")
        hit = at < n
        deg[live[~hit]] = d
        live, at = live[hit], at[hit]
        d += 1
    deg[live] = d
    return deg
